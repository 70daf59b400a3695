"""Spans around the public calls into nfdetect's modules.

The benchmark records spans from its own code only: it wraps the
functions it calls, the functions the harness looks up in its module,
``solvers.inexact_step`` and ``mle.covariance_matrix``, and the solver
state methods through subclasses handed to or looked up by ``solve``.
No span sits inside the package; calls that never cross one of these
boundaries (such as ``BlockState``'s internal recomputes) are not seen.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from time import perf_counter
from unittest import mock

from nfdetect import harness, lowrank, mle, population, solvers, synthesis
from nfdetect.mle import StepKernel


class Tracer:
    """Spans aggregated per name: call count, inclusive and self seconds.

    A span's self time is its duration minus the time of the spans that
    opened and closed inside it, so nested layers are not counted twice.
    Spans are aggregated as they close instead of being stored, which keeps
    the cost per span to two clock reads and a few list operations.
    """

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.update_bytes = 0
        self._open_child_time: list[float] = []

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._open_child_time

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                span[0] += 1
                span[1] += dt
                span[2] += dt - inner
        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def mean(self, name: str) -> float:
        n = self.calls(name)
        return self.total(name) / n if n else 0.0

    def self_share(self, name: str) -> float:
        total = self.total(name)
        return self.self_time(name) / total if total else 0.0

    # -- traced stand-ins for the package's public names ---------------

    def state_class(self, base, layer: str):
        """Subclass of a solver state whose public methods record spans."""
        kernel_cls = type("TracedStepKernel", (StepKernel,), {
            "objective_delta": self.wrap("mle.objective_delta",
                                         StepKernel.objective_delta)})
        base_kernel = self.wrap(f"{layer}.kernel", base.kernel)
        base_update = self.wrap(f"{layer}.update", base.apply_update)
        tracer = self

        def kernel(state, j):
            k = base_kernel(state, j)
            k.__class__ = kernel_cls
            return k

        def apply_update(state, j, d):
            if layer == "mle":
                # one read and one write of the dense complex128 inverse
                tracer.update_bytes += 32 * state.pop.signal_dim ** 2
            return base_update(state, j, d)

        return type(f"Traced{base.__name__}", (base,), {
            "__init__": self.wrap(f"{layer}.state_init", base.__init__),
            "kernel": kernel,
            "apply_update": apply_update,
            "gradient": self.wrap(f"{layer}.gradient", base.gradient),
            "objective": self.wrap(f"{layer}.objective", base.objective),
        })

    @contextmanager
    def installed(self):
        """Route the package's internal lookups through traced wrappers."""
        with ExitStack() as stack:
            for module, attr, name in (
                    (harness, "sample_truth", "synthesis.truth"),
                    (harness, "synthesize_signal", "synthesis.signal"),
                    (solvers, "inexact_step", "solvers.step"),
                    (mle, "covariance_matrix", "mle.recompute")):
                stack.enter_context(mock.patch.object(
                    module, attr, self.wrap(name, getattr(module, attr))))
            stack.enter_context(mock.patch.object(
                solvers, "FullState", self.state_class(mle.FullState, "mle")))
            yield


# Public calls a workload makes itself, with the span name each records.
CALLS = {
    "run_experiment": ("harness.run_experiment", harness.run_experiment),
    "build_population": ("population.build", population.build_population),
    "build_basis": ("lowrank.basis", lowrank.build_basis),
    "transform_problem": ("lowrank.transform_problem",
                          lowrank.transform_problem),
    "transform_signal": ("lowrank.transform_signal",
                         lowrank.transform_signal),
    "sample_truth": ("synthesis.truth", synthesis.sample_truth),
    "synthesize_signal": ("synthesis.signal", synthesis.synthesize_signal),
    "solve": ("solvers.solve", solvers.solve),
}


class Library:
    """The package calls a workload makes, traced or plain."""

    def __init__(self, tracer: Tracer | None = None):
        for attr, (name, fn) in CALLS.items():
            setattr(self, attr, tracer.wrap(name, fn) if tracer else fn)
        self.BlockState = (tracer.state_class(lowrank.BlockState, "lowrank")
                           if tracer else lowrank.BlockState)
