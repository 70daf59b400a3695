"""Workloads, output checks and metrics of the nfdetect benchmark.

A run repeats *chunks* of one workload until the time spent inside chunks
reaches ``--seconds``.  Chunk ``k`` draws every input from
``SeedSequence([seed, k])``, so a seed fixes the inputs of every chunk.
Each solve is checked after its chunk, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  Before every chunk it also
times extra set-ups and, where the workload names one, runs a fixed speed
probe, both outside the timed region.  ``--trace 1`` runs the
chunks of a half-length untraced pass again with spans installed, checks
that both passes give bit-identical results, and prints the per-layer
metrics of the traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter
from unittest import mock

import numpy as np
import scipy

import nfdetect
from nfdetect import harness
from nfdetect.harness import (ExperimentPlan, error_probability, render_csv,
                              report_rows, threshold_grid)
from nfdetect.mle import FullState, NumericalFailure
from nfdetect.population import ScenarioConfig
from nfdetect.solvers import SolveOptions

from tracing import Library, Tracer

DEFAULT_SEED = 20241108
# The reported final vnorm comes from the solver's maintained inverse and
# the rebuilt one from a fresh inverse; they must agree to this fraction of
# epsilon, so that the convergence decision rests on the true vnorm.
VNORM_TOL = 1e-3


# -- workloads -------------------------------------------------------------

class HarnessWorkload:
    """A plan run through ``harness.run_experiment``, one plan per chunk.

    With ``rerun_csv``, an untraced run repeats chunk 0 after the timed pass
    and requires the same CSV bytes; it is set only where a chunk is cheap.
    ``probe`` is the ``SpeedProbe`` that the gated sweep time is scaled by,
    as ``(dim, updates, ref_s)``; it is set only where a probe was found to
    track the workload's sweep times.
    """

    def __init__(self, plan: ExperimentPlan, rerun_csv: bool,
                 probe: tuple | None = None):
        self.plan = plan
        self.rerun_csv = rerun_csv
        self.probe = probe
        self.epsilon = plan.epsilon

    def set_up(self, seed: int, lib: Library) -> float:
        """Seconds to build the populations that a plan with ``seed`` builds."""
        plan = self.plan
        t0 = perf_counter()
        for i, point in enumerate(plan.sweep_points):
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            lib.build_population(plan.point_config(point),
                                 np.random.default_rng(seq.spawn(1)[0]))
        return perf_counter() - t0

    def run_chunk(self, chunk_seed: int, lib: Library, rec: "Recorder"):
        with rec.recording_harness(lib):
            reports = lib.run_experiment(replace(self.plan, seed=chunk_seed))
        rec.end_chunk(csv=render_csv(*report_rows(
                          reports, self.plan.sweep_variable)),
                      errors=[r.error_probability for r in reports])


class BlockWorkload:
    """Trials driven through the ``lowrank`` public path, one population
    and ``trials`` signals per chunk."""

    def __init__(self, cfg: ScenarioConfig, options: SolveOptions,
                 trials: int):
        self.cfg = cfg
        self.options = options
        self.trials = trials
        self.rerun_csv = False
        self.probe = None
        self.epsilon = options.epsilon

    def set_up(self, seed: int, lib: Library) -> float:
        """Seconds of population, basis and transform for one chunk seed."""
        pop_seed, trial_seed = np.random.SeedSequence(seed).spawn(2)
        t0 = perf_counter()
        pop = lib.build_population(self.cfg, np.random.default_rng(pop_seed))
        basis = lib.build_basis(pop, self.cfg.n_correlated)
        setup = perf_counter() - t0
        y = self._signal(pop, trial_seed, lib)[0]
        t0 = perf_counter()
        lib.transform_problem(pop, y, basis)
        return setup + perf_counter() - t0

    def _signal(self, pop, trial_seed, lib: Library):
        rng = np.random.default_rng(trial_seed)
        truth = lib.sample_truth(self.cfg.n_devices, self.cfg.n_active,
                                 rng=rng)
        return lib.synthesize_signal(pop, truth, rng).y, truth, rng

    def run_chunk(self, chunk_seed: int, lib: Library, rec: "Recorder"):
        cfg = self.cfg
        pop_seed, *trial_seeds = np.random.SeedSequence(chunk_seed).spawn(
            self.trials + 1)
        pop = lib.build_population(cfg, np.random.default_rng(pop_seed))
        basis = lib.build_basis(pop, cfg.n_correlated)
        problem = None
        scores, masks = [], []
        for trial_seed in trial_seeds:
            y, truth, rng = self._signal(pop, trial_seed, lib)
            if problem is None:
                problem, y_prime = lib.transform_problem(pop, y, basis)
            else:
                y_prime = lib.transform_signal(y, basis, pop.seq_len)
            t0 = perf_counter()
            result = lib.solve(pop, y_prime, self.options, rng=rng,
                               state=lib.BlockState(problem, y_prime))
            rec.add_solve(perf_counter() - t0, pop, y, result)
            mask = np.zeros(cfg.n_devices, dtype=bool)
            mask[list(truth.active_set)] = True
            scores.append(result.a)
            masks.append(mask)
        rec.end_chunk(csv=None, errors=[crossing_error(scores, masks)])


def crossing_error(scores, masks) -> float:
    """PM = PF error probability of one point's trials, as in run_point."""
    grid = threshold_grid()
    pm = np.mean([np.mean(s[m][:, None] <= grid, axis=0)
                  for s, m in zip(scores, masks)], axis=0)
    pf = np.mean([np.mean(s[~m][:, None] > grid, axis=0)
                  for s, m in zip(scores, masks)], axis=0)
    return error_probability(grid, pm, pf)[0]


# Sizes and plans are fixed by the benchmark; only the seed varies.  A chunk
# is kept short (one plan, or one population) so that a run overshoots
# --seconds by little.
WORKLOADS = {
    # test_11(a): tiny matrices (LM 48-144), sweeps capped at 25 by low SNR
    "trend_small": lambda: HarnessWorkload(ExperimentPlan(
        base=dict(n_devices=40, n_active=4, seq_len=10, antenna_count=8,
                  n_scatterers=4, channel_case="rician", power_dbm=-112),
        sweep_variable="seq_len",
        sweep_points=tuple({"seq_len": l} for l in (6, 10, 14, 18)),
        trials=2, solver="inexact", max_sweeps=25,
        workers=1), rerun_csv=True, probe=(96, 200, 0.016)),
    # dense inverse maintenance at LM = 640
    "dense640": lambda: HarnessWorkload(ExperimentPlan(
        base=dict(n_devices=60, n_active=6, seq_len=20, antenna_count=32,
                  channel_case="rician"),
        trials=1, solver="inexact", max_sweeps=50,
        workers=1), rerun_csv=False),
    # block-diagonal state: 10 correlated devices out of 100, M = 64
    "block_lowrank": lambda: BlockWorkload(
        ScenarioConfig(n_devices=100, n_active=10, seq_len=10,
                       antenna_count=64, n_correlated=10, n_scatterers=2,
                       channel_case="rician"),
        SolveOptions(solver="inexact", max_sweeps=50), trials=2),
}


# Set-ups timed before every chunk, so that setup_s is a median of more
# than the few chunks a run of dense640 or block_lowrank holds.  Each is the
# best of SETUP_REPEATS runs on one seed: bursts on the shared host slow
# single set-ups by up to half, while the best of a few is steady.
SETUPS_PER_CHUNK = 2
SETUP_REPEATS = 3


# -- host speed ------------------------------------------------------------

# Time the speed probe runs between chunks, as a share of the chunk before.
PROBE_SHARE = 0.1


class SpeedProbe:
    """Fixed reference work, timed between chunks to measure host speed.

    The shared host's speed drifts by tens of percent over minutes, more
    than a run can average out.  The probe repeats ``updates`` rank-2
    Woodbury updates of a fixed ``dim`` x ``dim`` complex inverse, the
    calls the solver states spend their time in, at the size of the
    workload's inverses.  ``ref_s`` is its median time on the reference
    host of NOTES.md.  Its inputs do not depend on the seed and its code is
    the benchmark's own, so a change to the package cannot move it.
    """

    def __init__(self, dim: int, updates: int, ref_s: float):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim))
        self.inv = np.linalg.inv(a @ a.conj().T / dim + np.eye(dim))
        self.x = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal(
            (dim, 2))
        self.updates = updates
        self.ref_s = ref_s
        self.times: list[float] = []

    def run(self, seconds: float):
        """Time at least five probes and keep going for ``seconds``."""
        x = self.x
        start = perf_counter()
        reps = 5
        while reps > 0 or perf_counter() - start < seconds:
            t0 = perf_counter()
            inv = self.inv.copy()
            for _ in range(self.updates):
                b = inv @ x
                c = np.eye(2) + 1e-3 * (x.conj().T @ b)
                inv -= 1e-3 * (b @ np.linalg.solve(c, b.conj().T))
                inv = 0.5 * (inv + inv.conj().T)
            self.times.append(perf_counter() - t0)
            reps -= 1

    def median_s(self) -> float:
        return statistics.median(self.times)

    def scale(self) -> float:
        """Factor that turns this run's times into reference-host times."""
        return self.ref_s / self.median_s()


# -- one pass over the chunks ----------------------------------------------

@dataclass
class SolveRecord:
    """What is kept of one solve once its output check has run."""

    seconds: float
    sweeps: int
    sweep_seconds: list
    converged: bool
    final_vnorm: float
    final_objective: float
    a_hash: str
    vnorm_drift: float
    ok: bool


@dataclass
class Recorder:
    """Timed solves, set-up times and chunk outputs of one pass."""

    epsilon: float
    check: bool
    solves: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    csvs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    pending: list = field(default_factory=list)
    chunk_seconds: float = 0.0
    chunks: int = 0

    def add_solve(self, seconds, pop, y, result):
        self.pending.append((seconds, pop, y, result))

    def end_chunk(self, csv, errors):
        if csv is not None:
            self.csvs.append(csv)
        self.errors.extend(errors)

    @contextmanager
    def recording_harness(self, lib: Library):
        """Time the solves that run_point makes; route its calls to ``lib``."""

        def timed_solve(pop, y, options=None, rng=None, **kwargs):
            t0 = perf_counter()
            result = lib.solve(pop, y, options, rng=rng, **kwargs)
            self.add_solve(perf_counter() - t0, pop, y, result)
            return result

        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(harness, "solve",
                                                  timed_solve))
            stack.enter_context(mock.patch.object(harness, "build_population",
                                                  lib.build_population))
            yield

    def finish_chunk(self):
        """Check and summarise the chunk's solves, then drop their inputs."""
        for seconds, pop, y, result in self.pending:
            durations = np.diff([0.0] + [t["elapsed_s"]
                                         for t in result.trace]).tolist()
            drift, ok = (check_solve(pop, y, result, self.epsilon)
                         if self.check else (0.0, True))
            self.solves.append(SolveRecord(
                seconds=seconds, sweeps=result.sweeps,
                sweep_seconds=durations, converged=result.converged,
                final_vnorm=result.final_vnorm,
                final_objective=(result.trace[-1]["objective"]
                                 if result.trace else float("nan")),
                a_hash=hashlib.sha256(result.a.tobytes()).hexdigest(),
                vnorm_drift=drift, ok=ok))
        self.pending.clear()


def check_solve(pop, y, result, epsilon: float) -> tuple[float, bool]:
    """Rebuild a dense state at the solution and compare with the report.

    Returns the vnorm drift, |reported - rebuilt| / epsilon, and whether
    the solve passes.
    """
    a = result.a
    if result.diverged or result.final_vnorm is None:
        return float("nan"), False
    if not (np.all(np.isfinite(a)) and a.min() >= 0.0 and a.max() <= 1.0):
        return float("nan"), False
    try:
        state = FullState(pop, y, a0=a)
        state.objective()
        _, vnorm = state.optimality()
    except (NumericalFailure, np.linalg.LinAlgError):
        return float("nan"), False
    drift = abs(vnorm - result.final_vnorm) / epsilon
    flag_ok = result.converged == (vnorm <= epsilon) or \
        abs(vnorm - epsilon) <= VNORM_TOL * epsilon
    return drift, drift <= VNORM_TOL and flag_ok


def run_pass(workload, seed: int, seconds: float | None = None,
             chunks: int | None = None, tracer: Tracer | None = None,
             check: bool = True, setups: bool = False,
             probe: SpeedProbe | None = None) -> Recorder:
    """Run chunks 0, 1, ... until ``seconds`` of chunk time or ``chunks``.

    With ``setups``, the pass times SETUPS_PER_CHUNK set-ups before every
    chunk, each the best of SETUP_REPEATS, after one untimed warm-up.  With
    a ``probe``, it runs the probe before every chunk and after the last,
    for PROBE_SHARE of the chunk before.  Both stay outside the timed region
    and sample the host through the whole run.
    """
    lib = Library(tracer)
    rec = Recorder(epsilon=workload.epsilon, check=check)
    if setups:
        workload.set_up(seed_of(seed, 0, SETUPS_PER_CHUNK + 1), lib)
    k, chunk_s = 0, 0.0
    with tracer.installed() if tracer else ExitStack():
        while (k < chunks) if chunks is not None else \
                (k == 0 or rec.chunk_seconds < seconds):
            if probe is not None:
                probe.run(PROBE_SHARE * chunk_s)
            if setups:
                rec.setups.extend(
                    min(workload.set_up(seed_of(seed, k, i), lib)
                        for _ in range(SETUP_REPEATS))
                    for i in range(1, SETUPS_PER_CHUNK + 1))
            t0 = perf_counter()
            workload.run_chunk(seed_of(seed, k), lib, rec)
            chunk_s = perf_counter() - t0
            rec.chunk_seconds += chunk_s
            rec.finish_chunk()
            k += 1
    if probe is not None:
        probe.run(PROBE_SHARE * chunk_s)
    rec.chunks = k
    return rec


def seed_of(*key: int) -> int:
    """Package seed for chunk ``(seed, k)`` or extra set-up ``(seed, k, i)``."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


# -- metrics ---------------------------------------------------------------

def percentile(values, q: int):
    """q-th percentile, or None with fewer than 10 samples beyond it."""
    if len(values) * (100 - q) < 1000:
        return None
    return float(np.percentile(values, q))


def solve_sweep_s(rec: Recorder) -> list:
    """Each solve's mean sweep time: its sweeps' wall time over their count.

    Taking the median of these per solve, not over all sweeps, keeps one
    solve that runs to the sweep cap (many cheap late sweeps) from
    outweighing the rest of a run.
    """
    return [sum(r.sweep_seconds) / len(r.sweep_seconds)
            for r in rec.solves if r.sweep_seconds]


def end_to_end(rec: Recorder, probe: SpeedProbe | None) -> dict:
    """Gated metrics; with a probe, sweeps at the reference host's speed."""
    scale = probe.scale() if probe else 1.0
    return {
        "setup_s": (statistics.median(rec.setups), "s"),
        "sweep_ms": (1e3 * scale * statistics.median(solve_sweep_s(rec)),
                     "ms"),
    }


def outcome_report(rec: Recorder) -> dict:
    """Answer quality and raw wall times, printed beside the metrics."""
    n = len(rec.solves)
    solve_s = [r.seconds for r in rec.solves]
    sweeps = [s for r in rec.solves for s in r.sweep_seconds]
    per_solve = solve_sweep_s(rec)
    p90 = percentile(solve_s, 90)
    sweep_p90 = percentile(per_solve, 90)
    return {
        "solves_per_s": (n / rec.chunk_seconds, "1/s"),
        "solve_s_p50": (statistics.median(solve_s), "s"),
        "solve_s_p90": (p90, "s"),
        "sweeps_per_s": (len(sweeps) / rec.chunk_seconds, "1/s"),
        "sweep_ms_raw_p50": (1e3 * statistics.median(per_solve), "ms"),
        "sweep_ms_raw_p90": (None if sweep_p90 is None else 1e3 * sweep_p90,
                             "ms"),
        "converged_frac": (sum(r.converged for r in rec.solves) / n, "1"),
        "failed_frac": (sum(not r.ok for r in rec.solves) / n, "1"),
        "vnorm_drift_max": (
            float(np.nanmax([r.vnorm_drift for r in rec.solves])), "epsilon"),
        "error_probability": (float(np.mean(rec.errors)), "1"),
        "solves": (n, "count"),
        "sweeps": (len(sweeps), "count"),
        "setups": (len(rec.setups), "count"),
        "chunks": (rec.chunks, "count"),
        "timed_s": (rec.chunk_seconds, "s"),
    }


def per_layer(tracer: Tracer, rec: Recorder, overhead: float) -> dict:
    t = tracer
    n = len(rec.solves)
    ms, us = 1e3, 1e6

    def zero_step_frac(layer):
        kernels = t.calls(f"{layer}.kernel")
        return 1.0 - t.calls(f"{layer}.update") / kernels if kernels else 0.0

    lowrank_setup = t.total("lowrank.basis") + \
        t.total("lowrank.transform_problem")
    return {
        "mle.update_ms": (ms * t.mean("mle.update"), "ms"),
        "mle.update_calls": (t.calls("mle.update") / n, "1/solve"),
        "mle.update_bytes_computed": (t.update_bytes / n, "B/solve"),
        "mle.kernel_us": (us * t.mean("mle.kernel"), "us"),
        "mle.kernel_calls": (t.calls("mle.kernel") / n, "1/solve"),
        "mle.zero_step_frac": (zero_step_frac("mle"), "1"),
        "mle.gradient_ms": (ms * t.mean("mle.gradient"), "ms"),
        "mle.objective_delta_us": (us * t.mean("mle.objective_delta"), "us"),
        "mle.state_init_ms": (ms * t.mean("mle.state_init"), "ms"),
        "mle.recompute_calls": (t.calls("mle.recompute") / n, "1/solve"),
        "solvers.step_us": (us * t.mean("solvers.step"), "us"),
        "solvers.self_share": (t.self_share("solvers.solve"), "1"),
        "solvers.sweeps_per_solve": (
            sum(r.sweeps for r in rec.solves) / n, "1/solve"),
        "solvers.final_vnorm_p50": (
            statistics.median(r.final_vnorm for r in rec.solves), "1"),
        "solvers.final_objective_mean": (
            float(np.mean([r.final_objective for r in rec.solves])), "1"),
        "lowrank.kernel_us": (us * t.mean("lowrank.kernel"), "us"),
        "lowrank.kernel_calls": (t.calls("lowrank.kernel") / n, "1/solve"),
        "lowrank.update_ms": (ms * t.mean("lowrank.update"), "ms"),
        "lowrank.update_calls": (t.calls("lowrank.update") / n, "1/solve"),
        "lowrank.gradient_ms": (ms * t.mean("lowrank.gradient"), "ms"),
        "lowrank.state_init_ms": (ms * t.mean("lowrank.state_init"), "ms"),
        "lowrank.zero_step_frac": (zero_step_frac("lowrank"), "1"),
        "population.build_s": (t.mean("population.build"), "s"),
        "lowrank.setup_s": (lowrank_setup / rec.chunks, "s"),
        "synthesis.signal_ms": (ms * t.mean("synthesis.signal"), "ms"),
        "harness.self_share": (t.self_share("harness.run_experiment"), "1"),
        "trace.overhead": (overhead, "ratio"),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "nfdetect": nfdetect.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "loadavg": os.getloadavg(),
        "blas_threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def as_metrics(table: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}


def main(argv) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print("env " + json.dumps(environment()), flush=True)
    workload = WORKLOADS[args.workload]()
    if args.trace:
        plain = run_pass(workload, args.seed, seconds=args.seconds / 2)
        tracer = Tracer()
        traced = run_pass(workload, args.seed, chunks=plain.chunks,
                          tracer=tracer, check=False)
        neutral = ([r.a_hash for r in plain.solves]
                   == [r.a_hash for r in traced.solves]
                   and plain.csvs == traced.csvs)
        metrics = per_layer(tracer, traced,
                            traced.chunk_seconds / plain.chunk_seconds)
        rec, reproducible = plain, neutral
        host = {}
    else:
        probe = SpeedProbe(*workload.probe) if workload.probe else None
        rec = run_pass(workload, args.seed, seconds=args.seconds,
                       setups=True, probe=probe)
        metrics = end_to_end(rec, probe)
        reproducible = True
        if workload.rerun_csv:
            again = run_pass(workload, args.seed, chunks=1, check=False)
            reproducible = again.csvs[0] == rec.csvs[0]
        host = {} if probe is None else {
            "probe_ms_p50": (1e3 * probe.median_s(), "ms"),
            "probe_ref_ms": (1e3 * probe.ref_s, "ms"),
            "probes": (len(probe.times), "count")}

    failed = sum(not r.ok for r in rec.solves)
    print("report " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reproducible": reproducible,
        "outcome": as_metrics(outcome_report(rec)),
        "host": as_metrics(host)}), flush=True)
    print(json.dumps({
        "correct": bool(failed == 0 and reproducible),
        "attempted": len(rec.solves), "failed": failed,
        "metrics": as_metrics(metrics)}))
    return 0
