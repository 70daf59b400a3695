"""Randomly permuted coordinate descent with exact and inexact 1-D steps.

The exact step eigendecomposes the r x r subproblem kernel, assembles the
1-D objective as log p_den(d) + p_num(d)/p_den(d) in coefficient form and
picks the best candidate among the real roots of the degree-(2r+1)
stationarity polynomial and the interval endpoints.  The inexact step
minimizes a quartic Taylor surrogate plus a quadratic regularizer mu/2 d^2,
whose cubic derivative is solved directly.  After a first full sweep, the
inexact solver sweeps only the coordinates that violate optimality.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .mle import FullState, NumericalFailure, StepKernel

__all__ = ["DivergenceSignal", "SolveOptions", "SolveResult",
           "SubproblemKernel", "build_subproblem", "build_polynomials",
           "exact_step", "inexact_step", "sweep", "solve"]

# Roots with |Im| below this (relative) tolerance are treated as real.
REAL_ROOT_TOL = 1e-9
# p_den values below this magnitude make the candidate unusable.
DEN_UNDERFLOW = 1e-300
# Newton steps that polish each closed-form cubic root.
NEWTON_STEPS = 3


class DivergenceSignal(RuntimeError):
    """The solver left the convergent regime (objective blow-up or dead roots)."""

    def __init__(self, message, coordinate=None, sweep=None):
        super().__init__(message)
        self.coordinate = coordinate
        self.sweep = sweep


@dataclass(frozen=True)
class SolveOptions:
    solver: str = "inexact"              # exact | inexact
    mu: float = 10.0
    epsilon: float = 1e-3
    max_sweeps: int = 50
    exact_rank_limit: int | None = None  # route larger ranks to the inexact step
    divergence_threshold: float = 1.0    # absolute objective rise within a sweep

    def __post_init__(self):
        if self.solver not in ("exact", "inexact"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.max_sweeps < 1:
            raise ValueError("need at least one sweep")
        for name in ("mu", "epsilon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0")
        if not (math.isfinite(self.divergence_threshold)
                and self.divergence_threshold > 0.0):
            raise ValueError("divergence_threshold must be finite and > 0")


@dataclass
class SolveResult:
    a: np.ndarray
    trace: list
    converged: bool
    diverged: bool
    termination: str
    sweeps: int
    final_vnorm: float | None = None

    def trace_rows(self):
        """Rows (sweep, objective, vnorm, elapsed_s) for CSV export."""
        return [(i, t["objective"], t["vnorm"], t["elapsed_s"])
                for i, t in enumerate(self.trace)]


@dataclass
class SubproblemKernel:
    """Eigen-rotated form of a coordinate kernel for the exact step."""

    eigvals: np.ndarray          # clamped at zero
    resid_rot: np.ndarray        # V^H u
    mean_rot: np.ndarray         # V^H t
    mean_lin: float
    mean_quad: float
    box: tuple[float, float]


def build_subproblem(kernel: StepKernel) -> SubproblemKernel:
    lam, v = np.linalg.eigh(kernel.gram)
    lam = np.maximum(lam, 0.0)
    return SubproblemKernel(
        eigvals=lam,
        resid_rot=v.conj().T @ kernel.resid_proj,
        mean_rot=v.conj().T @ kernel.mean_proj,
        mean_lin=kernel.mean_lin,
        mean_quad=kernel.mean_quad,
        box=kernel.box,
    )


def _leave_one_out(weights: np.ndarray, lin_factors: list[np.ndarray]) -> np.ndarray:
    """sum_i w_i prod_{k != i} (1 + lam_k d) in coefficient form."""
    r = len(weights)
    pref = [np.array([1.0 + 0j])]
    for f in lin_factors[:-1]:
        pref.append(P.polymul(pref[-1], f))
    suff = [np.array([1.0 + 0j])]
    for f in reversed(lin_factors[1:]):
        suff.append(P.polymul(suff[-1], f))
    suff.reverse()
    out = np.zeros(max(r, 1), dtype=complex)
    for i in range(r):
        term = weights[i] * P.polymul(pref[i], suff[i])
        out[:len(term)] += term
    return out


def build_polynomials(sub: SubproblemKernel) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (low order first) of p_den and p_num for one coordinate.

    p_den(d) = prod_i (1 + lam_i d); p_num has degree r + 2 and collects the
    quadratic mean terms and the three resolvent fractions brought over the
    common denominator.
    """
    lam = sub.eigvals
    factors = [np.array([1.0, l]) for l in lam]
    p_den = np.array([1.0])
    for f in factors:
        p_den = P.polymul(p_den, f)
    num_uu = _leave_one_out(np.abs(sub.resid_rot) ** 2, factors)
    num_ut = _leave_one_out(sub.resid_rot.conj() * sub.mean_rot, factors)
    num_tt = _leave_one_out(np.abs(sub.mean_rot) ** 2, factors)
    quad = np.array([0.0, -2.0 * sub.mean_lin, sub.mean_quad])
    p_num = P.polyadd(P.polymul(quad, p_den),
                      P.polymul([0.0, -1.0], num_uu.real))
    p_num = P.polyadd(p_num, P.polymul([0.0, 0.0, 2.0], num_ut.real))
    p_num = P.polyadd(p_num, P.polymul([0.0, 0.0, 0.0, -1.0], num_tt.real))
    return p_den.real, np.asarray(p_num).real


def _real_roots_in(coeffs: np.ndarray, lo: float, hi: float) -> list[float]:
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if not np.all(np.isfinite(coeffs)):
        raise DivergenceSignal("polynomial assembly overflowed")
    if len(coeffs) <= 1:
        return []
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            roots = P.polyroots(coeffs)
    except np.linalg.LinAlgError:
        raise DivergenceSignal("root finding failed on overflowed "
                               "companion matrix") from None
    if not np.all(np.isfinite(roots)):
        raise DivergenceSignal("root finding produced non-finite values")
    out = []
    for z in roots:
        if abs(z.imag) <= REAL_ROOT_TOL * (1.0 + abs(z.real)):
            d = float(z.real)
            if lo <= d <= hi:
                out.append(d)
    return out


def _cubic_roots_in(coeffs, lo: float, hi: float) -> list[float]:
    """Real roots of c0 + c1 d + c2 d^2 + c3 d^3 in [lo, hi], closed form.

    A nearly vanishing leading term is the common case here (the inexact
    step's regularizer makes c1 large), so the quadratic uses the form
    without cancellation and each Cardano root gets Newton steps on the
    cubic itself before it is tested for being real.
    """
    c0, c1, c2, c3 = (float(c) for c in coeffs)
    scale = max(abs(c0), abs(c1), abs(c2), abs(c3), 1.0)
    if abs(c3) <= 1e-14 * scale:
        if abs(c2) <= 1e-14 * scale:
            if abs(c1) <= 1e-14 * scale:
                return []
            roots = [-c0 / c1]
        else:
            disc = c1 * c1 - 4.0 * c2 * c0
            if disc < 0.0:
                return []
            q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
            roots = [q / c2, c0 / q] if q != 0.0 else [0.0]
    else:
        d0 = c2 * c2 - 3.0 * c3 * c1
        d1 = 2.0 * c2 ** 3 - 9.0 * c3 * c2 * c1 + 27.0 * c3 * c3 * c0
        inner = np.sqrt(complex(d1 * d1 - 4.0 * d0 ** 3))
        # pick the branch with the larger magnitude to avoid cancellation
        big = d1 + inner if abs(d1 + inner) >= abs(d1 - inner) else d1 - inner
        cc = (big / 2.0) ** (1.0 / 3.0)
        if cc == 0:
            roots = [-c2 / (3.0 * c3)]
        else:
            xi = np.exp(2j * np.pi / 3.0)
            roots = []
            for k in range(3):
                w = cc * xi ** k
                z = complex(-(c2 + w + d0 / w) / (3.0 * c3))
                for _ in range(NEWTON_STEPS):
                    slope = (3.0 * c3 * z + 2.0 * c2) * z + c1
                    if slope == 0:
                        break
                    z -= (((c3 * z + c2) * z + c1) * z + c0) / slope
                if abs(z.imag) <= REAL_ROOT_TOL * (1.0 + abs(z.real)):
                    roots.append(z.real)
    return [float(d) for d in roots if lo <= d <= hi]


def exact_step(kernel: StepKernel) -> float:
    """Minimize the 1-D objective exactly via polynomial root-finding.

    Candidate values are compared through Horner evaluation of the
    assembled polynomials; this is faithful to the published procedure,
    including its loss of accuracy for large kernel ranks.
    """
    sub = build_subproblem(kernel)
    p_den, p_num = build_polynomials(sub)
    deriv = P.polyadd(P.polymul(p_den, P.polyder(p_den)),
                      P.polymul(p_den, P.polyder(p_num)))
    deriv = P.polysub(deriv, P.polymul(P.polyder(p_den), p_num))
    lo, hi = sub.box
    candidates = _real_roots_in(deriv, lo, hi) + [lo, hi]
    best_d, best_val = None, np.inf
    for d in candidates:
        den = P.polyval(d, p_den)
        if not np.isfinite(den) or den < DEN_UNDERFLOW:
            continue
        val = np.log(den) + P.polyval(d, p_num) / den
        if np.isfinite(val) and val < best_val:
            best_d, best_val = d, val
    if best_d is None:
        raise DivergenceSignal("no usable candidate step")
    return float(np.clip(best_d, lo, hi))


def inexact_step(kernel: StepKernel, mu: float) -> float:
    """Minimize the quartic surrogate plus (mu/2) d^2 over the box."""
    g, u, t = kernel.gram, kernel.resid_proj, kernel.mean_proj
    gu, gt = g @ u, g @ t
    c1 = kernel.gradient()
    c2 = (kernel.mean_quad + float(np.real(u.conj() @ gu))
          + 2.0 * float(np.real(u.conj() @ t)))
    c3 = -2.0 * float(np.real(u.conj() @ gt)) - float(np.real(t.conj() @ t))
    c4 = float(np.real(t.conj() @ gt))
    lo, hi = kernel.box
    # derivative of c1 d + (c2 + mu/2) d^2 + c3 d^3 + c4 d^4
    candidates = _cubic_roots_in((c1, 2.0 * c2 + mu, 3.0 * c3, 4.0 * c4),
                                 lo, hi) + [lo, hi]
    c2m = c2 + 0.5 * mu
    vals = [d * (c1 + d * (c2m + d * (c3 + d * c4))) for d in candidates]
    best = int(np.argmin(vals))
    return float(np.clip(candidates[best], lo, hi))


def _route_exact(options: SolveOptions, rank: int) -> bool:
    if options.solver != "exact":
        return False
    return options.exact_rank_limit is None or rank <= options.exact_rank_limit


def sweep(state, options: SolveOptions, rng: np.random.Generator,
          sweep_index: int = 0, monitor=None,
          coordinates: np.ndarray | None = None) -> tuple[float, int]:
    """Visit ``coordinates`` (by default all) once in a fresh uniform random
    permutation; returns the objective after the sweep and the number of
    nonzero steps taken.

    ``monitor``, if given, is called with (coordinate, d, true_delta) after
    each accepted update; the true delta is evaluated from the kernel
    before the state is modified.
    """
    perm = rng.permutation(state.n_coordinates if coordinates is None
                           else coordinates)
    f_start = state.objective()
    f_run = f_start
    updates = 0
    for j in perm:
        kernel = state.kernel(int(j))
        if _route_exact(options, state.rank_of(int(j))):
            try:
                d = exact_step(kernel)
            except DivergenceSignal as sig:
                raise DivergenceSignal(str(sig), coordinate=int(j),
                                       sweep=sweep_index) from None
        else:
            d = inexact_step(kernel, options.mu)
        if d != 0.0:
            delta = kernel.objective_delta(d)
            state.apply_update(int(j), d)
            updates += 1
            f_run += delta
            if monitor is not None:
                monitor(int(j), d, delta)
            if not np.isfinite(f_run) or \
                    f_run > f_start + options.divergence_threshold:
                raise DivergenceSignal("objective increased beyond threshold",
                                       coordinate=int(j), sweep=sweep_index)
    return state.objective(), updates


def solve(pop, y, options: SolveOptions | None = None,
          rng: np.random.Generator | int | None = None,
          state=None, monitor=None) -> SolveResult:
    """Run permuted coordinate descent until ||V(a)|| <= epsilon or the cap.

    The first sweep visits every coordinate.  With the inexact solver each
    later sweep visits only the working set: the coordinates whose
    projected-gradient violation was above 0 after the previous sweep
    (most devices sit at a_j = 0 with a nonnegative gradient and are
    skipped).  The exact solver visits every coordinate in every sweep.
    The stopping test is over all coordinates either way.

    ``state`` may carry a pre-built solver state (e.g. the block-diagonal
    accelerated form, or a warm start); by default a dense state at a = 0
    is used.  Each sweep's trace entry also holds the coordinates it
    visited and the nonzero steps it took (``visited``, ``updates``) and
    the state's running count of inverse rebuilds by cause,
    ``recomputes``.
    """
    options = options or SolveOptions()
    rng = np.random.default_rng(rng)
    if state is None:
        state = FullState(pop, y)
    trace = []
    t0 = time.perf_counter()
    vnorm = None
    diverged = False
    termination = "sweep_cap"
    n_sweeps = 0
    working = None
    try:
        for i in range(options.max_sweeps):
            objective, updates = sweep(state, options, rng, sweep_index=i,
                                       monitor=monitor, coordinates=working)
            n_sweeps = i + 1
            v, vnorm = state.optimality()
            trace.append({"sweep": i, "objective": objective,
                          "vnorm": vnorm,
                          "elapsed_s": time.perf_counter() - t0,
                          "visited": (state.n_coordinates if working is None
                                      else working.size),
                          "updates": updates,
                          "recomputes": state.recomputes})
            if vnorm <= options.epsilon:
                termination = "converged"
                break
            if options.solver == "inexact":
                working = np.flatnonzero(v > 0.0)
    except (DivergenceSignal, NumericalFailure) as sig:
        diverged = True
        termination = f"diverged: {sig}"
    return SolveResult(a=state.a.copy(), trace=trace,
                       converged=(termination == "converged"),
                       diverged=diverged, termination=termination,
                       sweeps=n_sweeps, final_vnorm=vnorm)
