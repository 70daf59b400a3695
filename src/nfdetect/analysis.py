"""Diagnostics: signal statistical dimensions, identifiability, similarity.

These quantities explain when covariance-based detection can work at all:
the rank of the summed per-device signal covariances (the "signal
statistical dimension"), a cone-constrained null-space test for unique
identifiability of the true activity vector, and a pairwise cosine
similarity measuring interference between two devices' signal models.
All tools here are dense, small-scale reference diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

__all__ = ["DimensionReport", "IdentifiabilityInstance",
           "IdentifiabilityResult", "ScanReport", "statistical_dimension",
           "population_instance", "identifiability_holds", "theorem3_scan",
           "cosine_similarity_pair"]

RANK_TOL = 1e-9
WITNESS_TOL = 1e-7
DENSE_LIMIT = 4096


@dataclass(frozen=True)
class DimensionReport:
    """Ranks of the summed signal covariances and their a-priori bounds.

    ``d_one`` uses the actual correlation matrices, ``d_two`` their
    trace-matched scaled-identity replacements.  ``bound_one`` is
    min(r_max * N, L*M); ``bound_two`` is L*M.
    """

    d_one: int
    d_two: int
    bound_one: int
    bound_two: int
    regime: str  # "bound_one_below" | "equal"


@dataclass(frozen=True)
class IdentifiabilityInstance:
    """Realified equality system plus cone sign pattern for one scenario.

    Column n of ``psi`` stacks vec(R_n (x) s_n s_n^H) over vec(mean_n (x)
    s_n); ``cone_signs[n]`` is +1 where the true activity is 0 (feasible
    perturbations are nonnegative) and -1 where it is 1.
    """

    psi: np.ndarray         # real matrix, columns indexed by device
    cone_signs: np.ndarray  # entries in {+1, -1}

    def __post_init__(self):
        if self.psi.shape[1] != self.cone_signs.shape[0]:
            raise ValueError("column count must match sign pattern length")


@dataclass(frozen=True)
class IdentifiabilityResult:
    identifiable: bool | None   # None when the LP is indeterminate
    certificate: np.ndarray | None
    status: str


@dataclass
class ScanReport:
    trials: int
    counterexamples: int
    skipped: int
    converse_cases: int  # correlated identifiable but uncorrelated not


def _numerical_rank(psd: np.ndarray) -> int:
    lam = np.linalg.eigvalsh(psd)
    top = lam[-1]
    if top <= 0:
        return 0
    return int(np.sum(lam > RANK_TOL * top))


def _factor_rank(factor: np.ndarray) -> int:
    sv = np.linalg.svd(factor, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > np.sqrt(RANK_TOL) * sv[0]))


def statistical_dimension(pop, dense_limit: int = DENSE_LIMIT) -> DimensionReport:
    """Ranks of sum_n R_n (x) s_n s_n^H for the true and identity models."""
    lm = pop.signal_dim
    if lm > dense_limit:
        raise ValueError(f"signal dimension {lm} exceeds dense limit "
                         f"{dense_limit}; diagnostic tool only")
    sum_one = np.zeros((lm, lm), dtype=complex)
    sum_two = np.zeros((lm, lm), dtype=complex)
    r_max = 0
    for j in range(pop.n_coordinates):
        n, _ = pop.coordinate_device(j)
        ch = pop.channels[n]
        s = pop.coordinate_sequence(j)
        ss = np.outer(s, s.conj())
        sum_one += np.kron(ch.correlation_matrix(), ss)
        sum_two += ch.large_scale_gain * np.kron(np.eye(ch.antenna_count), ss)
        r_max = max(r_max, _factor_rank(ch.corr_factor))
    n_cols = pop.n_coordinates
    bound_one = min(r_max * n_cols, lm)
    report = DimensionReport(
        d_one=_numerical_rank(sum_one),
        d_two=_numerical_rank(sum_two),
        bound_one=bound_one,
        bound_two=lm,
        regime="bound_one_below" if bound_one < lm else "equal",
    )
    return report


def _build_instance(corr_mats, means, seqs, a_true) -> IdentifiabilityInstance:
    cols = []
    for r, h, s in zip(corr_mats, means, seqs):
        ss = np.outer(s, s.conj())
        cols.append(np.concatenate([np.kron(r, ss).ravel(), np.kron(h, s)]))
    psi_c = np.stack(cols, axis=1)
    psi = np.concatenate([psi_c.real, psi_c.imag], axis=0)
    signs = np.where(np.asarray(a_true) > 0.5, -1.0, 1.0)
    return IdentifiabilityInstance(psi=psi, cone_signs=signs)


def population_instance(pop, a_true, case: str = "correlated",
                        ) -> IdentifiabilityInstance:
    """Build the identifiability system from a device population.

    ``case`` selects the actual correlation matrices or their trace-matched
    scaled-identity replacements; ``a_true`` is the binary true activity.
    """
    if case not in ("correlated", "uncorrelated"):
        raise ValueError(f"unknown case {case!r}")
    mats, means, seqs = [], [], []
    for j in range(pop.n_coordinates):
        n, _ = pop.coordinate_device(j)
        ch = pop.channels[n]
        if case == "correlated":
            mats.append(ch.correlation_matrix())
        else:
            mats.append(ch.large_scale_gain * np.eye(ch.antenna_count))
        means.append(ch.los_mean)
        seqs.append(pop.coordinate_sequence(j))
    return _build_instance(mats, means, seqs, a_true)


def identifiability_holds(inst: IdentifiabilityInstance) -> IdentifiabilityResult:
    """Decide whether the cone-constrained null space is trivial.

    Maximizes sum_n sigma_n x_n subject to psi x = 0 and the sign-consistent
    box |x_n| <= 1; any strictly nonzero optimum is a witness direction in
    which the true activity could be perturbed without changing the signal
    statistics, i.e. identifiability fails.
    """
    signs = inst.cone_signs
    n = signs.shape[0]
    bounds = [(0.0, 1.0) if s > 0 else (-1.0, 0.0) for s in signs]
    res = linprog(c=-signs, A_eq=inst.psi, b_eq=np.zeros(inst.psi.shape[0]),
                  bounds=bounds, method="highs")
    if res.status != 0:
        return IdentifiabilityResult(identifiable=None, certificate=None,
                                     status=f"lp_{res.status}:{res.message}")
    x = np.asarray(res.x)
    if -res.fun > WITNESS_TOL:
        return IdentifiabilityResult(identifiable=False, certificate=x,
                                     status="witness")
    return IdentifiabilityResult(identifiable=True, certificate=None,
                                 status="trivial_cone_null")


def _random_system(rng: np.random.Generator):
    n = int(rng.integers(2, 9))
    l = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    mats, means, seqs = [], [], []
    for _ in range(n):
        r = int(rng.integers(1, m + 1))
        f = (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))
        mats.append(f @ f.conj().T)
        if rng.uniform() < 0.5:
            means.append(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        else:
            means.append(np.zeros(m, dtype=complex))
        seqs.append((rng.standard_normal(l) + 1j * rng.standard_normal(l))
                    / np.sqrt(2.0))
    a_true = (rng.uniform(size=n) < 0.5).astype(float)
    return mats, means, seqs, a_true


def theorem3_scan(trials: int, rng: np.random.Generator | int | None = None,
                  ) -> ScanReport:
    """Random-scenario check that identity-model identifiability implies
    true-model identifiability.

    Each trial draws a small random system, tests identifiability under the
    trace-matched identity correlations and, when that passes, asserts the
    test also passes under the actual correlations.  Returns the violation
    count (expected 0), the indeterminate-trial count, and how often the
    converse direction fails (expected to be nonzero occasionally).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(rng)
    report = ScanReport(trials=trials, counterexamples=0, skipped=0,
                        converse_cases=0)
    for _ in range(trials):
        mats, means, seqs, a_true = _random_system(rng)
        m = mats[0].shape[0]
        idents = [np.real(np.trace(r)) / m * np.eye(m) for r in mats]
        res_two = identifiability_holds(_build_instance(idents, means, seqs,
                                                        a_true))
        res_one = identifiability_holds(_build_instance(mats, means, seqs,
                                                        a_true))
        if res_two.identifiable is None or res_one.identifiable is None:
            report.skipped += 1
            continue
        if res_two.identifiable and not res_one.identifiable:
            report.counterexamples += 1
        if res_one.identifiable and not res_two.identifiable:
            report.converse_cases += 1
    return report


def cosine_similarity_pair(pop, n: int, k: int) -> tuple[float, float]:
    """Pairwise interference measure under the true and identity models.

    Returns (corr_value, uncorr_value) where the correlation term
    tr(R_n R_k) / (||R_n||_F ||R_k||_F) multiplies the squared normalized
    sequence inner product; by Cauchy-Schwarz corr_value <= uncorr_value.
    """
    if n == k:
        raise ValueError("need two distinct devices")
    r_n = pop.channels[n].correlation_matrix()
    r_k = pop.channels[k].correlation_matrix()
    s_n = pop.signatures.sequences[n, 0]
    s_k = pop.signatures.sequences[k, 0]
    fn, fk = np.linalg.norm(r_n), np.linalg.norm(r_k)
    sn, sk = np.linalg.norm(s_n), np.linalg.norm(s_k)
    if min(fn, fk, sn, sk) == 0:
        raise ValueError("zero-norm correlation matrix or sequence")
    seq_term = (abs(s_n.conj() @ s_k) / (sn * sk)) ** 2
    corr_term = float(np.real(np.trace(r_n @ r_k))) / (fn * fk)
    return corr_term * seq_term, seq_term
