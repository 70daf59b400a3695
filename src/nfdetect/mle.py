"""Solver state for the relaxed covariance-fit likelihood problem.

The state tracks the activity iterate a, the inverse signal covariance
and its log-determinant (one :class:`HermitianInverse`, kept by in-place
low-rank Woodbury updates), the residual r = y - mean(a) and w = Sigma^{-1} r.
The negative log-likelihood objective is

    f(a) = log|Sigma_a| + (y - ybar_a)^H Sigma_a^{-1} (y - ybar_a),

with Sigma_a = sum_j a_j X_j X_j^H + noise * I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zgemm, zgemv
from scipy.linalg.lapack import zpotrf, zpotri, ztrtri

from .synthesis import covariance_matrix, mean_vector

__all__ = ["NumericalFailure", "StepKernel", "HermitianInverse",
           "CoordinateState", "FullState", "projected_gradient_violation"]

# Rebuild instead of a Woodbury update whose inner system is worse
# conditioned than this.
CONDITION_LIMIT = 1e12


class NumericalFailure(RuntimeError):
    """Non-finite intermediate or irrecoverably ill-conditioned update."""


@dataclass
class StepKernel:
    """Quantities defining one coordinate's one-dimensional subproblem.

    gram      -- G = X^H Sigma^{-1} X, Hermitian PSD (r x r)
    resid_proj -- u = X^H Sigma^{-1} (y - ybar_a)
    mean_proj -- t = X^H Sigma^{-1} m, with m the coordinate's mean vector
    mean_lin  -- Re((y - ybar_a)^H Sigma^{-1} m)
    mean_quad -- m^H Sigma^{-1} m
    box       -- feasible step interval (-a_j, 1 - a_j)

    The exact objective change for a step d is

        log|I + d G| - 2 d mean_lin + d^2 mean_quad
        - d u^H (I + d G)^{-1} u + 2 d^2 Re(u^H (I + d G)^{-1} t)
        - d^3 t^H (I + d G)^{-1} t.
    """

    gram: np.ndarray
    resid_proj: np.ndarray
    mean_proj: np.ndarray
    mean_lin: float
    mean_quad: float
    box: tuple[float, float]

    @property
    def rank(self) -> int:
        return self.gram.shape[0]

    def gradient(self) -> float:
        """Directional derivative of f at d = 0."""
        return float(np.real(np.trace(self.gram))
                     - np.sum(np.abs(self.resid_proj) ** 2)
                     - 2.0 * self.mean_lin)

    def objective_delta(self, d: float) -> float:
        """Exact f(a + d e_j) - f(a) given the maintained inverse."""
        if d == 0.0:
            return 0.0
        chol, info = zpotrf(np.eye(self.rank) + d * self.gram, lower=1)
        if info != 0:
            return np.inf
        linv, _ = ztrtri(chol, lower=1)
        pu, pt = linv @ self.resid_proj, linv @ self.mean_proj
        logabs = 2.0 * float(np.sum(np.log(chol.diagonal().real)))
        return (logabs - 2.0 * d * self.mean_lin + d * d * self.mean_quad
                - d * np.vdot(pu, pu).real + 2.0 * d * d * np.vdot(pu, pt).real
                - d ** 3 * np.vdot(pt, pt).real)


def projected_gradient_violation(a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Coordinate-wise distance |Proj(a - grad) - a| with Proj onto [0, 1]."""
    return np.abs(np.clip(a - grad, 0.0, 1.0) - a)


class HermitianInverse:
    """Inverse S of a Hermitian positive-definite matrix, and its logdet.

    The step Sigma += d X X^H, given b = S X and G = X^H b, is a Cholesky
    factorization c = I + d G = L L^H and one in-place gemm,
    S -= d (b L^{-H}) (b L^{-H})^H.  S is kept in full, column-major:
    OpenBLAS's threaded hemv/hemm/herk ran several times slower than gemm
    at LM <= 144.  S is rebuilt from ``build()`` by a Cholesky
    factorization, which fails loudly if the matrix is not positive
    definite, every ``interval`` steps (``scheduled``) and in place of a
    step whose c is not safely positive definite (``condition``);
    ``recomputes`` counts the rebuilds by cause.
    """

    def __init__(self, build, interval: int):
        self.build = build
        self.interval = interval
        self.recomputes = {"scheduled": 0, "condition": 0}
        self.recompute()

    def recompute(self, cause: str | None = None):
        if cause is not None:
            self.recomputes[cause] += 1
        chol, info = zpotrf(self.build(), lower=1, overwrite_a=1)
        if info == 0:
            logdet = 2.0 * float(np.sum(np.log(chol.diagonal().real)))
            low, info = zpotri(chol, lower=1, overwrite_c=1)
        if info != 0 or not np.isfinite(logdet):
            raise NumericalFailure("covariance is not positive definite")
        self.matrix = np.asfortranarray(np.tril(low)
                                        + np.tril(low, -1).conj().T)
        self.logdet = logdet
        self.steps = 0

    def times(self, v: np.ndarray) -> np.ndarray:
        """S v for a vector or for the columns of a matrix."""
        if v.ndim == 1:
            return zgemv(1.0, self.matrix, v)
        return zgemm(1.0, self.matrix, v)

    def update(self, b: np.ndarray, gram: np.ndarray, d: float,
               v: np.ndarray):
        """Apply Sigma += d X X^H; returns b c^{-1} v, or None after a
        rebuild."""
        chol, info = zpotrf(np.eye(gram.shape[0]) + d * gram, lower=1)
        diag = chol.diagonal().real
        if info != 0 or not (max(diag.max(), 1.0) / diag.min()) ** 2 \
                <= CONDITION_LIMIT:
            self.recompute("condition")
            return None
        linv, _ = ztrtri(chol, lower=1)
        bl = b @ linv.conj().T
        self.matrix = zgemm(-d, bl, bl, beta=1.0, c=self.matrix, trans_b=2,
                            overwrite_c=1)
        self.logdet += 2.0 * float(np.sum(np.log(diag)))
        self.steps += 1
        if self.steps >= self.interval:
            self.recompute("scheduled")
            return None
        return b @ (linv.conj().T @ (linv @ v))


class CoordinateState:
    """What the dense and the block solver states share.

    Sigma is block diagonal; ``_blocks`` lists (multiplicity, inverse) per
    distinct block.  A subclass keeps ``residual`` = y - mean(a) and
    ``_w`` = Sigma^{-1} r and defines ``rank_of(j)`` and
    - ``_refresh()``: residual and w from scratch, after a rebuild;
    - ``_products(j)``: (m, Sigma^{-1} m, G, u, t, rest) of coordinate j,
      kept until the state changes, so that ``apply_update(j, d)`` right
      after ``kernel(j)`` reuses it;
    - ``_woodbury(rest, G, v, d)``: the inverse updated for a_j += d;
      returns Sigma^{-1} X (I + d G)^{-1} v, or None after a rebuild.
    """

    def __init__(self, y: np.ndarray, n: int, a0, recompute_interval):
        self.y = np.asarray(y, dtype=complex)
        self.n_coordinates = n
        self.a = np.zeros(n) if a0 is None else np.array(a0, dtype=float)
        if self.a.shape != (n,) or not np.all((self.a >= 0) & (self.a <= 1)):
            raise ValueError(f"a0 must have {n} entries in [0, 1]")
        self.recompute_interval = (10 * n if recompute_interval is None
                                   else recompute_interval)
        self._fused = None

    def _kernel_parts(self, j: int):
        if self._fused is None or self._fused[0] != j:
            self._fused = (j, self._products(j))
        return self._fused[1]

    @property
    def logdet(self) -> float:
        return sum(k * block.logdet for k, block in self._blocks)

    @property
    def recomputes(self) -> dict:
        """Rebuilds of the inverse so far, by cause."""
        counts = [block.recomputes for _, block in self._blocks]
        return {cause: sum(c[cause] for c in counts) for cause in counts[0]}

    def objective(self) -> float:
        val = self.logdet + float(np.real(np.vdot(self.residual, self._w)))
        if not np.isfinite(val):
            raise NumericalFailure("non-finite objective")
        return val

    def kernel(self, j: int) -> StepKernel:
        m, sm, gram, u, t, _ = self._kernel_parts(j)
        return StepKernel(gram=gram, resid_proj=u, mean_proj=t,
                          mean_lin=float(np.real(np.vdot(m, self._w))),
                          mean_quad=float(np.real(np.vdot(m, sm))),
                          box=(-self.a[j], 1.0 - self.a[j]))

    def apply_update(self, j: int, d: float):
        """Woodbury-update the inverse, log-determinant, residual and w."""
        if d == 0.0:
            return
        m, sm, gram, u, t, rest = self._kernel_parts(j)
        self._fused = None
        self.a[j] += d
        self.residual -= d * m
        correction = self._woodbury(rest, gram, u - d * t, d)
        if correction is None:
            self._refresh()
        else:  # w <- w - d Sigma^{-1} m - d Sigma^{-1} X c^{-1} (u - d t)
            self._w -= d * (sm + correction)

    def optimality(self) -> tuple[np.ndarray, float]:
        """Projected-gradient violation vector and its 2-norm."""
        v = projected_gradient_violation(self.a, self.gradient())
        return v, float(np.linalg.norm(v))


class FullState(CoordinateState):
    """Dense solver state holding the full LM x LM inverse covariance."""

    def __init__(self, pop, y: np.ndarray, a0: np.ndarray | None = None,
                 recompute_interval: int | None = None):
        super().__init__(y, pop.n_coordinates, a0, recompute_interval)
        if self.y.shape != (pop.signal_dim,):
            raise ValueError("signal length does not match the population")
        self.pop = pop
        self._columns: dict[int, np.ndarray] = {}
        self._stacked = None
        self._inv = HermitianInverse(
            lambda: covariance_matrix(self.pop, self.a),
            self.recompute_interval)
        self._blocks = ((1, self._inv),)
        self._refresh()

    def _refresh(self):
        self.residual = self.y - mean_vector(self.pop, self.a)
        self._w = self._inv.times(self.residual)

    @property
    def sigma_inv(self) -> np.ndarray:
        """The maintained inverse itself; read it, do not modify it."""
        return self._inv.matrix

    def rank_of(self, j: int) -> int:
        return self.pop.coordinate_rank(j)

    def _products(self, j: int):
        cols = self._columns.get(j)
        if cols is None:
            cols = self._columns[j] = np.asfortranarray(np.column_stack(
                [self.pop.coordinate_factor(j), self.pop.coordinate_mean(j)]))
        x, r = cols[:, :-1], cols.shape[1] - 1
        b = self._inv.times(cols)
        p = zgemm(1.0, x, b, trans_a=2)  # [G t]
        return (cols[:, r], b[:, r], 0.5 * (p[:, :r] + p[:, :r].conj().T),
                zgemv(1.0, x, self._w, trans=2), p[:, r], b[:, :r])

    def _woodbury(self, b, gram, v, d):
        return self._inv.update(b, gram, d, v)

    def gradient(self) -> np.ndarray:
        """Full gradient, evaluated with two stacked matrix products."""
        if self._stacked is None:
            pop, n = self.pop, self.n_coordinates
            self._stacked = (
                np.asfortranarray(np.concatenate(
                    [pop.coordinate_factor(j) for j in range(n)], axis=1)),
                np.stack([pop.coordinate_mean(j) for j in range(n)], axis=1),
                np.cumsum([0] + [pop.coordinate_rank(j)
                                 for j in range(n - 1)]))
        xall, means, starts = self._stacked
        traces = np.real(np.sum(xall.conj() * self._inv.times(xall), axis=0))
        u_all = zgemv(1.0, xall, self._w, trans=2)
        return (np.add.reduceat(traces - np.abs(u_all) ** 2, starts)
                - 2.0 * np.real(zgemv(1.0, means, self._w, trans=2)))
