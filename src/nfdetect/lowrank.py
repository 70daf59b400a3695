"""Block-diagonal acceleration for populations with few correlated devices.

When the correlated devices' correlation matrices sum to a rank-deficient
matrix (rank r' < M), a unitary change of basis confines all correlation
to the first r' antenna coordinates.  The transformed covariance is block
diagonal: one Lr' x Lr' head block plus M - r' identical L x L tail
blocks, so the inverse can be maintained in O((Lr')^2 + L^2) storage,
independent of M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mle import CoordinateState, HermitianInverse
from .population import DevicePopulation

__all__ = ["LowRankBasis", "BlockProblem", "BlockState", "build_basis",
           "transform_problem", "transform_signal"]

RANK_TOL = 1e-9


@dataclass
class LowRankBasis:
    """Unitary basis confining correlated energy to the leading coordinates."""

    u: np.ndarray                      # M x M unitary
    r_prime: int
    n_corr: int
    corr_hat_factors: list[np.ndarray]  # per correlated device, r' x r_n


def _check_split(pop: DevicePopulation, n_corr: int):
    for n, ch in enumerate(pop.channels):
        if n < n_corr and ch.is_identity_corr:
            raise ValueError(f"device {n} declared correlated but has scaled-"
                             "identity correlation")
        if n >= n_corr and not ch.is_identity_corr:
            raise ValueError(f"device {n} must have scaled-identity correlation")


def build_basis(pop: DevicePopulation, n_corr: int) -> LowRankBasis:
    """Exact common basis; requires the correlation sum to be rank-deficient."""
    _check_split(pop, n_corr)
    m = pop.antenna_count
    total = np.zeros((m, m), dtype=complex)
    for n in range(n_corr):
        f = pop.channels[n].corr_factor
        total += f @ f.conj().T
    lam, u = np.linalg.eigh(total)
    order = np.argsort(lam)[::-1]
    lam, u = np.maximum(lam[order], 0.0), u[:, order]
    cutoff = RANK_TOL * lam[0] if n_corr > 0 and lam[0] > 0 else 0.0
    r_prime = int(np.sum(lam > cutoff))
    if r_prime >= m:
        raise ValueError("correlation sum of the correlated devices has full "
                         "rank; the block-diagonal state needs r' < M")
    factors = [(u.conj().T @ pop.channels[n].corr_factor)[:r_prime]
               for n in range(n_corr)]
    return LowRankBasis(u=u, r_prime=r_prime, n_corr=n_corr,
                        corr_hat_factors=factors)


def transform_signal(y: np.ndarray, basis: LowRankBasis,
                     seq_len: int) -> np.ndarray:
    """y' = (U^H (x) I_L) y for the antenna-major vectorization."""
    m = basis.u.shape[0]
    z = np.asarray(y, dtype=complex).reshape(m, seq_len)
    return (basis.u.conj().T @ z).reshape(m * seq_len)


class BlockProblem:
    """Transformed per-coordinate data consumed by :class:`BlockState`."""

    def __init__(self, pop: DevicePopulation, basis: LowRankBasis):
        self.pop = pop
        self.basis = basis
        self.means_prime = np.stack(
            [basis.u.conj().T @ ch.los_mean for ch in pop.channels])
        self.gains = np.array([ch.large_scale_gain for ch in pop.channels])
        # per coordinate: device index and signature sequence
        self.device = np.arange(pop.n_coordinates) // pop.seqs_per_device
        self.sequences = pop.signatures.sequences.reshape(-1, pop.seq_len)
        self._xhat_cache: dict[int, np.ndarray] = {}
        self._mean_cache: dict[int, np.ndarray] = {}

    @property
    def n_coordinates(self) -> int:
        return self.pop.n_coordinates

    @property
    def seq_len(self) -> int:
        return self.pop.seq_len

    @property
    def antenna_count(self) -> int:
        return self.pop.antenna_count

    @property
    def r_prime(self) -> int:
        return self.basis.r_prime

    def is_correlated(self, j: int) -> bool:
        return self.device[j] < self.basis.n_corr

    def coordinate_rank(self, j: int) -> int:
        if self.is_correlated(j):
            return self.pop.coordinate_rank(j)
        return self.antenna_count

    def head_factor(self, j: int) -> np.ndarray:
        """Transformed Kronecker factor restricted to the head block.

        Correlated devices: Rhat^{1/2} (x) s, shape (L r', r_n).
        Uncorrelated devices: sqrt(g) I_{r'} (x) s, shape (L r', r').
        """
        x = self._xhat_cache.get(j)
        if x is None:
            n = self.device[j]
            x = self._xhat_cache[j] = np.kron(
                self.basis.corr_hat_factors[n] if self.is_correlated(j)
                else np.sqrt(self.gains[n]) * np.eye(self.r_prime),
                self.sequences[j][:, None])
        return x

    def coordinate_mean(self, j: int) -> np.ndarray:
        m = self._mean_cache.get(j)
        if m is None:
            m = self._mean_cache[j] = np.kron(
                self.means_prime[self.device[j]], self.sequences[j])
        return m


def transform_problem(pop: DevicePopulation, y: np.ndarray,
                      basis: LowRankBasis) -> tuple[BlockProblem, np.ndarray]:
    return BlockProblem(pop, basis), transform_signal(y, basis, pop.seq_len)


class BlockState(CoordinateState):
    """Solver state storing only the head and tail inverse blocks, each a
    :class:`HermitianInverse`."""

    def __init__(self, problem: BlockProblem, y_prime: np.ndarray,
                 a0: np.ndarray | None = None,
                 recompute_interval: int | None = None):
        if problem.r_prime == 0:
            raise ValueError("no correlated subspace; use FullState")
        super().__init__(y_prime, problem.n_coordinates, a0,
                         recompute_interval)
        self.problem = problem
        self._head_len = problem.seq_len * problem.r_prime
        self.head = HermitianInverse(self._head_matrix,
                                     self.recompute_interval)
        self.tail = HermitianInverse(self._tail_matrix,
                                     self.recompute_interval)
        self._blocks = ((1, self.head),
                        (problem.antenna_count - problem.r_prime, self.tail))
        self._refresh()

    def _tail_slices(self, vec: np.ndarray) -> np.ndarray:
        return vec[self._head_len:].reshape(-1, self.problem.seq_len)

    def _head_matrix(self) -> np.ndarray:
        prob = self.problem
        hat = prob.pop.noise_power * np.eye(self._head_len, dtype=complex)
        for j in np.nonzero(self.a)[0]:
            x = prob.head_factor(int(j))
            hat += self.a[j] * (x @ x.conj().T)
        return hat

    def _tail_matrix(self) -> np.ndarray:
        prob = self.problem
        weight = np.where(prob.device < prob.basis.n_corr, 0.0,
                          self.a * prob.gains[prob.device])
        return (prob.pop.noise_power * np.eye(prob.seq_len, dtype=complex)
                + (prob.sequences.T * weight) @ prob.sequences.conj())

    def _refresh(self):
        prob = self.problem
        mean = (prob.means_prime[prob.device].T * self.a) @ prob.sequences
        self.residual = self.y - mean.ravel()
        self._w = self.inverse_times(self.residual)

    def inverse_times(self, vec: np.ndarray) -> np.ndarray:
        """(Sigma')^{-1} vec, block by block."""
        tail = self.tail.times(self._tail_slices(vec).T).T
        return np.concatenate([self.head.times(vec[:self._head_len]),
                               tail.ravel()])

    def rank_of(self, j: int) -> int:
        return self.problem.coordinate_rank(j)

    def _products(self, j: int):
        prob = self.problem
        h = self._head_len
        m_vec = prob.coordinate_mean(j)
        sm = self.inverse_times(m_vec)
        xhat = prob.head_factor(j)
        b = self.head.times(xhat)
        gram = xhat.conj().T @ b
        gram = 0.5 * (gram + gram.conj().T)
        u = xhat.conj().T @ self._w[:h]
        t = xhat.conj().T @ sm[:h]
        tail_b = None
        if not prob.is_correlated(j):
            # tail columns of the equivalent factor sqrt(g) I_M (x) s act on
            # one antenna slice each with the shared L x L inverse
            s = prob.sequences[j]
            root_g = np.sqrt(prob.gains[prob.device[j]])
            tail_b = root_g * self.tail.times(s)
            head_gram, rp = gram, prob.r_prime
            gram = root_g * np.real(s.conj() @ tail_b) * np.eye(
                prob.antenna_count, dtype=complex)
            gram[:rp, :rp] = head_gram
            u = np.concatenate([u, root_g * (self._tail_slices(self._w)
                                             @ s.conj())])
            t = np.concatenate([t, root_g * (self._tail_slices(sm)
                                             @ s.conj())])
        return m_vec, sm, gram, u, t, (b, tail_b)

    def _woodbury(self, rest, gram, v, d):
        b, tail_b = rest
        r = b.shape[1]
        head = self.head.update(b, gram[:r, :r], d, v[:r])
        # the tail's c is 1 x 1 and acts on each antenna slice alike
        tail = 0.0 if tail_b is None else self.tail.update(
            tail_b[:, None], gram[r:r + 1, r:r + 1], d, v[None, r:])
        if head is None or tail is None:
            return None
        out = np.empty_like(self._w)
        out[:self._head_len] = head
        self._tail_slices(out)[:] = np.transpose(tail)
        return out

    def gradient(self) -> np.ndarray:
        prob = self.problem
        l, rp, seqs = prob.seq_len, prob.r_prime, prob.sequences
        z = self._w.reshape(prob.antenna_count, l)
        lin = np.real(np.sum(prob.means_prime[prob.device].T
                             * (z.conj() @ seqs.T), axis=0))
        # uncorrelated coordinates: X' = sqrt(g) I_M (x) s, so the trace
        # term is g s^H (sum_i Sigma_hat^{-1}_ii + (M - r') Sigma_tilde^{-1}) s
        inner = np.einsum("iaib->ab", self.head.matrix.reshape(rp, l, rp, l)) \
            + (prob.antenna_count - rp) * self.tail.matrix
        quad = np.real(np.sum(seqs.conj() * (seqs @ inner.T), axis=1))
        usq = np.sum(np.abs(z @ seqs.conj().T) ** 2, axis=0)
        grad = prob.gains[prob.device] * (quad - usq) - 2.0 * lin
        for j in range(prob.n_coordinates):
            if prob.is_correlated(j):
                x = prob.head_factor(j)
                grad[j] = (np.real(np.sum(x.conj() * self.head.times(x)))
                           - np.sum(np.abs(x.conj().T @ z[:rp].ravel()) ** 2)
                           - 2.0 * lin[j])
        return grad
