"""Coordinate-descent steps, sweeps and the full solve loop."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from nfdetect import solvers
from nfdetect.mle import FullState
from nfdetect.solvers import (
    DivergenceSignal,
    SolveOptions,
    _cubic_roots_in,
    build_polynomials,
    build_subproblem,
    exact_step,
    inexact_step,
    solve,
    sweep,
)

from conftest import random_population, random_signal


def random_state(rng, **kwargs):
    pop = random_population(rng, **kwargs)
    y = random_signal(pop, rng).y
    a = rng.uniform(0.1, 0.9, pop.n_coordinates)
    return FullState(pop, y, a0=a)


class TestCubicRoots:
    def test_matches_companion_matrix_roots(self, rng):
        for _ in range(500):
            c = rng.standard_normal(4) * 10.0 ** float(rng.integers(-3, 4))
            if rng.uniform() < 0.2:
                c[3] = 0.0
            lo, hi = -2.0, 2.0
            mine = sorted(_cubic_roots_in(c, lo, hi))
            ct = np.trim_zeros(c, "b")
            ref = sorted(
                float(z.real) for z in (P.polyroots(ct) if len(ct) > 1 else [])
                if abs(z.imag) <= 1e-8 * (1 + abs(z.real))
                and lo <= z.real <= hi)
            assert len(mine) == len(ref)
            for a, b in zip(mine, ref):
                assert a == pytest.approx(b, rel=1e-6, abs=1e-6)


class TestPolynomialForm:
    def test_rational_form_equals_direct_delta(self, rng):
        """The assembled p_den/p_num pair must reproduce the 1-D objective."""
        for _ in range(20):
            st_ = random_state(rng, n_devices=5)
            j = int(rng.integers(st_.n_coordinates))
            k = st_.kernel(j)
            sub = build_subproblem(k)
            p_den, p_num = build_polynomials(sub)
            for d in np.linspace(sub.box[0] + 1e-3, sub.box[1] - 1e-3, 7):
                den = P.polyval(d, p_den)
                val = np.log(den) + P.polyval(d, p_num) / den
                assert val == pytest.approx(k.objective_delta(d),
                                            rel=1e-6, abs=1e-6)

    def test_denominator_positive_on_box(self, rng):
        st_ = random_state(rng, n_devices=5)
        k = st_.kernel(0)
        sub = build_subproblem(k)
        p_den, _ = build_polynomials(sub)
        for d in np.linspace(sub.box[0], sub.box[1], 20):
            assert P.polyval(d, p_den) > 0


def grid_delta(kernel, d_grid):
    """Vectorized independent evaluation of the 1-D objective change.

    Uses its own eigendecomposition and the diagonal-resolvent closed form,
    so it shares no code with the step implementations.
    """
    lam, v = np.linalg.eigh(kernel.gram)
    u = v.conj().T @ kernel.resid_proj
    t = v.conj().T @ kernel.mean_proj
    d = np.asarray(d_grid)[:, None]
    fac = 1.0 + d * lam[None, :]
    logdet = np.sum(np.log(fac), axis=1)
    inv = 1.0 / fac
    uu = np.sum(np.abs(u[None, :]) ** 2 * inv, axis=1)
    ut = np.sum(np.real(u.conj()[None, :] * t[None, :]) * inv, axis=1)
    tt = np.sum(np.abs(t[None, :]) ** 2 * inv, axis=1)
    d = d[:, 0]
    return (logdet - 2 * d * kernel.mean_lin + d ** 2 * kernel.mean_quad
            - d * uu + 2 * d ** 2 * ut - d ** 3 * tt)


class TestExactStep:
    def test_beats_dense_grid_search(self, rng):
        """100 random 1-D subproblems vs a 1e-5 grid oracle."""
        for _ in range(100):
            st_ = random_state(rng, n_devices=5, m_antennas=4, max_rank=3)
            j = int(rng.integers(st_.n_coordinates))
            k = st_.kernel(j)
            d = exact_step(k)
            lo, hi = k.box
            grid = np.arange(lo, hi + 1e-5, 1e-5)
            grid_best = float(np.min(grid_delta(k, grid)))
            assert k.objective_delta(d) <= grid_best + 1e-6

    def test_step_stays_in_box(self, rng):
        for _ in range(20):
            st_ = random_state(rng, n_devices=4)
            j = int(rng.integers(st_.n_coordinates))
            k = st_.kernel(j)
            d = exact_step(k)
            assert k.box[0] <= d <= k.box[1]

    def test_dominates_inexact(self, rng):
        for _ in range(30):
            st_ = random_state(rng, n_devices=5)
            j = int(rng.integers(st_.n_coordinates))
            k = st_.kernel(j)
            de = exact_step(k)
            di = inexact_step(k, mu=10.0)
            assert k.objective_delta(de) <= k.objective_delta(di) + 1e-9


class TestInexactStep:
    def test_never_increases_true_objective(self, rng):
        """Sufficient regularization makes every step a descent step."""
        for _ in range(50):
            st_ = random_state(rng, n_devices=6)
            j = int(rng.integers(st_.n_coordinates))
            k = st_.kernel(j)
            d = inexact_step(k, mu=10.0)
            assert k.objective_delta(d) <= 1e-9

    def test_step_stays_in_box(self, rng):
        for _ in range(20):
            st_ = random_state(rng, n_devices=4)
            j = int(rng.integers(st_.n_coordinates))
            k = st_.kernel(j)
            d = inexact_step(k, mu=10.0)
            assert k.box[0] <= d <= k.box[1]

    def test_zero_gradient_gives_zero_step(self, rng):
        st_ = random_state(rng, n_devices=4)
        k = st_.kernel(0)
        # large mu shrinks the step toward the gradient direction only
        d_small = abs(inexact_step(k, mu=1e8))
        assert d_small < 1e-4


class TestSweepAndSolve:
    def test_inexact_objective_nonincreasing_across_sweeps(self, rng):
        pop = random_population(rng, n_devices=12, seq_len=5, m_antennas=6)
        y = random_signal(pop, rng).y
        st_ = FullState(pop, y)
        opts = SolveOptions(solver="inexact")
        prev = st_.objective()
        for i in range(8):
            f = sweep(st_, opts, np.random.default_rng(i), sweep_index=i)
            assert f <= prev + 1e-8
            prev = f

    def test_solver_converges_and_flags(self, rng):
        pop = random_population(rng, n_devices=10, seq_len=6, m_antennas=6)
        y = random_signal(pop, rng).y
        res = solve(pop, y, SolveOptions(max_sweeps=60),
                    rng=np.random.default_rng(0))
        assert res.converged
        assert res.termination == "converged"
        assert res.final_vnorm <= 1e-3
        assert np.all(res.a >= 0) and np.all(res.a <= 1)
        assert len(res.trace) == res.sweeps

    def test_trace_rows_format(self, rng):
        pop = random_population(rng, n_devices=6)
        y = random_signal(pop, rng).y
        res = solve(pop, y, SolveOptions(max_sweeps=5),
                    rng=np.random.default_rng(1))
        rows = res.trace_rows()
        assert len(rows) == len(res.trace)
        sweeps, objs, vnorms, times = zip(*rows)
        assert list(sweeps) == list(range(len(rows)))
        assert all(np.isfinite(objs))
        assert all(t >= 0 for t in times)

    def test_trace_carries_recompute_counts(self, rng):
        pop = random_population(rng, n_devices=10, seq_len=6, m_antennas=6)
        y = random_signal(pop, rng).y
        updates = []
        res = solve(pop, y, SolveOptions(max_sweeps=6),
                    rng=np.random.default_rng(7),
                    state=FullState(pop, y, recompute_interval=5),
                    monitor=lambda j, d, delta: updates.append(j))
        counts = [t["recomputes"] for t in res.trace]
        assert counts[-1] == {"scheduled": len(updates) // 5, "condition": 0}
        scheduled = [c["scheduled"] for c in counts]
        assert scheduled == sorted(scheduled)
        assert res.trace_rows()[0][1:3] == (res.trace[0]["objective"],
                                            res.trace[0]["vnorm"])

    def test_sweep_cap_reported(self, rng):
        pop = random_population(rng, n_devices=10, seq_len=4, m_antennas=6)
        y = random_signal(pop, rng).y
        res = solve(pop, y, SolveOptions(max_sweeps=1),
                    rng=np.random.default_rng(2))
        assert not res.converged
        assert res.termination == "sweep_cap"
        assert res.sweeps == 1

    def test_monitor_sees_every_accepted_update(self, rng):
        pop = random_population(rng, n_devices=8)
        y = random_signal(pop, rng).y
        seen = []
        solve(pop, y, SolveOptions(max_sweeps=3),
              rng=np.random.default_rng(3),
              monitor=lambda j, d, delta: seen.append((j, d, delta)))
        assert seen
        assert all(d != 0 for _, d, _ in seen)

    def test_full_rank_identity_devices_diverge_under_exact_steps(self, rng):
        """Scaled-identity kernels have rank M; the assembled polynomials
        overflow there and the solver must fail loudly, not silently."""
        pop = random_population(rng, n_devices=8, seq_len=8, m_antennas=24,
                                n_identity=8, zero_mean=True)
        y = random_signal(pop, rng).y
        res = solve(pop, y, SolveOptions(solver="exact", max_sweeps=10),
                    rng=np.random.default_rng(4))
        assert res.diverged
        assert res.termination.startswith("diverged")

    def test_rank_cap_routes_identity_devices_to_inexact(self, rng):
        pop = random_population(rng, n_devices=8, seq_len=8, m_antennas=24,
                                n_identity=8, zero_mean=True)
        y = random_signal(pop, rng).y
        res = solve(pop, y,
                    SolveOptions(solver="exact", max_sweeps=40,
                                 exact_rank_limit=8),
                    rng=np.random.default_rng(5))
        assert not res.diverged

    def test_invalid_solver_name_rejected(self):
        with pytest.raises(ValueError):
            SolveOptions(solver="bogus")

    def test_divergence_signal_carries_location(self, rng, monkeypatch):
        def dead_roots(kernel):
            raise DivergenceSignal("no usable candidate step")

        monkeypatch.setattr(solvers, "exact_step", dead_roots)
        st_ = random_state(rng, n_devices=4)
        perm = np.random.default_rng(6).permutation(st_.n_coordinates)
        with pytest.raises(DivergenceSignal) as exc:
            sweep(st_, SolveOptions(solver="exact"),
                  np.random.default_rng(6), sweep_index=3)
        assert exc.value.sweep == 3
        assert exc.value.coordinate == perm[0]

    def test_exact_steps_diverge_at_full_rank(self):
        """Rank-24 scaled-identity kernels: nearly every instance makes the
        exact step's polynomial rooting fail within ten sweeps."""
        diverged = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            pop = random_population(rng, n_devices=6, seq_len=8,
                                    m_antennas=24, n_identity=6,
                                    zero_mean=True)
            y = random_signal(pop, rng).y
            diverged += solve(pop, y, SolveOptions(solver="exact",
                                                   max_sweeps=10),
                              rng=seed).diverged
        assert diverged >= 35
