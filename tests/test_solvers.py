"""Coordinate-descent steps, sweeps and the full solve loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P
from scipy.optimize import minimize_scalar

from nfdetect import solvers
from nfdetect.mle import FullState, StepKernel
from nfdetect.population import ScenarioConfig, build_population
from nfdetect.synthesis import sample_truth, synthesize_signal
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

from conftest import desk_scenario, random_population, random_signal


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

    def test_quadratic_without_cancellation(self):
        """A nearly vanishing d^2 term next to a large d term: the small
        root keeps full precision (the textbook formula loses it)."""
        c0, c1, c2 = 1e-3, 324.0, 1e-8
        roots = _cubic_roots_in((c0, c1, c2, 0.0), -1.0, 1.0)
        small = -2 * c0 / (c1 + np.sqrt(c1 * c1 - 4 * c2 * c0))
        assert roots == [pytest.approx(small, rel=1e-14)]

    def test_cardano_roots_polished_for_tiny_leading_term(self):
        c = (1e-3, 324.0, -6e-3, 4e-11)
        roots = _cubic_roots_in(c, -1.0, 1.0)
        assert len(roots) == 1
        assert abs(P.polyval(roots[0], c)) <= 1e-15 * c[1] * abs(roots[0])


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


def surrogate(kernel, mu, d):
    """The inexact step's model of the objective change, evaluated at each
    step in ``d`` from its definition: log|I + d G| linearized to d tr G,
    (I + d G)^{-1} replaced by I - d G, plus the regularizer (mu/2) d^2.
    Returns the model values and the sum of the terms' magnitudes."""
    d = np.asarray(d, dtype=float)
    g, u, t = kernel.gram, kernel.resid_proj, kernel.mean_proj
    res = np.eye(g.shape[0])[None] - d[:, None, None] * g[None]
    ru, rt = res @ u, res @ t
    terms = np.stack([
        d * np.trace(g).real, -2 * d * kernel.mean_lin,
        d ** 2 * kernel.mean_quad, -d * np.real(ru @ u.conj()),
        2 * d ** 2 * np.real(rt @ u.conj()), -d ** 3 * np.real(rt @ t.conj()),
        0.5 * mu * d ** 2])
    return terms.sum(axis=0), np.abs(terms).sum(axis=0)


@st.composite
def surrogate_kernels(draw):
    """Random kernels whose surrogate spans many scales, down to a nearly
    vanishing cubic and quartic term next to a large regularizer."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = draw(st.integers(1, 4))

    def cnormal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    f = cnormal(r, r) * 10.0 ** draw(st.integers(-3, 1))
    gram = f @ f.conj().T
    u = cnormal(r) * 10.0 ** draw(st.integers(-4, 1))
    t = cnormal(r) * 10.0 ** draw(st.integers(-9, 0))
    slope = draw(st.sampled_from([-1.0, 1.0])) * \
        10.0 ** draw(st.floats(-9, 2))
    a = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    kernel = StepKernel(
        gram=gram, resid_proj=u, mean_proj=t,
        mean_lin=0.5 * (np.trace(gram).real - np.vdot(u, u).real - slope),
        mean_quad=float(rng.uniform(0, 2)) * 10.0 ** draw(st.integers(-4, 2)),
        box=(-a, 1.0 - a))
    mu = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0, 100.0]))
    return kernel, mu


class TestInexactStepMinimizesSurrogate:
    @settings(max_examples=300, deadline=None)
    @given(surrogate_kernels())
    def test_matches_grid_and_refine_minimizer(self, case):
        kernel, mu = case
        lo, hi = kernel.box
        d = inexact_step(kernel, mu)
        assert lo <= d <= hi
        grid = np.concatenate([np.linspace(lo, hi, 4001), [0.0]])
        vals, _ = surrogate(kernel, mu, grid)
        best = grid[int(np.argmin(vals))]
        h = (hi - lo) / 4000
        refined = minimize_scalar(
            lambda x: surrogate(kernel, mu, [x])[0][0], method="bounded",
            bounds=(max(lo, best - h), min(hi, best + h)),
            options={"xatol": 1e-15}).x
        ref_val, ref_mag = surrogate(kernel, mu, [best, refined])
        k = int(np.argmin(ref_val))
        (step_val,), (step_mag,) = surrogate(kernel, mu, [d])
        assert step_val <= ref_val[k] + 1e-9 * max(ref_mag[k], step_mag)


class TestSweepAndSolve:
    def test_inexact_objective_nonincreasing_across_sweeps(self, rng):
        pop = random_population(rng, n_devices=12, seq_len=5, m_antennas=6)
        y = random_signal(pop, rng).y
        st_ = FullState(pop, y)
        opts = SolveOptions(solver="inexact")
        prev = st_.objective()
        for i in range(8):
            f, _ = sweep(st_, opts, np.random.default_rng(i), sweep_index=i)
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

    def test_out_of_range_options_rejected(self):
        nan, inf = float("nan"), float("inf")
        for bad in (dict(max_sweeps=0), dict(max_sweeps=-3),
                    dict(epsilon=-1e-3), dict(epsilon=nan),
                    dict(epsilon=inf), dict(mu=-1.0), dict(mu=inf),
                    dict(divergence_threshold=0.0),
                    dict(divergence_threshold=-1.0),
                    dict(divergence_threshold=inf)):
            with pytest.raises(ValueError):
                SolveOptions(**bad)
        SolveOptions(max_sweeps=1, epsilon=0.0, mu=0.0,
                     divergence_threshold=1e-9)

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

    def test_stable_step_converges_on_stalling_instance(self):
        """An instance on which an ill-conditioned step root left vnorm
        stuck near 0.0105 until the sweep cap."""
        cfg = ScenarioConfig(n_devices=100, n_active=10, seq_len=20,
                             antenna_count=32, channel_case="rician")
        rng = np.random.default_rng(0)
        pop = build_population(cfg, rng)
        truth = sample_truth(cfg.n_devices, cfg.n_active, rng=rng)
        y = synthesize_signal(pop, truth, rng).y
        res = solve(pop, y, SolveOptions(max_sweeps=80), rng=1)
        assert res.converged
        assert res.sweeps <= 30
        assert set(np.flatnonzero(res.a > 0.5)) == set(truth.active_set)


class TestWorkingSet:
    def test_trace_counts_visits_and_updates(self, rng):
        pop = random_population(rng, n_devices=10, seq_len=6, m_antennas=6)
        y = random_signal(pop, rng).y
        for solver in ("inexact", "exact"):
            seen = []
            res = solve(pop, y, SolveOptions(solver=solver, max_sweeps=20),
                        rng=np.random.default_rng(8),
                        monitor=lambda j, d, delta: seen.append(j))
            visited = [t["visited"] for t in res.trace]
            assert visited[0] == pop.n_coordinates
            assert sum(t["updates"] for t in res.trace) == len(seen)
            assert all(t["updates"] <= t["visited"] for t in res.trace)
        assert visited == [pop.n_coordinates] * res.sweeps  # exact: full

    def test_inactive_devices_leave_the_working_set(self, rng):
        cfg = desk_scenario()
        pop = build_population(cfg, rng)
        truth = sample_truth(cfg.n_devices, cfg.n_active, rng=rng)
        y = synthesize_signal(pop, truth, rng).y
        res = solve(pop, y, rng=np.random.default_rng(9))
        assert res.converged
        assert min(t["visited"] for t in res.trace[1:]) < pop.n_coordinates

    def test_working_set_is_the_violating_coordinates(self, rng):
        """Each later sweep visits exactly the coordinates whose violation
        was above 0 after the sweep before it."""
        pop = random_population(rng, n_devices=16, seq_len=6, m_antennas=6)
        y = random_signal(pop, rng, n_active=3).y
        visits, expected = [set()], []

        class Recording(FullState):
            def kernel(self, j):
                visits[-1].add(j)
                return super().kernel(j)

            def optimality(self):
                v, vnorm = super().optimality()
                expected.append(set(np.flatnonzero(v > 0)))
                visits.append(set())
                return v, vnorm

        res = solve(pop, y, SolveOptions(max_sweeps=8),
                    rng=np.random.default_rng(10),
                    state=Recording(pop, y))
        assert visits[0] == set(range(pop.n_coordinates))
        assert min(map(len, expected[:res.sweeps - 1])) < pop.n_coordinates
        for i in range(1, res.sweeps):
            assert visits[i] == expected[i - 1]

