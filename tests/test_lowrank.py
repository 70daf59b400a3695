"""Block-diagonal accelerated state vs the dense reference state."""

import numpy as np
import pytest

from nfdetect.mle import FullState, NumericalFailure
from nfdetect.lowrank import (
    BlockState,
    build_basis,
    transform_problem,
    transform_signal,
)
from nfdetect.population import ScenarioConfig, build_population
from nfdetect.solvers import SolveOptions, solve
from nfdetect.synthesis import sample_truth, synthesize_signal

from conftest import random_population, random_signal


def split_population(rng, n_corr=3, n_devices=10, m_antennas=12, seq_len=5,
                     max_rank=2, zero_mean=False):
    """Population whose devices beyond n_corr carry scaled-identity
    correlation, as the block construction requires."""
    return random_population(rng, n_devices=n_devices, seq_len=seq_len,
                             m_antennas=m_antennas, max_rank=max_rank,
                             n_identity=n_devices - n_corr,
                             zero_mean=zero_mean)


class TestBasis:
    def test_unitary_and_rank(self, rng):
        pop = split_population(rng)
        basis = build_basis(pop, 3)
        m = pop.antenna_count
        assert np.allclose(basis.u.conj().T @ basis.u, np.eye(m), atol=1e-10)
        total = sum(pop.channels[n].correlation_matrix() for n in range(3))
        assert basis.r_prime == np.linalg.matrix_rank(total, tol=1e-8)

    def test_transformed_factors_carry_all_energy(self, rng):
        pop = split_population(rng)
        basis = build_basis(pop, 3)
        for n in range(3):
            full = basis.u.conj().T @ pop.channels[n].corr_factor
            head = basis.corr_hat_factors[n]
            assert np.allclose(head, full[:basis.r_prime])
            assert np.linalg.norm(full[basis.r_prime:]) < 1e-8

    def test_misdeclared_split_rejected(self, rng):
        pop = split_population(rng)
        with pytest.raises(ValueError):
            build_basis(pop, 5)  # devices 3,4 are scaled-identity

    def test_full_rank_sum_rejected(self, rng):
        pop = split_population(rng, n_corr=8, m_antennas=4, max_rank=3)
        with pytest.raises(ValueError):
            build_basis(pop, 8)

    def test_signal_transform_is_isometry(self, rng):
        pop = split_population(rng)
        basis = build_basis(pop, 3)
        y = random_signal(pop, rng).y
        yp = transform_signal(y, basis, pop.seq_len)
        assert np.linalg.norm(yp) == pytest.approx(np.linalg.norm(y))
        # U (U^H y) recovers y
        z = (basis.u @ yp.reshape(pop.antenna_count, pop.seq_len)).ravel()
        assert np.allclose(z, y)


class TestBlockStateEquivalence:
    def build_pair(self, rng, zero_mean=False, a=None):
        pop = split_population(rng, zero_mean=zero_mean)
        y = random_signal(pop, rng).y
        basis = build_basis(pop, 3)
        prob, yp = transform_problem(pop, y, basis)
        a0 = rng.uniform(0, 1, pop.n_coordinates) if a is None else a
        return FullState(pop, y, a0=a0), BlockState(prob, yp, a0=a0)

    def test_objective_matches(self, rng):
        for _ in range(5):
            full, block = self.build_pair(rng)
            assert block.objective() == pytest.approx(full.objective(),
                                                      rel=1e-10)

    def test_gradient_matches(self, rng):
        full, block = self.build_pair(rng)
        assert np.allclose(block.gradient(), full.gradient(), atol=1e-9)

    def test_kernels_give_identical_deltas(self, rng):
        full, block = self.build_pair(rng)
        for j in range(full.n_coordinates):
            kf, kb = full.kernel(j), block.kernel(j)
            assert kb.gradient() == pytest.approx(kf.gradient(), rel=1e-8,
                                                  abs=1e-10)
            for d in (-0.2, 0.15, 0.4):
                assert kb.objective_delta(d) == pytest.approx(
                    kf.objective_delta(d), rel=1e-8, abs=1e-10)

    def test_updates_stay_synchronized(self, rng):
        full, block = self.build_pair(rng)
        for _ in range(15):
            j = int(rng.integers(full.n_coordinates))
            d = float(rng.uniform(-full.a[j], 1.0 - full.a[j]))
            full.apply_update(j, d)
            block.apply_update(j, d)
            assert block.objective() == pytest.approx(full.objective(),
                                                      rel=1e-8)
        assert np.allclose(block.a, full.a)
        v_f, n_f = full.optimality()
        v_b, n_b = block.optimality()
        assert n_b == pytest.approx(n_f, rel=1e-6, abs=1e-9)

    def test_logdet_and_quadratic_form_against_dense(self, rng):
        from nfdetect.synthesis import covariance_matrix
        pop = split_population(rng)
        y = random_signal(pop, rng).y
        basis = build_basis(pop, 3)
        prob, yp = transform_problem(pop, y, basis)
        a = rng.uniform(0, 1, pop.n_coordinates)
        block = BlockState(prob, yp, a0=a)
        sigma = covariance_matrix(pop, a)
        _, logdet = np.linalg.slogdet(sigma)
        assert block.logdet == pytest.approx(float(logdet), rel=1e-10)

    def test_solver_trajectories_identical(self, rng):
        pop = split_population(rng)
        y = random_signal(pop, rng).y
        basis = build_basis(pop, 3)
        opts = SolveOptions(max_sweeps=40)
        res_full = solve(pop, y, opts, rng=np.random.default_rng(1))
        prob, yp = transform_problem(pop, y, basis)
        res_block = solve(pop, y, opts, rng=np.random.default_rng(1),
                          state=BlockState(prob, yp))
        assert res_full.sweeps == res_block.sweeps
        assert np.max(np.abs(res_full.a - res_block.a)) < 1e-8
        for tf, tb in zip(res_full.trace, res_block.trace):
            assert tb["objective"] == pytest.approx(tf["objective"],
                                                    rel=1e-8)


class TestBlockStateInputs:
    def test_non_positive_definite_covariance_raises(self, rng):
        pop = random_population(rng, n_devices=10, seq_len=5, m_antennas=12,
                                max_rank=2, n_identity=7, noise=0.0)
        y = random_signal(pop, rng).y
        prob, yp = transform_problem(pop, y, build_basis(pop, 3))
        with pytest.raises(NumericalFailure):
            BlockState(prob, yp)

    def test_bad_start_rejected(self, rng):
        pop = split_population(rng)
        y = random_signal(pop, rng).y
        prob, yp = transform_problem(pop, y, build_basis(pop, 3))
        a0 = np.full(pop.n_coordinates, 0.5)
        a0[4] = -0.1
        with pytest.raises(ValueError):
            BlockState(prob, yp, a0=a0)
        with pytest.raises(ValueError):
            BlockState(prob, yp, a0=a0[:3])

    def test_empty_head_block_rejected(self, rng):
        pop = split_population(rng, n_corr=0)
        y = random_signal(pop, rng).y
        prob, yp = transform_problem(pop, y, build_basis(pop, 0))
        with pytest.raises(ValueError):
            BlockState(prob, yp)

    def test_rebuilds_counted_over_both_blocks(self, rng):
        pop = split_population(rng)
        y = random_signal(pop, rng).y
        prob, yp = transform_problem(pop, y, build_basis(pop, 3))
        block = BlockState(prob, yp, recompute_interval=2)
        for j in (0, 5, 1, 6, 7):   # devices 0, 1 correlated, 5-7 identity
            block.apply_update(j, 0.3)
        # head rebuilt after updates 2 and 4, tail after its second update
        assert block.recomputes == {"scheduled": 3, "condition": 0}
        full = FullState(pop, y, a0=block.a)
        assert block.objective() == pytest.approx(full.objective(),
                                                  rel=1e-10)


class TestScenarioIntegration:
    def test_scenario_built_split_population(self, rng):
        cfg = ScenarioConfig(n_devices=15, n_active=3, seq_len=6,
                             antenna_count=16, n_correlated=4,
                             n_scatterers=2, channel_case="rician")
        pop = build_population(cfg, rng)
        basis = build_basis(pop, 4)
        assert basis.r_prime <= 8
        truth = sample_truth(15, 3, rng=rng)
        y = synthesize_signal(pop, truth, rng).y
        prob, yp = transform_problem(pop, y, basis)
        # replay the dense solver's accepted steps on the block state and
        # check that both representations agree along the whole path
        steps = []
        ref = solve(pop, y, SolveOptions(max_sweeps=40),
                    rng=np.random.default_rng(2),
                    monitor=lambda j, d, delta: steps.append((j, d)))
        block = BlockState(prob, yp)
        full = FullState(pop, y)
        for j, d in steps:
            full.apply_update(j, d)
            block.apply_update(j, d)
            assert block.objective() == pytest.approx(full.objective(),
                                                      rel=1e-8)
        assert np.max(np.abs(block.a - ref.a)) < 1e-12


class TestWarmStart:
    def test_block_solution_warm_starts_full_solver(self, rng):
        pop = split_population(rng, n_corr=3, m_antennas=12, max_rank=2,
                               n_devices=10)
        y = random_signal(pop, rng).y
        prob, yp = transform_problem(pop, y, build_basis(pop, 3))
        early = solve(pop, y, SolveOptions(max_sweeps=3),
                      rng=np.random.default_rng(3),
                      state=BlockState(prob, yp))
        cold = solve(pop, y, SolveOptions(max_sweeps=40),
                     rng=np.random.default_rng(4))
        warm = solve(pop, y, SolveOptions(max_sweeps=40),
                     rng=np.random.default_rng(4),
                     state=FullState(pop, y, a0=early.a))
        assert early.sweeps == 3 and not early.converged
        assert warm.converged and warm.sweeps < cold.sweeps
        f_warm = FullState(pop, y, a0=warm.a).objective()
        f_cold = FullState(pop, y, a0=cold.a).objective()
        assert f_warm <= f_cold + 1e-3
