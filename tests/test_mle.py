"""Likelihood objective, gradient and incrementally maintained state."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfdetect.mle import FullState, NumericalFailure, \
    projected_gradient_violation
from nfdetect.synthesis import covariance_matrix, mean_vector

from conftest import random_population, random_signal


def dense_objective(pop, y, a):
    """Independent oracle: assemble everything densely from scratch."""
    sigma = covariance_matrix(pop, a)
    resid = y - mean_vector(pop, a)
    _, logdet = np.linalg.slogdet(sigma)
    return float(logdet
                 + np.real(resid.conj() @ np.linalg.solve(sigma, resid)))


class TestObjective:
    def test_matches_dense_oracle(self, rng):
        pop = random_population(rng)
        y = random_signal(pop, rng).y
        for _ in range(5):
            a = rng.uniform(0, 1, pop.n_coordinates)
            st_ = FullState(pop, y, a0=a)
            assert st_.objective() == pytest.approx(
                dense_objective(pop, y, a), rel=1e-10)

    def test_zero_residual_leaves_logdet_only(self, rng):
        pop = random_population(rng)
        a = rng.uniform(0, 1, pop.n_coordinates)
        y = mean_vector(pop, a)
        st_ = FullState(pop, y, a0=a)
        _, logdet = np.linalg.slogdet(covariance_matrix(pop, a))
        assert st_.objective() == pytest.approx(float(logdet))

    def test_wrong_signal_length_rejected(self, rng):
        pop = random_population(rng)
        with pytest.raises(ValueError):
            FullState(pop, np.zeros(3, complex))


class TestGradient:
    def test_matches_central_finite_differences(self, rng):
        pop = random_population(rng, n_devices=6, seq_len=3, m_antennas=4)
        y = random_signal(pop, rng).y
        a = rng.uniform(0.1, 0.9, pop.n_coordinates)
        grad = FullState(pop, y, a0=a).gradient()
        eps = 1e-6
        for j in range(pop.n_coordinates):
            ap, am = a.copy(), a.copy()
            ap[j] += eps
            am[j] -= eps
            fd = (dense_objective(pop, y, ap)
                  - dense_objective(pop, y, am)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_entrywise_matches_vectorized(self, rng):
        pop = random_population(rng)
        y = random_signal(pop, rng).y
        st_ = FullState(pop, y, a0=rng.uniform(0, 1, pop.n_coordinates))
        grad = st_.gradient()
        for j in range(pop.n_coordinates):
            assert st_.kernel(j).gradient() == pytest.approx(grad[j],
                                                    rel=1e-10)


class TestProjectedGradient:
    def test_interior_violation_is_gradient_magnitude(self):
        a = np.array([0.5, 0.5])
        g = np.array([0.2, -0.3])
        assert np.allclose(projected_gradient_violation(a, g), [0.2, 0.3])

    def test_active_bounds_block_outward_directions(self):
        a = np.array([0.0, 1.0])
        g = np.array([0.7, -0.7])  # pushing further outside the box
        assert np.allclose(projected_gradient_violation(a, g), [0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0, 1), g=st.floats(-10, 10))
    def test_violation_bounded_and_nonnegative(self, a, g):
        v = projected_gradient_violation(np.array([a]), np.array([g]))[0]
        assert 0.0 <= v <= 1.0
        assert v <= abs(g) + 1e-12


class TestMaintainedState:
    def test_woodbury_matches_dense_recompute(self, rng):
        """100 random update sequences with mixed ranks."""
        for trial in range(100):
            pop = random_population(
                rng, n_devices=int(rng.integers(3, 13)),
                seq_len=int(rng.integers(2, 7)),
                m_antennas=int(rng.integers(2, 7)),
                n_identity=int(rng.integers(0, 3)))
            y = random_signal(pop, rng).y
            st_ = FullState(pop, y, recompute_interval=10 ** 9)
            for _ in range(6):
                j = int(rng.integers(pop.n_coordinates))
                lo, hi = -st_.a[j], 1.0 - st_.a[j]
                st_.apply_update(j, float(rng.uniform(lo, hi)))
            sigma = covariance_matrix(pop, st_.a)
            inv = np.linalg.inv(sigma)
            rel = (np.linalg.norm(st_.sigma_inv - inv)
                   / np.linalg.norm(inv))
            assert rel < 1e-8
            _, logdet = np.linalg.slogdet(sigma)
            assert abs(st_.logdet - float(logdet)) < 1e-6

    def test_residual_tracks_mean(self, rng):
        pop = random_population(rng)
        y = random_signal(pop, rng).y
        st_ = FullState(pop, y)
        for _ in range(10):
            j = int(rng.integers(pop.n_coordinates))
            st_.apply_update(j, float(rng.uniform(0, 1.0 - st_.a[j])))
        assert np.allclose(st_.residual, y - mean_vector(pop, st_.a))

    def test_periodic_recompute_resets_drift(self, rng):
        pop = random_population(rng, n_devices=4)
        y = random_signal(pop, rng).y
        st_ = FullState(pop, y, recompute_interval=3)
        for _ in range(7):
            j = int(rng.integers(pop.n_coordinates))
            st_.apply_update(j, float(rng.uniform(0, 1.0 - st_.a[j])))
        # rebuilt after the third and the sixth update
        assert st_.recomputes == {"scheduled": 2, "condition": 0}
        inv = np.linalg.inv(covariance_matrix(pop, st_.a))
        assert np.allclose(st_.sigma_inv, inv, atol=1e-10)

    def test_ill_conditioned_step_rebuilds_and_is_counted(self, rng):
        """Removing the only device leaves Sigma = noise * I; the Woodbury
        system c = I - G is then of the order of the noise and the step is
        replaced by a rebuild."""
        pop = random_population(rng, n_devices=1, seq_len=2, m_antennas=2,
                                max_rank=1, noise=1e-12)
        y = random_signal(pop, rng).y
        st_ = FullState(pop, y, a0=[1.0])
        st_.apply_update(0, -1.0)
        assert st_.recomputes == {"scheduled": 0, "condition": 1}
        assert np.allclose(st_.sigma_inv * 1e-12, np.eye(4), atol=1e-12)
        assert st_.logdet == pytest.approx(4 * np.log(1e-12))

    def test_zero_step_is_identity(self, rng):
        pop = random_population(rng)
        y = random_signal(pop, rng).y
        st_ = FullState(pop, y)
        before = st_.sigma_inv.copy()
        st_.apply_update(0, 0.0)
        assert np.array_equal(st_.sigma_inv, before)


class TestStepKernel:
    def test_objective_delta_matches_dense_difference(self, rng):
        pop = random_population(rng, n_devices=6)
        y = random_signal(pop, rng).y
        a = rng.uniform(0.2, 0.8, pop.n_coordinates)
        st_ = FullState(pop, y, a0=a)
        f0 = dense_objective(pop, y, a)
        for j in range(pop.n_coordinates):
            k = st_.kernel(j)
            for d in (-0.15, 0.1, 0.2):
                a2 = a.copy()
                a2[j] += d
                assert k.objective_delta(d) == pytest.approx(
                    dense_objective(pop, y, a2) - f0, rel=1e-8, abs=1e-8)

    def test_gradient_is_delta_slope_at_zero(self, rng):
        pop = random_population(rng, n_devices=5)
        y = random_signal(pop, rng).y
        st_ = FullState(pop, y, a0=rng.uniform(0.3, 0.7, pop.n_coordinates))
        for j in range(pop.n_coordinates):
            k = st_.kernel(j)
            eps = 1e-7
            slope = (k.objective_delta(eps) - k.objective_delta(-eps)) / (2 * eps)
            assert k.gradient() == pytest.approx(slope, rel=1e-5, abs=1e-8)

    def test_box_reflects_iterate(self, rng):
        pop = random_population(rng)
        y = random_signal(pop, rng).y
        a = rng.uniform(0, 1, pop.n_coordinates)
        st_ = FullState(pop, y, a0=a)
        for j in (0, pop.n_coordinates - 1):
            lo, hi = st_.kernel(j).box
            assert lo == pytest.approx(-a[j])
            assert hi == pytest.approx(1.0 - a[j])


class TestInputValidation:
    def test_non_positive_definite_covariance_raises(self, rng):
        pop = random_population(rng, noise=0.0)
        y = random_signal(pop, rng).y
        with pytest.raises(NumericalFailure):
            FullState(pop, y)

    @pytest.mark.parametrize("bad", ["negative", "above_one", "nan",
                                     "short"])
    def test_bad_start_rejected(self, rng, bad):
        pop = random_population(rng)
        y = random_signal(pop, rng).y
        a0 = np.full(pop.n_coordinates, 0.5)
        if bad == "negative":
            a0[1] = -0.1
        elif bad == "above_one":
            a0[0] = 1.5
        elif bad == "nan":
            a0[2] = np.nan
        else:
            a0 = a0[:-1]
        with pytest.raises(ValueError):
            FullState(pop, y, a0=a0)
