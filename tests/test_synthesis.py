"""Signature sequences, activity sampling and signal synthesis."""

import numpy as np
import pytest
from scipy.stats import chisquare

from nfdetect.geometry import ChannelStats
from nfdetect.population import DevicePopulation, ScenarioConfig, \
    build_population
from nfdetect.synthesis import (
    QPSK_ALPHABET,
    ActivityTruth,
    covariance_matrix,
    generate_sequences,
    mean_vector,
    sample_truth,
    synthesize_signal,
)


class TestSequences:
    def test_alphabet_unit_power(self):
        assert np.allclose(np.abs(QPSK_ALPHABET), 1.0)
        assert len(set(np.round(QPSK_ALPHABET, 12))) == 4

    def test_shape_and_membership(self):
        s = generate_sequences(7, 5, 3, np.random.default_rng(0))
        assert s.sequences.shape == (7, 3, 5)
        flat = s.sequences.ravel()
        dists = np.min(np.abs(flat[:, None] - QPSK_ALPHABET[None, :]), axis=1)
        assert np.max(dists) < 1e-12

    def test_symbols_uniform_chisquare(self):
        s = generate_sequences(100, 40, 1, np.random.default_rng(1))
        flat = s.sequences.ravel()
        counts = np.array([np.sum(np.abs(flat - a) < 1e-12)
                           for a in QPSK_ALPHABET])
        assert counts.sum() == flat.size
        assert chisquare(counts).pvalue > 1e-4

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            generate_sequences(0, 5)
        with pytest.raises(ValueError):
            generate_sequences(5, 0)


class TestTruthSampling:
    def test_active_count_and_ordering(self):
        t = sample_truth(20, 6, 4, np.random.default_rng(2))
        assert len(t.active_set) == 6
        assert list(t.active_set) == sorted(set(t.active_set))
        assert all(0 <= q < 4 for q in t.symbols)

    def test_zero_active_devices(self):
        t = sample_truth(10, 0, rng=np.random.default_rng(3))
        assert t.active_set == ()
        assert np.all(t.activity_vector(10) == 0)

    def test_activity_vector_one_hot_per_active_device(self):
        t = ActivityTruth(active_set=(1, 4), symbols=(2, 0))
        a = t.activity_vector(5, seqs_per_device=3)
        assert a.shape == (15,)
        assert a[1 * 3 + 2] == 1.0 and a[4 * 3 + 0] == 1.0
        assert a.sum() == 2.0

    def test_all_devices_covered_over_many_draws(self):
        rng = np.random.default_rng(4)
        seen = set()
        for _ in range(200):
            seen.update(sample_truth(8, 2, rng=rng).active_set)
        assert seen == set(range(8))


def tiny_population(noise=1.0):
    """Two devices: one deterministic (zero scatter), one scattered."""
    m, l = 3, 4
    rng = np.random.default_rng(5)
    mean0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    ch0 = ChannelStats(los_mean=mean0,
                       corr_factor=np.zeros((m, 1), dtype=complex))
    f1 = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    ch1 = ChannelStats(los_mean=np.zeros(m, complex), corr_factor=f1)
    seqs = generate_sequences(2, l, 1, rng)
    return DevicePopulation(channels=[ch0, ch1], signatures=seqs,
                            noise_power=noise)


class TestSynthesis:
    def test_deterministic_channel_zero_noise(self):
        pop = tiny_population(noise=0.0)
        truth = ActivityTruth(active_set=(0,), symbols=(0,))
        sig = synthesize_signal(pop, truth, np.random.default_rng(6))
        expected = np.kron(pop.channels[0].los_mean,
                           pop.signatures.sequences[0, 0])
        assert np.allclose(sig.y, expected)

    def test_vectorization_index_order(self):
        # entry m*L + l must be antenna m, chip l
        pop = tiny_population(noise=0.0)
        truth = ActivityTruth(active_set=(0,), symbols=(0,))
        y = synthesize_signal(pop, truth, np.random.default_rng(7)).y
        h = pop.channels[0].los_mean
        s = pop.signatures.sequences[0, 0]
        l = pop.seq_len
        for m in range(pop.antenna_count):
            for chip in range(l):
                assert y[m * l + chip] == pytest.approx(h[m] * s[chip])

    def test_out_of_range_truth_rejected(self):
        pop = tiny_population()
        with pytest.raises(ValueError):
            synthesize_signal(pop, ActivityTruth((5,), (0,)))
        with pytest.raises(ValueError):
            synthesize_signal(pop, ActivityTruth((0,), (3,)))

    def test_empirical_covariance_matches_model(self):
        pop = tiny_population(noise=0.5)
        truth = ActivityTruth(active_set=(1,), symbols=(0,))
        rng = np.random.default_rng(8)
        trials = 4000
        lm = pop.signal_dim
        acc = np.zeros((lm, lm), dtype=complex)
        for _ in range(trials):
            y = synthesize_signal(pop, truth, rng).y
            acc += np.outer(y, y.conj())
        emp = acc / trials
        model = covariance_matrix(pop, truth.activity_vector(2))
        err = np.linalg.norm(emp - model) / np.linalg.norm(model)
        assert err < 0.1

    def test_empirical_mean_matches_model(self):
        pop = tiny_population(noise=0.5)
        truth = ActivityTruth(active_set=(0, 1), symbols=(0, 0))
        rng = np.random.default_rng(9)
        acc = np.zeros(pop.signal_dim, dtype=complex)
        trials = 2000
        for _ in range(trials):
            acc += synthesize_signal(pop, truth, rng).y
        model = mean_vector(pop, truth.activity_vector(2))
        assert np.linalg.norm(acc / trials - model) \
            / max(np.linalg.norm(model), 1.0) < 0.1


class TestModelAssembly:
    def test_covariance_is_noise_identity_at_zero_activity(self):
        pop = tiny_population(noise=2.0)
        sigma = covariance_matrix(pop, np.zeros(2))
        assert np.allclose(sigma, 2.0 * np.eye(pop.signal_dim))

    def test_covariance_linear_in_activity(self):
        pop = tiny_population()
        a1 = np.array([0.3, 0.0])
        a2 = np.array([0.0, 0.6])
        lhs = covariance_matrix(pop, a1 + a2)
        rhs = (covariance_matrix(pop, a1) + covariance_matrix(pop, a2)
               - pop.noise_power * np.eye(pop.signal_dim))
        assert np.allclose(lhs, rhs)

    def test_covariance_psd_hermitian(self):
        pop = tiny_population()
        sigma = covariance_matrix(pop, np.array([0.7, 0.9]))
        assert np.allclose(sigma, sigma.conj().T)
        assert np.min(np.linalg.eigvalsh(sigma)) > 0

    def test_mean_vector_matches_kron_sum(self):
        pop = tiny_population()
        a = np.array([0.4, 1.0])
        expected = (0.4 * np.kron(pop.channels[0].los_mean,
                                  pop.signatures.sequences[0, 0])
                    + 1.0 * np.kron(pop.channels[1].los_mean,
                                    pop.signatures.sequences[1, 0]))
        assert np.allclose(mean_vector(pop, a), expected)


class TestSequenceSets:
    """A device with 2^J sequences contributes one pseudo-coordinate per
    sequence, all with the device's channel statistics."""

    @staticmethod
    def two_sequence_population(**overrides):
        kwargs = dict(n_devices=4, n_active=1, seq_len=4, antenna_count=5,
                      n_scatterers=2, channel_case="rician",
                      seqs_per_device=2)
        kwargs.update(overrides)
        return build_population(ScenarioConfig(**kwargs),
                                np.random.default_rng(0))

    def test_pseudo_coordinates_share_channel_statistics(self):
        pop = self.two_sequence_population()
        assert pop.n_coordinates == 4 * 2
        for j in range(pop.n_coordinates):
            n, q = pop.coordinate_device(j)
            ch, s = pop.channels[n], pop.signatures.sequences[n, q]
            assert pop.coordinate_rank(j) == ch.corr_rank
            assert np.allclose(pop.coordinate_factor(j),
                               np.kron(ch.corr_factor, s[:, None]))
            assert np.allclose(pop.coordinate_mean(j),
                               np.kron(ch.los_mean, s))

    def test_expanded_covariance_matches_direct_sum(self, rng):
        pop = self.two_sequence_population(n_devices=2, seq_len=3,
                                           antenna_count=3)
        a = rng.uniform(0, 1, 4)
        sigma = covariance_matrix(pop, a)
        direct = pop.noise_power * np.eye(pop.signal_dim, dtype=complex)
        for n in range(2):
            r = pop.channels[n].correlation_matrix()
            for q in range(2):
                s = pop.signatures.sequences[n, q]
                direct += a[n * 2 + q] * np.kron(r, np.outer(s, s.conj()))
        assert np.allclose(sigma, direct)


class TestScenarioBuilder:
    def test_power_control_across_cases(self):
        for case in ("rician", "rayleigh", "uncorrelated"):
            cfg = ScenarioConfig(n_devices=5, n_active=2, seq_len=4,
                                 antenna_count=6, n_scatterers=3,
                                 channel_case=case)
            pop = build_population(cfg, np.random.default_rng(10))
            for ch in pop.channels:
                assert ch.mean_energy() == pytest.approx(cfg.power_target)

    def test_rayleigh_and_uncorrelated_zero_mean(self):
        for case in ("rayleigh", "uncorrelated"):
            cfg = ScenarioConfig(n_devices=4, n_active=1, seq_len=4,
                                 antenna_count=6, channel_case=case)
            pop = build_population(cfg, np.random.default_rng(11))
            for ch in pop.channels:
                assert np.all(ch.los_mean == 0)

    def test_uncorrelated_case_scaled_identity(self):
        cfg = ScenarioConfig(n_devices=4, n_active=1, seq_len=4,
                             antenna_count=6, channel_case="uncorrelated")
        pop = build_population(cfg, np.random.default_rng(12))
        for ch in pop.channels:
            assert ch.is_identity_corr
            g = ch.large_scale_gain
            assert np.allclose(ch.correlation_matrix(), g * np.eye(6))

    def test_correlated_split(self):
        cfg = ScenarioConfig(n_devices=6, n_active=2, seq_len=4,
                             antenna_count=6, n_correlated=2,
                             n_scatterers=3, channel_case="rician")
        pop = build_population(cfg, np.random.default_rng(13))
        for n, ch in enumerate(pop.channels):
            assert ch.is_identity_corr == (n >= 2)
            if n < 2:
                assert ch.corr_rank == 3

    def test_builder_deterministic_per_seed(self):
        cfg = ScenarioConfig(n_devices=4, n_active=2, seq_len=4,
                             antenna_count=6, channel_case="rician")
        p1 = build_population(cfg, np.random.default_rng(14))
        p2 = build_population(cfg, np.random.default_rng(14))
        assert np.array_equal(p1.signatures.sequences, p2.signatures.sequences)
        for c1, c2 in zip(p1.channels, p2.channels):
            assert np.array_equal(c1.los_mean, c2.los_mean)
            assert np.array_equal(c1.corr_factor, c2.corr_factor)

    def test_config_json_roundtrip(self):
        cfg = ScenarioConfig(n_devices=4, n_active=2, seq_len=4,
                             antenna_count=6, channel_case="rician")
        assert ScenarioConfig.from_json(cfg.to_json()) == cfg

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_devices=4, n_active=5, seq_len=4,
                           antenna_count=6)
        with pytest.raises(ValueError):
            ScenarioConfig(n_devices=4, n_active=1, seq_len=4,
                           antenna_count=6, channel_case="bogus")
