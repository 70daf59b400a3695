"""Shared fixtures and instance builders."""

import os

# One BLAS thread, set before numpy loads: numpy and scipy each load their
# own OpenBLAS, and on few cores their worker threads compete and slow the
# dense solver state several times over.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from nfdetect.geometry import ChannelStats, identity_channel_stats
from nfdetect.population import DevicePopulation, ScenarioConfig, \
    build_population
from nfdetect.synthesis import generate_sequences, sample_truth, \
    synthesize_signal


def random_population(rng, n_devices=8, seq_len=4, m_antennas=5,
                      max_rank=3, n_identity=0, zero_mean=False,
                      noise=1.0) -> DevicePopulation:
    """Hand-rolled population with arbitrary mixed-rank statistics.

    Unlike the scenario builder this places no geometric structure on the
    factors, which makes it a better adversary for linear-algebra oracles.
    """
    channels = []
    for n in range(n_devices):
        if n >= n_devices - n_identity:
            gain = float(rng.uniform(0.2, 2.0))
            mean = np.zeros(m_antennas, dtype=complex)
            if not zero_mean:
                mean = (rng.standard_normal(m_antennas)
                        + 1j * rng.standard_normal(m_antennas)) * 0.3
            channels.append(identity_channel_stats(m_antennas, gain, mean))
            continue
        r = int(rng.integers(1, max_rank + 1))
        f = (rng.standard_normal((m_antennas, r))
             + 1j * rng.standard_normal((m_antennas, r))) / np.sqrt(2 * r)
        mean = np.zeros(m_antennas, dtype=complex)
        if not zero_mean:
            mean = (rng.standard_normal(m_antennas)
                    + 1j * rng.standard_normal(m_antennas)) * 0.3
        channels.append(ChannelStats(los_mean=mean, corr_factor=f))
    seqs = generate_sequences(n_devices, seq_len, 1, rng)
    return DevicePopulation(channels=channels, signatures=seqs,
                            noise_power=noise)


def random_signal(pop, rng, n_active=None):
    k = n_active if n_active is not None else max(1, pop.n_devices // 3)
    truth = sample_truth(pop.n_devices, k, pop.seqs_per_device, rng)
    return synthesize_signal(pop, truth, rng)


def desk_scenario(**overrides) -> ScenarioConfig:
    kwargs = dict(n_devices=50, n_active=5, seq_len=10, antenna_count=16,
                  n_scatterers=4, channel_case="rician")
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
