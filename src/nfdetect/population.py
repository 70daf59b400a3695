"""Device populations: channel statistics plus signature sequences.

A population flattens to N*Q solver coordinates, one per (device,
sequence) pair; all pseudo-coordinates of one device share its channel
statistics.  Scenario builders generate random geometries, path-loss
gains, power control and sequences deterministically from a seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .geometry import (
    ChannelStats,
    DeviceGeometry,
    GeometryConfig,
    apply_power_control,
    correlation_factor,
    identity_channel_stats,
    los_vector,
    pathloss_amplitude,
    rayleigh_distance,
)
from .synthesis import SignatureSet, generate_sequences

__all__ = ["DevicePopulation", "ScenarioConfig", "build_population",
           "mismatched_population"]


@dataclass
class DevicePopulation:
    """Channel statistics and signature sequences of all devices."""

    channels: list[ChannelStats]
    signatures: SignatureSet
    noise_power: float

    def __post_init__(self):
        if len(self.channels) != self.signatures.n_devices:
            raise ValueError("channel/sequence device counts differ")
        self._factor_cache: dict[int, np.ndarray] = {}
        self._mean_cache: dict[int, np.ndarray] = {}

    @property
    def n_devices(self) -> int:
        return len(self.channels)

    @property
    def antenna_count(self) -> int:
        return self.channels[0].antenna_count

    @property
    def seq_len(self) -> int:
        return self.signatures.seq_len

    @property
    def seqs_per_device(self) -> int:
        return self.signatures.seqs_per_device

    @property
    def n_coordinates(self) -> int:
        return self.n_devices * self.seqs_per_device

    @property
    def signal_dim(self) -> int:
        return self.seq_len * self.antenna_count

    def coordinate_device(self, j: int) -> tuple[int, int]:
        """Map flat coordinate j to (device, sequence) indices."""
        return divmod(j, self.seqs_per_device)

    def coordinate_sequence(self, j: int) -> np.ndarray:
        n, q = self.coordinate_device(j)
        return self.signatures.sequences[n, q]

    def coordinate_mean(self, j: int) -> np.ndarray:
        m = self._mean_cache.get(j)
        if m is None:
            n, q = self.coordinate_device(j)
            m = np.kron(self.channels[n].los_mean,
                        self.signatures.sequences[n, q])
            self._mean_cache[j] = m
        return m

    def coordinate_factor(self, j: int) -> np.ndarray:
        """Kronecker factor X = F (x) s of shape (L*M, r); cached."""
        x = self._factor_cache.get(j)
        if x is None:
            n, q = self.coordinate_device(j)
            s = self.signatures.sequences[n, q]
            x = np.kron(self.channels[n].corr_factor, s[:, None])
            self._factor_cache[j] = x
        return x

    def coordinate_rank(self, j: int) -> int:
        n, _ = self.coordinate_device(j)
        return self.channels[n].corr_rank


@dataclass(frozen=True)
class ScenarioConfig:
    """Random-scenario parameters; fully determines a population per seed."""

    n_devices: int
    n_active: int
    seq_len: int
    antenna_count: int
    n_correlated: int | None = None      # default: all devices correlated
    n_scatterers: int = 4
    seqs_per_device: int = 1
    channel_case: str = "rayleigh"       # rician | rayleigh | uncorrelated
    carrier_wavelength_m: float = 0.1    # 3 GHz
    cell_radius_m: float = 500.0
    scatterer_region_radius_m: float = 200.0
    scatterer_intensity: float = 1.0
    power_dbm: float = -105.1
    noise_dbm: float = -99.0             # -169 dBm/Hz over 10 MHz

    def __post_init__(self):
        if self.channel_case not in ("rician", "rayleigh", "uncorrelated"):
            raise ValueError(f"unknown channel case {self.channel_case!r}")
        if not 0 <= self.n_active <= self.n_devices:
            raise ValueError("need 0 <= K <= N")

    @property
    def geometry(self) -> GeometryConfig:
        return GeometryConfig(
            carrier_wavelength_m=self.carrier_wavelength_m,
            antenna_count=self.antenna_count,
            cell_radius_m=self.cell_radius_m,
            scatterer_region_radius_m=self.scatterer_region_radius_m,
        )

    @property
    def power_target(self) -> float:
        """E||h||^2 target rho*M, in units where the noise power is 1."""
        rho = 10.0 ** ((self.power_dbm - self.noise_dbm) / 10.0)
        return rho * self.antenna_count

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls(**json.loads(text))


def _uniform_disk(rng: np.random.Generator, radius: float, size: int) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(size=size))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=size)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def _correlated_stats(cfg: ScenarioConfig, geom: GeometryConfig,
                      rng: np.random.Generator) -> ChannelStats:
    pos = _uniform_disk(rng, cfg.cell_radius_m, 1)[0]
    scat = _uniform_disk(rng, cfg.scatterer_region_radius_m, cfg.n_scatterers)
    dev = DeviceGeometry(
        position=(pos[0], pos[1]),
        scatterer_positions=tuple((p[0], p[1]) for p in scat),
        is_near_field=np.linalg.norm(pos) < rayleigh_distance(geom),
    )
    beta = pathloss_amplitude(np.linalg.norm(pos) / 1000.0)
    mean = los_vector(dev, geom, beta)
    gains = []
    for p in scat:
        d_dev = max(np.linalg.norm(p - pos), 1.0) / 1000.0
        d_bs = max(np.linalg.norm(p), 1.0) / 1000.0
        gains.append((cfg.scatterer_intensity,
                      pathloss_amplitude(d_dev), pathloss_amplitude(d_bs)))
    factor = correlation_factor(dev, geom, gains)
    return ChannelStats(los_mean=mean, corr_factor=factor, geometry=dev)


def build_population(cfg: ScenarioConfig,
                     rng: np.random.Generator | None = None) -> DevicePopulation:
    """Generate a random population for the configured scenario.

    Devices 0..n_correlated-1 carry scatterer-built low-rank correlation;
    the rest carry trace-matched scaled-identity correlation.  The
    ``uncorrelated`` case replaces every correlation matrix by its
    trace-matched scaled identity; both it and the ``rayleigh`` case zero
    the means, so the two differ only in channel correlation.  Every
    device is power-controlled to E||h||^2 = rho*M exactly.
    """
    rng = np.random.default_rng(rng)
    geom = cfg.geometry
    n_corr = cfg.n_devices if cfg.n_correlated is None else cfg.n_correlated
    channels = []
    for n in range(cfg.n_devices):
        stats = _correlated_stats(cfg, geom, rng)
        if n >= n_corr or cfg.channel_case == "uncorrelated":
            stats = identity_channel_stats(
                cfg.antenna_count, stats.large_scale_gain, los_mean=stats.los_mean)
        if cfg.channel_case in ("rayleigh", "uncorrelated"):
            stats = ChannelStats(los_mean=np.zeros_like(stats.los_mean),
                                 corr_factor=stats.corr_factor,
                                 is_identity_corr=stats.is_identity_corr,
                                 geometry=stats.geometry)
        channels.append(apply_power_control(stats, cfg.power_target))
    signatures = generate_sequences(cfg.n_devices, cfg.seq_len,
                                    cfg.seqs_per_device, rng)
    return DevicePopulation(channels=channels, signatures=signatures,
                            noise_power=1.0)


def mismatched_population(pop: DevicePopulation) -> DevicePopulation:
    """Replace every correlation matrix by tr(R)/M * I (means kept)."""
    channels = [
        identity_channel_stats(ch.antenna_count, ch.large_scale_gain,
                               los_mean=ch.los_mean.copy())
        for ch in pop.channels
    ]
    return DevicePopulation(channels=channels, signatures=pop.signatures,
                            noise_power=pop.noise_power)
