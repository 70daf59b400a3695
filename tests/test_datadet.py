"""Joint activity and data detection through the experiment harness.

A plan's ``bits`` gives each device 2^bits signature sequences; the
harness reads each device's activity score (its largest soft value) and
its symbol (the index of that value) from the relaxed solution.
"""

import numpy as np
import pytest

from nfdetect import harness
from nfdetect.harness import ExperimentPlan, _run_trial
from nfdetect.population import ScenarioConfig, build_population
from nfdetect.solvers import SolveOptions, SolveResult
from nfdetect.synthesis import sample_truth

CFG = ScenarioConfig(n_devices=6, n_active=4, seq_len=4, antenna_count=4,
                     n_scatterers=2, channel_case="rician",
                     seqs_per_device=2)
SEED = np.random.SeedSequence(3)


def replayed_truth():
    """The truth that a trial seeded with SEED samples first."""
    return sample_truth(CFG.n_devices, CFG.n_active, CFG.seqs_per_device,
                        np.random.default_rng(SEED))


def read_out(monkeypatch, a):
    """The harness's outcome of a trial whose solve returns ``a``."""
    result = SolveResult(a=np.asarray(a, dtype=float), trace=[],
                         converged=True, diverged=False,
                         termination="converged", sweeps=1)
    monkeypatch.setattr(harness, "solve", lambda *args, **kwargs: result)
    pop = build_population(CFG, np.random.default_rng(0))
    return _run_trial(pop, pop, CFG, SolveOptions(), SEED)


class TestConfig:
    def test_set_size_powers_of_two(self):
        plan = ExperimentPlan(base=dict(n_devices=4, n_active=1, seq_len=4,
                                        antenna_count=4),
                              sweep_points=({}, {"bits": 0}, {"bits": 3}),
                              bits=1)
        assert [plan.point_config(p).seqs_per_device
                for p in plan.sweep_points] == [2, 1, 8]

    def test_negative_bits_rejected(self):
        base = dict(n_devices=4, n_active=1, seq_len=4, antenna_count=4)
        with pytest.raises(ValueError):
            ExperimentPlan(base=base, sweep_points=({},), bits=-1)
        with pytest.raises(ValueError):
            ExperimentPlan(base=base, sweep_points=({}, {"bits": -1}))


class TestDecode:
    def test_one_hot_decodes_to_symbol(self, monkeypatch):
        truth = replayed_truth()
        a = truth.activity_vector(CFG.n_devices, CFG.seqs_per_device)
        # move the first active device's unit mass to the other sequence
        n, q = truth.active_set[0], truth.symbols[0]
        a[2 * n + q], a[2 * n + 1 - q] = 0.0, 1.0
        out = read_out(monkeypatch, a)
        assert np.array_equal(out.active_mask, out.scores == 1.0)
        assert np.count_nonzero(out.active_mask) == CFG.n_active
        assert out.symbol_hit.tolist() == [False, True, True, True]

    def test_ties_break_to_lowest_index(self, monkeypatch):
        truth = replayed_truth()
        assert set(truth.symbols) == {0, 1}
        out = read_out(monkeypatch, np.full(2 * CFG.n_devices, 0.7))
        assert np.all(out.scores == 0.7)
        assert np.array_equal(out.symbol_hit, np.array(truth.symbols) == 0)


class TestEndToEnd:
    def test_one_bit_detection_recovers_truth_in_easy_regime(self):
        cfg = ScenarioConfig(n_devices=8, n_active=2, seq_len=12,
                             antenna_count=8, n_scatterers=2,
                             channel_case="rician", seqs_per_device=2)
        pop = build_population(cfg, np.random.default_rng(9))
        out = _run_trial(pop, pop, cfg, SolveOptions(max_sweeps=40),
                         np.random.SeedSequence(10))
        assert np.array_equal(out.scores > 0.5, out.active_mask)
        assert out.symbol_hit.tolist() == [True, True]
