"""Experiment plans, PM/PF aggregation and CSV emission."""

import dataclasses

import numpy as np
import pytest

from nfdetect.harness import (
    ExperimentPlan,
    baseline_mismatched,
    convergence_table,
    error_probability,
    render_csv,
    report_rows,
    run_experiment,
    run_point,
    threshold_grid,
    _run_trial,
)
from nfdetect.population import ScenarioConfig, build_population, \
    mismatched_population
from nfdetect.solvers import SolveOptions, solve
from nfdetect.synthesis import sample_truth, synthesize_signal


def tiny_plan(**overrides):
    kwargs = dict(
        base=dict(n_devices=10, n_active=2, seq_len=5, antenna_count=6,
                  n_scatterers=2, channel_case="rician"),
        sweep_variable="seq_len",
        sweep_points=({"seq_len": 4}, {"seq_len": 6}),
        trials=5, seed=42, max_sweeps=15)
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


class TestPlan:
    def test_json_roundtrip(self):
        plan = tiny_plan()
        again = ExperimentPlan.from_json(plan.to_json())
        assert again == plan

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_plan(trials=0)
        with pytest.raises(ValueError):
            tiny_plan(sweep_points=())
        with pytest.raises(ValueError):
            tiny_plan(model="bogus")
        base = tiny_plan().base
        for bad in (dict(base={**base, "bits": 1}),
                    dict(base={**base, "seqs_per_device": 2}),
                    dict(sweep_points=({"seqs_per_device": 2},)),
                    dict(bits=-1),
                    dict(sweep_points=({"bits": 1}, {"bits": -1})),
                    dict(workers=0),
                    dict(max_sweeps=0),
                    dict(epsilon=-1e-3),
                    dict(epsilon=float("nan")),
                    dict(mu=float("inf")),
                    dict(mu=-1.0)):
            with pytest.raises(ValueError):
                tiny_plan(**bad)

    def test_point_config_applies_overrides(self):
        plan = tiny_plan(bits=1)
        cfg = plan.point_config({"seq_len": 7})
        assert cfg.seq_len == 7
        assert cfg.seqs_per_device == 2
        assert cfg.n_devices == 10

    def test_point_labels(self):
        plan = tiny_plan()
        assert plan.point_label({"seq_len": 4}) == "4"
        assert plan.point_label({}) == "base"


class TestErrorProbability:
    def test_constant_equal_curves(self):
        grid = threshold_grid(64)
        val, crossed = error_probability(grid, np.full(64, 0.1),
                                         np.full(64, 0.1))
        assert val == pytest.approx(0.1)
        assert crossed

    def test_symmetric_linear_crossing(self):
        grid = threshold_grid(511)
        val, crossed = error_probability(grid, grid, 1.0 - grid)
        assert crossed
        assert val == pytest.approx(0.5, abs=1e-3)

    def test_never_crossing_flags_endpoint(self):
        grid = threshold_grid(64)
        pm = np.zeros(64)
        pf = np.full(64, 0.4)
        val, crossed = error_probability(grid, pm, pf)
        assert not crossed
        assert val == pytest.approx(0.2)

    def test_matches_dense_grid_oracle_on_empirical_curves(self):
        cfg = ScenarioConfig(n_devices=20, n_active=3, seq_len=5,
                             antenna_count=8, n_scatterers=3,
                             channel_case="rician", power_dbm=-116)
        rep = run_point(cfg, SolveOptions(max_sweeps=15), trials=15,
                        seed_seq=np.random.SeedSequence(0))
        assert rep.crossed
        # dense-resample both step curves and locate the crossing directly
        dense = np.arange(1e-4, 1.0, 1e-4)
        pm_d = np.interp(dense, rep.thresholds, rep.pm_curve)
        pf_d = np.interp(dense, rep.thresholds, rep.pf_curve)
        i = int(np.argmin(np.abs(pm_d - pf_d)))
        oracle = 0.5 * (pm_d[i] + pf_d[i])
        assert rep.error_probability == pytest.approx(oracle, abs=1e-3)


class TestAggregation:
    def test_hand_tallied_counts_on_five_trials(self):
        cfg = ScenarioConfig(n_devices=8, n_active=2, seq_len=4,
                             antenna_count=6, n_scatterers=2,
                             channel_case="rician", power_dbm=-112)
        opts = SolveOptions(max_sweeps=15)
        seq = np.random.SeedSequence(7)
        rep = run_point(cfg, opts, trials=5, seed_seq=seq)
        # replay the exact same trials and tally by hand
        pop_seed, *trial_seeds = np.random.SeedSequence(7).spawn(6)
        pop = build_population(cfg, np.random.default_rng(pop_seed))
        grid = rep.thresholds
        pm = np.zeros_like(grid)
        pf = np.zeros_like(grid)
        for s in trial_seeds:
            out = _run_trial(pop, pop, cfg, opts, s)
            assert not out.diverged
            for gi, theta in enumerate(grid):
                act = out.scores[out.active_mask]
                inact = out.scores[~out.active_mask]
                pm[gi] += np.mean(act <= theta)
                pf[gi] += np.mean(inact > theta)
        assert np.allclose(rep.pm_curve, pm / 5)
        assert np.allclose(rep.pf_curve, pf / 5)

    def test_hand_tallied_symbol_errors_on_five_trials(self):
        cfg = ScenarioConfig(n_devices=8, n_active=3, seq_len=4,
                             antenna_count=6, n_scatterers=2,
                             channel_case="rician", power_dbm=-112,
                             seqs_per_device=2)
        opts = SolveOptions(max_sweeps=15)
        rep = run_point(cfg, opts, trials=5,
                        seed_seq=np.random.SeedSequence(11))
        # replay the trials outside the harness: a symbol error is a truly
        # active device whose largest soft value sits at a wrong sequence
        pop_seed, *trial_seeds = np.random.SeedSequence(11).spawn(6)
        pop = build_population(cfg, np.random.default_rng(pop_seed))
        wrong = total = 0
        for s in trial_seeds:
            rng = np.random.default_rng(s)
            truth = sample_truth(8, 3, 2, rng)
            res = solve(pop, synthesize_signal(pop, truth, rng).y, opts,
                        rng=rng)
            assert not res.diverged
            soft = res.a.reshape(8, 2)
            for n, q in zip(truth.active_set, truth.symbols):
                total += 1
                wrong += int(np.argmax(soft[n]) != q)
        assert total == 15 and wrong > 0
        assert rep.symbol_error_rate == wrong / total

    def test_pm_nondecreasing_pf_nonincreasing_in_threshold(self):
        cfg = ScenarioConfig(n_devices=10, n_active=2, seq_len=4,
                             antenna_count=6, n_scatterers=2,
                             channel_case="rician", power_dbm=-114)
        rep = run_point(cfg, SolveOptions(max_sweeps=15), trials=8,
                        seed_seq=np.random.SeedSequence(1))
        assert np.all(np.diff(rep.pm_curve) >= 0)
        assert np.all(np.diff(rep.pf_curve) <= 0)
        assert np.all((0 <= rep.pm_curve) & (rep.pm_curve <= 1))
        assert np.all((0 <= rep.pf_curve) & (rep.pf_curve <= 1))

    def test_noise_only_false_alarms_vanish_at_high_threshold(self):
        cfg = ScenarioConfig(n_devices=8, n_active=0, seq_len=5,
                             antenna_count=6, n_scatterers=2,
                             channel_case="rician")
        rep = run_point(cfg, SolveOptions(max_sweeps=10), trials=5,
                        seed_seq=np.random.SeedSequence(2))
        assert np.all(rep.pm_curve == 0)
        assert rep.pf_curve[-1] <= rep.pf_curve[0]
        assert rep.pf_curve[-1] < 0.05

    def test_easy_regime_error_probability_zero(self):
        cfg = ScenarioConfig(n_devices=6, n_active=1, seq_len=16,
                             antenna_count=8, n_scatterers=2,
                             channel_case="rician", power_dbm=-95.0)
        rep = run_point(cfg, SolveOptions(max_sweeps=30), trials=5,
                        seed_seq=np.random.SeedSequence(3))
        assert rep.error_probability == pytest.approx(0.0, abs=1e-6)


class TestExperiment:
    def test_reports_per_sweep_point(self):
        plan = tiny_plan()
        reports = run_experiment(plan)
        assert [r.label for r in reports] == ["4", "6"]
        for r in reports:
            assert r.trials == 5

    def test_deterministic_given_seed(self):
        plan = tiny_plan()
        r1 = run_experiment(plan)
        r2 = run_experiment(plan)
        h1, rows1 = report_rows(r1, plan.sweep_variable)
        h2, rows2 = report_rows(r2, plan.sweep_variable)
        assert render_csv(h1, rows1) == render_csv(h2, rows2)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.pm_curve, b.pm_curve)
            assert np.array_equal(a.pf_curve, b.pf_curve)

    def test_two_workers_write_the_same_csv(self):
        plan = tiny_plan(trials=6)
        reports = [run_experiment(p)
                   for p in (plan, dataclasses.replace(plan, workers=2))]
        for curves in (False, True):
            one, two = (render_csv(*report_rows(r, plan.sweep_variable,
                                                curves=curves))
                        for r in reports)
            assert one.encode() == two.encode()

    def test_mismatched_baseline_runs_identity_model(self):
        plan = tiny_plan(sweep_points=({},), trials=3)
        reports = baseline_mismatched(plan)
        assert len(reports) == 1

    def test_mismatched_equals_true_when_correlation_is_identity(self):
        base = dict(n_devices=8, n_active=2, seq_len=5, antenna_count=6,
                    channel_case="uncorrelated")
        plan = tiny_plan(base=base, sweep_points=({},), trials=4)
        true_rep = run_experiment(plan)[0]
        mis_rep = baseline_mismatched(plan)[0]
        assert np.array_equal(true_rep.pm_curve, mis_rep.pm_curve)
        assert np.array_equal(true_rep.pf_curve, mis_rep.pf_curve)

    def test_mismatched_population_definition(self, rng):
        cfg = ScenarioConfig(n_devices=5, n_active=2, seq_len=4,
                             antenna_count=6, n_scatterers=3,
                             channel_case="rician")
        pop = build_population(cfg, rng)
        mis = mismatched_population(pop)
        for ch, mch in zip(pop.channels, mis.channels):
            r = ch.correlation_matrix()
            g = np.real(np.trace(r)) / 6
            assert g == pytest.approx(np.mean(np.real(np.diag(r))))
            assert np.allclose(mch.correlation_matrix(), g * np.eye(6))
            assert np.array_equal(mch.los_mean, ch.los_mean)


class TestConvergenceTable:
    def test_small_rank_always_converges(self):
        base = dict(n_devices=8, n_active=2, seq_len=5, antenna_count=6,
                    channel_case="rician")
        rows = convergence_table(base, [1], instances=5, seed=0,
                                 options=SolveOptions(solver="exact",
                                                      max_sweeps=100))
        assert rows[0]["proportion_converged"] == 1.0
        assert rows[0]["diverged"] == 0


class TestCsv:
    def test_summary_rows(self):
        plan = tiny_plan(trials=2)
        reports = run_experiment(plan)
        header, rows = report_rows(reports, "seq_len")
        assert header[0] == "seq_len"
        assert "mean_runtime_s" not in header
        assert len(rows) == 2
        text = render_csv(header, rows)
        assert text.startswith("seq_len,")
        assert text.count("\n") == 3

    def test_curve_rows(self):
        plan = tiny_plan(trials=2, sweep_points=({},))
        reports = run_experiment(plan)
        header, rows = report_rows(reports, "point", curves=True)
        assert header == ["point", "threshold", "pm", "pf"]
        assert len(rows) == len(reports[0].thresholds)
