"""End-to-end acceptance checks, one test per criterion.

Each test prints a one-line summary of the measured quantities so a full
``pytest -v`` run doubles as an acceptance report.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import binomtest

from nfdetect.analysis import (_build_instance, cosine_similarity_pair,
                               identifiability_holds, statistical_dimension,
                               theorem3_scan)
from nfdetect.cli import main as cli_main
from nfdetect.harness import (ExperimentPlan, baseline_mismatched,
                              convergence_table, run_experiment)
from nfdetect.lowrank import BlockState, build_basis, transform_problem
from nfdetect.mle import FullState
from nfdetect.population import ScenarioConfig, build_population
from nfdetect.solvers import SolveOptions, exact_step, solve
from nfdetect.synthesis import covariance_matrix, mean_vector, sample_truth, \
    synthesize_signal

from conftest import random_population, random_signal
from test_analysis import brute_force_identifiable
from test_mle import dense_objective
from test_solvers import grid_delta


def test_01_maintained_inverse_fidelity():
    """Incremental inverse/logdet vs dense recomputation, 100 sequences."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_inv = worst_logdet = 0.0
    for _ in range(100):
        pop = random_population(
            rng, n_devices=int(rng.integers(3, 13)),
            seq_len=int(rng.integers(2, 7)),
            m_antennas=int(rng.integers(2, 7)),
            n_identity=int(rng.integers(0, 3)))
        y = random_signal(pop, rng).y
        state = FullState(pop, y, recompute_interval=10 ** 9)
        for _ in range(6):
            j = int(rng.integers(pop.n_coordinates))
            state.apply_update(
                j, float(rng.uniform(-state.a[j], 1.0 - state.a[j])))
        sigma = covariance_matrix(pop, state.a)
        inv = np.linalg.inv(sigma)
        worst_inv = max(worst_inv, np.linalg.norm(state.sigma_inv - inv)
                        / np.linalg.norm(inv))
        _, logdet = np.linalg.slogdet(sigma)
        worst_logdet = max(worst_logdet, abs(state.logdet - float(logdet)))
    elapsed = time.perf_counter() - t0
    print(f"\n[1] inverse rel err {worst_inv:.2e} (<=1e-8), "
          f"logdet abs err {worst_logdet:.2e} (<=1e-6), {elapsed:.1f}s (<10s)")
    assert worst_inv <= 1e-8
    assert worst_logdet <= 1e-6
    assert elapsed < 10.0


def test_02_gradient_vs_finite_differences():
    """Analytic gradient at 50 random interior points."""
    rng = np.random.default_rng(1002)
    worst = 0.0
    checked = 0
    while checked < 50:
        pop = random_population(rng, n_devices=5, seq_len=3, m_antennas=4)
        y = random_signal(pop, rng).y
        a = rng.uniform(0.15, 0.85, pop.n_coordinates)
        grad = FullState(pop, y, a0=a).gradient()
        eps = 1e-6
        for j in range(pop.n_coordinates):
            ap, am = a.copy(), a.copy()
            ap[j] += eps
            am[j] -= eps
            fd = (dense_objective(pop, y, ap)
                  - dense_objective(pop, y, am)) / (2 * eps)
            worst = max(worst, abs(grad[j] - fd) / max(abs(fd), 1e-3))
        checked += pop.n_coordinates
    print(f"\n[2] gradient rel err {worst:.2e} (<=1e-5) over {checked} points")
    assert worst <= 1e-5


def test_03_exact_step_vs_grid_search():
    """100 one-dimensional subproblems against a 1e-5 grid oracle."""
    rng = np.random.default_rng(1003)
    worst = -np.inf
    for _ in range(100):
        pop = random_population(rng, n_devices=5, seq_len=3, m_antennas=5,
                                max_rank=3)
        y = random_signal(pop, rng).y
        state = FullState(pop, y,
                          a0=rng.uniform(0.1, 0.9, pop.n_coordinates))
        j = int(rng.integers(pop.n_coordinates))
        kernel = state.kernel(j)
        assert kernel.rank <= 6
        step = exact_step(kernel)
        lo, hi = kernel.box
        grid_best = float(np.min(grid_delta(
            kernel, np.arange(lo, hi + 1e-5, 1e-5))))
        worst = max(worst, kernel.objective_delta(step) - grid_best)
    print(f"\n[3] worst excess over grid minimum {worst:.2e} (<=1e-6)")
    assert worst <= 1e-6


def test_04_regularized_steps_never_increase_objective():
    """Every accepted update in a full desk-scale solve is a descent step."""
    cfg = ScenarioConfig(n_devices=50, n_active=5, seq_len=10,
                         antenna_count=16, n_scatterers=4,
                         channel_case="rician")
    rng = np.random.default_rng(1004)
    pop = build_population(cfg, rng)
    truth = sample_truth(50, 5, rng=rng)
    y = synthesize_signal(pop, truth, rng).y
    deltas = []
    result = solve(pop, y, SolveOptions(solver="inexact", mu=10.0,
                                        max_sweeps=30),
                   rng=rng, monitor=lambda j, d, delta: deltas.append(delta))
    assert deltas
    worst = max(deltas)
    print(f"\n[4] {len(deltas)} updates, worst objective change "
          f"{worst:.2e} (<=1e-9); termination {result.termination}")
    assert worst <= 1e-9


def test_05_exact_inexact_agreement_and_divergence_threshold():
    """Both solvers agree at small kernel rank; the exact solver's
    convergence proportion collapses from 100% to 0% as the rank grows."""
    for n_scat in (2, 4):
        cfg = ScenarioConfig(n_devices=20, n_active=3, seq_len=10,
                             antenna_count=16, n_scatterers=n_scat,
                             channel_case="rician")
        rng = np.random.default_rng(1005 + n_scat)
        pop = build_population(cfg, rng)
        truth = sample_truth(20, 3, rng=rng)
        y = synthesize_signal(pop, truth, rng).y
        res_e = solve(pop, y, SolveOptions(solver="exact", max_sweeps=80),
                      rng=np.random.default_rng(1))
        res_i = solve(pop, y, SolveOptions(solver="inexact", max_sweeps=80),
                      rng=np.random.default_rng(1))
        assert res_e.converged and res_e.final_vnorm <= 1e-3
        assert res_i.converged and res_i.final_vnorm <= 1e-3
        f_e = FullState(pop, y, a0=res_e.a).objective()
        f_i = FullState(pop, y, a0=res_i.a).objective()
        rel = abs(f_e - f_i) / abs(f_i)
        print(f"\n[5] rank {n_scat}: exact {f_e:.6f} vs inexact {f_i:.6f}, "
              f"rel diff {rel:.2e} (<=1e-3)")
        assert rel <= 1e-3

    base = dict(n_devices=20, n_active=3, seq_len=8, antenna_count=32,
                channel_case="rician")
    rows = convergence_table(base, [2, 8, 12, 20, 24], instances=8, seed=7,
                             options=SolveOptions(solver="exact",
                                                  max_sweeps=60))
    props = [r["proportion_converged"] for r in rows]
    print(f"[5] exact convergence proportion vs rank: {props}")
    assert props[0] == 1.0
    assert props[-1] == 0.0
    # the surrogate-based solver stays convergent on the same instances
    rows_i = convergence_table(base, [24], instances=4, seed=7,
                               options=SolveOptions(solver="inexact",
                                                    max_sweeps=100))
    assert rows_i[0]["diverged"] == 0


def test_06_block_state_equals_dense_state():
    """Identical step sequences drive both representations to identical
    iterates and objectives."""
    cfg = ScenarioConfig(n_devices=20, n_active=3, seq_len=8,
                         antenna_count=16, n_correlated=4, n_scatterers=2,
                         channel_case="rician")
    rng = np.random.default_rng(1006)
    pop = build_population(cfg, rng)
    truth = sample_truth(20, 3, rng=rng)
    y = synthesize_signal(pop, truth, rng).y
    steps = []
    solve(pop, y, SolveOptions(max_sweeps=40), rng=np.random.default_rng(2),
          monitor=lambda j, d, delta: steps.append((j, d)))
    basis = build_basis(pop, 4)
    prob, yp = transform_problem(pop, y, basis)
    full = FullState(pop, y)
    block = BlockState(prob, yp)
    worst_obj = 0.0
    for j, d in steps:
        full.apply_update(j, d)
        block.apply_update(j, d)
        fo, bo = full.objective(), block.objective()
        worst_obj = max(worst_obj, abs(fo - bo) / abs(fo))
    worst_a = float(np.max(np.abs(full.a - block.a)))
    print(f"\n[6] {len(steps)} replayed steps: max |a diff| {worst_a:.2e} "
          f"(<=1e-8), worst objective rel diff {worst_obj:.2e} (<=1e-8)")
    assert worst_a <= 1e-8
    assert worst_obj <= 1e-8


def test_07_block_updates_faster_than_dense():
    """Per-coordinate work at M=64 with a small correlated subspace."""
    cfg = ScenarioConfig(n_devices=20, n_active=3, seq_len=8,
                         antenna_count=64, n_correlated=4, n_scatterers=2,
                         channel_case="rician")
    rng = np.random.default_rng(1007)
    pop = build_population(cfg, rng)
    truth = sample_truth(20, 3, rng=rng)
    y = synthesize_signal(pop, truth, rng).y
    basis = build_basis(pop, 4)
    assert basis.r_prime <= 8
    prob, yp = transform_problem(pop, y, basis)
    full = FullState(pop, y)
    block = BlockState(prob, yp)
    steps = [(int(j), 0.02) for j in rng.integers(0, 20, 40)]
    times = {}
    for state, name in ((full, "full"), (block, "block")):
        t0 = time.perf_counter()
        for j, d in steps:
            state.kernel(j)
            state.apply_update(j, d)
        times[name] = time.perf_counter() - t0
    ratio = times["full"] / times["block"]
    print(f"\n[7] full {times['full']:.3f}s vs block {times['block']:.3f}s "
          f"per 40 updates; speedup {ratio:.1f}x (>=2x)")
    assert ratio >= 2.0


def test_08_dimension_bounds_and_rank_one_case():
    """Integer rank bounds on 200 random instances."""
    rng = np.random.default_rng(1008)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        l = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        pop = random_population(rng, n_devices=n, seq_len=l, m_antennas=m,
                                max_rank=min(3, m),
                                n_identity=int(rng.integers(0, 2)))
        rep = statistical_dimension(pop)
        r_max = max(np.linalg.matrix_rank(ch.corr_factor)
                    for ch in pop.channels)
        assert rep.d_one <= rep.bound_one == min(r_max * n, l * m)
        assert rep.d_two <= rep.bound_two == l * m
        assert (rep.regime == "bound_one_below") == (n * r_max < l * m)
    cfg = ScenarioConfig(n_devices=6, n_active=2, seq_len=4, antenna_count=4,
                         n_scatterers=1, channel_case="rayleigh")
    pop = build_population(cfg, rng)
    rep = statistical_dimension(pop)
    print(f"\n[8] 200 instances OK; rank-1 case d_one={rep.d_one} <= N=6 < "
          f"LM=16 = d_two={rep.d_two}")
    assert rep.d_one <= 6 < 16 == rep.d_two


def test_09_identity_model_identifiability_implies_true_model():
    """200-instance implication scan plus LP vs brute-force cross-check."""
    report = theorem3_scan(200, np.random.default_rng(1009))
    print(f"\n[9] scan: {report.counterexamples} counterexamples "
          f"(must be 0), {report.skipped} skipped, "
          f"{report.converse_cases} converse-direction failures")
    assert report.counterexamples == 0

    rng = np.random.default_rng(2009)
    disagreements = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        l = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        mats, means, seqs = [], [], []
        for _ in range(n):
            r = int(rng.integers(1, 3))
            f = (rng.standard_normal((m, r))
                 + 1j * rng.standard_normal((m, r)))
            mats.append(f @ f.conj().T)
            means.append(np.zeros(m, complex))
            seqs.append(rng.standard_normal(l)
                        + 1j * rng.standard_normal(l))
        a_true = (rng.uniform(size=n) < 0.5).astype(float)
        inst = _build_instance(mats, means, seqs, a_true)
        res = identifiability_holds(inst)
        if res.identifiable is not None and \
                res.identifiable != brute_force_identifiable(inst):
            disagreements += 1
    print(f"[9] LP vs brute-force oracle disagreements: {disagreements}")
    assert disagreements == 0


def test_10_pairwise_similarity_inequality():
    """Correlation-weighted similarity never exceeds the sequence-only one."""
    rng = np.random.default_rng(1010)
    pop = random_population(rng, n_devices=142, seq_len=5, m_antennas=6,
                            max_rank=4)
    worst = np.inf
    pairs = 0
    for n in range(142):
        for k in range(n):
            corr, uncorr = cosine_similarity_pair(pop, n, k)
            worst = min(worst, uncorr - corr)
            pairs += 1
            if pairs >= 10 ** 4:
                break
        if pairs >= 10 ** 4:
            break
    print(f"\n[10] {pairs} pairs, worst slack {worst:.2e} (>= -1e-12)")
    assert pairs == 10 ** 4
    assert worst >= -1e-12


# -- detection trends ----------------------------------------------------

def _error_counts(report, cfg, trials):
    """Expected device-level error count at the equal-error threshold."""
    k = cfg.n_active
    n = cfg.n_devices
    errors = report.error_probability * (k + (n - k)) * trials
    exposure = n * trials
    return errors, exposure


def _significantly_greater(rep_hi, cfg_hi, rep_lo, cfg_lo, trials):
    """One-sided binomial comparison of device-level error counts."""
    x_hi, e_hi = _error_counts(rep_hi, cfg_hi, trials)
    x_lo, e_lo = _error_counts(rep_lo, cfg_lo, trials)
    total = int(round(x_hi + x_lo))
    if total == 0:
        return False
    p0 = e_hi / (e_hi + e_lo)
    return binomtest(int(round(x_hi)), total, p0,
                     alternative="greater").pvalue < 0.05


TRIALS = 200


def test_11_detection_trends(tmp_path):
    """Desk-scale qualitative reproductions of the full-scale trends."""
    t_start = time.perf_counter()

    # (a) longer sequences help: error strictly decreasing in L
    base_a = dict(n_devices=40, n_active=4, seq_len=10, antenna_count=8,
                  n_scatterers=4, channel_case="rician", power_dbm=-112)
    plan_a = ExperimentPlan(
        base=base_a, sweep_variable="seq_len",
        sweep_points=tuple({"seq_len": l} for l in (6, 10, 14, 18)),
        trials=TRIALS, seed=111, max_sweeps=25)
    reps_a = run_experiment(plan_a)
    errs_a = [r.error_probability for r in reps_a]
    print(f"\n[11a] error vs L {dict(zip((6, 10, 14, 18), np.round(errs_a, 4)))}")
    cfgs_a = [plan_a.point_config(p) for p in plan_a.sweep_points]
    for i in range(3):
        assert errs_a[i] > errs_a[i + 1]
        assert _significantly_greater(reps_a[i], cfgs_a[i],
                                      reps_a[i + 1], cfgs_a[i + 1], TRIALS)

    # (b) more contending devices hurt at fixed K/N
    base_b = dict(n_devices=40, n_active=4, seq_len=6, antenna_count=8,
                  n_scatterers=4, channel_case="rician", power_dbm=-108)
    plan_b = ExperimentPlan(
        base=base_b, sweep_variable="n_devices",
        sweep_points=({"n_devices": 30, "n_active": 3},
                      {"n_devices": 50, "n_active": 5},
                      {"n_devices": 70, "n_active": 7}),
        trials=TRIALS, seed=222, max_sweeps=25)
    reps_b = run_experiment(plan_b)
    errs_b = [r.error_probability for r in reps_b]
    print(f"[11b] error vs N {dict(zip((30, 50, 70), np.round(errs_b, 4)))}")
    cfgs_b = [plan_b.point_config(p) for p in plan_b.sweep_points]
    for i in range(2):
        assert errs_b[i] < errs_b[i + 1]
        assert _significantly_greater(reps_b[i + 1], cfgs_b[i + 1],
                                      reps_b[i], cfgs_b[i], TRIALS)

    # (c) ignoring channel correlation costs accuracy (matched seeds)
    base_c = dict(n_devices=40, n_active=4, seq_len=10, antenna_count=8,
                  n_scatterers=4, channel_case="rayleigh", power_dbm=-112)
    plan_c = ExperimentPlan(base=base_c, sweep_points=({},), trials=TRIALS,
                            seed=333, max_sweeps=25)
    rep_true = run_experiment(plan_c)[0]
    rep_mis = baseline_mismatched(plan_c)[0]
    cfg_c = plan_c.point_config({})
    print(f"[11c] true {rep_true.error_probability:.4f} vs mismatched "
          f"{rep_mis.error_probability:.4f}")
    assert rep_mis.error_probability >= rep_true.error_probability
    assert _significantly_greater(rep_mis, cfg_c, rep_true, cfg_c, TRIALS)

    # (d) embedded bits: zero-bit pipeline identical, one bit degrades
    # gracefully and the gap closes as L grows
    base_d = dict(n_devices=40, n_active=4, seq_len=8, antenna_count=8,
                  n_scatterers=4, channel_case="rician", power_dbm=-112)
    plan_d = ExperimentPlan(
        base=base_d, sweep_variable="point",
        sweep_points=({"seq_len": 8, "bits": 0}, {"seq_len": 8, "bits": 1},
                      {"seq_len": 16, "bits": 0}, {"seq_len": 16, "bits": 1}),
        trials=TRIALS, seed=444, max_sweeps=25)
    reps_d = run_experiment(plan_d)
    errs_d = [r.error_probability for r in reps_d]
    print(f"[11d] (L=8,J=0) {errs_d[0]:.4f}  (L=8,J=1) {errs_d[1]:.4f}  "
          f"(L=16,J=0) {errs_d[2]:.4f}  (L=16,J=1) {errs_d[3]:.4f}")
    cfgs_d = [plan_d.point_config(p) for p in plan_d.sweep_points]
    assert errs_d[1] > errs_d[0]
    assert _significantly_greater(reps_d[1], cfgs_d[1],
                                  reps_d[0], cfgs_d[0], TRIALS)
    gap_short = errs_d[1] - errs_d[0]
    gap_long = errs_d[3] - errs_d[2]
    assert gap_long < gap_short

    # zero-bit run is the activity-only pipeline bit for bit
    cfg0 = cfgs_d[0]
    rng = np.random.default_rng(4040)
    pop = build_population(cfg0, rng)
    truth = sample_truth(cfg0.n_devices, cfg0.n_active, rng=rng)
    y = synthesize_signal(pop, truth, rng).y
    r1 = solve(pop, y, SolveOptions(max_sweeps=10),
               rng=np.random.default_rng(5))
    r2 = solve(pop, y, SolveOptions(max_sweeps=10),
               rng=np.random.default_rng(5))
    assert np.array_equal(r1.a, r2.a)

    elapsed = time.perf_counter() - t_start
    print(f"[11] total trend runtime {elapsed / 60:.1f} min (<30 min)")
    assert elapsed < 1800


def test_12_csv_determinism(tmp_path):
    """Equal plans and seeds give byte-identical simulation output."""
    plan = {
        "base": {"n_devices": 12, "n_active": 2, "seq_len": 5,
                 "antenna_count": 6, "n_scatterers": 3,
                 "channel_case": "rician", "power_dbm": -112.0},
        "sweep_variable": "seq_len",
        "sweep_points": [{"seq_len": 5}, {"seq_len": 7}],
        "trials": 5, "seed": 99, "max_sweeps": 15,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(["simulate", "--plan", str(plan_path),
                     "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--plan", str(plan_path),
                     "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    print(f"\n[12] {len(b1)} bytes, identical: {b1 == b2}")
    assert b1 == b2
