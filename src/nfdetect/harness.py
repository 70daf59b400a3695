"""Monte Carlo experiment driver: detection curves, convergence tallies.

An experiment plan fixes a base scenario and sweeps one labelled variable
over a list of parameter overrides; each sweep point runs independent
trials (one population, many signal realizations), thresholds the solved
activity estimates against the truth on a uniform grid, and aggregates
missed-detection (PM) and false-alarm (PF) curves plus their equal-value
crossing, the scalar error probability.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .population import (DevicePopulation, ScenarioConfig, build_population,
                         mismatched_population)
from .solvers import SolveOptions, solve
from .synthesis import sample_truth, synthesize_signal

__all__ = ["ExperimentPlan", "DetectionReport", "TrialOutcome",
           "run_experiment", "run_point", "error_probability",
           "convergence_table", "baseline_mismatched", "report_rows",
           "render_csv", "THRESHOLD_POINTS"]

THRESHOLD_POINTS = 512


def threshold_grid(n_points: int = THRESHOLD_POINTS) -> np.ndarray:
    """Uniform open grid in (0, 1)."""
    return (np.arange(n_points) + 1.0) / (n_points + 1.0)


@dataclass(frozen=True)
class ExperimentPlan:
    """Base scenario, sweep points, trial count and solver options."""

    base: dict
    sweep_variable: str = "point"
    sweep_points: tuple = ({},)          # per-point ScenarioConfig overrides
    trials: int = 100
    seed: int = 0
    solver: str = "inexact"
    mu: float = 10.0
    epsilon: float = 1e-3
    max_sweeps: int = 50
    exact_rank_limit: int | None = None
    model: str = "true"                  # true | mismatched
    bits: int = 0
    workers: int = 1

    def __post_init__(self):
        if not self.sweep_points:
            raise ValueError("sweep point list must be nonempty")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.model not in ("true", "mismatched"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        object.__setattr__(self, "sweep_points",
                           tuple(dict(p) for p in self.sweep_points))
        # a device's sequence count is 2^bits, set on the plan or per point
        if "bits" in self.base:
            raise ValueError("set bits on the plan or on a point, not in base")
        if any("seqs_per_device" in d for d in (self.base,
                                                *self.sweep_points)):
            raise ValueError("seqs_per_device comes from bits; set bits")
        if min(self.bits, *(p.get("bits", 0) for p in self.sweep_points)) < 0:
            raise ValueError("bit count must be nonnegative")
        self.solve_options()  # rejects out-of-range solver options

    def solve_options(self) -> SolveOptions:
        return SolveOptions(solver=self.solver, mu=self.mu,
                            epsilon=self.epsilon, max_sweeps=self.max_sweeps,
                            exact_rank_limit=self.exact_rank_limit)

    def point_config(self, point: dict) -> ScenarioConfig:
        kwargs = dict(self.base)
        kwargs.update(point)
        kwargs.pop("bits", None)
        kwargs["seqs_per_device"] = 2 ** int(point.get("bits", self.bits))
        return ScenarioConfig(**kwargs)

    def point_label(self, point: dict) -> str:
        if self.sweep_variable in point:
            return str(point[self.sweep_variable])
        return ";".join(f"{k}={v}" for k, v in sorted(point.items())) or "base"

    def to_json(self) -> str:
        d = asdict(self)
        d["sweep_points"] = list(self.sweep_points)
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentPlan":
        d = json.loads(text)
        if "sweep_points" in d:
            d["sweep_points"] = tuple(d["sweep_points"])
        return cls(**d)


@dataclass
class TrialOutcome:
    scores: np.ndarray | None     # per-device max soft value; None if diverged
    active_mask: np.ndarray | None
    symbol_hit: np.ndarray | None  # per true-active device, argmax == sent q
    sweeps: int
    runtime_s: float
    converged: bool
    diverged: bool


@dataclass
class DetectionReport:
    """Aggregated detection curves and tallies for one sweep point."""

    label: str
    thresholds: np.ndarray
    pm_curve: np.ndarray
    pf_curve: np.ndarray
    error_probability: float
    crossed: bool
    trials: int
    diverged: int
    mean_runtime_s: float
    mean_sweeps: float
    symbol_error_rate: float = 0.0


def _run_trial(pop: DevicePopulation, solve_pop: DevicePopulation,
               cfg: ScenarioConfig, options: SolveOptions,
               seed: np.random.SeedSequence | np.random.Generator,
               ) -> TrialOutcome:
    """One signal realization: sample, synthesize, solve, read out.

    A device's score is its largest soft value; its symbol is the index of
    that value, ties going to the lowest index.
    """
    rng = np.random.default_rng(seed)
    truth = sample_truth(cfg.n_devices, cfg.n_active, cfg.seqs_per_device, rng)
    sig = synthesize_signal(pop, truth, rng)
    t0 = time.perf_counter()
    result = solve(solve_pop, sig.y, options, rng=rng)
    runtime = time.perf_counter() - t0
    if result.diverged:
        return TrialOutcome(scores=None, active_mask=None, symbol_hit=None,
                            sweeps=result.sweeps, runtime_s=runtime,
                            converged=False, diverged=True)
    soft = result.a.reshape(cfg.n_devices, cfg.seqs_per_device)
    active = list(truth.active_set)
    mask = np.zeros(cfg.n_devices, dtype=bool)
    mask[active] = True
    hits = soft.argmax(axis=1)[active] == np.array(truth.symbols, dtype=int)
    return TrialOutcome(scores=soft.max(axis=1), active_mask=mask,
                        symbol_hit=hits, sweeps=result.sweeps,
                        runtime_s=runtime, converged=result.converged,
                        diverged=False)


def _trial_star(args):
    return _run_trial(*args)


def run_point(cfg: ScenarioConfig, options: SolveOptions, trials: int,
              seed_seq: np.random.SeedSequence, label: str = "point",
              model: str = "true", workers: int = 1) -> DetectionReport:
    """One sweep point: build the population, run trials, aggregate."""
    pop_seed, *trial_seeds = seed_seq.spawn(trials + 1)
    pop = build_population(cfg, np.random.default_rng(pop_seed))
    solve_pop = mismatched_population(pop) if model == "mismatched" else pop
    grid = threshold_grid()
    jobs = [(pop, solve_pop, cfg, options, s) for s in trial_seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_star, jobs, chunksize=4))
    else:
        outcomes = [_run_trial(*job) for job in jobs]
    missed = np.zeros(grid.shape)
    false = np.zeros(grid.shape)
    n_used = n_div = 0
    runtime = sweeps = 0.0
    sym_err = sym_tot = 0
    for out in outcomes:
        runtime += out.runtime_s
        sweeps += out.sweeps
        if out.diverged:
            n_div += 1
            continue
        n_used += 1
        act = out.scores[out.active_mask]
        inact = out.scores[~out.active_mask]
        if act.size:
            missed += np.sum(act[:, None] <= grid[None, :], axis=0) / act.size
        if inact.size:
            false += np.sum(inact[:, None] > grid[None, :], axis=0) / inact.size
        sym_err += int(np.sum(~out.symbol_hit))
        sym_tot += out.symbol_hit.size
    if n_used == 0:
        pm = np.ones_like(grid)
        pf = np.zeros_like(grid)
    else:
        pm = missed / n_used
        pf = false / n_used
    err, crossed = error_probability(grid, pm, pf)
    return DetectionReport(
        label=label, thresholds=grid, pm_curve=pm, pf_curve=pf,
        error_probability=err, crossed=crossed, trials=trials,
        diverged=n_div, mean_runtime_s=runtime / trials,
        mean_sweeps=sweeps / trials,
        symbol_error_rate=sym_err / sym_tot if sym_tot else 0.0)


def run_experiment(plan: ExperimentPlan) -> list[DetectionReport]:
    """All sweep points of a plan, each with an independent seed stream."""
    options = plan.solve_options()
    reports = []
    for i, point in enumerate(plan.sweep_points):
        cfg = plan.point_config(point)
        seq = np.random.SeedSequence(entropy=plan.seed, spawn_key=(i,))
        reports.append(run_point(cfg, options, plan.trials, seq,
                                 label=plan.point_label(point),
                                 model=plan.model, workers=plan.workers))
    return reports


def baseline_mismatched(plan: ExperimentPlan) -> list[DetectionReport]:
    """The same experiment with scaled-identity correlation in the solver.

    Signals are still synthesized from the true statistics; only the model
    handed to the solver is replaced, so matched seeds give a paired
    comparison against :func:`run_experiment`.
    """
    return run_experiment(replace(plan, model="mismatched"))


def error_probability(thresholds: np.ndarray, pm: np.ndarray,
                      pf: np.ndarray) -> tuple[float, bool]:
    """Value at the PM = PF crossing, linearly interpolated on the grid.

    PM is non-decreasing and PF non-increasing in the threshold, so the
    difference crosses zero at most once up to counting noise; if it never
    does within the grid, the endpoint with the smaller gap is returned
    with ``crossed = False``.
    """
    diff = np.asarray(pm) - np.asarray(pf)
    idx = np.nonzero(diff >= 0)[0]
    if idx.size == 0:
        return float(0.5 * (pm[-1] + pf[-1])), False
    i = int(idx[0])
    if i == 0:
        return float(0.5 * (pm[0] + pf[0])), diff[0] == 0
    t0, t1 = thresholds[i - 1], thresholds[i]
    d0, d1 = diff[i - 1], diff[i]
    frac = -d0 / (d1 - d0) if d1 != d0 else 0.5
    theta = t0 + frac * (t1 - t0)
    pm_star = np.interp(theta, thresholds, pm)
    pf_star = np.interp(theta, thresholds, pf)
    return float(0.5 * (pm_star + pf_star)), True


def convergence_table(base: dict, scatterer_values, options: SolveOptions,
                      instances: int = 100, seed: int = 0) -> list[dict]:
    """Fraction of instances on which the solver converges, per scatterer
    count (which sets the per-device kernel rank).  Every instance builds
    its own population and then runs one trial from the same generator."""
    rows = []
    for i, n_scat in enumerate(scatterer_values):
        kwargs = dict(base)
        kwargs["n_scatterers"] = int(n_scat)
        cfg = ScenarioConfig(**kwargs)
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        converged = diverged = 0
        for trial_seed in seq.spawn(instances):
            rng = np.random.default_rng(trial_seed)
            pop = build_population(cfg, rng)
            out = _run_trial(pop, pop, cfg, options, rng)
            converged += int(out.converged)
            diverged += int(out.diverged)
        rows.append({"n_scatterers": int(n_scat), "instances": instances,
                     "converged": converged, "diverged": diverged,
                     "proportion_converged": converged / instances})
    return rows


# -- CSV emission --------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return format(float(v), ".12g")
    return str(v)


def report_rows(reports: list[DetectionReport], sweep_variable: str = "point",
                curves: bool = False) -> tuple[list[str], list[list[str]]]:
    """Header and rows for CSV export; one row per sweep point, or one per
    (sweep point, threshold) when ``curves`` is set."""
    if curves:
        header = [sweep_variable, "threshold", "pm", "pf"]
        rows = [[r.label, _fmt(t), _fmt(pm), _fmt(pf)]
                for r in reports
                for t, pm, pf in zip(r.thresholds, r.pm_curve, r.pf_curve)]
    else:
        # wall-clock fields are deliberately excluded so that equal seeds
        # give byte-identical files
        header = [sweep_variable, "error_probability", "crossed", "trials",
                  "diverged", "mean_sweeps", "symbol_error_rate"]
        rows = [[r.label, _fmt(r.error_probability), str(int(r.crossed)),
                 str(r.trials), str(r.diverged), _fmt(r.mean_sweeps),
                 _fmt(r.symbol_error_rate)]
                for r in reports]
    return header, rows


def render_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
