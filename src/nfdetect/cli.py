"""Command-line experiment driver.

Subcommands:

* ``simulate``    -- run an experiment plan file, write detection CSV
* ``convergence`` -- solver convergence proportion vs. scatterer count
* ``analyze``     -- dimension / identifiability / similarity reports
* ``trace``       -- single-instance objective trajectory CSV
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import analysis
from .harness import (ExperimentPlan, convergence_table, render_csv,
                      report_rows, run_experiment)
from .population import ScenarioConfig, build_population
from .solvers import SolveOptions, solve
from .synthesis import sample_truth, synthesize_signal


def _load_plan(args) -> ExperimentPlan:
    with open(args.plan) as fh:
        plan = ExperimentPlan.from_json(fh.read())
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    return replace(plan, **overrides)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    plan = _load_plan(args)
    reports = run_experiment(plan)
    header, rows = report_rows(reports, plan.sweep_variable,
                               curves=args.curves)
    _emit(render_csv(header, rows), args.out)
    return 0


_CONVERGENCE_KEYS = {"base", "scatterer_values", "seed", "instances", "solver",
                     "mu", "epsilon", "max_sweeps", "exact_rank_limit"}


def _cmd_convergence(args) -> int:
    with open(args.plan) as fh:
        spec = json.load(fh)
    unknown = sorted(set(spec) - _CONVERGENCE_KEYS)
    if unknown:
        raise ValueError("unknown key(s) in convergence spec: "
                         + ", ".join(map(repr, unknown)))
    base = spec["base"]
    values = spec["scatterer_values"]
    seed = args.seed if args.seed is not None else spec.get("seed", 0)
    instances = args.trials if args.trials is not None \
        else spec.get("instances", 100)
    options = SolveOptions(
        solver=spec.get("solver", "exact"), mu=spec.get("mu", 10.0),
        epsilon=spec.get("epsilon", 1e-3),
        max_sweeps=spec.get("max_sweeps", 50),
        exact_rank_limit=spec.get("exact_rank_limit"))
    rows = convergence_table(base, values, instances=instances, seed=seed,
                             options=options)
    header = ["n_scatterers", "instances", "converged", "diverged",
              "proportion_converged"]
    text = render_csv(header, [[str(r[h]) if h != "proportion_converged"
                                else format(r[h], ".12g") for h in header]
                               for r in rows])
    _emit(text, args.out)
    return 0


def _scenario_from_args(args) -> ScenarioConfig:
    with open(args.scenario) as fh:
        return ScenarioConfig.from_json(fh.read())


def _cmd_analyze(args) -> int:
    cfg = _scenario_from_args(args)
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    pop = build_population(cfg, rng)
    lines = []
    rep = analysis.statistical_dimension(pop)
    lines.append(["dimension", "d_one", str(rep.d_one)])
    lines.append(["dimension", "d_two", str(rep.d_two)])
    lines.append(["dimension", "bound_one", str(rep.bound_one)])
    lines.append(["dimension", "bound_two", str(rep.bound_two)])
    lines.append(["dimension", "regime", rep.regime])
    a_true = sample_truth(cfg.n_devices, cfg.n_active,
                          rng=rng).activity_vector(cfg.n_devices)
    for case in ("correlated", "uncorrelated"):
        res = analysis.identifiability_holds(
            analysis.population_instance(pop, a_true, case))
        lines.append(["identifiability", case, str(res.identifiable)])
    vals = [analysis.cosine_similarity_pair(pop, n, k)
            for n in range(cfg.n_devices) for k in range(n)]
    corr = [v[0] for v in vals]
    unco = [v[1] for v in vals]
    lines.append(["similarity", "max_corr", format(max(corr), ".12g")])
    lines.append(["similarity", "mean_corr",
                  format(float(np.mean(corr)), ".12g")])
    lines.append(["similarity", "max_uncorr", format(max(unco), ".12g")])
    lines.append(["similarity", "mean_uncorr",
                  format(float(np.mean(unco)), ".12g")])
    _emit(render_csv(["report", "key", "value"], lines), args.out)
    return 0


def _cmd_trace(args) -> int:
    cfg = _scenario_from_args(args)
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    pop = build_population(cfg, rng)
    truth = sample_truth(cfg.n_devices, cfg.n_active, cfg.seqs_per_device, rng)
    sig = synthesize_signal(pop, truth, rng)
    options = SolveOptions(solver=args.solver, max_sweeps=args.max_sweeps)
    result = solve(pop, sig.y, options, rng=rng)
    rows = [[str(i), format(obj, ".12g"), format(v, ".12g"),
             format(t, ".6g")]
            for i, obj, v, t in result.trace_rows()]
    text = render_csv(["sweep", "objective", "vnorm", "elapsed_s"], rows)
    _emit(text, args.out)
    print(f"termination: {result.termination}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfdetect",
        description="Covariance-based activity detection experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment plan")
    sim.add_argument("--plan", required=True, help="plan JSON file")
    sim.add_argument("--curves", action="store_true",
                     help="emit full PM/PF curves instead of summaries")
    conv = sub.add_parser("convergence",
                          help="convergence proportion vs scatterer count")
    conv.add_argument("--plan", required=True, help="table spec JSON file")
    ana = sub.add_parser("analyze", help="dimension/identifiability report")
    ana.add_argument("--scenario", required=True, help="scenario JSON file")
    tra = sub.add_parser("trace", help="single-instance solver trajectory")
    tra.add_argument("--scenario", required=True, help="scenario JSON file")
    tra.add_argument("--solver", default="inexact",
                     choices=["exact", "inexact"])
    tra.add_argument("--max-sweeps", type=int, default=50)
    for p in (sim, conv, ana, tra):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output CSV path")
    for p in (sim, conv):
        p.add_argument("--trials", type=int, default=None)
    return parser


_COMMANDS = {"simulate": _cmd_simulate, "convergence": _cmd_convergence,
             "analyze": _cmd_analyze, "trace": _cmd_trace}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
