"""Command-line interface: plan loading, subcommands, CSV outputs."""

import json

import pytest

from nfdetect.cli import main


PLAN = {
    "base": {"n_devices": 8, "n_active": 2, "seq_len": 4,
             "antenna_count": 6, "n_scatterers": 2,
             "channel_case": "rician"},
    "sweep_variable": "seq_len",
    "sweep_points": [{"seq_len": 4}, {"seq_len": 6}],
    "trials": 3,
    "seed": 5,
    "max_sweeps": 10,
}

SCENARIO = {"n_devices": 6, "n_active": 2, "seq_len": 4, "antenna_count": 4,
            "n_scatterers": 2, "channel_case": "rician"}


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(PLAN))
    return str(path)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


class TestSimulate:
    def test_writes_summary_csv(self, plan_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["simulate", "--plan", plan_file,
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("seq_len,error_probability")
        assert len(lines) == 3

    def test_misspelled_keys_rejected(self, tmp_path):
        spec = {"base": {"n_devices": 6, "n_active": 2, "seq_len": 4,
                         "antenna_count": 5, "channel_case": "rician"},
                "scatterer_values": [1], "instances": 1,
                "solvr": "inexact", "max_sweep": 2}
        plan = tmp_path / "table.json"
        plan.write_text(json.dumps(spec))
        out = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="'max_sweep', 'solvr'"):
            main(["convergence", "--plan", str(plan), "--out", str(out)])
        assert not out.exists()

    def test_byte_identical_for_equal_seeds(self, plan_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--plan", plan_file, "--out", str(out1)])
        main(["simulate", "--plan", plan_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_and_trials_flags_override_plan(self, plan_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["simulate", "--plan", plan_file, "--seed", "9",
              "--trials", "2", "--curves", "--out", str(out1)])
        main(["simulate", "--plan", plan_file, "--seed", "5",
              "--trials", "2", "--curves", "--out", str(out2)])
        t1 = out1.read_text()
        assert len(t1.splitlines()) == 1 + 2 * 512  # trials override ran
        assert t1 != out2.read_text()  # different seeds give different curves

    def test_curve_output(self, plan_file, tmp_path):
        out = tmp_path / "curves.csv"
        main(["simulate", "--plan", plan_file, "--trials", "2",
              "--curves", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "seq_len,threshold,pm,pf"
        assert len(lines) == 1 + 2 * 512


class TestConvergence:
    def test_table_csv(self, tmp_path):
        spec = {"base": {"n_devices": 6, "n_active": 2, "seq_len": 4,
                         "antenna_count": 5, "channel_case": "rician"},
                "scatterer_values": [1, 2],
                "instances": 3, "seed": 1, "max_sweeps": 60}
        plan = tmp_path / "table.json"
        plan.write_text(json.dumps(spec))
        out = tmp_path / "table.csv"
        assert main(["convergence", "--plan", str(plan),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("n_scatterers,instances,converged,diverged,"
                            "proportion_converged")
        assert len(lines) == 3


class TestAnalyze:
    def test_report_csv(self, scenario_file, tmp_path):
        out = tmp_path / "analysis.csv"
        assert main(["analyze", "--scenario", scenario_file, "--seed", "2",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "report,key,value"
        assert "d_one" in text
        assert "identifiability" in text
        assert "max_corr" in text


class TestTrace:
    def test_trajectory_csv(self, scenario_file, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["trace", "--scenario", scenario_file, "--seed", "3",
                     "--max-sweeps", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep,objective,vnorm,elapsed_s"
        assert len(lines) >= 2

    def test_exact_solver_selectable(self, scenario_file, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["trace", "--scenario", scenario_file, "--solver",
                     "exact", "--max-sweeps", "5", "--out", str(out)]) == 0
