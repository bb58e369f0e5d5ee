"""Command line surface: every subcommand against a temp instance file."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridsched

from gridsched.cli import main
from gridsched.model import CostModel, Instance, Job, write_instance_csv

from helpers import reference_exact_limited_attack_curve, within_seconds


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "two.csv"
    write_instance_csv(Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)]), path)
    return str(path)


def test_solve_min(instance_file, capsys):
    assert main(["solve-min", instance_file]) == 0
    out = capsys.readouterr().out
    assert "c_min = 5.33333333333" in out
    assert "profile:" in out


def test_attack_full(instance_file, capsys):
    assert main(["attack-full", instance_file]) == 0
    out = capsys.readouterr().out
    assert "c_max = 16" in out
    assert "slot=2 members=1,2" in out


def test_attack_online(instance_file, capsys):
    assert main(["attack-online", instance_file]) == 0
    out = capsys.readouterr().out
    assert "c_max_online = 16" in out


def test_attack_limited(instance_file, capsys):
    assert main(["attack-limited", instance_file, "--beta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "c_maxmin_lower = 4" in out
    assert "budget = 1" in out
    assert "job 1 -> slot 2" in out


def test_bounds(instance_file, capsys):
    assert main(["bounds", instance_file, "--beta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "l_min = 1" in out
    assert "allowance_ratio = 2" in out
    assert "online_factor = 0.5" in out
    assert "max_cost_lower = 1.77777777778" in out
    assert "limited_lower(beta=0.5) = 2" in out


def test_bounds_report_fields(instance_file, capsys):
    assert main(["bounds", instance_file, "--beta", "0.5"]) == 0
    assert capsys.readouterr().out == (
        "n = 2\n"
        "l_min = 1\n"
        "l_max = 1\n"
        "allowance_ratio = 2\n"
        "packing_ratio = 2\n"
        "degenerate = false\n"
        "online_factor = 0.5\n"
        "max_cost_lower = 1.77777777778\n"
        "limited_lower(beta=0.5) = 2\n"
    )


def test_bounds_degenerate_instance(tmp_path, capsys):
    path = tmp_path / "degenerate.csv"
    write_instance_csv(Instance([Job(0, 1, 1, 1.0), Job(1, 3, 6, 1.0)]), path)
    assert main(["bounds", str(path)]) == 0
    out = capsys.readouterr().out
    assert "degenerate = true\n" in out
    assert "allowance_ratio = 0\n" in out
    assert "online_factor = 0\n" in out
    assert "max_cost_lower = 0\n" in out


def test_bounds_empty_instance_reports_error(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("id,arrival,deadline,energy\n")
    assert main(["bounds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_oracle_pmax(instance_file, capsys):
    assert main(["oracle", "pmax", instance_file]) == 0
    assert "c_max_exact = 16" in capsys.readouterr().out


def test_oracle_maxmin(instance_file, capsys):
    assert main(["oracle", "maxmin", instance_file, "--beta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "c_maxmin_exact = 8" in out
    assert "budget = 1" in out


def test_oracle_verify_min(instance_file, capsys):
    assert main(["oracle", "verify-min", instance_file]) == 0
    out = capsys.readouterr().out
    assert "optimal = true" in out


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_oracle_verify_min_invalid_tol_reports_error(instance_file, capsys, tol):
    assert main(["oracle", "verify-min", instance_file, f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: tolerance must be finite and >= 0" in captured.err


def test_custom_exponent(instance_file, capsys):
    assert main(["solve-min", instance_file, "--b", "1"]) == 0
    assert "c_min = 4" in capsys.readouterr().out


def test_experiment_fig2(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    assert main(["experiment", "fig2", "--seed", "5", "--trials", "1", "--out", str(out_path)]) == 0
    assert "wrote 30 rows" in capsys.readouterr().out
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# experiment=fig2 seed=5")
    assert lines[1] == "n,l_min,lower_bound"
    assert len(lines) == 32


def test_missing_file_reports_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["solve-min", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_slot_past_int64_reports_line(tmp_path, capsys):
    path = tmp_path / "far.csv"
    path.write_text("id,arrival,deadline,energy\n1,1,18446744073709551616,6.0\n")
    assert main(["solve-min", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "line 2" in captured.err


@pytest.mark.parametrize("command", [["solve-min"], ["oracle", "verify-min"]])
def test_widest_window_refused_at_once(tmp_path, capsys, command):
    path = tmp_path / "wide.csv"
    path.write_text("id,arrival,deadline,energy\n1,1,9223372036854775807,6.0\n")
    with within_seconds(1.0):
        assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "9223372036854775808 entries" in captured.err


@pytest.mark.parametrize("command", [["solve-min"], ["oracle", "verify-min"]])
def test_wide_window_is_served(tmp_path, capsys, command):
    # the EDF fill's rest once drifted past its tolerance here, and both commands exited 2
    path = tmp_path / "wide.csv"
    path.write_text("id,arrival,deadline,energy\n1,1,7000,1.3\n")
    assert main([*command, str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "c_min = 0.000241428571429" in captured.out


@pytest.mark.parametrize(
    "command",
    [["solve-min"], ["attack-full"], ["attack-online"], ["attack-limited", "--beta", "0.5"], ["bounds"],
     ["oracle", "verify-min"], pytest.param(["oracle", "pmax"], id="oracle-pmax")],
    ids=lambda command: command[0],
)
def test_overflowing_costs_report_error(tmp_path, capsys, command):
    # each slot's cost is (1e200)^2, past float64
    path = tmp_path / "huge.csv"
    path.write_text("id,arrival,deadline,energy\n0,1,2,1e200\n1,2,3,1e200\n")
    assert main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "overflows float64" in captured.err
    assert captured.err.count("\n") == 1


def test_invalid_beta_reports_error(instance_file, capsys):
    assert main(["attack-limited", instance_file, "--beta", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_attack_limited_full_output(instance_file, capsys):
    assert main(["attack-limited", instance_file, "--beta", "0.5"]) == 0
    assert capsys.readouterr().out == "c_maxmin_lower = 4\nbudget = 1\naltered = 1\n  job 1 -> slot 2\n"


def test_oracle_maxmin_full_output(instance_file, capsys):
    assert main(["oracle", "maxmin", instance_file, "--beta", "0.5"]) == 0
    assert capsys.readouterr().out == "c_maxmin_exact = 8\nbudget = 1\n"


def test_oracle_maxmin_invalid_beta_reports_error(instance_file, capsys):
    assert main(["oracle", "maxmin", instance_file, "--beta", "1.5"]) == 2
    assert "error: beta must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, expected",
    [
        ("attack-full", "c_max = 18.25\ncliques:\n  slot=2 members=1,2\n  slot=5 members=3\n"),
        ("attack-online", "c_max_online = 18.25\ncliques:\n  slot=2 members=1,2\n  slot=7 members=3\n"),
    ],
    ids=["attack-full", "attack-online"],
)
def test_attack_full_output(tmp_path, capsys, command, expected):
    path = tmp_path / "three.csv"
    write_instance_csv(Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0), Job(3, 5, 7, 1.5)]), path)
    assert main([command, str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_solve_min_full_output(tmp_path, capsys):
    # the second segment is found at slots 2..4 of the timeline left by the first cut
    path = tmp_path / "three.csv"
    write_instance_csv(Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0), Job(3, 5, 7, 1.5)]), path)
    assert main(["solve-min", str(path)]) == 0
    assert capsys.readouterr().out == (
        "c_min = 6.08333333333\nprofile:\n"
        "  1 1.33333333333\n  2 1.33333333333\n  3 1.33333333333\n  5 0.5\n  6 0.5\n  7 0.5\n"
    )


def test_oracle_maxmin_wide_grid_prints_value(tmp_path, capsys):
    inst = Instance([Job(0, 1, 200, 1.0), Job(1, 2, 3, 1.0)])
    path = tmp_path / "wide.csv"
    write_instance_csv(inst, path)
    assert main(["oracle", "maxmin", str(path)]) == 0
    value = reference_exact_limited_attack_curve(inst, CostModel(2.0))[2]  # beta 1 alters both jobs
    assert capsys.readouterr().out == f"c_maxmin_exact = {value:.12g}\nbudget = 2\n"


def test_oracle_pmax_too_many_load_cells_reports_error(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    write_instance_csv(Instance([Job(0, 1, 8000, 1.0), Job(1, 1, 2, 1.0)]), path)
    assert main(["oracle", "pmax", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: instance too large for exhaustive enumeration" in captured.err


def test_experiment_unwritable_out_reports_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "fig2.csv"
    assert main(["experiment", "fig2", "--seed", "5", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: cannot write experiment output to {out_path}" in captured.err


# Run in a fresh interpreter: every subcommand through cli.main, then tiny fig2-fig5 runs.
NO_MASKED_ARRAYS = """
import sys
from dataclasses import replace

import numpy

bare = "numpy.ma" in sys.modules
from gridsched.cli import main
from gridsched.harness import Experiment, ExperimentConfig, run_experiment
from gridsched.model import Instance, Job, write_instance_csv

folder = sys.argv[1]
csv = folder + "/two.csv"
write_instance_csv(Instance([Job(1, 1, 2, 2.0), Job(2, 2, 3, 2.0)]), csv)
commands = [
    ["solve-min", csv],
    ["attack-full", csv],
    ["attack-online", csv],
    ["attack-limited", csv, "--beta", "0.5"],
    ["bounds", csv],
    ["oracle", "pmax", csv],
    ["oracle", "maxmin", csv, "--beta", "0.5"],
    ["oracle", "verify-min", csv],
    ["experiment", "fig2", "--seed", "1", "--out", folder + "/fig2.csv"],
]
for argv in commands:
    assert main(argv) == 0, argv
tiny = {
    Experiment.FIG2_BOUND: {},
    Experiment.FIG3_COSTS: dict(allowance_means=(5.0,), trials=1, fig3_jobs=8),
    Experiment.FIG4_MAXMIN_BOUNDS: dict(betas=(0.5, 1.0), trials=1, fig4_jobs=8),
    Experiment.FIG5_ORDERED_RATIO: dict(interarrival_grid=(5,), fig5_betas=(0.5,)),
}
for experiment, fields in tiny.items():
    assert run_experiment(replace(ExperimentConfig.default(experiment, seed=1), **fields)).rows
print(bare, "numpy.ma" in sys.modules)
"""


def test_no_subcommand_or_experiment_imports_numpy_ma(tmp_path):
    # numpy 2's unique imports numpy.ma on its first call for values alone; the package sorts instead
    src = str(Path(gridsched.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    bare, loaded = run.stdout.split()[-2:]
    if bare == "True":
        pytest.skip("a bare import numpy loads numpy.ma")
    assert loaded == "False"
