"""Command line surface: every subcommand against a temp instance file."""

import pytest

from gridsched.cli import main
from gridsched.model import CostModel, Instance, Job, write_instance_csv

from helpers import reference_exact_limited_attack_curve


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
