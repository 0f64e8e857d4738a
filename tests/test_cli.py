import json
import subprocess
import sys

import numpy as np
import pytest

import pjac.constructions as constructions
import pjac.radial as radial
from pjac.cli import main


def run_to_file(tmp_path, name, args):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out


def test_energy_gap_csv_shape(tmp_path):
    rc, out = run_to_file(
        tmp_path, "gap.csv", ["energy-gap", "--eps", "1e-1,1e-2", "--grid", "96"]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,p,E_radial,E_competitor,ratio"
    assert len(lines) == 3
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.1 and first[2] > 0 and first[3] > 0


def test_energy_gap_uniform_row(tmp_path):
    import math

    rc, out = run_to_file(
        tmp_path, "one.csv", ["energy-gap", "--eps", "1", "--grid", "128"]
    )
    assert rc == 0
    row = [float(tok) for tok in out.read_text().splitlines()[1].split(",")]
    assert abs(row[2] - 18 * math.pi) < 1e-6  # E_radial at eps = 1
    assert row[3] > 2 * 9 * math.pi  # competitor obeys the 2|J| <= |Du|^2 floor


def test_energy_gap_deterministic_bytes(tmp_path):
    args = ["energy-gap", "--eps", "1e-1,1e-2", "--grid", "96"]
    _, a = run_to_file(tmp_path, "a.csv", list(args))
    _, b = run_to_file(tmp_path, "b.csv", list(args))
    assert a.read_bytes() == b.read_bytes()


def test_zhukovsky_audit_rows(tmp_path):
    rc, out = run_to_file(
        tmp_path, "z.csv",
        ["zhukovsky", "--datum", "power:0.1", "--competitor", "phi2", "--radii", "8"],
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,lhs,rhs,ratio,lambda_star"
    for line in lines[1:]:
        r, lhs, rhs, ratio, lam = map(float, line.split(","))
        assert ratio <= 1 + 1e-6
        assert abs(lam - 1.05) < 1e-9


def test_nonuniqueness_json(tmp_path):
    rc, out = run_to_file(tmp_path, "n.json", ["nonuniqueness", "--grid", "96"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["constraint_residuals"]["mass_ball2"] < 1e-8
    assert doc["rotation_energy_spread"] < 1e-6
    assert abs(doc["truncated_energy"]["slope_vs_log_inv_delta"] - 1.0) < 0.25


def test_check_map_counterexample(tmp_path):
    rc, out = run_to_file(
        tmp_path, "c.json", ["check-map", "--map", "counterexample", "--eps", "0.5"]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["boundary_identity_residual"] < 1e-8
    assert doc["jacobian_residual_max_inner"] < 1e-5
    assert all(row["holds"] for row in doc["isoperimetry"])


def test_config_errors_exit_two(tmp_path):
    assert main(["energy-gap", "--eps", "2.5", "--out", "-"]) == 2
    assert main(["energy-gap", "--eps", "zzz", "--out", "-"]) == 2
    assert main(["zhukovsky", "--p", "0.5", "--out", "-"]) == 2
    assert main(["zhukovsky", "--datum", "bogus", "--out", "-"]) == 2
    assert main(["not-a-command"]) == 2


def test_corrector_config_errors_exit_two(tmp_path, monkeypatch, capsys):
    import pjac.moser as moser
    import pjac.radial as radial

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(moser, "constant_jacobian_corrector", no_work)
    monkeypatch.setattr(radial, "sobolev_energy_1d", no_work)
    out = tmp_path / "never.csv"
    for argv in (
        ["moser-demo", "--resolution", "0"],
        ["moser-demo", "--resolution", "1"],
        ["moser-demo", "--resolution", "-3"],
        ["moser-demo", "--iters", "0"],
        ["energy-gap", "--eps", "0.1", "--corrector", "on", "--iters", "0"],
        ["energy-gap", "--eps", "0.1", "--corrector", "on", "--iters", "-1"],
        ["energy-gap", "--eps", "0.1", "--corrector", "off", "--iters", "0"],
    ):
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err and argv[-2] in err, argv
    assert not out.exists()


def test_csv_non_finite_number_is_a_numerical_failure(tmp_path, capsys):
    # the 1-D energy falsely diverges at this eps; the table must not print inf
    out = tmp_path / "gap.csv"
    assert main(["energy-gap", "--eps", "1e-14", "--grid", "16", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pjac: numerical failure:") and "non-finite" in err
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_unexpected_exception_exits_three_on_one_line(tmp_path, monkeypatch, capsys):
    def divide(*args, **kwargs):
        return 1 / 0

    monkeypatch.setattr(radial, "sobolev_energy_1d", divide)
    out = tmp_path / "gap.csv"
    assert main(["energy-gap", "--eps", "0.1", "--grid", "16", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "pjac: numerical failure: ZeroDivisionError: division by zero\n"
    assert list(tmp_path.iterdir()) == []


def test_numerical_failure_exit_three(tmp_path):
    # the annulus indicator has no finite lambda*, so the audit must refuse
    out = tmp_path / "fail.csv"
    rc = main(["zhukovsky", "--datum", "annulus", "--out", str(out)])
    assert rc == 3
    assert not out.exists()  # no partial output left behind


def test_no_partial_file_on_failure(tmp_path):
    target = tmp_path / "sub" / "x.csv"
    target.parent.mkdir()
    rc = main(["zhukovsky", "--datum", "annulus", "--out", str(target)])
    assert rc == 3
    assert list(target.parent.iterdir()) == []


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "pjac.cli", "zhukovsky", "--datum", "uniform",
         "--competitor", "phi2", "--radii", "4", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("r,lhs,rhs,ratio,lambda_star")


def test_moser_demo_trace(tmp_path):
    rc, out = run_to_file(
        tmp_path, "m.csv",
        ["moser-demo", "--eps", "0.5", "--iters", "1", "--resolution", "10"],
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,max_residual,mass_error"
    assert len(lines) == 3  # initial row plus one iteration


def test_bad_exponent_and_grid_exit_two_before_work(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(radial, "sobolev_energy_1d", no_work)
    monkeypatch.setattr(constructions, "nonuniqueness_datum", no_work)
    out = tmp_path / "never.csv"
    for command in (["energy-gap", "--eps", "0.1"], ["nonuniqueness"]):
        for flag in (["--p", "nan"], ["--p", "inf"], ["--p", "0.5"], ["--p", "x"],
                     ["--grid", "0"], ["--grid", "-4"], ["--grid", "7"]):
            argv = command + flag + ["--out", str(out)]
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "Traceback" not in err and flag[0] in err, argv
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["zhukovsky", "--datum", "power:-2"],
    ["zhukovsky", "--datum", "power:-3.5"],
    ["zhukovsky", "--datum", "power:abc"],
    ["zhukovsky", "--datum", "power:nan"],
    ["zhukovsky", "--datum", "power:inf"],
    ["zhukovsky", "--radii", "0"],
    ["zhukovsky", "--radii", "-3"],
    ["check-map", "--map", "wedge", "--eps", "2"],
    ["check-map", "--map", "shear", "--eps", "nan"],
    ["check-map", "--map", "counterexample", "--eps", "-0.1"],
    ["moser-demo", "--eps", "2"],
    ["moser-demo", "--eps", "inf"],
    ["check-map", "--map", "eta", "--seed", "-1"],
], ids=lambda argv: "_".join(argv))
def test_out_of_range_inputs_exit_two_before_work(tmp_path, monkeypatch, capsys, argv):
    import pjac.energy as energy
    import pjac.moser as moser

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for owner, name in ((radial, "power_law_datum"), (energy, "zhukovsky_comparison"),
                        (constructions, "shear_map"), (constructions, "wedge_map"),
                        (constructions, "assemble_counterexample"),
                        (moser, "constant_jacobian_corrector")):
        monkeypatch.setattr(owner, name, no_work)
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "numerical failure" not in err
    assert argv[-1] in err
    assert not out.exists()


def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys):
    out = tmp_path / "never"
    for argv in (
        ["energy-gap", "--json"],
        ["energy-gap", "--seed", "1"],
        ["zhukovsky", "--json"],
        ["zhukovsky", "--grid", "64"],
        ["nonuniqueness", "--json"],
        ["check-map", "--map", "eta", "--json"],
        ["check-map", "--map", "eta", "--p", "2"],
        ["moser-demo", "--grid", "64"],
        ["moser-demo", "--p", "2"],
    ):
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_json_non_finite_number_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(radial, "truncated_derivative_energy",
                        lambda profile, r_end, deltas: np.full(len(deltas), np.nan))
    out = tmp_path / "n.json"
    assert main(["nonuniqueness", "--grid", "32", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pjac: numerical failure:") and "JSON" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["nonuniqueness", "--grid", "32"],
    ["check-map", "--map", "eta"],
    ["check-map", "--map", "shear"],
    ["check-map", "--map", "wedge"],
    ["check-map", "--map", "counterexample", "--grid", "32"],
    ["moser-demo", "--json", "--iters", "1", "--resolution", "4"],
], ids=lambda argv: "-".join(argv[:3]))
def test_json_outputs_round_trip(tmp_path, argv):
    rc, out = run_to_file(tmp_path, "o.json", argv)
    assert rc == 0
    text = out.read_text()
    doc = json.loads(text)
    assert isinstance(doc, dict) and doc
    assert json.dumps(doc, indent=2, allow_nan=False) + "\n" == text
