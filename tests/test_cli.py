import csv
import json
import xml.etree.ElementTree as ET

import pytest

from histotet import cli
from histotet.cli import main


def run(argv):
    return main(argv)


def test_check_small_grid_passes(capsys):
    code = run(["check", "--alpha", "1,2", "--beta", "1", "--theta", "0,1",
                "--gamma", "2", "--zeta", "1", "--nu", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "configurations pass" in out
    assert "fv" in out and "vol" in out and "ef" in out


def test_check_rejects_below_floor(capsys):
    code = run(["check", "--strategy", "fv", "--alpha", "1e-6", "--beta", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "floor" in err


def test_check_fails_a_configuration_whose_rules_overflow(capsys):
    # The moments of fv(500, 2) are fine, but its face rule overflows as in
    # every other command: check must fail that configuration, not pass it.
    assert run(["check", "--strategy", "fv", "--alpha", "1,500", "--beta", "2"]) == 2
    captured = capsys.readouterr()
    assert "fv (alpha=500;beta=2): weighted simplex rule for (d, exponents, m)" in captured.err
    assert "1 configuration(s) FAILED" in captured.err
    assert "configurations pass" not in captured.out


def test_check_reports_blend_endpoint_closed_forms(capsys):
    assert run(["check", "--strategy", "vol", "--theta", "0,1", "--gamma", "0.5,2,5"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:-1]]
    assert len(rows) == 6
    for _, params, det, closed, rel, *_ in rows:
        assert closed != "-", params
        assert float(rel) < 1e-9, params


@pytest.mark.parametrize("argv", [
    ["check", "--n", "5"],
    ["check", "--out", "somewhere"],
    ["project", "--threads", "2"],
    ["project", "--error-degree", "4"],
])
def test_commands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["converge", "--functions", ","], "no target"),
    (["converge", "--n", ","], "no mesh"),
    (["converge", "--strategy", ","], "no strategy"),
    (["converge", "--functions", "fx..f3"], "bad function range"),
    (["converge", "--strategy", "vol", "--theta", "2"], "theta"),
    (["tune", "--strategy", "ef", "--n", "1"], "--n must be >= 2, got 1"),
    (["tune", "--strategy", "vol", "--gamma", "1e-6"], "floor"),
    (["converge", "--quad-m", "0"], "--quad-m must be >= 3"),
    (["converge", "--strategy", "fv,fv"], "--strategy names fv more than once"),
    (["converge", "--functions", "f1,f1..f2"], "--functions names f1 more than once"),
    (["converge", "--n", "3,3"], "--n names 3 more than once"),
    (["tune", "--strategy", "ef", "--zeta", "2,2.0"], "--zeta names 2.0 more than once"),
    (["tune", "--strategy", "ef", "--holdout", "F2,f9"], "--holdout: unknown function id 'F2'"),
    (["tune", "--strategy", "ef", "--functions", "f1,f2", "--holdout", "f3"],
     "--holdout names f3, which --functions does not"),
    (["tune", "--strategy", "ef", "--alpha", "0.5", "--zeta", "1,2", "--nu", "1,2"],
     "--alpha is a fv parameter; --strategy does not name fv"),
    (["converge", "--strategy", "fv", "--gamma", "3"],
     "--gamma is a vol parameter; --strategy does not name vol"),
    (["project", "--gamma", "3"], "--gamma is a vol parameter; --strategy does not name vol"),
    (["check", "--strategy", "fv", "--theta", "0.3"],
     "--theta is a vol parameter; --strategy does not name vol"),
    # Two points per direction are exact to degree 3; weighted moments need 4.
    (["converge", "--quad-m", "2", "--n", "3", "--functions", "f1"],
     "--quad-m must be >= 3, got 2: a weighted moment"),
    (["tune", "--strategy", "fv", "--quad-m", "2", "--n", "3", "--functions", "f1"],
     "--quad-m must be >= 3, got 2: a weighted moment"),
    (["project", "--quad-m", "2"], "--quad-m must be >= 3, got 2: a weighted moment"),
])
def test_bad_input_exits_2(tmp_path, capsys, argv, message):
    # check and project take no --out
    out = ["--out", str(tmp_path / "out")] if argv[0] in ("tune", "converge") else []
    assert run(argv + out) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["converge", "--strategy", "classical,fv"],
    ["tune", "--strategy", "ef", "--zeta", "1,2", "--nu", "1,2,3"],
])
def test_mesh_runs_refuse_meshes_larger_than_memory(tmp_path, capsys, monkeypatch, argv):
    from histotet import experiment

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    def no_mesh(n):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(experiment, "build_mesh", no_mesh)
    monkeypatch.setattr(cli, "convergence_study", reached)
    monkeypatch.setattr(cli, "grid_search", reached)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 50_000_000)
    out = tmp_path / "out"
    # n = 5 fits in 50 MB: 384 cells plus one 32 MB chunk of target values.
    with pytest.raises(Reached):
        run(argv + ["--functions", "f1", "--n", "3,5", "--out", str(out)])
    assert run(argv + ["--functions", "f1", "--n", "3,40", "--threads", "2",
                       "--out", str(out / "big")]) == 2
    err = capsys.readouterr().err
    need = experiment.study_bytes(40, 2 if argv[0] == "converge" else 6, threads=2)
    assert need > 355_914 * 136  # the n = 40 cells, at more than 136 bytes each
    assert f"--n 40 needs at least {need / 1e6:,.0f} MB" in err
    assert "more than the 50 MB of physical memory" in err
    assert not (out / "big").exists()


def test_internal_error_propagates(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "convergence_study", broken)
    with pytest.raises(ValueError, match="internal failure"):
        run(["converge", "--functions", "f1", "--n", "3", "--strategy", "classical",
             "--out", str(tmp_path)])


def test_converge_csv_schema_and_determinism(tmp_path):
    args = [
        "converge", "--functions", "f1", "--n", "3,4",
        "--strategy", "classical,ef", "--quad-m", "4", "--error-degree", "4",
    ]
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0

    data1 = (out1 / "errors.csv").read_bytes()
    data2 = (out2 / "errors.csv").read_bytes()
    assert data1 == data2

    with open(out1 / "errors.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["function", "n", "method", "params", "l1_error", "seconds"]
    assert len(rows) == 1 + 4  # header + 1 function x 2 meshes x 2 methods
    assert all(row[5] == "0.000" for row in rows[1:])

    assert (out1 / "run_metadata.json").exists()
    tree = ET.parse(out1 / "convergence_f1.svg")
    assert tree.getroot().tag.endswith("svg")


def test_converge_single_row(tmp_path):
    out = tmp_path / "single"
    assert run([
        "converge", "--functions", "f2", "--n", "3", "--strategy", "fv",
        "--quad-m", "4", "--error-degree", "4", "--out", str(out),
    ]) == 0
    lines = (out / "errors.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("f2,3,fv,alpha=2;beta=2,")


def test_converge_rejects_unknown_function(tmp_path, capsys):
    code = run(["converge", "--functions", "f9", "--n", "3", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown function" in capsys.readouterr().err


def test_converge_unwritable_outdir(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(SystemExit) as exc:
        run(["converge", "--functions", "f1", "--n", "3",
             "--strategy", "classical", "--out", str(blocker / "sub")])
    assert exc.value.code == 3


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    code = run(["converge", "--functions", "f1", "--n", "3", "--strategy", "classical",
                "--threads", threads, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_converge_timing_flag(tmp_path):
    out = tmp_path / "timed"
    assert run([
        "converge", "--functions", "f1", "--n", "3", "--strategy", "classical",
        "--quad-m", "4", "--error-degree", "4", "--timing", "--out", str(out),
    ]) == 0
    lines = (out / "errors.csv").read_text().strip().splitlines()
    assert not lines[1].endswith(",0.000") or float(lines[1].rsplit(",", 1)[1]) >= 0.0


def test_tune_writes_surface(tmp_path, capsys):
    out = tmp_path / "tuned"
    code = run([
        "tune", "--strategy", "ef", "--zeta", "1,2", "--nu", "1,2",
        "--functions", "f1", "--n", "3", "--quad-m", "4", "--error-degree", "4",
        "--out", str(out),
    ])
    printed = capsys.readouterr().out
    assert code == 0
    assert "optimal zeta=" in printed
    with open(out / "tuning_surface.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["zeta", "nu", "sum_l1_error"]
    assert len(rows) == 1 + 4


def test_tune_function_ranges_and_holdout(tmp_path, capsys):
    out = tmp_path / "held"
    code = run([
        "tune", "--strategy", "ef", "--zeta", "2", "--nu", "2",
        "--functions", "f1..f3", "--holdout", "f2,f3",
        "--n", "3", "--quad-m", "4", "--error-degree", "4", "--out", str(out),
    ])
    assert code == 0
    assert "optimal" in capsys.readouterr().out
    assert json.loads((out / "run_metadata.json").read_text())["functions"] == ["f1"]


def test_tune_rejects_empty_grid(tmp_path, capsys):
    code = run(["tune", "--strategy", "fv", "--alpha", ",", "--out", str(tmp_path)])
    assert code == 2
    assert "nonempty" in capsys.readouterr().err


def test_tune_requires_tunable_strategy(capsys):
    assert run(["tune", "--strategy", "classical"]) == 2
    assert "fv, vol or ef" in capsys.readouterr().err


def test_project_constant_function(capsys):
    code = run(["project", "--strategy", "vol", "--functions", "f1",
                "--tet", "0,0,0,1,0,0,0,1,0,0,0,1", "--quad-m", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dofs" in out and "coefficients" in out
    assert "max |dofs(reconstruction) - dofs|" in out


def test_project_quadratic_is_reproduced(capsys):
    # f3 is smooth and nearly quadratic on one small tet: the dump must show
    # tiny projector drift
    code = run(["project", "--strategy", "fv", "--functions", "f3"])
    out = capsys.readouterr().out
    assert code == 0
    drift = float(out.split("max |dofs(reconstruction) - dofs| :")[1].split()[0])
    assert drift < 1e-9


@pytest.mark.parametrize("argv, message", [
    (["--strategy", "vol,ef"], "exactly one strategy"),
    (["--strategy", "all"], "exactly one strategy"),
    (["--functions", "f1,f2"], "exactly one function"),
    (["--tet", "0,0,0,1,0,0,2,0,0,3,0,0"], "degenerate"),
])
def test_project_rejects_bad_input(capsys, argv, message):
    assert run(["project", *argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["project", "--strategy", "fv", "--alpha", "500"],  # NaN weights
    ["project", "--strategy", "fv", "--alpha", "350"],  # zero weights
    ["converge", "--strategy", "fv", "--alpha", "500", "--functions", "f1", "--n", "2"],
])
def test_oversized_exponent_raises_instead_of_printing_nan(tmp_path, capsys, argv):
    # A face dirichlet(alpha) rule overflows its Gauss-Jacobi weights near
    # alpha = 342; the run must stop at the rule, not print or blame NaNs.
    with pytest.raises(ValueError, match=r"weighted simplex rule for \(d, exponents, m\)"):
        run([*argv, "--out", str(tmp_path)] if argv[0] == "converge" else argv)
    assert "nan" not in capsys.readouterr().out
