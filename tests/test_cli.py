import ast
import csv
import importlib
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import histotet
from histotet import QuadSettings, StrategyConfig, cli, mesh
from histotet.cli import main


def run(argv):
    return main(argv)


def test_check_small_grid_passes(capsys):
    # A small grid of each method; the default fv 6x6, vol 5x6 and ef 6x6
    # grids (a grid that shrank would still exit 0); and the one enrichment
    # routine at the parameter floor and within a factor of 10 of the
    # reproduction tolerance (r up to 9.2e-10, at ef (5, 0.001)).  The ef block
    # is the edge pivot times the identity: every ef row has a closed form.
    for argv, counts in [
        (["--alpha", "1,2", "--beta", "1", "--theta", "0,1", "--gamma", "2", "--zeta", "1", "--nu", "2"],
         {"fv": 2, "vol": 2, "ef": 1}),
        ([], {"fv": 36, "vol": 30, "ef": 36}),
        (["--strategy", "vol,ef", "--theta", "0,0.5,1", "--gamma", "0.001,20", "--zeta", "0.001,5",
          "--nu", "0.001,10"], {"vol": 6, "ef": 4}),
    ]:
        assert run(["check", *argv]) == 0
        captured = capsys.readouterr()
        *lines, last = captured.out.splitlines()[2:]
        assert (last, captured.err) == (f"all {sum(counts.values())} configurations pass", "")
        rows = [line.split() for line in lines]
        assert [row[0] for row in rows] == [method for method, count in counts.items() for _ in range(count)]
        assert all(row[3] != "-" for row in rows if row[0] == "ef")


def test_default_check_estimates_no_memory(capsys, monkeypatch):
    # check builds no mesh, chunk or output at fixed settings, so the memory
    # refusal of the other commands can never fire there.
    calls = []
    estimate = cli.study_bytes

    def counted(*args):
        calls.append(args)
        return estimate(*args)

    monkeypatch.setattr(cli, "study_bytes", counted)
    assert run(["check"]) == 0
    capsys.readouterr()
    assert calls == []


def test_check_reports_blend_endpoint_closed_forms(capsys):
    # At theta 0 or 1, and at gamma = 1 (the uniform law) for any theta.
    for argv, count in [(["--theta", "0,1", "--gamma", "0.5,2,5"], 6), (["--theta", "0.5", "--gamma", "1"], 1)]:
        assert run(["check", "--strategy", "vol", *argv]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:-1]]
        assert len(rows) == count
        for _, params, det, closed, rel, *_ in rows:
            assert closed != "-", params
            assert float(rel) < 1e-9, params


@pytest.mark.parametrize("argv", [
    ["check", "--n", "5"],
    ["check", "--out", "somewhere"],
    ["project", "--threads", "2"],
    ["project", "--error-degree", "4"],
    ["tune", "--holdout", "f1"],
    ["converge", "--timing"],
])
def test_commands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


_PARAMETER_FLAGS = ["--alpha", "--beta", "--theta", "--gamma", "--zeta", "--nu"]
_MESH_RUN_FLAGS = ["--functions", "--quad-m", "--n", "--error-degree", "--threads", "--out"]


def test_each_command_takes_exactly_its_flags():
    # argparse offers no public view of a parser's options, hence _actions.
    (commands,) = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
    flags = {name: [s for a in p._actions for s in a.option_strings] for name, p in commands.items()}
    common = ["-h", "--help", "--strategy", *_PARAMETER_FLAGS]
    assert flags == {
        "check": common,
        "tune": [*common, *_MESH_RUN_FLAGS],
        "converge": [*common, *_MESH_RUN_FLAGS],
        "project": [*common, "--functions", "--quad-m", "--tet"],
    }


_QUAD_M = (
    "--quad-m: dof_points must be >= 3 for quadratic moments, got {}: a weighted moment integrates a "
    "quadratic weight times a quadratic (degree 4), and m Gauss points per direction are exact to degree 2m - 1"
)
_KNOWN = "(known: f1, f2, f3, f4, f5, f6, f7, f8)"
_NOT_NAMED = "--{0} is a {1} parameter; --strategy does not name {1}"
_TUNE = "tune needs --strategy fv, vol or ef"
_ONE_MESH = ["--functions", "f1", "--n", "3"]
_HUGE_EF = ["--strategy", "ef", "--zeta", "1e308", "--nu", "1"]
_HUGE_VOL = ["--strategy", "vol", "--theta", "0.5", "--gamma", "1e200"]
_GJ = "non-finite Gauss-Jacobi rule for (m, a, b) = "
_NO_ENRICHMENT = "has no enrichment quadratic in floating point: "
_NAN_EDGE = _NO_ENRICHMENT + "the moments of its edge density are not finite"
_SINGULAR_EDGE = _NO_ENRICHMENT + "the affine Gram matrix of its edge density is singular"
_OVERFLOWING_FV = _NO_ENRICHMENT + "its closed-form interior quadratic overflows"
_CHECK_COLUMNS = ["strategy", "params", "det", "closed", "rel_err", "rank6", "spd", "cond", "r"]


def _rule(config, rule, mass):
    """The refusal of a configuration whose weighted simplex rule overflows."""
    return (
        f"{config}: weighted simplex rule for (d, exponents, m) = {rule} is not finite with mass 1 "
        f"(mass {mass}): the exponents are too large for its Gauss-Jacobi weights"
    )


def _case(case_id, argv, message, rows=None):
    """One refusal: its stderr is `error: message`.  `rows` is None when
    nothing is printed; for a check that ran, it lists the rows printed,
    each as the columns the case reads, and one configuration failed."""
    return pytest.param(argv, message, rows, id=case_id)


# The first 28 ids are those that pytest derived from earlier, shorter
# messages; a case moved here from a test of its own is named after it.
@pytest.mark.parametrize("argv, message, rows", [
    _case("argv0-no target", ["converge", "--functions", ","], "--functions names no target function"),
    _case("argv1-no mesh", ["converge", "--n", ","], "--n names no mesh"),
    _case("argv2-no strategy", ["converge", "--strategy", ","], "--strategy names no strategy"),
    _case("argv3-bad function range", ["converge", "--functions", "fx..f3"], "bad function range 'fx..f3'"),
    _case("argv4-theta", ["converge", "--strategy", "vol", "--theta", "2"], "theta must lie in [0, 1], got 2.0"),
    _case("argv5---n must be >= 2, got 1", ["tune", "--strategy", "ef", "--n", "1"],
          "--n: grid parameter n must be an integer >= 2, got 1"),
    _case("argv6-floor", ["tune", "--strategy", "vol", "--gamma", "1e-6"],
          "gamma must be >= 0.001, the admissible floor, got 1e-06"),
    _case("argv7---quad-m must be >= 3", ["converge", "--quad-m", "0"], _QUAD_M.format(0)),
    _case("argv8---strategy names fv more than once", ["converge", "--strategy", "fv,fv"],
          "--strategy names fv more than once"),
    _case("argv9---functions names f1 more than once", ["converge", "--functions", "f1,f1..f2"],
          "--functions names f1 more than once"),
    _case("argv10---n names 3 more than once", ["converge", "--n", "3,3"], "--n names 3 more than once"),
    _case("argv11---zeta names 2.0 more than once", ["tune", "--strategy", "ef", "--zeta", "2,2.0"],
          "--zeta names 2.0 more than once"),
    _case("argv12-unknown function id 'F2'", ["tune", "--strategy", "ef", "--functions", "F2,f9"],
          f"unknown function id 'F2' {_KNOWN}"),
    _case("argv13---error-degree must be >= 1, got 0", ["converge", "--error-degree", "0"],
          "--error-degree: error_degree must be >= 1, got 0"),
    _case("argv14---alpha is a fv parameter; --strategy does not name fv",
          ["tune", "--strategy", "ef", "--alpha", "0.5", "--zeta", "1,2", "--nu", "1,2"],
          _NOT_NAMED.format("alpha", "fv")),
    _case("argv15---gamma is a vol parameter; --strategy does not name vol",
          ["converge", "--strategy", "fv", "--gamma", "3"], _NOT_NAMED.format("gamma", "vol")),
    _case("argv16---gamma is a vol parameter; --strategy does not name vol",
          ["project", "--gamma", "3"], _NOT_NAMED.format("gamma", "vol")),
    _case("argv17---theta is a vol parameter; --strategy does not name vol",
          ["check", "--strategy", "fv", "--theta", "0.3"], _NOT_NAMED.format("theta", "vol")),
    # Two points per direction are exact to degree 3; weighted moments need 4.
    _case("argv18---quad-m must be >= 3, got 2: a weighted moment",
          ["converge", "--quad-m", "2", *_ONE_MESH], _QUAD_M.format(2)),
    _case("argv19---quad-m must be >= 3, got 2: a weighted moment",
          ["tune", "--strategy", "fv", "--quad-m", "2", *_ONE_MESH], _QUAD_M.format(2)),
    _case("argv20---quad-m must be >= 3, got 2: a weighted moment", ["project", "--quad-m", "2"], _QUAD_M.format(2)),
    # A range that ends before it starts names nothing; it is not an empty set.
    _case("argv21-bad function range 'f5..f2'", ["converge", "--functions", "f1,f5..f2"],
          "bad function range 'f5..f2'"),
    # An empty value names nothing; it does not mean the default.
    _case("argv22---functions names no target function", ["converge", "--functions=", "--n", "3"],
          "--functions names no target function"),
    _case("argv23---strategy names no strategy", ["converge", "--strategy="], "--strategy names no strategy"),
    _case("argv24---n names no mesh", ["converge", "--n="], "--n names no mesh"),
    _case("argv25---tet needs 12 coordinates", ["project", "--tet="], "--tet needs 12 coordinates (4 vertices x 3)"),
    # Not finite is its own rule: inf is not below the floor.
    _case("argv26-alpha must be finite, got inf", ["check", "--strategy", "fv", "--alpha", "inf"],
          "alpha must be finite, got inf"),
    _case("argv27-alpha must be finite, got nan", ["check", "--strategy", "fv", "--alpha", "nan"],
          "alpha must be finite, got nan"),
    _case("test_check_rejects_below_floor", ["check", "--strategy", "fv", "--alpha", "1e-6", "--beta", "1"],
          "alpha must be >= 0.001, the admissible floor, got 1e-06"),
    # The moments of fv(500, 2) are fine, but its face rule overflows as in
    # every other command: check prints no row for that configuration.
    _case("test_check_fails_a_configuration_whose_rules_overflow",
          ["check", "--strategy", "fv", "--alpha", "1,500", "--beta", "2"],
          _rule("fv (alpha=500;beta=2)", "(2, (499.0, 499.0, 499.0), 8)", "nan"),
          [{"params": "alpha=1;beta=2"}]),
    _case("test_converge_rejects_unknown_function", ["converge", "--functions", "f9", "--n", "3"],
          f"unknown function id 'f9' {_KNOWN}"),
    _case("test_threads_below_one_rejected-0",
          ["converge", *_ONE_MESH, "--strategy", "classical", "--threads", "0"], "--threads must be >= 1, got 0"),
    _case("test_threads_below_one_rejected--1",
          ["converge", *_ONE_MESH, "--strategy", "classical", "--threads", "-1"], "--threads must be >= 1, got -1"),
    _case("test_tune_rejects_empty_grid", ["tune", "--strategy", "fv", "--alpha", ","],
          "--alpha candidate grid must be nonempty"),
    _case("test_tune_requires_tunable_strategy", ["tune", "--strategy", "classical"], _TUNE),
    _case("tune-without-strategy", ["tune"], _TUNE),
    _case("tune-all", ["tune", "--strategy", "all"], _TUNE),
    _case("tune-two-methods", ["tune", "--strategy", "fv,vol"], _TUNE),
    _case("test_project_rejects_bad_input-argv0-exactly one strategy", ["project", "--strategy", "vol,ef"],
          "--strategy: project takes exactly one strategy, got ['vol', 'ef']"),
    _case("test_project_rejects_bad_input-argv1-exactly one strategy", ["project", "--strategy", "all"],
          "--strategy: project takes exactly one strategy, got ['classical', 'fv', 'vol', 'ef']"),
    _case("test_project_rejects_bad_input-argv2-exactly one function", ["project", "--functions", "f1,f2"],
          "--functions: project takes exactly one function id, got ['f1', 'f2']"),
    _case("test_project_rejects_bad_input-argv3-degenerate", ["project", "--tet", "0,0,0,1,0,0,2,0,0,3,0,0"],
          "--tet: degenerate tetrahedron (zero volume)"),
    # A face Dirichlet(alpha) rule overflows its Gauss-Jacobi weights near
    # alpha = 342, to NaN weights at 500 and zero weights at 350; an edge
    # Beta(zeta, nu) rule near zeta + nu = 1,025.
    _case("test_oversized_exponent_raises_instead_of_printing_nan-argv0",
          ["project", "--strategy", "fv", "--alpha", "500"],
          _rule("fv (alpha=500;beta=2)", "(2, (499.0, 499.0, 499.0), 8)", "nan")),
    _case("test_oversized_exponent_raises_instead_of_printing_nan-argv1",
          ["project", "--strategy", "fv", "--alpha", "350"],
          _rule("fv (alpha=350;beta=2)", "(2, (349.0, 349.0, 349.0), 8)", "0")),
    _case("test_oversized_exponent_raises_instead_of_printing_nan-argv2",
          ["converge", "--strategy", "fv", "--alpha", "500", "--beta", "2", *_ONE_MESH],
          _rule("fv (alpha=500;beta=2)", "(2, (499.0, 499.0, 499.0), 8)", "nan")),
    _case("test_oversized_exponent_raises_instead_of_printing_nan-argv3",
          ["project", "--strategy", "ef", "--zeta", "600", "--nu", "600"],
          _rule("ef (zeta=600;nu=600)", "(1, (599.0, 599.0), 8)", "nan")),
    _case("tune-rule", ["tune", "--strategy", "vol", "--theta", "0,0.5", "--gamma", "300", *_ONE_MESH],
          _rule("vol (theta=0;gamma=300)", "(3, (299.0, 299.0, 299.0, 299.0), 8)", "0")),
    # scipy refuses the overflowed Jacobi matrix of each rule, and at
    # zeta = 1e308 the edge moments are NaN before any rule is built: that
    # configuration has no enrichment quadratic, so check prints no row for it.
    _case("test_parameters_too_large_for_any_rule_exit_2-converge-ef", ["converge", *_HUGE_EF, *_ONE_MESH],
          f"strategy ef (zeta=1e+308;nu=1) {_NAN_EDGE}"),
    _case("test_parameters_too_large_for_any_rule_exit_2-converge-vol", ["converge", *_HUGE_VOL, *_ONE_MESH],
          f"vol (theta=0.5;gamma=1e+200): {_GJ}(8, 1e+200, 3e+200)"),
    _case("test_parameters_too_large_for_any_rule_exit_2-check-vol", ["check", *_HUGE_VOL],
          f"vol (theta=0.5;gamma=1e+200): {_GJ}(8, 1e+200, 3e+200)", []),
    _case("test_parameters_too_large_for_any_rule_exit_2-check-ef", ["check", *_HUGE_EF],
          f"strategy ef (zeta=1e+308;nu=1) {_NAN_EDGE}", []),
    # A closed form that floating point cannot hold (a**4 overflows, the
    # determinant underflows to 0, the face moments are NaN) comes with a
    # rule that cannot be built: check fails the configuration at its rule.
    _case("test_check_leaves_out_a_closed_form_beyond_floating_point-1e78-1-(8, 1e+78, 2e+78)",
          ["check", "--strategy", "fv", "--alpha", "1e78", "--beta", "1"],
          f"fv (alpha=1e+78;beta=1): {_GJ}(8, 1e+78, 2e+78)", []),
    _case("test_check_leaves_out_a_closed_form_beyond_floating_point-1-1e100-(8, 1e+100, 3.0000000000000002e+100)",
          ["check", "--strategy", "fv", "--alpha", "1", "--beta", "1e100"],
          f"fv (alpha=1;beta=1e+100): {_GJ}(8, 1e+100, 3.0000000000000002e+100)", []),
    _case("test_check_leaves_out_a_closed_form_beyond_floating_point-1e306-1-(8, 1e+306, 2e+306)",
          ["check", "--strategy", "fv", "--alpha", "1e306", "--beta", "1"],
          f"fv (alpha=1e+306;beta=1): {_GJ}(8, 1e+306, 2e+306)", []),
])
def test_bad_input_exits_2(tmp_path, capsys, monkeypatch, argv, message, rows):
    _assert_refused(tmp_path, capsys, monkeypatch, argv, message, rows)


# Rows of the table above under a name of their own, which keeps their ids
# short enough to tell apart in a report that cuts long node ids.
@pytest.mark.parametrize("argv, message, rows", [
    # The edge Beta law's affine Gram matrix is singular in floating point
    # (Var(t) rounds to 0), and the fv closed form squares beta past the
    # largest float.
    _case("check-ef",
          ["check", "--strategy", "ef", "--zeta", "10000", "--nu", "0.001"],
          f"strategy ef (zeta=10000;nu=0.001) {_SINGULAR_EDGE}", []),
    _case("converge-ef",
          ["converge", "--strategy", "ef", "--zeta", "10000", "--nu", "0.001", *_ONE_MESH],
          f"strategy ef (zeta=10000;nu=0.001) {_SINGULAR_EDGE}"),
    _case("project-ef",
          ["project", "--strategy", "ef", "--zeta", "10000", "--nu", "0.001"],
          f"strategy ef (zeta=10000;nu=0.001) {_SINGULAR_EDGE}"),
    # check carries on past the failed configuration and prints the next row.
    _case("check-ef-1e20",
          ["check", "--strategy", "ef", "--zeta", "1e20,2", "--nu", "1"],
          f"strategy ef (zeta=1e+20;nu=1) {_SINGULAR_EDGE}", [{"params": "zeta=2;nu=1"}]),
    _case("converge-ef-1e20",
          ["converge", "--strategy", "ef", "--zeta", "1e20", "--nu", "1", *_ONE_MESH],
          f"strategy ef (zeta=1e+20;nu=1) {_SINGULAR_EDGE}"),
    _case("project-ef-1e20",
          ["project", "--strategy", "ef", "--zeta", "1e20", "--nu", "1"],
          f"strategy ef (zeta=1e+20;nu=1) {_SINGULAR_EDGE}"),
    _case("project-fv",
          ["project", "--strategy", "fv", "--beta", "2e154"], f"strategy fv (alpha=2;beta=2e+154) {_OVERFLOWING_FV}"),
    _case("check-fv",
          ["check", "--strategy", "fv", "--alpha", "1", "--beta", "2e154"],
          f"strategy fv (alpha=1;beta=2e+154) {_OVERFLOWING_FV}", []),
    _case("tune-fv",
          ["tune", "--strategy", "fv", "--alpha", "1", "--beta", "1,2e154", *_ONE_MESH],
          f"strategy fv (alpha=1;beta=2e+154) {_OVERFLOWING_FV}"),
])
def test_parameters_beyond_floating_point_enrichment_exit_2(tmp_path, capsys, monkeypatch, argv, message, rows):
    _assert_refused(tmp_path, capsys, monkeypatch, argv, message, rows)


def _r(config, r):
    """The refusal of a configuration whose DOFs do not reproduce quadratics."""
    return f"strategy {config} does not reproduce quadratics: r = max |H^-1 (W Lambda) - I| is {r}, above 1e-08"


# Each refusal states its r.  Raw cond(H) of the ef corners is 3.4e13 to
# 5.5e14, but that is row scaling: r is what they lack.
@pytest.mark.parametrize("argv, message, rows", [
    _case("check-vol", ["check", "--strategy", "vol", "--theta", "0,0.5", "--gamma", "200"],
          _r("vol (theta=0;gamma=200)", "2.8e-07"), [{"params": "theta=0.5;gamma=200"}]),
    _case("tune-ef", ["tune", "--strategy", "ef", "--zeta", "500", "--nu", "500", *_ONE_MESH],
          _r("ef (zeta=500;nu=500)", "1.4e-06")),
    _case("project-ef-corner", ["project", "--strategy", "ef", "--zeta", "0.001", "--nu", "500"],
          _r("ef (zeta=0.001;nu=500)", "1.5e-05")),
    _case("converge-ef-corner", ["converge", "--strategy", "ef", "--zeta", "0.001", "--nu", "1000", *_ONE_MESH],
          _r("ef (zeta=0.001;nu=1000)", "2.1e-03")),
    _case("check-ef-corner", ["check", "--strategy", "ef", "--zeta", "500", "--nu", "0.001"],
          _r("ef (zeta=500;nu=0.001)", "9.4e-01"), []),
])
def test_configurations_that_do_not_reproduce_quadratics_exit_2(tmp_path, capsys, monkeypatch, argv, message, rows):
    _assert_refused(tmp_path, capsys, monkeypatch, argv, message, rows)


@pytest.mark.parametrize("command", ["check", "converge", "tune", "project"])
@pytest.mark.parametrize("block, verdict", [
    (np.diag([1.0] * 5 + [0.0]), "is not unisolvent: its enriched block's singular values range from 0.000e+00 to 1.000e+00"),
    (-np.eye(6), "has an enriched block that is not symmetric positive definite"),
], ids=["rank", "spd"])
def test_operators_that_fail_a_verdict_exit_2(tmp_path, capsys, monkeypatch, command, block, verdict):
    # No parameter value is known to fail the rank or the SPD verdict once
    # its rules and quadratics exist, so the enriched block is replaced.
    from histotet import element

    monkeypatch.setattr(element, "_enriched_block", lambda functionals: block)
    argv = [command, "--strategy", "vol", "--theta", "0.5", "--gamma", "2"]
    _assert_refused(tmp_path, capsys, monkeypatch, argv + (_ONE_MESH if command in ("converge", "tune") else []),
                    f"strategy vol (theta=0.5;gamma=2) {verdict}",
                    [] if command == "check" else None)


@pytest.mark.parametrize("params, code", [
    (["--strategy", "fv", "--alpha", "2", "--beta", "2"], 0),
    (["--strategy", "fv", "--alpha", "500", "--beta", "2"], 2),  # its face rule overflows
    (["--strategy", "ef", "--zeta", "10000", "--nu", "0.001"], 2),  # no enrichment quadratic
    (["--strategy", "ef", "--zeta", "500", "--nu", "0.001"], 2),  # r = 0.94
], ids=["fv-default", "fv-rule", "ef-gram", "ef-r"])
def test_check_fails_what_every_command_refuses(tmp_path, capsys, params, code):
    # One configuration, one verdict: each command exits with the same code
    # and the same first line of stderr (check adds its count of failures).
    verdicts = {}
    for command in ("check", "converge", "tune", "project"):
        run_args = ["--functions", "f1", "--n", "3", "--out", str(tmp_path / command)]
        assert run([command, *params, *(run_args if command in ("converge", "tune") else [])]) == code
        verdicts[command] = capsys.readouterr().err.splitlines()[:1]
    assert list(verdicts.values()) == [verdicts["check"]] * 4
    assert bool(verdicts["check"]) == (code == 2)


def _assert_refused(tmp_path, capsys, monkeypatch, argv, message, rows):
    # Every refusal exits 2 with its one message before any mesh or output
    # directory exists; its only stdout is the rows of a check that ran.
    from histotet import experiment

    def no_mesh(n):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(experiment, "build_mesh", no_mesh)
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)] if argv[0] in ("tune", "converge") else argv) == 2
    captured = capsys.readouterr()
    if rows is None:
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
    else:
        assert captured.err == f"error: {message}\n1 configuration(s) FAILED the check\n"
        header, rule, *printed = captured.out.splitlines()
        assert (header.split(), rule) == (_CHECK_COLUMNS, "-" * len(header))
        printed = [dict(zip(_CHECK_COLUMNS, line.split())) for line in printed]
        assert [{k: row[k] for k in want} for row, want in zip(printed, rows)] == rows
        assert len(printed) == len(rows)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["converge", "--functions", "f4", "--n", "3"],
    ["tune", "--strategy", "ef", "--functions", "f4", "--n", "3"],
], ids=["converge", "tune"])
def test_empty_out_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, argv):
    # An empty --out names no directory; it does not mean the working one.
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--out="]) == 2
    assert capsys.readouterr().err == "error: --out names no directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, rule", [
    (["converge", "--quad-m", "2"], lambda: QuadSettings(dof_points=2)),
    (["converge", "--error-degree", "0"], lambda: QuadSettings(error_degree=0)),
    (["converge", "--n", "1"], lambda: mesh.mesh_size(1)),
    (["project", "--quad-m", "2"], lambda: QuadSettings(dof_points=2)),
], ids=["converge-quad-m", "converge-error-degree", "converge-n", "project-quad-m"])
def test_each_floor_has_one_home(tmp_path, capsys, argv, rule):
    # The library states the floor; the CLI names the flag and repeats the
    # library's message word for word.
    with pytest.raises(ValueError) as library:
        rule()
    out = ["--functions", "f1", "--strategy", "classical", "--out", str(tmp_path / "out")]
    assert run(argv + out if argv[0] == "converge" else argv) == 2
    assert capsys.readouterr().err == f"error: {argv[1]}: {library.value}\n"
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
    # n = 5 fits in 50 MB: its 384 cells make one chunk of a few MB, as the
    # pass's schedule counts it.
    with pytest.raises(Reached):
        run(argv + ["--functions", "f1", "--n", "3,5", "--out", str(out)])
    assert run(argv + ["--functions", "f1", "--n", "3,40", "--threads", "2",
                       "--out", str(out / "big")]) == 2
    err = capsys.readouterr().err
    configs = (
        [StrategyConfig.of("classical"), StrategyConfig.face_volume(2, 2)]
        if argv[0] == "converge"
        else [StrategyConfig.edge_face(z, nu) for z in (1, 2) for nu in (1, 2, 3)]
    )
    need = experiment.study_bytes((3, 40), configs, QuadSettings(), threads=2)
    assert need > 355_914 * 136  # the n = 40 cells, at more than 136 bytes each
    assert f"--n 3,40 needs at least {need / 1e6:,.0f} MB" in err
    assert "more than the 50 MB of physical memory" in err
    assert not (out / "big").exists()


def test_refusal_counts_only_workers_that_can_run(tmp_path, monkeypatch):
    from histotet import experiment

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    # n = 5's 384 cells make one chunk, which runs serially whatever
    # --threads asks: 4,000 chunk peaks would exceed any machine's memory.
    monkeypatch.setattr(experiment, "ThreadPoolExecutor", no_pool)
    out = tmp_path / "threads"
    assert run(["converge", "--functions", "f4", "--n", "5", "--threads", "4000", "--out", str(out)]) == 0
    assert (out / "errors.csv").exists()


@pytest.mark.parametrize("argv, arrays, at_least_mb", [
    # The default vol table alone: 2 x 300^3 nodes, 14 scalars each.
    (["converge", "--functions", "f4", "--n", "3", "--quad-m", "300"],
     "--n 3 needs at least {} MB for its arrays at --quad-m 300 and --error-degree 8,", 6_048),
    # The error rule: 502^3 nodes with 4 coordinates, a weight and 10 basis values.
    (["converge", "--functions", "f4", "--n", "3", "--error-degree", "1000"],
     "--n 3 needs at least {} MB for its arrays at --quad-m 8 and --error-degree 1000,", 15_180),
    # The default fv table: 4 x 300^2 face and 300^3 interior nodes.
    (["project", "--quad-m", "300"],
     "project needs at least {} MB for its arrays at --quad-m 300,", 3_064),
], ids=["converge-quad-m", "converge-error-degree", "project-quad-m"])
def test_runs_refuse_quadrature_arrays_larger_than_memory(
    tmp_path, capsys, monkeypatch, argv, arrays, at_least_mb
):
    # Nothing that allocates runs here, refusal or not: the quadrature
    # tables of these runs take several GB.
    from histotet import experiment

    def unreachable(*args, **kwargs):
        raise AssertionError("the run was not refused")

    for module, name in [(experiment, "build_mesh"), (cli, "convergence_study"),
                         (cli, "compute_dofs")]:
        monkeypatch.setattr(module, name, unreachable)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1_000_000_000)
    out = ["--out", str(tmp_path / "out")] if argv[0] == "converge" else []
    assert run(argv + out) == 2
    err = capsys.readouterr().err
    need_mb = int(err.split("needs at least ")[1].split(" MB")[0].replace(",", ""))
    assert need_mb > at_least_mb
    assert arrays.format(f"{need_mb:,}") in err
    assert "more than the 1,000 MB of physical memory" in err
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_out_heavy_modules():
    # Every command starts by importing the CLI; scipy.linalg, and the
    # network stack that xml.sax.saxutils pulls in, would cost each start
    # tens of milliseconds.
    heavy = ("scipy.linalg", "xml.sax", "urllib.request", "ssl")
    src = str(Path(histotet.__file__).parents[1])
    code = (
        "import sys, histotet.cli; "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def _scoped_names(node, names, scope=None):
    """(innermost enclosing def, name) of each Name or attribute in `names`
    below an ast node; import statements hold neither."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        ref = getattr(child, "id", None) if isinstance(child, ast.Name) else getattr(child, "attr", None)
        if isinstance(child, (ast.Name, ast.Attribute)) and ref in names:
            yield scope, ref
        yield from _scoped_names(child, names, inner)


def test_scipy_serves_only_the_jacobi_rule_and_the_dirichlet_moments():
    # Only the two functions that the planned drop of scipy rewrites use it,
    # and no test does.
    files = {f"{path.parent.name}/{path.name}": path
             for folder in (Path(histotet.__file__).parent, Path(__file__).parent)
             for path in folder.glob("*.py")}
    importers, uses = set(), set()
    for label, path in files.items():
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(module.split(".")[0] == "scipy" for module in modules):
                importers.add(label)
        if label.startswith("histotet/"):
            uses |= {(label, *use) for use in
                     _scoped_names(tree, {"roots_jacobi", "betaln", "gammaln"})}
    assert importers == {"histotet/quadrature.py", "histotet/simplex.py"}
    assert uses == {
        ("histotet/quadrature.py", "_jacobi_probability", "roots_jacobi"),
        ("histotet/quadrature.py", "_jacobi_probability", "betaln"),
        ("histotet/simplex.py", "dirichlet_expectation", "gammaln"),
    }


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


def test_converge_at_the_ef_corner_exits_0_quietly(tmp_path, capsys):
    # Raw cond(H) is 3.6e7 here, all of it row scaling (r is 2.3e-11): no
    # refusal, no warning.
    assert run(["converge", "--strategy", "ef", "--zeta", "0.1", "--nu", "50", "--functions", "f1",
                "--n", "3", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_converge_single_row(tmp_path):
    out = tmp_path / "single"
    assert run([
        "converge", "--functions", "f2", "--n", "3", "--strategy", "fv",
        "--quad-m", "4", "--error-degree", "4", "--out", str(out),
    ]) == 0
    lines = (out / "errors.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("f2,3,fv,alpha=2;beta=2,")


def test_converge_unwritable_outdir(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(SystemExit) as exc:
        run(["converge", "--functions", "f1", "--n", "3",
             "--strategy", "classical", "--out", str(blocker / "sub")])
    assert exc.value.code == 3


def test_converge_pass_seconds_in_metadata(tmp_path, monkeypatch):
    from histotet import experiment

    class Clock:
        """A perf_counter that advances by 0.25 s at every reading."""

        now = 0.0

        def perf_counter(self):
            self.now += 0.25
            return self.now

    monkeypatch.setattr(experiment, "time", Clock())
    out = tmp_path / "out"
    assert run(["converge", "--functions", "f1,f2", "--n", "3,4", "--strategy", "classical,vol",
                "--quad-m", "4", "--error-degree", "4", "--out", str(out)]) == 0
    with open(out / "errors.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["method"] for row in rows] == ["classical"] * 4 + ["vol"] * 4
    assert all(row["seconds"] == "0.000" for row in rows)
    passes = [{"function": f, "n": n, "seconds": 0.25} for f in ("f1", "f2") for n in (3, 4)]
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["pass_seconds"] == passes

    # tune records its passes the same way.
    assert run(["tune", "--strategy", "ef", "--zeta", "1,2", "--nu", "2", "--functions", "f1,f2",
                "--n", "3,4", "--quad-m", "4", "--error-degree", "4", "--out", str(out / "tune")]) == 0
    meta = json.loads((out / "tune" / "run_metadata.json").read_text())
    assert meta["pass_seconds"] == passes


def test_metadata_counts_the_target_points_of_each_pass(tmp_path, monkeypatch):
    from histotet.targets import TARGETS, TargetFunction

    argvs = {
        "converge": ["converge", "--functions", "f1,f2", "--n", "3,4", "--strategy", "classical,ef"],
        "tune": ["tune", "--strategy", "vol", "--theta", "0,1", "--gamma", "2",
                 "--functions", "f1,f2", "--n", "3,4"],
    }
    plain = {}
    for name, argv in argvs.items():
        assert run([*argv, "--out", str(tmp_path / name)]) == 0
        plain[name] = {path.name: path.read_bytes() for path in (tmp_path / name).glob("*.csv")}
    tally = {}
    for fid in ("f1", "f2"):
        def counted(points, fn=TARGETS[fid], fid=fid):
            tally[fid] = tally.get(fid, 0) + points.size // 3
            return fn(points)

        monkeypatch.setitem(TARGETS, fid, TargetFunction(fid, counted))
    for name, argv in argvs.items():
        tally.clear()
        out = tmp_path / f"{name}-counted"
        assert run([*argv, "--out", str(out)]) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        passes = meta["pass_points"]
        assert [(p["function"], p["n"]) for p in passes] == [(f, n) for f in ("f1", "f2") for n in (3, 4)]
        for fid in ("f1", "f2"):
            assert sum(p["points"] for p in passes if p["function"] == fid) == tally[fid] > 0
        # Counting changes no output file.
        assert {path.name: path.read_bytes() for path in out.glob("*.csv")} == plain[name]


def test_metadata_records_each_engine_as_admitted(tmp_path, capsys):
    from histotet.experiment import _ErrorEngine

    settings = QuadSettings(4, 4)
    for argv, configs in [
        (["converge", "--functions", "f1", "--n", "3", "--strategy", "classical,vol,ef"],
         [StrategyConfig.of("classical"), StrategyConfig.of("vol", 0.5, 2.0),
          StrategyConfig.of("ef", 2.0, 2.0)]),
        (["tune", "--strategy", "fv", "--alpha", "1,2", "--beta", "0.5,3", "--functions", "f1",
          "--n", "3"],
         [StrategyConfig.of("fv", a, b) for a in (1.0, 2.0) for b in (0.5, 3.0)]),
    ]:
        out = tmp_path / argv[0]
        assert run([*argv, "--quad-m", "4", "--error-degree", "4", "--out", str(out)]) == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        want = []
        for cfg in configs:
            engine = _ErrorEngine(cfg, settings)
            cond = None if engine.op is None else engine.op.cond
            want.append({"method": cfg.method_id, "params": cfg.params_text(), "cond": cond, "r": engine.r})
        assert meta["engines"] == want
    capsys.readouterr()


def test_tune_writes_surface(tmp_path, capsys):
    out = tmp_path / "tuned"
    argv = ["--zeta", "1,2", "--nu", "1,2", "--functions", "f1", "--n", "3", "--quad-m", "4", "--error-degree", "4"]
    code = run(["tune", "--strategy", "ef", *argv, "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "optimal zeta=" in printed
    with open(out / "tuning_surface.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["zeta", "nu", "sum_l1_error"]
    assert len(rows) == 1 + 4
    # tune reads --strategy as every command does: "ef," names ef alone.
    assert run(["tune", "--strategy", "ef,", *argv, "--out", str(tmp_path / "comma")]) == 0
    assert (tmp_path / "comma" / "tuning_surface.csv").read_bytes() == (out / "tuning_surface.csv").read_bytes()


def test_tune_function_ranges(tmp_path, capsys):
    out = tmp_path / "ranged"
    code = run([
        "tune", "--strategy", "ef", "--zeta", "2", "--nu", "2", "--functions", "f1..f3,f5",
        "--n", "3", "--quad-m", "4", "--error-degree", "4", "--out", str(out),
    ])
    assert code == 0
    assert "optimal" in capsys.readouterr().out
    assert json.loads((out / "run_metadata.json").read_text())["functions"] == ["f1", "f2", "f3", "f5"]


def test_tune_keys_distinct_candidates_apart(tmp_path, capsys):
    # 1 and 1.0000001 print alike under :g; their keys must not.
    out = tmp_path / "close"
    assert run([
        "tune", "--strategy", "fv", "--alpha", "1,1.0000001", "--beta", "1",
        "--functions", "f1", "--n", "3", "--out", str(out),
    ]) == 0
    with open(out / "tuning_surface.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [row[:2] for row in rows] == [["1", "1"], ["1.0000001", "1"]]
    best = min(rows, key=lambda row: float(row[2]))
    assert capsys.readouterr().out.startswith(f"optimal alpha={best[0]}, beta=1 (")


def test_check_keys_distinct_candidates_apart(capsys):
    assert run(["check", "--strategy", "fv", "--alpha", "1,1.0000001", "--beta", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:-1]
    assert [row.split()[1] for row in rows] == ["alpha=1;beta=1", "alpha=1.0000001;beta=1"]


def test_converge_keys_a_parameter_by_the_value_it_ran(tmp_path):
    out = tmp_path / "close"
    assert run([
        "converge", "--strategy", "fv", "--alpha", "2.0000001", "--beta", "2", "--functions", "f2",
        "--n", "3", "--quad-m", "4", "--error-degree", "4", "--out", str(out),
    ]) == 0
    lines = (out / "errors.csv").read_text().splitlines()
    assert lines[1].startswith("f2,3,fv,alpha=2.0000001;beta=2,")


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


_DEFAULT_CONFIGS = {
    "classical": StrategyConfig.of("classical"),
    "fv": StrategyConfig.face_volume(2, 2),
    "vol": StrategyConfig.volumetric_blend(0.5, 2),
    "ef": StrategyConfig.edge_face(2, 2),
}


@pytest.mark.parametrize("argv, configs", [
    *((["project", "--strategy", method], [cfg]) for method, cfg in _DEFAULT_CONFIGS.items()),
    (["check", "--strategy", "fv,ef", "--alpha", "1,2", "--beta", "1", "--zeta", "1", "--nu", "2"],
     [StrategyConfig.face_volume(1, 1), StrategyConfig.face_volume(2, 1), StrategyConfig.edge_face(1, 2)]),
    (["converge", "--functions", "f1", "--n", "3"], list(_DEFAULT_CONFIGS.values())),
    (["tune", "--strategy", "vol", "--theta", "0,1", "--gamma", "2", "--functions", "f1", "--n", "3"],
     [StrategyConfig.volumetric_blend(0, 2), StrategyConfig.volumetric_blend(1, 2)]),
], ids=[*_DEFAULT_CONFIGS, "check", "converge", "tune"])
def test_project_builds_its_dof_table_once(tmp_path, capsys, monkeypatch, argv, configs):
    # The DOFs and the reconstruction's DOFs use one table: at --quad-m 100
    # a vol table takes most of a second to build.  Every other command
    # builds one table per configuration too, in the engine that admits it.
    from collections import Counter

    from histotet import experiment

    built, build = [], experiment.build_dof_table

    def counted(*args, **kwargs):
        built.append(args[0])
        return build(*args, **kwargs)

    dense = Counter()
    for name in ("nodes", "weights"):
        fget = getattr(experiment.DofTable, name).fget
        monkeypatch.setattr(
            experiment.DofTable, name, property(lambda t, fget=fget, name=name: dense.update([name]) or fget(t))
        )
    monkeypatch.setattr(experiment, "build_dof_table", counted)
    assert run(argv + (["--out", str(tmp_path)] if argv[0] in ("converge", "tune") else [])) == 0
    assert built == configs
    if argv[0] == "project":
        assert "max |dofs(reconstruction) - dofs|" in capsys.readouterr().out
        # The engine's r builds the dense nodes and weights once, and the
        # DOFs and their check share one more build: at --quad-m 150 vol's
        # dense weights alone take 547 MB.
        assert dense == {"nodes": 2, "weights": 2}


@pytest.mark.parametrize("tet", [[], ["--tet", "0,0,0,2,0,0,0,1,0,0,0,3"]], ids=["reference", "stretched"])
@pytest.mark.parametrize("strategy", ["classical", "fv", "vol", "ef"])
def test_project_checks_its_reconstruction_on_the_table_nodes(capsys, strategy, tet):
    # The reconstruction's DOFs come from its values at the DOF table's own
    # barycentric nodes: no point is mapped into the cell and back, as the
    # package has no map from physical points to barycentrics (the tests'
    # reference map is oracles.barycentric).
    from histotet.simplex import Tetrahedron

    assert not hasattr(Tetrahedron, "barycentric")
    assert run(["project", "--strategy", strategy, *tet]) == 0
    out = capsys.readouterr().out
    assert float(out.split("max |dofs(reconstruction) - dofs| :")[1].split()[0]) <= 1e-12


@pytest.mark.parametrize("argv, dofs, message, overflow", [
    # f4 = exp(|x|^2) overflows at the DOF nodes of a cell this large.
    (["--tet", "0,0,0,1e3,0,0,0,1e3,0,0,0,1e3"], None,
     "non-finite projection of function f4: non-finite value at the DOF nodes of fv", True),
    # The determinant of the cell's edges overflows; the volume check refuses
    # the cell, so numpy's overflow is not printed.
    (["--tet", "0,0,0,1e200,0,0,0,1e200,0,0,0,1e200"], None,
     "--tet: tetrahedron volume inf is not finite", False),
    # Finite DOFs whose reconstruction overflows.
    ([], np.full(10, 1e308), "non-finite projection of function f4: non-finite value at the reconstruction", True),
], ids=["dofs", "volume", "reconstruction"])
def test_project_refuses_non_finite_values(capsys, monkeypatch, argv, dofs, message, overflow):
    # Nothing is printed but the error: no NaN or inf reaches the output.
    if dofs is not None:
        monkeypatch.setattr(cli, "compute_dofs", lambda *args: dofs)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["project", *argv]) == 2
    if overflow:  # the target's overflow, and what follows it
        assert all(issubclass(w.category, RuntimeWarning) for w in caught)
        assert any("overflow" in str(w.message) for w in caught)
    else:
        assert caught == []
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


#: Functions of src/ that no command enters, each with its reason; any other
#: function that no command enters is a helper that only tests call.
_UNCALLED = {
    # perfbench/ calls these seven and patches Density.rule, which no
    # command calls since a DOF table keeps its component rules; they leave
    # src/ once perfbench reads the pass's own stage timings instead of
    # patching src/.
    "unisolvence_check",
    "Density.rule",
    "_ErrorEngine.l1_on_mesh",
    "StrategyConfig.face_volume",
    "StrategyConfig.volumetric_blend",
    "StrategyConfig.edge_face",
    "StrategyConfig.kind",
    "StrategyConfig.__getattr__",
    # The fv enrichment by Gram-Schmidt, for the planned switch of fv's closed forms.
    "face_ortho_quadratic",
}


def _defs(tree, prefix=""):
    """(qualified name, lines a call of it may report) of each def below an
    ast node: the def line, or a decorator's line on Python 3.10."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines = {node.lineno} | {d.lineno for d in node.decorator_list}
            yield prefix + node.name, lines
            yield from _defs(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node, f"{prefix}{node.name}.")
        else:
            yield from _defs(node, prefix)


def test_every_function_runs_under_a_command(tmp_path, capsys):
    # Single-threaded runs of every command, its error paths included, must
    # enter every def in src/ but those of _UNCALLED.
    modules = [importlib.import_module(f"histotet.{p.stem}")
               for p in sorted(Path(histotet.__file__).parent.glob("*.py"))]
    for module in modules:  # a cached result would enter no function
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    commands = [
        ["check", "--strategy", "fv,vol,ef", "--alpha", "1,2", "--beta", "1", "--theta", "0,1",
         "--gamma", "2", "--zeta", "1", "--nu", "2"],
        ["converge", "--functions", "f1..f8", "--n", "3", "--out", str(tmp_path / "converge")],
        ["tune", "--strategy", "vol", "--theta", "0,0.5", "--gamma", "1,2", "--functions", "f1",
         "--n", "3", "--out", str(tmp_path / "tune")],
        ["project", "--strategy", "classical"],
        ["project"],
        ["project", "--strategy", "ef", "--tet", "0,0,0,2,0,0,0,1,0,0,0,3"],
        ["project", "--strategy", "fv", "--alpha", "500"],  # RuleError
        ["converge", "--n", "1", "--out", str(tmp_path / "refused")],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [run(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * 6 + [2, 2]
    uncalled = {
        name
        for module in modules
        for name, lines in _defs(ast.parse(Path(module.__file__).read_text()))
        if not any((module.__file__, line) in entered for line in lines)
    }
    assert uncalled == _UNCALLED
