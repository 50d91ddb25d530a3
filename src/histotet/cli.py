"""Command-line interface: unisolvence checks, parameter tuning, convergence
runs and single-element projection dumps; `histotet <command> --help` lists
each command's flags.

The parameter flags accept comma-separated lists; `check` and `tune` sweep
them, `converge` and `project` expect single values, and a parameter flag of
a strategy that does not run is invalid input.  Exit codes: 0 success, 2
invalid input (including a number below its floor, given after the flag in
the words of the code that states it: --quad-m 3 and --error-degree 1 in
QuadSettings, --n 2 in mesh.mesh_size, --threads 1 here) or a configuration
that its engine refuses in every command alike (experiment._ErrorEngine: a
density parameter too large for its rule or enrichment quadratic, a block
not of rank 6 or not SPD, or r above its tolerance), 3 unwritable output
directory; any other error is a bug and surfaces with a traceback.
"""

import argparse
import csv
import json
import os
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .element import METHODS, StrategyConfig, UnisolvenceError, param_text
from .experiment import (
    QuadSettings,
    TuningGrid,
    _ErrorEngine,
    compute_dofs,
    convergence_study,
    grid_search,
    study_bytes,
)
from .mesh import mesh_size
from .plots import loglog_svg
from .quadrature import RuleError
from .simplex import EDGE_PAIRS, REFERENCE_TET, GeometryError, Tetrahedron
from .targets import TARGETS, get_targets

#: Series colors: classical blue, face-volume red, volumetric green,
#: edge-face cyan.
_METHOD_COLORS = {
    "classical": "#1f77b4",
    "fv": "#d62728",
    "vol": "#2ca02c",
    "ef": "#17becf",
}

#: seconds is always 0.000 so reruns are byte-identical; run_metadata.json has pass_seconds.
_CSV_HEADER = ["function", "n", "method", "params", "l1_error", "seconds"]

_DEFAULT_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)

#: Each METHODS parameter's flag: help text, default candidate grid (check,
#: tune) and default single value (converge, project).
_PARAM_FLAGS = {
    "alpha": ("face concentration value(s)", _DEFAULT_GRID, 2.0),
    "beta": ("interior concentration value(s)", _DEFAULT_GRID, 2.0),
    "theta": ("blend weight value(s) in [0,1]", (0.0, 0.25, 0.5, 0.75, 1.0), 0.5),
    "gamma": ("interior concentration value(s)", _DEFAULT_GRID, 2.0),
    "zeta": ("edge Beta parameter value(s)", _DEFAULT_GRID, 2.0),
    "nu": ("edge Beta parameter value(s)", _DEFAULT_GRID, 2.0),
}


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


def _parse_list(text, kind=float):
    """Comma-separated values of `kind` (float or int), empty entries skipped."""
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        raise CliError(
            f"cannot parse {text!r} as a comma-separated {kind.__name__} list"
        ) from err


def _parse_function_ids(text):
    ids = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ".." in tok:
            lo, hi = tok.split("..", 1)
            ends = [int(end[1:]) for end in (lo, hi) if end[:1] == "f" and end[1:].isdigit()]
            if len(ends) != 2 or ends[0] > ends[1]:  # malformed, or ends before it starts
                raise CliError(f"bad function range {tok!r}")
            ids.extend(f"f{i}" for i in range(ends[0], ends[1] + 1))
        else:
            ids.append(tok)
    return ids


def _distinct(values, flag):
    """values, after checking that no entry repeats."""
    seen = set()
    for value in values:
        if value in seen:
            raise CliError(f"{flag} names {value} more than once")
        seen.add(value)
    return values


def _under_flag(flag, check, *args, **kwargs):
    """check(*args, **kwargs), whose ValueError is invalid input of `flag`:
    the library states the rule, the CLI names the flag."""
    try:
        return check(*args, **kwargs)
    except ValueError as err:
        raise CliError(f"{flag}: {err}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="histotet",
        description="Quadratic weighted histopolation on tetrahedral meshes.",
    )
    parser.add_argument("--version", action="version", version=f"histotet {__version__}")
    strategy, targets, mesh_run, cell = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    strategy.add_argument("--strategy", default=None, help="classical|fv|vol|ef|all")
    for name, (help_text, _, _) in _PARAM_FLAGS.items():
        strategy.add_argument(f"--{name}", default=None, help=help_text)
    targets.add_argument("--functions", default=None, help="target ids, e.g. f1,f3 or f1..f8")
    targets.add_argument(
        "--quad-m", type=int, default=QuadSettings.dof_points, help="Gauss points per direction for DOFs"
    )
    mesh_run.add_argument("--n", default=None, help="mesh grid parameters, e.g. 5,10,15")
    mesh_run.add_argument(
        "--error-degree", type=int, default=QuadSettings.error_degree, help="exactness degree of the L1 error rule"
    )
    mesh_run.add_argument("--threads", type=int, default=1, help="worker threads for mesh loops")
    mesh_run.add_argument("--out", default=".", help="output directory for CSV/SVG files")
    cell.add_argument(
        "--tet",
        default=None,
        help="12 comma-separated vertex coordinates (default: reference tetrahedron)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, parents in (
        ("check", cmd_check, "unisolvence diagnostics over a parameter grid", [strategy]),
        ("tune", cmd_tune, "bi-parametric grid search for optimal densities", [strategy, targets, mesh_run]),
        ("converge", cmd_converge, "L1 convergence study (CSV + SVG)", [strategy, targets, mesh_run]),
        ("project", cmd_project, "single-element reconstruction dump", [strategy, targets, cell]),
    ):
        # No prefix matching: check and project would read --n as --nu.
        command = sub.add_parser(name, help=help_text, parents=parents, allow_abbrev=False)
        command.set_defaults(handler=handler)
    return parser


def _settings(args):
    """QuadSettings of --quad-m and, on tune and converge, --error-degree,
    after checking --threads, a rule of the CLI alone."""
    if "threads" in args and args.threads < 1:
        raise CliError(f"--threads must be >= 1, got {args.threads}")
    settings = _under_flag("--quad-m", QuadSettings, dof_points=args.quad_m)
    if "error_degree" not in args:  # project
        return settings
    return _under_flag("--error-degree", QuadSettings, args.quad_m, args.error_degree)


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_study(ns, configs, settings, threads=1):
    """Each configuration's engine, built before any mesh or output exists,
    after refusing a run whose arrays (experiment.study_bytes) need more than
    the machine's physical memory: building an engine admits or refuses it."""
    need, have = study_bytes(ns, configs, settings, threads), _physical_memory()
    if need > have:
        run = f"--n {','.join(map(str, ns))}" if ns else "project"
        degree = f" and --error-degree {settings.error_degree}" if ns else ""
        raise CliError(
            f"{run} needs at least {need / 1e6:,.0f} MB for its arrays at --quad-m "
            f"{settings.dof_points}{degree}, more than the {have / 1e6:,.0f} MB of physical memory"
        )
    return [_ErrorEngine(cfg, settings) for cfg in configs]


def _out_dir(args):
    if not args.out:
        raise CliError("--out names no directory")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as err:
        print(f"error: output directory {out} is not writable: {err}", file=sys.stderr)
        raise SystemExit(3)
    return out


def _method_ids(args, default):
    """Method ids named by --strategy, or by `default` without it ('all'
    names every METHODS entry), after checking that each parameter flag
    given belongs to one of them."""
    text = default if args.strategy is None else args.strategy
    if text == "all":  # every method runs, so every parameter flag is read
        return list(METHODS)
    ids = [tok.strip() for tok in text.split(",") if tok.strip()]
    for method in ids:
        if method not in METHODS:
            raise CliError(f"unknown strategy {method!r}")
    if not ids:
        raise CliError("--strategy names no strategy")
    for method, row in METHODS.items():
        for name in row.params:
            if method not in ids and getattr(args, name) is not None:
                raise CliError(
                    f"--{name} is a {method} parameter; --strategy does not name {method}"
                )
    return _distinct(ids, "--strategy")


def _parameters(args, method, single=False):
    """(grids, configs) of one method: each parameter's values from its flag
    or default (one value each when `single`), and the admissible
    StrategyConfig of every combination."""
    grids = []
    for name in METHODS[method].params:
        _, grid, value = _PARAM_FLAGS[name]
        raw = getattr(args, name)
        if raw is None:
            values = (value,) if single else grid
        else:
            values = _distinct(_parse_list(raw), f"--{name}")
        if not values:
            raise CliError(f"--{name} candidate grid must be nonempty")
        if single and len(values) != 1:
            raise CliError(f"--{name} expects a single value here, got {list(values)}")
        grids.append(values)
    try:
        configs = [StrategyConfig.of(method, *params) for params in product(*grids)]
    except ValueError as err:
        raise CliError(str(err)) from None
    return grids, configs


def _targets(text, default):
    """(ids, TargetFunctions) named by --functions."""
    ids = _distinct(default if text is None else _parse_function_ids(text), "--functions")
    if not ids:
        raise CliError("--functions names no target function")
    try:
        return ids, get_targets(ids)
    except KeyError as err:
        raise CliError(str(err.args[0])) from None


def _mesh_ns(text, default):
    ns = _distinct(default if text is None else _parse_list(text, int), "--n")
    if not ns:
        raise CliError("--n names no mesh")
    for n in ns:
        _under_flag("--n", mesh_size, n)
    return ns


def cmd_check(args):
    configs = []
    for method in _method_ids(args, "fv,vol,ef"):
        if METHODS[method].params:  # classical has no enriched moment matrix
            configs += _parameters(args, method)[1]
    if not configs:
        raise CliError("nothing to check: classical has no enriched moment matrix")
    header = (
        f"{'strategy':<9}{'params':<28}{'det':>13}{'closed':>13}{'rel_err':>10}"
        f"{'rank6':>7}{'spd':>6}{'cond':>11}{'r':>10}"
    )
    print(header)
    print("-" * len(header))
    failed = 0
    for cfg in configs:
        try:  # admitted as every command admits it, at fixed settings and no mesh
            engine = _ErrorEngine(cfg, QuadSettings())
        except (RuleError, UnisolvenceError) as err:
            print(f"error: {err}", file=sys.stderr)
            failed += 1
            continue
        op = engine.op
        closed = "-" if op.closed_form_det is None else f"{op.closed_form_det:.4e}"
        rel = "-" if op.rel_error is None else f"{op.rel_error:.2e}"
        spd = "-" if op.spd is None else str(op.spd)
        print(
            f"{cfg.method_id:<9}{cfg.params_text():<28}{op.det:>13.4e}{closed:>13}"
            f"{rel:>10}{str(op.rank6):>7}{spd:>6}{op.block_cond:>11.3e}{engine.r:>10.1e}"
        )
    if failed:
        print(f"{failed} configuration(s) FAILED the check", file=sys.stderr)
        return 2
    print(f"all {len(configs)} configurations pass")
    return 0


def _write_metadata(out, args, extra, engines, passes):
    """run_metadata.json: the run's settings, `extra`, the admission numbers
    of each engine in the order the command built them (cond(H), None for
    classical, and r), and the wall seconds and target points of each pass,
    given as (function id, n, seconds, points) in pass order."""
    meta = {
        "version": __version__,
        "quad_points_per_direction": args.quad_m,
        "error_rule_degree": args.error_degree,
        "threads": args.threads,
        "dof_ordering": (
            "four face averages (faces opposite vertices 1..4), then the six "
            "enriched moments in strategy order: weighted face moments 1..4 "
            "plus two interior moments (fv); interior pair moments in pair "
            "order 12,13,14,23,24,34 (vol); edge moments in the same pair "
            "order (ef)"
        ),
    }
    meta.update(extra)
    meta["engines"] = [
        {"method": e.cfg.method_id, "params": e.cfg.params_text(),
         "cond": None if e.op is None else e.op.cond, "r": e.r}
        for e in engines
    ]
    meta["pass_seconds"] = [{"function": f, "n": n, "seconds": s} for f, n, s, _ in passes]
    meta["pass_points"] = [{"function": f, "n": n, "points": p} for f, n, _, p in passes]
    with open(out / "run_metadata.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_tune(args):
    methods = [] if args.strategy is None else _method_ids(args, None)
    if len(methods) != 1 or not METHODS[methods[0]].params:
        raise CliError("tune needs --strategy fv, vol or ef")
    (kind,) = methods
    (first, second), configs = _parameters(args, kind)
    ids, functions = _targets(args.functions, sorted(TARGETS))
    ns = _mesh_ns(args.n, (5, 10, 15))

    engines = _check_study(ns, configs, _settings(args), args.threads)
    out = _out_dir(args)
    grid = TuningGrid(kind=kind, first=first, second=second, functions=tuple(functions), ns=ns)
    started = time.perf_counter()
    result = grid_search(grid, engines, threads=args.threads)
    elapsed = time.perf_counter() - started

    a_name, b_name = METHODS[kind].params
    surface_path = out / "tuning_surface.csv"
    with open(surface_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([a_name, b_name, "sum_l1_error"])
        for (a, b), err in zip(product(first, second), result.surface.ravel()):
            writer.writerow([param_text(a), param_text(b), f"{err:.16e}"])
    _write_metadata(
        out,
        args,
        {
            "command": "tune",
            "strategy": kind,
            "functions": ids,
            "meshes": list(ns),
            "axes": [a_name, b_name],
        },
        engines,
        result.passes,
    )

    a_star, b_star = map(param_text, result.best)
    print(f"optimal {a_name}={a_star}, {b_name}={b_star} (accumulated L1 error {result.best_error:.6e})")
    print(f"surface written to {surface_path} ({result.surface.size} candidates, {elapsed:.1f} s)")
    return 0


def cmd_converge(args):
    methods = [
        cfg
        for method in _method_ids(args, "all")
        for cfg in _parameters(args, method, single=True)[1]
    ]
    ids, functions = _targets(args.functions, sorted(TARGETS))
    ns = _mesh_ns(args.n, (5, 10, 15, 20, 25))

    engines = _check_study(ns, methods, _settings(args), args.threads)
    out = _out_dir(args)
    started = time.perf_counter()
    rows, passes = convergence_study(functions, ns, engines, threads=args.threads)
    elapsed = time.perf_counter() - started

    csv_path = out / "errors.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        for row in rows:
            writer.writerow(
                [row.function, row.n, row.method, row.params, f"{row.l1_error:.16e}", "0.000"]
            )

    errors = {(row.function, row.method, row.n): row.l1_error for row in rows}
    xs = sorted(ns)
    for fid in ids:
        series = [
            (
                f"{cfg.method_id} ({cfg.params_text()})",
                _METHOD_COLORS[cfg.method_id],
                xs,
                [errors[fid, cfg.method_id, n] for n in xs],
            )
            for cfg in methods
        ]
        loglog_svg(out / f"convergence_{fid}.svg", f"L1 reconstruction error, {fid}", series)

    _write_metadata(
        out,
        args,
        {
            "command": "converge",
            "functions": ids,
            "meshes": list(ns),
            "methods": [f"{c.method_id}:{c.params_text()}" for c in methods],
        },
        engines,
        passes,
    )
    print(f"{len(rows)} rows -> {csv_path} ({elapsed:.1f} s compute)")
    print(f"{len(ids)} charts -> {out}")
    return 0


#: project's sample points: the vertices, the edge midpoints in EDGE_PAIRS
#: order and the centroid.
_SAMPLE_BARY = np.vstack([np.eye(4), np.eye(4)[list(EDGE_PAIRS)].mean(axis=1), np.full(4, 0.25)])


def _finite(values, f, stage):
    """values, if all are finite; otherwise the error names the function and
    the stage, as experiment._l1_errors does."""
    if not np.isfinite(values).all():
        raise CliError(f"non-finite projection of function {f.id}: non-finite value at {stage}")
    return values


def cmd_project(args):
    methods = _method_ids(args, "fv")
    if len(methods) != 1:
        raise CliError(f"--strategy: project takes exactly one strategy, got {methods}")
    (cfg,) = _parameters(args, methods[0], single=True)[1]
    ids, functions = _targets(args.functions, ["f4"])
    if len(ids) != 1:
        raise CliError(f"--functions: project takes exactly one function id, got {ids}")
    (f,) = functions

    if args.tet is not None:
        coords = _parse_list(args.tet)
        if len(coords) != 12:
            raise CliError("--tet needs 12 coordinates (4 vertices x 3)")
        try:
            tet = Tetrahedron(np.asarray(coords).reshape(4, 3))
        except GeometryError as err:
            raise CliError(f"--tet: {err}") from None
    else:
        tet = REFERENCE_TET

    (engine,) = _check_study((), [cfg], _settings(args))  # one cell of a mesh pass
    # The dense nodes and weights once: at --quad-m 150 vol's weights alone are 547 MB.
    table, op = engine.table.dense(), engine.op
    dofs = _finite(compute_dofs(f, tet, table), f, f"the DOF nodes of {cfg.method_id}")
    coeffs = _finite(engine.coefficients(dofs), f, "the reconstruction")
    cond = "n/a (closed-form affine reconstruction)" if op is None else f"{op.cond:.6e}"

    print(f"strategy : {cfg.method_id} ({cfg.params_text()})")
    print(f"function : {f.id}")
    print(f"tet      : volume {tet.volume:.6g}")
    print("dofs     :", " ".join(f"{d: .10e}" for d in dofs))
    print(f"matrix cond : {cond}")
    print("coefficients:", " ".join(f"{c: .10e}" for c in coeffs))

    re_dofs = table.weights @ engine.reconstruct(dofs, table.nodes)  # on the table's own nodes
    print(f"max |dofs(reconstruction) - dofs| : {np.max(np.abs(re_dofs - dofs)):.3e}")

    print(f"{'sample (barycentric)':<26}{'f':>14}{'reconstruction':>16}{'|diff|':>12}")
    for lam, px in zip(_SAMPLE_BARY, engine.reconstruct(dofs, _SAMPLE_BARY)):
        fx = float(f(tet.point(lam)))
        lam_txt = ",".join(f"{v:g}" for v in lam)
        print(f"{lam_txt:<26}{fx:>14.8f}{px:>16.8f}{abs(fx - px):>12.3e}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CliError, RuleError, UnisolvenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
