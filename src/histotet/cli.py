"""Command-line interface: unisolvence checks, parameter tuning, convergence
runs and single-element projection dumps.

    histotet check     [--strategy ...] [parameter grids]
    histotet tune      --strategy {fv|vol|ef} [grids] [--functions ...] [--n ...]
    histotet converge  [--strategy ...] [parameters] [--functions ...] [--n ...]
    histotet project   [--strategy one] [parameters] [--functions fid] [--tet coords]

The parameter flags (--alpha, --beta for fv; --theta, --gamma for vol;
--zeta, --nu for ef) accept comma-separated lists; `check` and `tune` sweep
them, `converge` and `project` expect single values.  --functions and
--quad-m exist on all but `check`; --n, --error-degree, --threads and --out
on `tune` and `converge` only.  Exit codes: 0 success, 2 invalid input or a
failed check, 3 unwritable output directory; any other error is a bug and
surfaces with a traceback.
"""

import argparse
import csv
import functools
import json
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .element import (
    METHODS,
    StrategyConfig,
    assemble_H,
    classical_project,
    reconstruct,
    unisolvence_check,
)
from .experiment import (
    QuadSettings,
    TuningGrid,
    compute_dofs,
    convergence_study,
    grid_search,
)
from .plots import loglog_svg
from .simplex import REFERENCE_TET, GeometryError, Tetrahedron
from .targets import TARGETS, TargetFunction, get_targets

#: Series colors: classical blue, face-volume red, volumetric green,
#: edge-face cyan.
_METHOD_COLORS = {
    "classical": "#1f77b4",
    "fv": "#d62728",
    "vol": "#2ca02c",
    "ef": "#17becf",
}

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
            if not all(end[:1] == "f" and end[1:].isdigit() for end in (lo, hi)):
                raise CliError(f"bad function range {tok!r}")
            ids.extend(f"f{i}" for i in range(int(lo[1:]), int(hi[1:]) + 1))
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


def _at_least(value, floor, flag):
    if value < floor:
        raise CliError(f"{flag} must be >= {floor}, got {value}")
    return value


def _add_strategy_flags(parser):
    parser.add_argument("--strategy", default=None, help="classical|fv|vol|ef|all")
    for name, (help_text, _, _) in _PARAM_FLAGS.items():
        parser.add_argument(f"--{name}", default=None, help=help_text)


def _add_target_flags(parser):
    parser.add_argument("--functions", default=None, help="target ids, e.g. f1,f3 or f1..f8")
    parser.add_argument("--quad-m", type=int, default=8, help="Gauss points per direction for DOFs")


def _add_mesh_run_flags(parser):
    parser.add_argument("--n", default=None, help="mesh grid parameters, e.g. 5,10,15")
    parser.add_argument("--error-degree", type=int, default=8, help="exactness degree of the L1 error rule")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for mesh loops")
    parser.add_argument("--out", default=".", help="output directory for CSV/SVG files")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="histotet",
        description="Quadratic weighted histopolation on tetrahedral meshes.",
    )
    parser.add_argument("--version", action="version", version=f"histotet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # No prefix matching: check and project would read --n as --nu.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_check = add_parser("check", help="unisolvence diagnostics over a parameter grid")
    _add_strategy_flags(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_tune = add_parser("tune", help="bi-parametric grid search for optimal densities")
    _add_strategy_flags(p_tune)
    _add_target_flags(p_tune)
    _add_mesh_run_flags(p_tune)
    p_tune.add_argument(
        "--holdout",
        default=None,
        help="function ids to exclude from the tuning objective",
    )
    p_tune.set_defaults(handler=cmd_tune)

    p_conv = add_parser("converge", help="L1 convergence study (CSV + SVG)")
    _add_strategy_flags(p_conv)
    _add_target_flags(p_conv)
    _add_mesh_run_flags(p_conv)
    p_conv.add_argument(
        "--timing",
        action="store_true",
        help="write measured wall time into the seconds column "
        "(default writes 0.000 so reruns are byte-identical)",
    )
    p_conv.set_defaults(handler=cmd_converge)

    p_proj = add_parser("project", help="single-element reconstruction dump")
    _add_strategy_flags(p_proj)
    _add_target_flags(p_proj)
    p_proj.add_argument(
        "--tet",
        default=None,
        help="12 comma-separated vertex coordinates (default: reference tetrahedron)",
    )
    p_proj.set_defaults(handler=cmd_project)

    return parser


def _settings(args):
    """QuadSettings of a mesh run (tune, converge), after checking --threads."""
    _at_least(args.threads, 1, "--threads")
    return QuadSettings(
        dof_points=_at_least(args.quad_m, 1, "--quad-m"),
        error_degree=_at_least(args.error_degree, 1, "--error-degree"),
    )


def _out_dir(args):
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


def _method_ids(text):
    """Method ids named by --strategy ('all' names every METHODS entry)."""
    if text == "all":
        return list(METHODS)
    ids = [tok.strip() for tok in text.split(",") if tok.strip()]
    for method in ids:
        if method not in METHODS:
            raise CliError(f"unknown strategy {method!r}")
    if not ids:
        raise CliError("--strategy names no strategy")
    return _distinct(ids, "--strategy")


def _parameters(args, method, single=False):
    """(grids, configs) of one method: each parameter's values from its flag
    or default (one value each when `single`), and the admissible
    StrategyConfig of every combination."""
    grids = []
    for name in METHODS[method][1]:
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


def _targets(text, default, holdout=None):
    """(ids, TargetFunctions) named by --functions, minus the holdout ids."""
    ids = _distinct(_parse_function_ids(text) if text else default, "--functions")
    if not ids:
        raise CliError("--functions names no target function")
    if holdout:
        held = _parse_function_ids(holdout)
        for fid in held:
            if fid not in TARGETS:
                raise CliError(f"--holdout: unknown function id {fid!r}")
            if fid not in ids:
                raise CliError(f"--holdout names {fid}, which --functions does not")
        ids = [i for i in ids if i not in held]
        if not ids:
            raise CliError("holdout removed every validation function")
    try:
        return ids, get_targets(ids)
    except KeyError as err:
        raise CliError(str(err.args[0])) from None


def _mesh_ns(text, default):
    ns = _distinct(_parse_list(text, int) if text else default, "--n")
    if not ns:
        raise CliError("--n names no mesh")
    for n in ns:
        _at_least(n, 2, "--n")
    return ns


def cmd_check(args):
    configs = []
    for method in _method_ids(args.strategy or "fv,vol,ef"):
        if METHODS[method][1]:  # classical has no enriched moment matrix
            configs += _parameters(args, method)[1]
    if not configs:
        raise CliError("nothing to check: classical has no enriched moment matrix")
    header = f"{'strategy':<9}{'params':<28}{'det':>13}{'closed':>13}{'rel_err':>10}{'rank6':>7}{'spd':>6}{'cond':>11}"
    print(header)
    print("-" * len(header))
    failed = 0
    for cfg in configs:
        rep = unisolvence_check(cfg)
        closed = "-" if rep.closed_form_det is None else f"{rep.closed_form_det:.4e}"
        rel = "-" if rep.rel_error is None else f"{rep.rel_error:.2e}"
        spd = "-" if rep.spd is None else str(rep.spd)
        print(
            f"{rep.strategy:<9}{rep.params:<28}{rep.det:>13.4e}{closed:>13}"
            f"{rel:>10}{str(rep.rank6):>7}{spd:>6}{rep.cond:>11.3e}"
        )
        if not rep.ok:
            failed += 1
    if failed:
        print(f"{failed} configuration(s) FAILED the unisolvence check", file=sys.stderr)
        return 2
    print(f"all {len(configs)} configurations pass")
    return 0


def _write_metadata(out, args, extra):
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
    with open(out / "run_metadata.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_tune(args):
    kind = args.strategy
    if kind not in METHODS or not METHODS[kind][1]:
        raise CliError("tune needs --strategy fv, vol or ef")
    (first, second), _ = _parameters(args, kind)
    ids, functions = _targets(args.functions, sorted(TARGETS), args.holdout)
    ns = _mesh_ns(args.n, (5, 10, 15))

    settings = _settings(args)
    out = _out_dir(args)
    grid = TuningGrid(kind=kind, first=first, second=second, functions=tuple(functions), ns=ns)
    started = time.perf_counter()
    result = grid_search(grid, settings=settings, threads=args.threads)
    elapsed = time.perf_counter() - started

    surface_path = out / "tuning_surface.csv"
    with open(surface_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([*result.axes, "sum_l1_error"])
        for a, b, err in result.surface_rows():
            writer.writerow([f"{a:g}", f"{b:g}", f"{err:.16e}"])
    _write_metadata(
        out,
        args,
        {
            "command": "tune",
            "strategy": kind,
            "functions": ids,
            "meshes": list(ns),
            "axes": list(result.axes),
        },
    )

    a_name, b_name = result.axes
    a_star, b_star = result.best
    print(f"optimal {a_name}={a_star:g}, {b_name}={b_star:g} (accumulated L1 error {result.best_error:.6e})")
    print(f"surface written to {surface_path} ({len(result.surface_rows())} candidates, {elapsed:.1f} s)")
    return 0


def cmd_converge(args):
    methods = [
        cfg
        for method in _method_ids(args.strategy or "all")
        for cfg in _parameters(args, method, single=True)[1]
    ]
    ids, functions = _targets(args.functions, sorted(TARGETS))
    ns = _mesh_ns(args.n, (5, 10, 15, 20, 25))

    settings = _settings(args)
    out = _out_dir(args)
    started = time.perf_counter()
    rows = convergence_study(functions, ns, methods, settings=settings, threads=args.threads)
    elapsed = time.perf_counter() - started

    csv_path = out / "errors.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        for row in rows:
            seconds = f"{row.seconds:.3f}" if args.timing else "0.000"
            writer.writerow(
                [row.function, row.n, row.method, row.params, f"{row.l1_error:.16e}", seconds]
            )

    by_function = {}
    for row in rows:
        by_function.setdefault(row.function, {}).setdefault(row.method, []).append(row)
    svg_paths = []
    for fid in ids:
        series = []
        for cfg in methods:
            mrows = sorted(by_function[fid][cfg.method_id], key=lambda r: r.n)
            series.append(
                (
                    f"{cfg.method_id} ({cfg.params_text()})",
                    _METHOD_COLORS[cfg.method_id],
                    [r.n for r in mrows],
                    [r.l1_error for r in mrows],
                )
            )
        svg_path = out / f"convergence_{fid}.svg"
        loglog_svg(svg_path, f"L1 reconstruction error, {fid}", series)
        svg_paths.append(svg_path)

    _write_metadata(
        out,
        args,
        {
            "command": "converge",
            "functions": ids,
            "meshes": list(ns),
            "methods": [f"{c.method_id}:{c.params_text()}" for c in methods],
            "timing_column": "wall seconds" if args.timing else "disabled (0.000)",
        },
    )
    print(f"{len(rows)} rows -> {csv_path} ({elapsed:.1f} s compute)")
    print(f"{len(svg_paths)} charts -> {out}")
    return 0


_SAMPLE_BARY = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.0, 0.5, 0.0],
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.5, 0.5],
        [0.25, 0.25, 0.25, 0.25],
    ]
)


def cmd_project(args):
    methods = _method_ids(args.strategy or "fv")
    if len(methods) != 1:
        raise CliError(f"project takes exactly one strategy, got {methods}")
    (cfg,) = _parameters(args, methods[0], single=True)[1]
    ids, functions = _targets(args.functions, ["f4"])
    if len(ids) != 1:
        raise CliError("project expects exactly one function id")
    (f,) = functions

    if args.tet:
        coords = _parse_list(args.tet)
        if len(coords) != 12:
            raise CliError("--tet needs 12 coordinates (4 vertices x 3)")
        try:
            tet = Tetrahedron(np.asarray(coords).reshape(4, 3))
        except GeometryError as err:
            raise CliError(f"--tet: {err}") from None
    else:
        tet = REFERENCE_TET

    settings = QuadSettings(dof_points=_at_least(args.quad_m, 1, "--quad-m"))
    dofs = compute_dofs(f, tet, cfg, settings)

    print(f"strategy : {cfg.method_id} ({cfg.params_text()})")
    print(f"function : {f.id}")
    print(f"tet      : volume {tet.volume:.6g}")
    print("dofs     :", " ".join(f"{d: .10e}" for d in dofs))

    if cfg.kind == "classical":
        poly = classical_project(dofs)
        print("matrix cond : n/a (closed-form affine reconstruction)")
    else:
        op = assemble_H(cfg)
        poly = reconstruct(op, dofs)
        print(f"matrix cond : {op.cond:.6e}")
    print("coefficients:", " ".join(f"{c: .10e}" for c in poly.coeffs))

    recon_fn = TargetFunction("recon", lambda p: poly(tet.barycentric(p)))
    re_dofs = compute_dofs(recon_fn, tet, cfg, settings)
    print(f"max |dofs(reconstruction) - dofs| : {np.max(np.abs(re_dofs - dofs)):.3e}")

    print(f"{'sample (barycentric)':<26}{'f':>14}{'reconstruction':>16}{'|diff|':>12}")
    for lam in _SAMPLE_BARY:
        fx = float(f(tet.point(lam)))
        px = float(poly(lam))
        lam_txt = ",".join(f"{v:g}" for v in lam)
        print(f"{lam_txt:<26}{fx:>14.8f}{px:>16.8f}{abs(fx - px):>12.3e}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
