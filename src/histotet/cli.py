"""Command-line interface: unisolvence checks, parameter tuning, convergence
runs and single-element projection dumps.

    histotet check     [--strategy ...] [parameter grids]
    histotet tune      --strategy {fv|vol|ef} [grids] [--n ...] [--functions ...]
    histotet converge  [--strategy ...] [--n ...] [--functions ...] [--out DIR]
    histotet project   [--strategy ...] [--functions fid] [--tet coords]

All parameter flags accept comma-separated candidate lists; `check` and
`tune` sweep them, `converge` and `project` expect single values.  Exit
codes: 0 success, 2 validation or check failure, 3 unwritable output
directory.
"""

import argparse
import csv
import json
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .element import StrategyConfig, assemble_H, reconstruct, unisolvence_check
from .experiment import (
    QuadSettings,
    TuningGrid,
    compute_dofs,
    convergence_study,
    grid_search,
)
from .plots import loglog_svg
from .simplex import REFERENCE_TET, Tetrahedron
from .targets import TARGETS, TargetFunction, get_targets

#: Series colors: classical blue, face-volume red, volumetric green,
#: edge-face cyan.
_METHOD_COLORS = {
    "classical": "#1f77b4",
    "fv": "#d62728",
    "vol": "#2ca02c",
    "ef": "#17becf",
}

_DEFAULT_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
_DEFAULT_THETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

_CSV_HEADER = ["function", "n", "method", "params", "l1_error", "seconds"]


class CliError(Exception):
    """Validation failure; maps to exit code 2."""


def _parse_floats(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        raise CliError(f"cannot parse {text!r} as a comma-separated float list") from err


def _parse_ints(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        raise CliError(f"cannot parse {text!r} as a comma-separated int list") from err


def _parse_function_ids(text):
    ids = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ".." in tok:
            lo, hi = tok.split("..", 1)
            if not (lo.startswith("f") and hi.startswith("f")):
                raise CliError(f"bad function range {tok!r}")
            ids.extend(f"f{i}" for i in range(int(lo[1:]), int(hi[1:]) + 1))
        else:
            ids.append(tok)
    return ids


def _single(values, name):
    if len(values) != 1:
        raise CliError(f"--{name} expects a single value here, got {list(values)}")
    return values[0]


def _add_common_flags(parser):
    parser.add_argument("--strategy", default=None, help="classical|fv|vol|ef|all")
    parser.add_argument("--alpha", default=None, help="face concentration value(s)")
    parser.add_argument("--beta", default=None, help="interior concentration value(s)")
    parser.add_argument("--theta", default=None, help="blend weight value(s) in [0,1]")
    parser.add_argument("--gamma", default=None, help="interior concentration value(s)")
    parser.add_argument("--zeta", default=None, help="edge Beta parameter value(s)")
    parser.add_argument("--nu", default=None, help="edge Beta parameter value(s)")
    parser.add_argument("--n", default=None, help="mesh grid parameters, e.g. 5,10,15")
    parser.add_argument("--functions", default=None, help="target ids, e.g. f1,f3 or f1..f8")
    parser.add_argument("--quad-m", type=int, default=8, help="Gauss points per direction for DOFs")
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

    p_check = sub.add_parser("check", help="unisolvence diagnostics over a parameter grid")
    _add_common_flags(p_check)

    p_tune = sub.add_parser("tune", help="bi-parametric grid search for optimal densities")
    _add_common_flags(p_tune)
    p_tune.add_argument(
        "--holdout",
        default=None,
        help="function ids to exclude from the tuning objective",
    )

    p_conv = sub.add_parser("converge", help="L1 convergence study (CSV + SVG)")
    _add_common_flags(p_conv)
    p_conv.add_argument(
        "--timing",
        action="store_true",
        help="write measured wall time into the seconds column "
        "(default writes 0.000 so reruns are byte-identical)",
    )

    p_proj = sub.add_parser("project", help="single-element reconstruction dump")
    _add_common_flags(p_proj)
    p_proj.add_argument(
        "--tet",
        default=None,
        help="12 comma-separated vertex coordinates (default: reference tetrahedron)",
    )

    return parser


def _settings(args):
    if args.quad_m < 1 or args.error_degree < 1:
        raise CliError("--quad-m and --error-degree must be >= 1")
    return QuadSettings(dof_points=args.quad_m, error_degree=args.error_degree)


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


def _grid(args, name, default):
    raw = getattr(args, name)
    return default if raw is None else _parse_floats(raw)


def _strategy_configs(args):
    """Single-valued strategy configs for converge/project."""
    choice = args.strategy or "all"
    alpha = _grid(args, "alpha", (2.0,))
    beta = _grid(args, "beta", (2.0,))
    theta = _grid(args, "theta", (0.5,))
    gamma = _grid(args, "gamma", (2.0,))
    zeta = _grid(args, "zeta", (2.0,))
    nu = _grid(args, "nu", (2.0,))
    by_id = {
        "classical": lambda: StrategyConfig.classical(),
        "fv": lambda: StrategyConfig.face_volume(
            _single(alpha, "alpha"), _single(beta, "beta")
        ),
        "vol": lambda: StrategyConfig.volumetric_blend(
            _single(theta, "theta"), _single(gamma, "gamma")
        ),
        "ef": lambda: StrategyConfig.edge_face(
            _single(zeta, "zeta"), _single(nu, "nu")
        ),
    }
    if choice == "all":
        ids = ["classical", "fv", "vol", "ef"]
    else:
        ids = [tok.strip() for tok in choice.split(",") if tok.strip()]
    try:
        return [by_id[i]() for i in ids]
    except KeyError as err:
        raise CliError(f"unknown strategy {err.args[0]!r}") from None


def _check_rows(args):
    choice = args.strategy or "fv,vol,ef"
    ids = [tok.strip() for tok in choice.split(",") if tok.strip()]
    rows = []
    for sid in ids:
        if sid == "fv":
            for a, b in product(_grid(args, "alpha", _DEFAULT_GRID), _grid(args, "beta", _DEFAULT_GRID)):
                rows.append(StrategyConfig.face_volume(a, b))
        elif sid == "vol":
            for t, g in product(_grid(args, "theta", _DEFAULT_THETA_GRID), _grid(args, "gamma", _DEFAULT_GRID)):
                rows.append(StrategyConfig.volumetric_blend(t, g))
        elif sid == "ef":
            for z, v in product(_grid(args, "zeta", _DEFAULT_GRID), _grid(args, "nu", _DEFAULT_GRID)):
                rows.append(StrategyConfig.edge_face(z, v))
        elif sid == "classical":
            continue  # nothing to check: no enriched moment matrix
        else:
            raise CliError(f"unknown strategy {sid!r}")
    return rows


def cmd_check(args):
    configs = _check_rows(args)
    if not configs:
        raise CliError("nothing to check (empty strategy list)")
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
    if kind not in ("fv", "vol", "ef"):
        raise CliError("tune needs --strategy fv, vol or ef")
    if kind == "fv":
        first, second = _grid(args, "alpha", _DEFAULT_GRID), _grid(args, "beta", _DEFAULT_GRID)
    elif kind == "vol":
        first, second = _grid(args, "theta", _DEFAULT_THETA_GRID), _grid(args, "gamma", _DEFAULT_GRID)
    else:
        first, second = _grid(args, "zeta", _DEFAULT_GRID), _grid(args, "nu", _DEFAULT_GRID)
    if not first or not second:
        raise CliError("candidate grids must be nonempty")

    ids = _parse_function_ids(args.functions) if args.functions else sorted(TARGETS)
    if args.holdout:
        held = set(_parse_function_ids(args.holdout))
        ids = [i for i in ids if i not in held]
        if not ids:
            raise CliError("holdout removed every validation function")
    try:
        functions = get_targets(ids)
    except KeyError as err:
        raise CliError(str(err.args[0])) from None
    ns = _parse_ints(args.n) if args.n else (5, 10, 15)

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
    methods = _strategy_configs(args)
    ids = _parse_function_ids(args.functions) if args.functions else sorted(TARGETS)
    try:
        functions = get_targets(ids)
    except KeyError as err:
        raise CliError(str(err.args[0])) from None
    ns = _parse_ints(args.n) if args.n else (5, 10, 15, 20, 25)
    for n in ns:
        if n < 2:
            raise CliError(f"mesh parameter n must be >= 2, got {n}")

    settings = _settings(args)
    out = _out_dir(args)
    rows = convergence_study(functions, ns, methods, settings=settings, threads=args.threads)

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
    total = sum(r.seconds for r in rows)
    print(f"{len(rows)} rows -> {csv_path} ({total:.1f} s compute)")
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
    configs = _strategy_configs(args)
    if len(configs) > 1:
        configs = [c for c in configs if c.kind == "face_volume"]
    cfg = configs[0]
    ids = _parse_function_ids(args.functions) if args.functions else ["f4"]
    if len(ids) != 1:
        raise CliError("project expects exactly one function id")
    try:
        (f,) = get_targets(ids)
    except KeyError as err:
        raise CliError(str(err.args[0])) from None

    if args.tet:
        coords = _parse_floats(args.tet)
        if len(coords) != 12:
            raise CliError("--tet needs 12 coordinates (4 vertices x 3)")
        tet = Tetrahedron(np.asarray(coords).reshape(4, 3))
    else:
        tet = REFERENCE_TET

    settings = _settings(args)
    dofs = compute_dofs(f, tet, cfg, settings)

    print(f"strategy : {cfg.method_id} ({cfg.params_text()})")
    print(f"function : {f.id}")
    print(f"tet      : volume {tet.volume:.6g}")
    print("dofs     :", " ".join(f"{d: .10e}" for d in dofs))

    if cfg.kind == "classical":
        from .element import classical_project

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
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": cmd_check,
        "tune": cmd_tune,
        "converge": cmd_converge,
        "project": cmd_project,
    }
    try:
        if args.threads < 1:
            raise CliError(f"--threads must be >= 1, got {args.threads}")
        return handlers[args.command](args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
