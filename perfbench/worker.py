"""One benchmark op in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json T_SPAWN

run.py starts this with BLAS pinned to one thread and PYTHONPATH pointing at
the checkout's src/.  T_SPAWN is run.py's time.monotonic() just before the
start, so set-up and traced wall times include interpreter start and
imports (CLOCK_MONOTONIC is system-wide on Linux).  The worker writes a JSON
result to the path named in the spec; run.py checks the outputs.
"""

import contextlib
import json
import sys
import time
from pathlib import Path


def _probe(first_eval, target):
    from histotet.targets import TargetFunction

    fn = target.fn

    def probed(points):
        if not first_eval:
            first_eval.append(time.monotonic())
        return fn(points)

    return TargetFunction(target.id, probed)


def _run_cli(spec, cli, main, wrap_target):
    get_targets = cli.get_targets
    cli.get_targets = lambda ids: [wrap_target(t) for t in get_targets(ids)]
    codes = []
    for k, argv in enumerate(spec["argvs"]):
        out = Path(spec["out_dir"]) / str(k)
        out.mkdir(parents=True)
        with open(out / "stdout.txt", "w", encoding="utf-8") as handle:
            with contextlib.redirect_stdout(handle):
                codes.append(main([*argv, "--out", str(out)]))
    return codes


def _config(element, kind, first, second):
    if kind == "fv":
        return element.StrategyConfig.face_volume(first, second)
    if kind == "vol":
        return element.StrategyConfig.volumetric_blend(first, second)
    return element.StrategyConfig.edge_face(first, second)


def _run_assemble(spec, first_eval, element, experiment):
    built = []
    for kind, first, second in spec["configs"]:
        if not first_eval:
            first_eval.append(time.monotonic())
        try:
            cfg = _config(element, kind, first, second)
            report = element.unisolvence_check(cfg)
            op = element.assemble_H(cfg)
            table = experiment.build_dof_table(cfg)
            built.append((cfg, report, op, table))
        except Exception as err:  # an op that raises is counted as failed
            built.append(repr(err))
    return built


def _config_records(spec, built, element):
    import numpy as np

    records = []
    for config, item in zip(spec["configs"], built):
        if isinstance(item, str):
            records.append({"config": config, "error": item})
            continue
        cfg, report, op, table = item
        records.append(
            {
                "config": config,
                "det": report.det,
                "rank6": report.rank6,
                "spd": report.spd,
                "edge_pivot": (
                    element.edge_diagonal_entry(cfg.zeta, cfg.nu) if cfg.kind == "edge_face" else None
                ),
                "inverse_err": float(np.max(np.abs(op.h @ op.h_inv - np.eye(10)))),
                "mass_err": float(np.max(np.abs(table.weights[:4].sum(axis=1) - 1.0))),
            }
        )
    return records


def _layer_metrics(tracer, t_spawn, t_end):
    from tracer import LAYERS

    counts = tracer.counts
    shares = tracer.self_times(t_spawn, t_end)
    span = tracer.span_totals
    m = {
        "traced_wall_s": t_end - t_spawn,
        "unattributed_s": shares.get(None, 0.0),
        "targets.eval_s": span("targets.eval"),
        "targets.calls": counts["targets.eval.calls"],
        "targets.points": counts["targets.points"],
        "experiment.study_s": span("experiment.study"),
        "experiment.dof_table_s": span("experiment.dof_table"),
        "experiment.engines": counts["experiment.engines"],
        "experiment.parallel_eff": (
            tracer.study_cpu_s / tracer.study_wall_s if tracer.study_wall_s else 0.0
        ),
        "element.assemble_s": span("element.assemble"),
        "element.assemble_calls": counts["element.assemble.calls"],
        "element.check_s": span("element.check"),
        "element.check_calls": counts["element.check.calls"],
        "densities.moment_s": span("densities.moment"),
        "densities.moment_calls": counts["densities.moment.calls"],
        "densities.rule_s": span("densities.rule"),
        "densities.rule_calls": counts["densities.rule.calls"],
        "quadrature.rule_s": span("quadrature.rule"),
        "quadrature.rules_built": counts["quadrature.rule.calls"],
        "mesh.build_s": span("mesh.build"),
        "mesh.cells": counts["mesh.cells"],
        "mesh.vertex_bytes": counts["mesh.vertex_bytes"],
        "plots.svg_s": span("plots.svg"),
        "cli.write_s": span("cli.write"),
    }
    for method, value in tracer.points_per_cell().items():
        m["targets.points_per_cell" + (f".{method}" if method else "")] = value
    for layer in LAYERS:
        m[f"{layer}.self_s"] = shares.get(layer, 0.0)
    return m, m["traced_wall_s"] - sum(shares.values())


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    t_spawn = float(sys.argv[2])
    first_eval = []

    import numpy
    import scipy

    import histotet
    from histotet import cli, element, experiment

    result = {
        "histotet_file": histotet.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        main_fn = tracer.wrap("cli.main", cli.main)

        def wrap_target(t):
            return tracing.counting_target(tracer, _probe(first_eval, t))

    else:
        main_fn = cli.main

        def wrap_target(t):
            return _probe(first_eval, t)

    if spec["argvs"]:
        result["codes"] = _run_cli(spec, cli, main_fn, wrap_target)
        built = None
    else:
        built = _run_assemble(spec, first_eval, element, experiment)
    t_end = time.monotonic()

    result["setup_s"] = first_eval[0] - t_spawn if first_eval else None
    if spec["trace"]:
        result["layers"], result["attribution_residual_s"] = _layer_metrics(tracer, t_spawn, t_end)
    if built is not None:
        result["configs"] = _config_records(spec, built, element)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
