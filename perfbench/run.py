"""histotet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.jsonl]
    python3 perfbench/run.py --smoke

Run from the root of a checkout that holds src/histotet.  Workloads are
defined in workloads.py.  An op is one fresh interpreter (worker.py) with
OPENBLAS/OMP/MKL_NUM_THREADS=1, so a run measures what a user of the CLI
sees: start, imports, set-up, the work and the output files.  Ops repeat
until --seconds have passed (at least MIN_OPS of them); every op's outputs
are checked against the committed references, and each metric is the median
over the run's ops.

--trace 0  end-to-end metrics of untraced ops: wall_s and cpu_s (user+sys)
           and peak_rss_mb of the op's process, setup_s (process start to
           the first target evaluation, or to the first configuration for
           `assemble`), and throughput_per_s (cells per wall second, summed
           over CSV rows or tuning candidates; configurations per second
           for `assemble`).
--trace 1  per-layer metrics: untraced and traced ops alternate; the traced
           ones patch histotet's layer boundaries from tracer.py, and
           trace_overhead compares the two medians.

The second-to-last line of stdout is the full record (environment,
quartiles, op counts, fail_ratio); the last line is the result object.
--out appends the record to a JSON-lines file that compare.py reads.
--smoke runs tiny versions of all four workloads, checks that every metric
BENCHMARK.json names is emitted with its unit, and that a corrupted
reference makes fail_ratio > 0.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_OPS = 3  # per kind (untraced, traced) of op in a run
OP_TIMEOUT_S = 40.0
RUN_LIMIT_S = 120.0  # no op starts after this, whatever --seconds asks


def unit_of(name):
    if name == "peak_rss_mb":
        return "MB"
    if name == "throughput_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("points_per_cell") or ".points_per_cell." in name:
        return "points/cell"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("experiment.parallel_eff", "trace_overhead"):
        return "ratio"
    return "count"


def _median_quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


class OpFailed(Exception):
    pass


@contextlib.contextmanager
def scratch_dir(prefix):
    """A fresh directory under the checkout's .perfbench_work, removed after use."""
    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=parent))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def spawn(spec, work_dir):
    """Run one worker process; return its result and its resource usage."""
    work_dir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, out_dir=str(work_dir / "out"), result=str(work_dir / "result.json"))
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED)
    with open(work_dir / "stdout.txt", "wb") as out, open(work_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(spec_path), repr(t_spawn)],
            cwd=ROOT, env=env, stdout=out, stderr=err,
        )
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (work_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise OpFailed(f"worker exited with {proc.returncode}: {tail}")
    result = json.loads((work_dir / "result.json").read_text())
    if Path(result["histotet_file"]).resolve().parent.parent != SRC.resolve():
        raise OpFailed(f"histotet imported from {result['histotet_file']}, not {SRC}")
    result["wall_s"] = t_exit - t_spawn
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def run_op(workload, spec, reference, work_dir):
    """One op: (attempted, failed, measurement or None)."""
    try:
        result = spawn(spec, work_dir)
    except OpFailed as err:
        print(f"op failed: {err}", file=sys.stderr)
        attempted = (
            sum(len(o["rows"]) for o in reference["outputs"])
            if workload.is_cli
            else len(spec["configs"])
        )
        return attempted, attempted, None
    if workload.is_cli:
        attempted, failed = workloads.check_cli_op(workload, reference, work_dir / "out")
        if any(result["codes"]):
            failed = attempted
    else:
        attempted = len(result["configs"])
        failed = sum(1 for r in result["configs"] if not workloads.check_config(r, reference))
    return attempted, min(failed, attempted), result


def run_workload(workload, seed, seconds, trace, reference, min_ops=MIN_OPS):
    """Repeat ops for `seconds`; returns the op measurements and counts."""
    spec = {"workload": workload.name, "trace": False, "argvs": [list(a) for a in workload.argvs]}
    if not workload.is_cli:
        spec["configs"] = workloads.draw_configs(workload, seed)
    kinds = [False, True] if trace else [False]
    measured = {False: [], True: []}
    attempted = failed = 0
    started = time.monotonic()
    with scratch_dir(workload.name) as work:
        i = 0
        while True:
            traced = kinds[i % len(kinds)]
            a, f, result = run_op(workload, dict(spec, trace=traced), reference, work / f"op{i}")
            shutil.rmtree(work / f"op{i}")
            attempted += a
            failed += f
            if result is not None:
                measured[traced].append(result)
            i += 1
            elapsed = time.monotonic() - started
            if elapsed > RUN_LIMIT_S or (failed and i >= len(kinds)):
                break
            enough = all(len(measured[k]) >= min_ops for k in kinds)
            if enough and elapsed * (i + 1) / i > seconds:
                break
    return measured, attempted, failed


def end_to_end(ops, work):
    series = {
        "wall_s": [o["wall_s"] for o in ops],
        "setup_s": [o["setup_s"] for o in ops if o["setup_s"] is not None],
        "cpu_s": [o["cpu_s"] for o in ops],
        "peak_rss_mb": [o["peak_rss_mb"] for o in ops],
        "throughput_per_s": [work / o["wall_s"] for o in ops],
    }
    return {name: values for name, values in series.items() if values}


def per_layer(untraced, traced):
    series = {}
    for op in traced:
        for name, value in op["layers"].items():
            series.setdefault(name, []).append(value)
    if untraced and traced:
        plain = statistics.median(o["wall_s"] for o in untraced)
        series["trace_overhead"] = [statistics.median(o["wall_s"] for o in traced) / plain - 1.0]
    return series


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed, ops):
    first = next((o for kind in (False, True) for o in ops[kind]), {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "pinned": PINNED,
    }


def measure(workload, seed, seconds, trace, reference, min_ops=MIN_OPS):
    """One run: the full record and the result object."""
    ops, attempted, failed = run_workload(workload, seed, seconds, trace, reference, min_ops)
    work = workloads.work_per_op(workload, reference)
    series = per_layer(ops[False], ops[True]) if trace else end_to_end(ops[False], work)
    stats = {}
    for name, values in series.items():
        med, q1, q3 = _median_quartiles(values)
        stats[name] = {"value": med, "unit": unit_of(name), "q1": q1, "q3": q3, "n": len(values)}
    if not trace and "throughput_per_s" in stats:
        alias = "cells_per_s" if workload.is_cli else "configs_per_s"
        stats[alias] = dict(stats["throughput_per_s"])
    correct = failed == 0 and all(ops[k] for k in ((False, True) if trace else (False,)))
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed, ops),
        "ops": {"untraced": len(ops[False]), "traced": len(ops[True])},
        "work_per_op": work,
        "work_unit": "cells" if workload.is_cli else "configs",
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        # Per traced op, layer self times plus unattributed time minus the
        # traced wall time; zero up to rounding by construction.
        "attribution_residual_s": max(
            (abs(o["attribution_residual_s"]) for o in ops[True]), default=None
        ),
        "correct": correct,
        "metrics": stats,
    }
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": s["value"], "unit": s["unit"]}
            for name, s in stats.items()
            if name not in ("cells_per_s", "configs_per_s")
        },
    }
    return record, result


def _declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def smoke():
    """Tiny runs of every workload; returns a list of problems found."""
    e2e, layers = _declared_metrics()
    problems = []
    for workload in workloads.SMOKE.values():
        before = len(problems)
        reference = workloads.load_reference(workload)
        for trace, declared in ((False, e2e), (True, layers)):
            _, result = measure(workload, 1, 0, trace, reference, min_ops=1)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != declared:
                problems.append(f"{workload.name} trace={int(trace)}: emitted {emitted}, declared {declared}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload.name} trace={int(trace)}: failed {result['failed']}/{result['attempted']}")
        record, _ = measure(workload, 1, 0, False, workloads.corrupt(workload, reference), min_ops=1)
        if not record["fail_ratio"] > 0:
            problems.append(f"{workload.name}: a corrupted reference still gives fail_ratio 0")
        print(f"smoke {workload.name}: {'ok' if len(problems) == before else 'FAILED'}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--smoke", action="store_true", help="check the benchmark itself on tiny inputs")
    args = parser.parse_args(argv)

    if not (SRC / "histotet" / "__init__.py").is_file():
        print(f"error: no histotet sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        problems = smoke()
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(workload)
    record, result = measure(workload, args.seed, args.seconds, bool(args.trace), reference)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
