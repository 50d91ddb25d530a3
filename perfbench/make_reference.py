"""Regenerate the committed reference outputs of the CLI workloads.

    python3 perfbench/make_reference.py

Runs each workload's reference invocations (converge-mt with --threads 1)
once in a pinned worker and writes reference/<name>.json: per output file
its SHA-256, its rows and, for `tune`, the reported optimum.  Only run this
when a change is meant to move the bytes of errors.csv or tuning_surface.csv.
"""

import json
import sys

import run
import workloads


def make(workload):
    with run.scratch_dir("reference") as work:
        argvs = [list(a) for a in workload.reference_argvs]
        run.spawn({"workload": workload.name, "trace": False, "argvs": argvs}, work)
        outputs = []
        for k, argv in enumerate(argvs):
            out = work / "out" / str(k)
            sha, rows = workloads.read_output(out / workloads.output_name(argv))
            optimum = workloads.optimum_line((out / "stdout.txt").read_text())
            outputs.append({"file": workloads.output_name(argv), "sha256": sha, "rows": rows, "optimum": optimum})
    workload.reference_path().parent.mkdir(exist_ok=True)
    workload.reference_path().write_text(json.dumps({"argvs": argvs, "outputs": outputs}, indent=1) + "\n")
    print(f"wrote {workload.reference_path().relative_to(run.ROOT)}")


def main():
    for table in (workloads.WORKLOADS, workloads.SMOKE):
        for workload in table.values():
            if workload.is_cli:
                make(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
