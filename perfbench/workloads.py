"""The benchmark's workloads, their inputs and their correctness checks.

Each workload op is one fresh interpreter running histotet through its CLI
(`converge`, `converge-mt`, `tune`) or its element API (`assemble`).  Sizes
are chosen so that one op takes two to four seconds on a 2-core Xeon and a
run can take the median of several ops:

converge     three targets of different cost (trig product f1, cheap
             exponential f4, kinked cone f7), all four methods, n=5,10, one
             thread; also writes the CSV and the SVG charts.
converge-mt  one target on the n=15 mesh (16,464 cells) with two threads: the
             only workload with several chunks per method and a thread pool.
             Its reference is made with --threads 1, so every run also checks
             that results do not depend on the thread count.
tune         the default fv (6x6) and vol (5x6) grids on f2,f6 at n=5: 66
             engines built per op, dominated by DOF-node evaluation and
             per-candidate set-up.
assemble     unisolvence_check, assemble_H and build_dof_table on 90 seeded
             configurations (36 fv, 18 vol blend, 36 ef); no mesh, no target.
             The bypass workload for changes that share target evaluations.

Only `assemble` draws its inputs from the seed; the others are fixed and
record the seed unused.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def cells(n):
    """Tetrahedra in the structured mesh of grid parameter n."""
    return 6 * (n - 1) ** 3


def _converge(functions, ns, threads):
    return [
        "converge",
        "--functions", ",".join(functions),
        "--n", ",".join(str(n) for n in ns),
        "--threads", str(threads),
    ]


def _tune(kind, functions, ns, grid=()):
    return [
        "tune", "--strategy", kind,
        "--functions", ",".join(functions),
        "--n", ",".join(str(n) for n in ns),
        *grid,
    ]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload: what an op runs and how its result is checked.

    argvs are CLI invocations run in order in one process, each with its own
    --out directory; reference_argvs are the invocations the committed
    reference outputs were made with (they differ only in --threads).
    configs_per_kind, for the element workload, is how many (fv, vol, ef)
    configurations the seed draws.
    """

    name: str
    why: str
    argvs: tuple = ()
    reference_argvs: tuple = ()
    configs_per_kind: tuple = ()
    reference_name: str = ""

    @property
    def is_cli(self):
        return bool(self.argvs)

    def reference_path(self):
        return REFERENCE_DIR / f"{self.reference_name or self.name}.json"


def _converge_pair(name, why, functions, ns, threads):
    return Workload(
        name,
        why,
        argvs=(_converge(functions, ns, threads),),
        reference_argvs=(_converge(functions, ns, 1),),
    )


def _tune_pair(name, why, functions, ns, grids):
    argvs = tuple(_tune(kind, functions, ns, grid) for kind, grid in grids)
    return Workload(name, why, argvs=argvs, reference_argvs=argvs)


_TUNE_GRIDS = (("fv", ()), ("vol", ()))
_SMOKE_TUNE_GRIDS = (
    ("fv", ("--alpha", "1,2", "--beta", "1,2")),
    ("vol", ("--theta", "0,1", "--gamma", "1,2")),
)

WORKLOADS = {
    w.name: w
    for w in (
        _converge_pair(
            "converge",
            "four methods on three targets of different cost, one thread; target evaluation dominates",
            ("f1", "f4", "f7"), (5, 10), 1,
        ),
        _converge_pair(
            "converge-mt",
            "one target on a 16,464-cell mesh with two threads: many chunks, a thread pool, the largest arrays",
            ("f8",), (15,), 2,
        ),
        _tune_pair(
            "tune",
            "default fv and vol grids: 66 engines, per-candidate set-up and DOF-node evaluation",
            ("f2", "f6"), (5,), _TUNE_GRIDS,
        ),
        Workload(
            "assemble",
            "seeded element configurations only: no mesh and no target, so target sharing is bypassed",
            configs_per_kind=(36, 18, 36),
        ),
    )
}

#: Tiny versions of the workloads for the benchmark's own smoke check.
SMOKE = {
    w.name: dataclasses.replace(w, reference_name=f"smoke-{w.name}")
    for w in (
        _converge_pair("converge", "smoke", ("f4",), (3,), 1),
        _converge_pair("converge-mt", "smoke", ("f8",), (4,), 2),
        _tune_pair("tune", "smoke", ("f2",), (3,), _SMOKE_TUNE_GRIDS),
        Workload("assemble", "smoke", configs_per_kind=(2, 1, 2)),
    )
}


# -- inputs drawn from the seed ----------------------------------------------


def draw_configs(workload, seed):
    """(kind, first, second) triples: density parameters log-uniform in
    [0.25, 8], the blend weight theta uniform in [0, 1]."""
    rng = random.Random(seed)

    def param():
        return math.exp(rng.uniform(math.log(0.25), math.log(8.0)))

    n_fv, n_vol, n_ef = workload.configs_per_kind
    configs = [("fv", param(), param()) for _ in range(n_fv)]
    configs += [("vol", rng.uniform(0.0, 1.0), param()) for _ in range(n_vol)]
    configs += [("ef", param(), param()) for _ in range(n_ef)]
    return configs


def work_per_op(workload, reference):
    """Cells evaluated per op (summed over CSV rows or tuning candidates), or
    configurations per op for the element workload."""
    if not workload.is_cli:
        return sum(workload.configs_per_kind)
    total = 0
    for argv, output in zip(workload.argvs, reference["outputs"]):
        if argv[0] == "converge":
            total += sum(cells(int(row[0].split(",")[1])) for row in output["rows"])
        else:
            functions = _flag(argv, "--functions").split(",")
            per_candidate = len(functions) * sum(
                cells(int(n)) for n in _flag(argv, "--n").split(",")
            )
            total += len(output["rows"]) * per_candidate
    return total


def _flag(argv, name):
    return argv[argv.index(name) + 1]


# -- reference outputs -------------------------------------------------------


def output_name(argv):
    return "errors.csv" if argv[0] == "converge" else "tuning_surface.csv"


def read_output(path):
    """SHA-256 and (key, value) rows of an errors.csv or tuning_surface.csv.

    errors.csv rows are keyed by function,n,method,params with the l1_error
    text as value; tuning rows by the parameter pair with the summed error.
    """
    data = path.read_bytes()
    table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    header, body = table[0], table[1:]
    if header[0] == "function":
        rows = [[",".join(r[:4]), r[4]] for r in body]
    else:
        rows = [[",".join(r[:2]), r[2]] for r in body]
    return hashlib.sha256(data).hexdigest(), rows


def optimum_line(stdout_text):
    """The CLI's 'optimal ...' line from a tune run, or None."""
    for line in stdout_text.splitlines():
        if line.startswith("optimal "):
            return line.split(" (", 1)[0]
    return None


def load_reference(workload):
    if not workload.is_cli:
        return {"det_rtol": 1e-9, "inverse_atol": 1e-8, "mass_atol": 1e-12, "det_scale": 1.0}
    reference = json.loads(workload.reference_path().read_text())
    if reference["argvs"] != [list(a) for a in workload.reference_argvs]:
        raise SystemExit(
            f"reference {workload.reference_path().name} was made for other "
            "inputs; regenerate it with perfbench/make_reference.py"
        )
    return reference


def corrupt(workload, reference):
    """A copy of the reference that correct outputs must fail."""
    reference = json.loads(json.dumps(reference))
    if workload.is_cli:
        first = reference["outputs"][0]["rows"][0]
        first[1] = repr(float(first[1]) * (1.0 + 1e-9))
    else:
        reference["det_scale"] = 1.0 + 1e-6
    return reference


def check_cli_op(workload, reference, op_dir):
    """(attempted, failed) for one CLI op: a row or candidate fails when it
    is missing or its value differs from the reference text."""
    attempted = failed = 0
    for k, (argv, expected) in enumerate(zip(workload.argvs, reference["outputs"])):
        attempted += len(expected["rows"])
        path = op_dir / str(k) / output_name(argv)
        if not path.is_file():
            failed += len(expected["rows"])
            continue
        sha, rows = read_output(path)
        got = dict(rows)
        bad = sum(1 for key, value in expected["rows"] if got.get(key) != value)
        if bad == 0 and sha != expected["sha256"]:
            bad = 1  # same values, different bytes elsewhere in the file
        if expected.get("optimum") is not None and bad == 0:
            stdout = op_dir / str(k) / "stdout.txt"
            if optimum_line(stdout.read_text()) != expected["optimum"]:
                bad = 1
        failed += bad
    return attempted, failed


def dfv_closed_det(alpha, beta):
    """Closed-form determinant of the face-volume moment matrix (the paper's
    formula, restated here so the check does not trust the program's copy)."""
    a, b = alpha, beta
    return a**4 * b**2 / (
        2.0
        * (3.0 * (3.0 * a + 1.0)) ** 8
        * (3.0 * a + 2.0) ** 4
        * (2.0 * b + 1.0) ** 2
        * (4.0 * b + 1.0) ** 2
        * (4.0 * b + 3.0) ** 2
    )


def check_config(record, reference):
    """True when one element configuration passes: determinant against its
    closed form (fv; ef as the sixth power of the edge pivot), SPD (vol),
    rank 6, H times its inverse equal to I, and unit-mass face averages."""
    if "error" in record:
        return False
    kind, first, second = record["config"]
    det = record["det"]
    if kind == "fv":
        closed = dfv_closed_det(first, second) * reference["det_scale"]
    elif kind == "ef":
        closed = record["edge_pivot"] ** 6 * reference["det_scale"]
    else:
        closed = None
    if closed is not None and not abs(det - closed) <= reference["det_rtol"] * abs(closed):
        return False
    if kind == "vol" and record["spd"] is not True:
        return False
    return (
        record["rank6"] is True
        and record["inverse_err"] <= reference["inverse_atol"]
        and record["mass_err"] <= reference["mass_atol"]
    )
