"""Compare two sets of benchmark results, parent and change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that `run.py --out` appends, one untraced run
per line.  Runs are paired in file order, so the i-th parent run pairs with
the i-th change run; run the two sides alternately, switching which goes
first, so that each pair saw the same machine state.  For every workload and
end-to-end metric in BENCHMARK.json it prints one verdict:

improved    at least 10 pairs, the change wins at least 9 in 10 of them (ties
            count for neither side), its median is better, and the medians
            differ by more than the parent's interquartile range.
unresolved  the parent's own spread (IQR / median) is wider than the bound
            and not every change run beats every parent run.
worse       the change's median is worse than the parent's by more than the
            bound.
unchanged   otherwise.

A gain does not count when more ops failed than at the parent.  Exits 1 when
any verdict is `worse`, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return statistics.median(values), q1, q3


def verdict(parent, change, better, bound):
    """Verdict for one metric from the two sides' per-run values."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    med_p, q1_p, q3_p = _summary(parent)
    med_c, _, _ = _summary(change)
    iqr_p = q3_p - q1_p
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (med_c - med_p) < -iqr_p:
        return "improved", wins, len(pairs)
    every_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if iqr_p > bound * abs(med_p) and not every_better:
        return "unresolved", wins, len(pairs)
    if sign * (med_c - med_p) > bound * abs(med_p):
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(parent_runs, change_runs, metrics):
    lines = []
    any_worse = False
    for workload in sorted(set(parent_runs) | set(change_runs)):
        ps, cs = parent_runs.get(workload, []), change_runs.get(workload, [])
        if not ps or not cs:
            lines.append(f"{workload}: runs missing on one side (parent {len(ps)}, change {len(cs)})")
            continue
        failed_p = sum(r["failed"] for r in ps)
        failed_c = sum(r["failed"] for r in cs)
        for m in metrics:
            p = [r["metrics"][m["name"]]["value"] for r in ps]
            c = [r["metrics"][m["name"]]["value"] for r in cs]
            label, wins, n = verdict(p, c, m["better"], m["bound"])
            if label == "improved" and failed_c > failed_p:
                label = "unchanged"  # a gain does not count with more failures
            any_worse |= label == "worse"
            (mp, q1p, q3p), (mc, q1c, q3c) = _summary(p), _summary(c)
            lines.append(
                f"{workload:12s} {m['name']:17s} parent {mp:.6g} [{q1p:.6g}, {q3p:.6g}]"
                f"  change {mc:.6g} [{q1c:.6g}, {q3c:.6g}]  wins {wins}/{n}  {label}"
            )
        lines.append(f"{workload:12s} failed ops       parent {failed_p}  change {failed_c}")
    return lines, any_worse


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    lines, any_worse = compare(load(argv[0]), load(argv[1]), metrics)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
