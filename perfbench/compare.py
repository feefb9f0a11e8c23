"""Compare two benchmark result files, workload by workload.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the records run.py appends, one per run.  For every workload
present in both and every end-to-end metric, this prints each side's median
and quartiles over its untraced runs, and a verdict against the metric's
bound in BENCHMARK.json:

  worse       AFTER's median is worse than BEFORE's by more than the bound.
  better      AFTER's median is better by more than BEFORE's quartile spread,
              and AFTER wins at least 9 in 10 of the run pairs (runs are
              paired by seed where both files have it, else by order).
  unresolved  neither of the above, and a side's quartile spread, as a
              share of its median, is wider than the bound.
  unchanged   otherwise.

failed_frac has no bound: any rise is worse.  Exit status 1 if any verdict
is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] == 0 and not record.get("fault"):
                runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(before: list[dict], after: list[dict], metric: str) -> list[tuple[float, float]]:
    by_seed = {r["seed"]: r["metrics"][metric]["value"] for r in before}
    common = [(by_seed[r["seed"]], r["metrics"][metric]["value"])
              for r in after if r["seed"] in by_seed]
    if common:
        return common
    return [(b["metrics"][metric]["value"], a["metrics"][metric]["value"])
            for b, a in zip(before, after)]


def verdict(before: list[dict], after: list[dict], metric: str, better: str,
            bound: float | None) -> tuple[str, tuple, tuple]:
    b = quartiles([r["metrics"][metric]["value"] for r in before])
    a = quartiles([r["metrics"][metric]["value"] for r in after])
    sign = 1 if better == "lower" else -1
    if bound is None:  # failed_frac
        return ("worse" if a[1] > b[1] else "unchanged"), b, a
    if sign * (a[1] - b[1]) > bound * b[1]:
        return "worse", b, a
    paired = pairs(before, after, metric)
    wins = sum(sign * (y - x) < 0 for x, y in paired)
    if sign * (b[1] - a[1]) > b[2] - b[0] and wins >= 0.9 * len(paired):
        return "better", b, a
    if (b[2] - b[0]) > bound * b[1] or (a[2] - a[0]) > bound * abs(a[1]):
        return "unresolved", b, a
    return "unchanged", b, a


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in metrics]
    metrics.append(("failed_frac", "fraction", "lower", None))
    before, after = load(argv[0]), load(argv[1])
    status = 0
    print(f"{'workload':<11} {'metric':<12} {'before q1/median/q3':<34} "
          f"{'after q1/median/q3':<34} verdict")
    for workload in sorted(set(before) & set(after)):
        for name, unit, better, bound in metrics:
            result, b, a = verdict(before[workload], after[workload], name, better, bound)
            status |= result == "worse"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q) + f" {unit}"
            print(f"{workload:<11} {name:<12} {fmt(b):<34} {fmt(a):<34} {result}")
        print(f"{'':<11} runs: before {len(before[workload])}, after {len(after[workload])}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
