"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records as appended by run.py to perfbench/out/results.jsonl
(one per run; copy the file away between the two sets).  For every
workload and end-to-end metric it prints both sides' median and quartiles
and a verdict:

* worse        - the new median is worse than the base median by more than
                 the metric's bound;
* within bound - it is not;
* unresolved   - either side's spread (quartile distance over median) is
                 wider than the bound, so the runs cannot tell, unless every
                 new run is better than every base run (then: better).

Exit status 1 when any pairing is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """{workload: {metric: [values]}} of the untraced, correct runs."""
    out: dict[str, dict[str, list[float]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if rec["trace"] != 0 or not rec["correct"]:
            continue
        for name, m in rec["metrics"].items():
            out.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if lower_is_better else -1.0
    if (bq3 - bq1) / bmed > bound or (nq3 - nq1) / nmed > bound:
        best_base = min(base) if lower_is_better else max(base)
        worst_new = max(new) if lower_is_better else min(new)
        return "better" if sign * (worst_new - best_base) < 0 else "unresolved"
    return "worse" if sign * (nmed - bmed) / bmed > bound else "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(argv[0]), load(argv[1])
    any_worse = False
    print(f"{'workload':10} {'metric':14} {'base q1/median/q3':>30} {'new q1/median/q3':>30} {'change':>8}  verdict")
    for workload in sorted(set(base) | set(new)):
        for m in spec["end_to_end"]:
            b = base.get(workload, {}).get(m["name"])
            n = new.get(workload, {}).get(m["name"])
            if not b or not n:
                print(f"{workload:10} {m['name']:14} {'missing':>30}")
                continue
            v = verdict(b, n, m["bound"], m["better"] == "lower")
            any_worse |= v == "worse"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            change = (quartiles(n)[1] - quartiles(b)[1]) / quartiles(b)[1]
            print(
                f"{workload:10} {m['name']:14} {fmt(quartiles(b)):>30} {fmt(quartiles(n)):>30} "
                f"{change:+8.1%}  {v} (bound {m['bound']:.0%}, runs {len(b)}/{len(n)})"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
