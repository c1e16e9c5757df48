"""Rebuild perfbench/expected.json, the pinned outputs of every op.

    python3 perfbench/expectations.py

Run from the root of a checkout whose outputs are known to be right.  For
each op it records the full fingerprint (exit code, verdict counts, key
certificate values) at the pinned seeds 0 and 1, and the part that held at
every seed in 0..7: the same exit code and verdict counts (which must agree
across those seeds, or the op is unfit for a workload) and the values common
to all of them, less the seed-dependent sample sizes named in
workloads.PINNED_ONLY_KEYS.  Runs at other seeds are checked against that
invariant part.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from collections import Counter
from functools import reduce
from pathlib import Path

import workloads

PINNED_SEEDS = (0, 1)
INVARIANT_SEEDS = range(8)


def fingerprints(seed: int, scratch: Path) -> dict[str, dict]:
    ctx = workloads.Context(seed, scratch)
    out = {}
    for build in workloads.BUILDERS.values():
        for op in build(ctx):
            _, fp = op.check(ctx, op.run(ctx))
            out[op.op_id] = fp
    return out


def main() -> int:
    os.environ.update(workloads.worker_env())
    sys.path.insert(0, str(Path("src").resolve()))
    scratch = Path(tempfile.mkdtemp(prefix="expect-", dir=workloads.HERE))
    try:
        by_seed = {seed: fingerprints(seed, scratch) for seed in INVARIANT_SEEDS}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ops = {}
    for op_id, first in by_seed[0].items():
        fps = [by_seed[s][op_id] for s in INVARIANT_SEEDS]
        for s, fp in zip(INVARIANT_SEEDS, fps):
            if fp.get("exit") != first.get("exit") or fp["verdicts"] != first["verdicts"]:
                raise SystemExit(f"{op_id}: exit/verdicts at seed {s} differ from seed 0")
        common = reduce(lambda a, b: a & b, (Counter(fp["values"]) for fp in fps))
        common = Counter({v: c for v, c in common.items() if not workloads.pinned_only(v)})
        invariant = {"verdicts": first["verdicts"], "values": sorted(common.elements())}
        if "exit" in first:
            invariant["exit"] = first["exit"]
        ops[op_id] = {
            "invariant": invariant,
            "seeds": {str(s): by_seed[s][op_id] for s in PINNED_SEEDS},
        }
    doc = {
        "about": "pinned op outputs; rebuild with python3 perfbench/expectations.py",
        "pinned_seeds": list(PINNED_SEEDS),
        "invariant_seeds": list(INVARIANT_SEEDS),
        "ops": ops,
    }
    workloads.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.EXPECTED} ({len(ops)} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
