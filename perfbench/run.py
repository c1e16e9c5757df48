"""ifncheck benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {catalog,kernels,cli-cold} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  The
last line of stdout is a JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  The line before it is the full record
(sample counts, fail_ratio, versions, commit), which is also appended to
perfbench/out/results.jsonl for compare.py.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, corrected, reference_loop, worker_env  # noqa: E402

SETUP_SAMPLES = 5
TAIL_BEYOND = 10
WORKER_GRACE_S = 120


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile
    with at least TAIL_BEYOND samples beyond it.  Below 2 * TAIL_BEYOND + 1
    samples that percentile would lie under the median, and the median is
    reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0, n // 2
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n, TAIL_BEYOND


def environment(root: Path) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "ifncheck").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "jsonschema": version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def run_worker(args, env) -> tuple[dict, list[tuple[float, float]]]:
    """Start SETUP_SAMPLES workers one after another, timing each from
    launch to `ready` (with the reference loop before and after); the last
    one runs the timed window."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    setups = []
    for i in range(SETUP_SAMPLES):
        ref_before = reference_loop()
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
        # a hung worker is killed, so the benchmark always ends
        watchdog = threading.Timer(args.seconds + WORKER_GRACE_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline().strip() == "ready"
            wall = perf_counter() - t0
            setups.append((wall, (ref_before + reference_loop()) / 2))
            out, _ = proc.communicate("run\n" if ready and i == SETUP_SAMPLES - 1 else "exit\n")
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if not ready or proc.returncode != 0:
            raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Host-speed-corrected times (see workloads.REFERENCE_S); the raw wall
    times go into the record next to them."""
    passes = [c for _, c in result["passes"]]
    value, percentile, beyond = tail(passes)
    metrics = {
        "setup_s": statistics.median(corrected(w, r) for w, r in setups),
        "pass_s": statistics.median(passes),
        "pass_tail_s": value,
        "peak_rss_mb": result["peak_rss_mb"],
        "cold_start_s": statistics.median(c for _, c in result["cold_start"]),
    }
    samples = {
        "passes": len(passes),
        "pass_tail": {"percentile": percentile, "beyond": beyond},
        "setup": len(setups),
        "cold_start": len(result["cold_start"]),
        "wall": {
            "setup_s": statistics.median(w for w, _ in setups),
            "pass_s": statistics.median(w for w, _ in result["passes"]),
            "cold_start_s": statistics.median(w for w, _ in result["cold_start"]),
        },
        "pass_times": result["passes"],
    }
    return metrics, samples


def per_layer(result: dict) -> tuple[dict, dict]:
    samples = {
        "passes": len(result["passes"]),
        "traced_passes": len(result["traced_passes"]),
        "spans": result["spans"],
        "spans_file": result["spans_file"],
    }
    return result["layers"], samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "ifncheck" / "__init__.py").is_file():
        print("error: no ifncheck sources at ./src/ifncheck; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        result, setups = run_worker(args, worker_env())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values, samples = per_layer(result) if args.trace else end_to_end(result, setups)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    tree_problems = result.get("tree_problems", [])
    correct = result["failed"] == 0 and not tree_problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "tree_problems": tree_problems,
        "samples": samples,
        "env": environment(root),
        "metrics": metrics,
    }
    for problem in result["failures"] + tree_problems:
        print(f"check failed: {problem}", file=sys.stderr)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
