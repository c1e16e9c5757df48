"""One benchmark worker process: set up, report ready, run passes, report.

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Started by run.py with PYTHONPATH pointing at ./src and BLAS/OpenMP capped
at one thread.  After its imports and one untimed warm-up op it prints
`ready` and waits for a line on stdin: `exit` ends it there (a set-up
sample only), `run` starts the timed window.  The result is one JSON line
on stdout.

The window is a closed loop with one client: a pass starts only after the
previous one ended.  With TRACE=1, untraced and traced passes alternate, so
that the tracing overhead is measured within one run.
"""

from __future__ import annotations

import gc
import gzip
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing
import workloads

OUT = Path(__file__).resolve().parent / "out"
MAX_REPORTED_FAILURES = 5


class Checker:
    """Counts ops and compares their outputs with the expectations and
    with the first pass of this run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = workloads.load_expected()
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op, ctx, raw) -> None:
        self.attempted += 1
        if isinstance(raw, Exception):
            self.failures.append(f"{op.op_id}: raised {type(raw).__name__}: {raw}")
            return
        try:
            digest, fp = op.check(ctx, raw)
        except Exception as exc:  # a malformed output is an op failure
            self.failures.append(f"{op.op_id}: output unreadable: {type(exc).__name__}: {exc}")
            return
        reason = workloads.compare(self.expected, op.op_id, self.seed, fp)
        if reason is None and self.digests.setdefault(op.op_id, digest) != digest:
            reason = f"{op.op_id}: output bytes differ between passes"
        if reason is not None:
            self.failures.append(reason)


def run_pass(ops, ctx):
    """Run every op once, with the reference loop before, between and after
    the ops (outside their times).  Returns [(op, raw output, wall seconds,
    mean reference loop seconds around the op)]."""
    outputs = []
    ref = workloads.reference_loop()
    for op in ops:
        t0 = perf_counter()
        try:
            raw = op.run(ctx)
        except Exception as exc:  # an op that raises fails; the pass goes on
            raw = exc
        wall = perf_counter() - t0
        ref_after = workloads.reference_loop()
        outputs.append((op, raw, wall, (ref + ref_after) / 2))
        ref = ref_after
    return outputs


def timings(outputs) -> list[float]:
    """[wall seconds, host-corrected seconds] of a list of run_pass outputs."""
    return [sum(w for *_, w, _ in outputs), sum(workloads.corrected(w, r) for *_, w, r in outputs)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(tracer: tracing.Tracer, ctx, traced: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics per traced pass, from the spans and counters."""
    n = max(len(traced), 1)
    for d in tracing.AXIOM_DIMENSIONS:
        tracer.intern(f"ifn_core.check_ifn_axioms.d{d}")
    calls = dict.fromkeys(tracer.names, 0)
    self_s = dict.fromkeys(tracer.names, 0.0)
    layer_calls = dict.fromkeys(tracing.LAYERS, 0)
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    layer_incl = dict.fromkeys(tracing.LAYERS, 0.0)
    outermost = tracer.outermost_in_layer()
    for i, own in enumerate(tracer.self_times()):
        name = tracer.names[tracer.name_id[i]]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        self_s[name] += own
        layer_calls[layer] += 1
        layer_self[layer] += own
        if outermost[i]:
            layer_incl[layer] += tracer.end[i] - tracer.start[i]
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_s"] = self_s[name] / n
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer] / n
        out[f"{layer}.self_s"] = layer_self[layer] / n
        out[f"{layer}.inclusive_s"] = layer_incl[layer] / n
    counters = tracer.counters
    for name in workloads.CATALOG_SCENARIOS:
        out[f"catalog.{name}.wall_s"] = counters[f"catalog.{name}.wall_s"] / n
    for key in (
        "ifn_core.membership.points",
        "function_sequences.values.cells",
        "topology.ball_contains_many.points",
        "point_convergence.terms_scanned",
        "norm_algebra.check_norm_axioms.checked",
        "report.bytes",
    ):
        out[key] = counters[key] / n
    membership_s = self_s.get("ifn_core.membership", 0.0)
    out["ifn_core.membership.points_per_s"] = (
        counters["ifn_core.membership.points"] / membership_s if membership_s > 0 else 0.0
    )
    attempted = counters["continuity.witness_search.attempted"]
    out["continuity.witness_search.witnessed_ratio"] = (
        counters["continuity.witness_search.witnessed"] / attempted if attempted else 0.0
    )
    for package in ("ifncheck", "numpy", "jsonschema"):
        samples = [t[package] for t in ctx.import_times]
        out[f"cli.import.{package}_s"] = statistics.median(samples) if samples else 0.0
    out["trace.pass_s"] = statistics.mean(traced) if traced else 0.0
    out["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) if traced and untraced else 0.0
    )
    return out


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ctx = workloads.Context(seed, scratch)
        ops = workloads.BUILDERS[workload](ctx)
        warmup = next(op for op in ops if op.op_id == workloads.WARMUP[workload])
        run_pass([warmup], ctx)  # a failure counts when the op runs in the window
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        result = measure(workload, seed, seconds, trace, ctx, ops)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def measure(workload, seed, seconds, trace, ctx, ops) -> dict:
    checker = Checker(seed)
    tracer = tracing.Tracer() if trace else None
    untraced, traced, pass_bounds, cold_start = [], [], [], []
    if not trace:
        workloads.LIST_CATALOG.run(ctx)  # untimed: warms bytecode and file caches
    deadline = perf_counter() + seconds
    while True:
        cycle_start = perf_counter()
        traced_pass = trace and len(untraced) > len(traced)
        gc.collect()
        if traced_pass:
            first = len(tracer)
            ctx.tracer = tracer
            if workload != "cli-cold":
                tracer.install()
            try:
                outputs = run_pass(ops, ctx)
            finally:
                tracer.uninstall()
                ctx.tracer = None
            wall = timings(outputs)[0]
            traced.append(wall)
            pass_bounds.append((first, len(tracer), wall))
        else:
            outputs = run_pass(ops, ctx)
            untraced.append(timings(outputs))
        if not trace:
            # Every list-catalog invocation (one after each pass, and the one
            # in a cli-cold pass) is a cold-start sample; taking them between
            # passes spreads them over the window.
            outputs += run_pass([workloads.LIST_CATALOG], ctx)
            cold_start += [
                timings([out]) for out in outputs
                if out[0].op_id == workloads.LIST_CATALOG.op_id and not isinstance(out[1], Exception)
            ]
        for op, raw, *_ in outputs:
            checker.check(op, ctx, raw)
        # stop when the next cycle would end more than half a cycle late, so
        # that the window lasts `seconds` on average
        now = perf_counter()
        if now + (now - cycle_start) / 2 > deadline and (not trace or traced):
            break

    result = {
        "passes": untraced,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures[:MAX_REPORTED_FAILURES],
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        result["tree_problems"] = tracer.check_tree(pass_bounds)
        result["layers"] = layer_metrics(tracer, ctx, traced, [w for w, _ in untraced])
        result["traced_passes"] = traced
        result["spans"] = len(tracer)
        spans_file = OUT / f"spans-{workload}-seed{seed}.json.gz"
        with gzip.open(spans_file, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(tracer.to_dict(), fh, separators=(",", ":"))
        result["spans_file"] = str(spans_file.relative_to(Path.cwd()))
    else:
        result["cold_start"] = cold_start
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
