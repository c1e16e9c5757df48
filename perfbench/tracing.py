"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from outside the library, around calls into the public
functions of each ifncheck module (the layers).  `Tracer.install` rebinds
every such function in every ifncheck namespace that holds it, because
`catalog.py` and `scenarios.py` use from-imports; `Tracer.uninstall` puts the
originals back.  References taken at import time into private tables (the
catalog's scenario runners, the report renderers) keep the originals, so
their work counts as self time of the caller.

A span is (name, start, end, parent).  Spans stay in memory and are written
out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "norm_algebra",
    "ifn_core",
    "sampling",
    "point_convergence",
    "continuity",
    "topology",
    "function_sequences",
    "config_schema",
    "scenarios",
    "catalog",
    "report",
    "cli",
)

# span names that are not "<layer>.<function>"
_RENAMED = {
    "continuity.continuity_witness_search": "continuity.witness_search",
    "continuity.uniform_continuity_search": "continuity.uniform_search",
    "continuity.cauchy_preservation_check": "continuity.cauchy_preservation",
}
_METHODS = (
    ("ifn_core", "MembershipFunction", "eval", "ifn_core.membership"),
    ("function_sequences", "FunctionSequence", "values", "function_sequences.values"),
)
AXIOM_DIMENSIONS = (1, 2, 3, 4)


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _count_size(key):
    def hook(counters, args, kwargs, result, duration):
        counters[key] += int(getattr(result, "size", 0))

    return hook


def _count_terms(counters, args, kwargs, result, duration):
    seq = _arg(args, kwargs, 1, "seq")
    counters["point_convergence.terms_scanned"] += seq.budget


def _count_escape_terms(counters, args, kwargs, result, duration):
    seq = _arg(args, kwargs, 1, "seq")
    budget = _arg(args, kwargs, 5, "budget")
    counters["point_convergence.terms_scanned"] += min(budget or seq.budget, seq.budget)


def _count_norm_checks(counters, args, kwargs, result, duration):
    counters["norm_algebra.check_norm_axioms.checked"] += sum(r.checked for r in result.results)


def _count_witnessed(counters, args, kwargs, result, duration):
    counters["continuity.witness_search.attempted"] += 1
    counters["continuity.witness_search.witnessed"] += int(result.witnessed)


def _time_scenario(counters, args, kwargs, result, duration):
    counters[f"catalog.{_arg(args, kwargs, 0, 'name')}.wall_s"] += duration


def _count_text(counters, args, kwargs, result, duration):
    counters["report.bytes"] += len(result.encode("utf-8"))


def _count_file(counters, args, kwargs, result, duration):
    counters["report.bytes"] += os.path.getsize(result)


_HOOKS = {
    "ifn_core.membership": _count_size("ifn_core.membership.points"),
    "function_sequences.values": _count_size("function_sequences.values.cells"),
    "topology.ball_contains_many": _count_size("topology.ball_contains_many.points"),
    "point_convergence.convergence_index": _count_terms,
    "point_convergence.cauchy_index": _count_terms,
    "point_convergence.cauchy_escape_index": _count_escape_terms,
    "norm_algebra.check_norm_axioms": _count_norm_checks,
    "continuity.witness_search": _count_witnessed,
    "catalog.run_catalog": _time_scenario,
    "report.to_jsonl": _count_text,
    "report.emit_report": _count_file,
}


def _axiom_span_name(args, kwargs):
    return f"ifn_core.check_ifn_axioms.d{_arg(args, kwargs, 0, 'space').dimension}"


_NAMERS = {"ifn_core.check_ifn_axioms": _axiom_span_name}


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


class Tracer:
    """Spans of one process, stored column-wise; parents precede children."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        namer = _NAMERS.get(name)
        fixed_id = self.intern(name)
        stack, start, end, parent, name_id = (
            self._stack, self.start, self.end, self.parent, self.name_id,
        )
        counters, intern = self.counters, self.intern

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(intern(namer(args, kwargs)) if namer else fixed_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result, end[idx] - start[idx])
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and the traced methods of each layer."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ifncheck.{layer}")
            for attr, fn in _public_functions(module):
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(fn, _RENAMED.get(name, name)))
        holders = [m for n, m in list(sys.modules.items()) if n == "ifncheck" or n.startswith("ifncheck.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((holder, attr, value))
                    setattr(holder, attr, hit[1])
        for layer, cls_name, method, name in _METHODS:
            cls = getattr(sys.modules[f"ifncheck.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name))

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._saved):
            setattr(holder, attr, value)
        self._saved.clear()

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counters": dict(self.counters),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, separators=(",", ":"))

    def merge(self, data: dict) -> None:
        """Append the spans and counters of another process's `to_dict`."""
        offset = len(self.start)
        ids = [self.intern(n) for n in data["names"]]
        self.name_id.extend(ids[i] for i in data["name_id"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.counters.update(data["counters"])

    # -- derived quantities ------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[i]
        return out

    def outermost_in_layer(self) -> list[bool]:
        """True for spans with no ancestor in the same layer; summing their
        durations gives a layer's inclusive time without double counting."""
        layer = [self.names[i].split(".", 1)[0] for i in self.name_id]
        out = []
        for i, p in enumerate(self.parent):
            while p >= 0 and layer[p] != layer[i]:
                p = self.parent[p]
            out.append(p < 0)
        return out

    def check_tree(self, passes: list[tuple[int, int, float]], tol: float = 1e-9) -> list[str]:
        """Problems with the span tree: negative self time, a child outside
        its parent's interval, or root spans of a pass that add up to more
        than the pass's wall time.  `passes` holds (first, stop, wall)."""
        problems = []
        for i, v in enumerate(self.self_times()):
            if v < -tol:
                problems.append(f"span {i} ({self.names[self.name_id[i]]}) has self time {v:.3g} s")
                break
        for i, p in enumerate(self.parent):
            if p >= 0 and not (
                self.start[p] - tol <= self.start[i] <= self.end[i] <= self.end[p] + tol
            ):
                problems.append(f"span {i} lies outside its parent {p}")
                break
        for first, stop, wall in passes:
            roots = sum(
                self.end[i] - self.start[i] for i in range(first, stop) if self.parent[i] < 0
            )
            if roots > wall + tol:
                problems.append(f"root spans of a pass sum to {roots:.6f} s > wall {wall:.6f} s")
        return problems
