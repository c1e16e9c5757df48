"""Every statement that a command can run is run by the pinned commands.

A fresh interpreter installs a `sys.settrace` line collector restricted to
src/ifncheck, imports the package, and runs what the golden fixtures and the
benchmark pin: `list-catalog`, the catalog scenarios, every docs/examples
config at seeds 0 and 1 in each output format, and the kernels ops of the
benchmark, which call the library directly.  A statement of a function body
that none of them ran must be a `raise`, or lie in a function that
UNREACHED names with its count of such statements and the reason.  A change
that leaves a statement unrun adds a golden that runs it, deletes it, or
adds its function here.

    python tests/test_statement_trace.py    # list the statements not run
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ifncheck"

_ERROR_EXIT = "the exit-code path of a rejected config or an internal fault, which tests/test_cli.py checks"
_BEFORE_RAISE = "names the offending value, then raises"
_TRACED = "perfbench traces it by name (ROADMAP item 1 drops the metric, then the function)"
_DESCRIBES = "describes a violation; the named operations have none"

# "module:function" -> (statements that no pinned command runs, why)
UNREACHED = {
    "__init__.py:__getattr__": (1, "a lazy package attribute; commands import the modules directly"),
    "__init__.py:__dir__": (1, "interactive use only"),
    "cli.py:_resolve_seed": (1, "a seed from the environment"),
    "cli.py:main": (8, _ERROR_EXIT),
    "config_schema.py:validate_config": (1, _ERROR_EXIT),
    "config_schema.py:_integers": (1, "an integer field written as a float, as 2.0"),
    "config_schema.py:_is": (2, "a bool where a number is due, and an integer past binary64"),
    "config_schema.py:_errors": (10, _ERROR_EXIT),
    "config_schema.py:_relevance": (1, _ERROR_EXIT),
    "config_schema.py:best_error": (4, _ERROR_EXIT),
    "config_schema.py:schema_document": (1, "builds docs/config-schema.json, which CI compares byte for byte"),
    "continuity.py:MapBetweenSpaces.__call__": (2, _BEFORE_RAISE),
    "continuity.py:_hypothesis_radius": (1, "a domain space off the standard pair, which no config builds"),
    "continuity.py:recheck_witness": (1, "a witness that the denser recheck refutes"),
    "continuity.py:cauchy_preservation_check": (1, "an image that neither stays Cauchy nor diverges"),
    "function_sequences.py:_power": (1, "a negative base; every pinned domain is non-negative"),
    "function_sequences.py:_ladder_verdict": (2, "ladder patterns that no pinned sample makes"),
    "function_sequences.py:_certificate": (1, "an inconclusive uniform certificate"),
    "function_sequences.py:closed_form_index_power": (2, "the near-tie corrections of the logarithmic bound"),
    "function_sequences.py:_criterion": (1, "a worst deviation that passes near the radius, a float near-tie"),
    "ifn_core.py:ClassicalNorm.__call__": (3, "a 1-d point, a max-coordinate norm in d > 1, and d >= 8"),
    "ifn_core.py:MembershipFunction.eval": (1, "a 1-d block for a custom pair"),
    "ifn_core.py:MembershipFunction._closed_form": (3, _BEFORE_RAISE),
    "ifn_core.py:MembershipFunction.signature": (1, "a custom pair's signature"),
    "ifn_core.py:IFNSpace.near_radius": (1, "a space off the standard pair on the real line"),
    "ifn_core.py:make_standard_space": (2, "a norm named by a string; no pinned config names one"),
    "ifn_core.py:check_ifn_axioms.mirrored": (2, "the literal forcing conditions, which no pinned config requests"),
    "norm_algebra.py:check_unit": (3, "the operand check of tnorm_eval"),
    "norm_algebra.py:tnorm_eval": (1, "a scalar evaluation for library use"),
    "norm_algebra.py:_Violations.add": (1, "a full witness list that no later cell of the mask can enter"),
    "norm_algebra.py:check_norm_axioms.comm": (2, _DESCRIBES),
    "norm_algebra.py:check_norm_axioms.assoc": (2, _DESCRIBES),
    "norm_algebra.py:check_norm_axioms.ident": (2, _DESCRIBES),
    "norm_algebra.py:check_norm_axioms.mono": (2, _DESCRIBES),
    "norm_algebra.py:check_norm_axioms.idem": (2, _DESCRIBES),
    "point_convergence.py:_status_from_mask": (2, "an empty window, and a clean tail that starts past its half"),
    "point_convergence.py:_p_window_scan": (9, "the per-p loop of a block that the extrema scan does not decide"),
    "point_convergence.py:_window_extrema_scan": (2, "a non-finite or overflowing window, left to the per-p loop"),
    "point_convergence.py:_cauchy_scan": (1, "a clean tail whose p-window passes the budget"),
    "point_convergence.py:cauchy_escape_index": (4, _TRACED),
    "report.py:_to_json": (
        10, "the isinstance chain, for `to_jsonl` or `to_text` on a record that library code filled "
        "with a numpy scalar other than float64 or a subclass of a plain type; every value a pinned "
        "command writes has a type of `_WRITERS`",
    ),
    "report.py:_csv_cell": (1, "a boolean cell; no pinned sweep row holds one"),
    "sampling.py:_Frozen._values": (1, "pickling"),
    "sampling.py:_Frozen.__repr__": (2, "the repr of a record"),
    "sampling.py:_Frozen.__reduce__": (1, "pickling"),
    "sampling.py:SamplingPlan.random_points": (1, "a plan without random points"),
    "sampling.py:_staged_ladder": (4, "after a block raises, the rung-by-rung rerun that raises a loop's error"),
    "sampling.py:Interval.__eq__": (1, "interval equality"),
    "sampling.py:Interval.__hash__": (1, "interval hashing"),
    "scenarios.py:witness_record": (1, "a found witness that the denser recheck refutes"),
    "scenarios.py:_build_set": (1, _ERROR_EXIT),
    "topology.py:ball_contains_many": (1, "a 1-d block of points"),
    "topology.py:sample_in_ball": (3, _TRACED),
    "topology.py:verify_containment": (2, _TRACED),
    "topology.py:inner_ball_witnesses": (
        7, "a 1-d block (1), a member without t0 (1), and a failed post-verification (5: its "
        "full recheck, the counts, the failure test, the fraction and the WitnessNotFound); "
        "the centre case runs on the arrays",
    ),
    "topology.py:inner_ball_witness": (4, _TRACED),
    "topology.py:SampledSet.__init__": (1, "a 1-d block of witnesses"),
}


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _commands(out: str):
    """The argv of every pinned command."""
    from ifncheck.catalog import CATALOG

    yield ["list-catalog"]
    for name in CATALOG:
        yield ["catalog", name, "--out", out]
    for path in sorted((ROOT / "docs" / "examples").glob("*.json")):
        for seed in ("0", "1"):
            for fmt in ("json", "csv", "text"):
                yield [path.stem.split("-")[0], "--config", str(path), "--seed", seed, "--format", fmt, "--out", out]


def collect() -> dict[str, list[int]]:
    """The lines of src/ifncheck that the pinned commands and kernels ops
    run, per file, with the tracer installed before the package is imported."""
    hits = defaultdict(set)
    prefix = str(SRC)

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = hits[frame.f_code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(SRC.parent))
    workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.settrace(trace)
        try:
            from ifncheck import cli

            for argv in _commands(tmp):
                assert cli.main(argv) in (0, 1), argv
            ctx = workloads.Context(0, Path(tmp))
            for op in workloads.kernel_ops(ctx):
                op.run(ctx)
        finally:
            sys.settrace(None)
    return {path: sorted(lines) for path, lines in hits.items()}


def statements(tree: ast.Module):
    """(enclosing function, statement, its lines) of each statement in a
    function body that must run: all but a docstring, `raise`, `pass`,
    `global`, `nonlocal` and `try`, whose body statements count.  A compound
    statement runs when its header does."""
    out = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if in_function:
                    start = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    out.append((scope, child, range(start, child.body[0].lineno)))
                visit(child, [*scope, child.name], in_function or not isinstance(child, ast.ClassDef))
                continue
            if in_function and isinstance(child, ast.stmt):
                skipped = isinstance(child, (ast.Raise, ast.Pass, ast.Global, ast.Nonlocal, ast.Try)) or (
                    isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                    and isinstance(child.value.value, str)
                )
                if not skipped:
                    body = getattr(child, "body", None)
                    last = body[0].lineno if body else child.end_lineno + 1
                    out.append((scope, child, range(child.lineno, last)))
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                visit(child, scope, in_function)

    visit(tree, [], False)
    return out


def unreached(hits: dict[str, list[int]]) -> dict[str, list[int]]:
    """"module:function" -> the first lines of its statements that no pinned
    command ran."""
    out = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        ran = set(hits.get(str(path), ()))
        for scope, node, lines in statements(ast.parse(path.read_text(encoding="utf-8"))):
            if not ran.intersection(lines):
                out[f"{path.name}:{'.'.join(scope)}"].append(node.lineno)
    return dict(out)


def test_every_statement_not_run_is_a_raise_or_accounted_for():
    proc = subprocess.run(
        [sys.executable, __file__, "--collect"], capture_output=True, text=True, check=True, cwd=ROOT
    )
    found = unreached(json.loads(proc.stdout))
    counts = {name: len(lines) for name, lines in found.items()}
    allowed = {name: count for name, (count, _) in UNREACHED.items()}
    assert counts == allowed, {
        name: (found.get(name, []), allowed.get(name))
        for name in counts.keys() | allowed.keys() if counts.get(name) != allowed.get(name)
    }
    assert all(reason for _, reason in UNREACHED.values())


if __name__ == "__main__":
    if sys.argv[1:] == ["--collect"]:
        print(json.dumps(collect()))
    else:
        for name, lines in unreached(collect()).items():
            print(name, lines, UNREACHED.get(name, (0, "NOT ACCOUNTED FOR"))[1])
