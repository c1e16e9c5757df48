"""Every function and class of the package is reached from the package
itself.  A definition that no other code in `src/ifncheck` names is dead
weight, unless a benchmark metric measures it or it is an entry point kept
on purpose; `REACHABLE_WITHOUT_A_CALLER` names each such definition and
says why it stays.

The scan goes by name, so it errs toward keeping: a name counts as used
wherever any module loads it, reads it as an attribute or imports it, even
where that use is of another definition of the same name.  The lazy export
table `__init__._EXPORTS` holds names as strings, which do not count.  A
module- or class-level alias `b = a` is part of a's definition: it does not
use a, and the alias itself is not checked.  Dunder methods are left out,
as Python calls them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "ifncheck"

REACHABLE_WITHOUT_A_CALLER = {
    "schema_document": "CI builds the published docs/config-schema.json from it",
    "check_norm_axioms": "the kernels benchmark workload measures it",
    "tnorm_eval": "the exported scalar entry point, which checks that its operands lie in [0, 1]",
    "cauchy_escape_index": "perfbench traces it; it goes when its per-layer metric goes",
    "inner_ball_witness": "perfbench traces it; it goes when its per-layer metrics go",
    "verify_containment": "perfbench traces it; it goes when its per-layer metrics go",
}


def _definitions_and_uses() -> tuple[dict[str, list[str]], set[str]]:
    """Each function or class name defined in the package, with where, and
    every name that the package's code uses."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = {
            id(stmt.value)
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.Module, ast.ClassDef))
            for stmt in scope.body
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in aliases:
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return defined, used


def test_every_definition_is_reached_from_the_package():
    defined, used = _definitions_and_uses()
    unreached = {
        name: where
        for name, where in sorted(defined.items())
        if name not in used and name not in REACHABLE_WITHOUT_A_CALLER
    }
    assert unreached == {}, "no code in src/ifncheck names these definitions"


def test_every_allowed_exception_is_still_one():
    # an entry whose definition is gone, or now has a caller, is stale
    defined, used = _definitions_and_uses()
    stale = sorted(name for name in REACHABLE_WITHOUT_A_CALLER if name not in defined or name in used)
    assert stale == []
