"""The names a command or a config can use, in a module that imports
nothing: list-catalog loads no numpy, and the config schema loads no runner
module.  Each module that implements one of these vocabularies builds its
table through `paired`, so a table and its names cannot drift apart."""

# The catalog scenarios and their descriptions, which `catalog.CATALOG`
# pairs with their runners.
DESCRIPTIONS = {
    "note-3.3": "standard family axioms and classical equivalence",
    "example-3.15": "1/x continuity versus uniform continuity on (0,1)",
    "theorem-2.10": "continuity equals sequential continuity",
    "theorem-3.1-3.2": "algebra of continuous maps",
    "theorem-3.7": "open balls are open sets",
    "theorem-3.11": "preimage characterisation of continuity",
    "theorem-3.13": "uniform continuity preserves Cauchy sequences",
    "theorem-3.14": "uniform continuity implies continuity, converse fails",
    "example-4-power": "power sequence: pointwise versus uniform convergence",
    "example-4-quotient": "quotient sequence converges uniformly",
    "theorem-4-cauchy-criterion": "uniform Cauchy criterion agreement",
    "example-4-verification": "tail-difference sup oracle",
    "uniform-limit-theorem": "uniform limit theorem and its converse",
    "definition-2.4-mutations": "axiom mutation detection",
}

# The keys of `continuity.MAP_RULES`, `point_convergence.SEQUENCE_FAMILIES`
# and `function_sequences.FUNCSEQ_FAMILIES`, in the schema's order.
MAP_RULE_NAMES = ("identity", "affine", "power", "reciprocal", "quotient", "step", "constant")
SEQUENCE_FAMILY_NAMES = ("reciprocal", "constant", "linear", "alternating", "shifted-reciprocal")
FUNCSEQ_FAMILY_NAMES = ("power", "quotient", "scaled", "constant")

# The largest gap p that a Cauchy check scans unless a config names one.
DEFAULT_P_MAX = 100


def paired(names, table: dict) -> dict:
    """`table`, once its keys are `names` in their order; else an ImportError."""
    if list(table) != list(names):
        raise ImportError(f"table keys {list(table)} differ from the vocabulary {list(names)}")
    return table
