"""The catalog scenarios' names and descriptions, which `catalog.CATALOG`
pairs with their runners: a module apart, so that list-catalog loads no numpy."""

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
