import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifncheck.errors import InvalidParameter
from ifncheck.norm_algebra import (
    ASSOC_TOL,
    AxiomResult,
    Violation,
    ViolationReport,
    check_norm_axioms,
    tconorm,
    tconorm_eval,
    tnorm,
    tnorm_eval,
)
from ifncheck.sampling import default_plan

from stand_ins import FormulaOp

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

ALL_TNORMS = ["minimum", "product", "lukasiewicz"]
ALL_TCONORMS = ["maximum", "probabilistic-sum", "lukasiewicz"]


class TestEvaluation:
    def test_minimum(self):
        assert tnorm_eval(tnorm("minimum"), 0.3, 0.7) == 0.3

    def test_lukasiewicz(self):
        assert tnorm_eval(tnorm("lukasiewicz"), 0.6, 0.7) == pytest.approx(0.3)
        assert tnorm_eval(tnorm("lukasiewicz"), 0.2, 0.3) == 0.0

    def test_maximum(self):
        assert tconorm_eval(tconorm("maximum"), 0.3, 0.7) == 0.7

    def test_probabilistic_sum(self):
        assert tconorm_eval(tconorm("probabilistic-sum"), 0.5, 0.5) == 0.75

    @pytest.mark.parametrize("family", ALL_TNORMS)
    def test_identity_at_one(self, family):
        assert tnorm_eval(tnorm(family), 0.42, 1.0) == 0.42

    @pytest.mark.parametrize("family", ALL_TCONORMS)
    def test_identity_at_zero(self, family):
        assert tconorm_eval(tconorm(family), 0.42, 0.0) == 0.42

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameter):
            tnorm_eval(tnorm("minimum"), 1.2, 0.5)
        with pytest.raises(InvalidParameter):
            tnorm_eval(tnorm("minimum"), -0.1, 0.5)

    def test_unknown_family(self):
        with pytest.raises(InvalidParameter):
            tnorm("hamacher")

    def test_idempotent_flags(self):
        assert tnorm("minimum").idempotent
        assert not tnorm("product").idempotent
        assert tconorm("maximum").idempotent
        assert not tconorm("probabilistic-sum").idempotent


@pytest.mark.parametrize("family", ALL_TNORMS)
@given(a=units, b=units)
@settings(max_examples=60, deadline=None)
def test_tnorm_range_and_commutativity(family, a, b):
    op = tnorm(family)
    v = float(op(a, b))
    assert 0.0 <= v <= 1.0
    assert v == float(op(b, a))


@pytest.mark.parametrize("family", ALL_TCONORMS)
@given(a=units, b=units, c=units)
@settings(max_examples=60, deadline=None)
def test_tconorm_associativity(family, a, b, c):
    op = tconorm(family)
    assert float(op(op(a, b), c)) == pytest.approx(float(op(a, op(b, c))), abs=1e-12)


@pytest.mark.parametrize("family", ALL_TNORMS)
@given(a=units, b=units, c=units, d=units)
@settings(max_examples=60, deadline=None)
def test_tnorm_monotonicity(family, a, b, c, d):
    op = tnorm(family)
    lo_a, hi_a = min(a, c), max(a, c)
    lo_b, hi_b = min(b, d), max(b, d)
    assert float(op(lo_a, lo_b)) <= float(op(hi_a, hi_b))


class TestAxiomChecker:
    def test_builtin_families_pass(self):
        plan = default_plan(1, seed=0)
        for family in ALL_TNORMS:
            assert check_norm_axioms(tnorm(family), plan).passed
        for family in ALL_TCONORMS:
            assert check_norm_axioms(tconorm(family), plan).passed

    def test_broken_op_identity_violation(self):
        # a*b = min(1, ab + 0.1): identity fails at a=0.5 since 0.5*1 = 0.6
        broken = BROKEN_OPS["shifted-product"][0]
        report = check_norm_axioms(broken, default_plan(1, seed=0))
        assert not report.passed
        ident = report.result("ident")
        assert ident.total_violations > 0
        assert any(abs(v.point[0] - 0.5) < 1e-9 for v in ident.violations)
        assert float(broken(0.5, 1.0)) == pytest.approx(0.6)

    def test_report_deterministic(self):
        plan = default_plan(1, seed=3)
        r1 = check_norm_axioms(tnorm("product"), plan)
        r2 = check_norm_axioms(tnorm("product"), plan)
        assert [(a.axiom, a.checked, a.total_violations) for a in r1.results] == [
            (a.axiom, a.checked, a.total_violations) for a in r2.results
        ]


def reference_norm_report(op, plan):
    """The per-tuple scalar checker that check_norm_axioms replaced, kept as
    its oracle: one predicate call per sample tuple, in row-major order."""
    vals = plan.unit_values()
    e = op.identity
    results = []

    def run(name, roman, points, predicate, describe):
        viols = tuple(
            Violation(name, tuple(float(v) for v in pt), describe(*pt))
            for pt in points
            if not predicate(*pt)
        )
        results.append(AxiomResult(name, roman, len(points), viols, len(viols)))

    pairs = [(a, b) for a in vals for b in vals]
    run(
        "commutativity", "comm", pairs,
        lambda a, b: abs(float(op(a, b)) - float(op(b, a))) <= ASSOC_TOL,
        lambda a, b: f"op({a},{b})={float(op(a,b))} != op({b},{a})={float(op(b,a))}",
    )
    coarse = vals[:: max(1, len(vals) // 12)]
    triples = [(a, b, c) for a in coarse for b in coarse for c in coarse]
    run(
        "associativity", "assoc", triples,
        lambda a, b, c: abs(float(op(op(a, b), c)) - float(op(a, op(b, c)))) <= ASSOC_TOL,
        lambda a, b, c: f"op(op(a,b),c)={float(op(op(a,b),c))} != op(a,op(b,c))={float(op(a,op(b,c)))}",
    )
    run(
        "identity", "ident", [(a,) for a in vals],
        lambda a: float(op(a, e)) == float(a),
        lambda a: f"op({a},{e})={float(op(a,e))} != {a}",
    )
    ordered = [(a, c) for a in vals for c in vals if a <= c]
    ordered = ordered[:: max(1, len(ordered) // 60)]
    quads = [(a, b, c, d) for (a, c) in ordered for (b, d) in ordered]
    run(
        "monotonicity", "mono", quads,
        lambda a, b, c, d: float(op(a, b)) <= float(op(c, d)),
        lambda a, b, c, d: f"op({a},{b})={float(op(a,b))} > op({c},{d})={float(op(c,d))}",
    )
    if op.idempotent:
        run(
            "idempotency", "idem", [(a,) for a in vals],
            lambda a: float(op(a, a)) == float(a),
            lambda a: f"op({a},{a})={float(op(a,a))} != {a}",
        )
    return ViolationReport(":".join(op.signature()), plan.summary(), tuple(results))


# operations that break the laws named with them
BROKEN_OPS = {
    "shifted-product": (
        FormulaOp("tnorm", "shifted-product", lambda a, b: np.minimum(1.0, a * b + 0.1), 1.0),
        ("assoc", "ident"),
    ),
    "lopsided-sum": (
        FormulaOp("tconorm", "lopsided-sum", lambda a, b: 1 - (1 - a) * (1 - b) ** 2, 0.0),
        ("comm", "assoc"),
    ),
    "wavy-product": (
        FormulaOp("tnorm", "wavy-product", lambda a, b: np.clip(a * b * (1 + 0.6 * np.sin(9 * a * b)), 0, 1), 1.0),
        ("mono",),
    ),
}
BUILTIN_OPS = [tnorm(f) for f in ALL_TNORMS] + [tconorm(f) for f in ALL_TCONORMS]


class TestCheckerAgainstReference:
    """check_norm_axioms must return the same full report as the per-tuple
    reference: counts, witness points, detail strings and their order."""

    @pytest.mark.parametrize("seed", [0, 1, 3])
    @pytest.mark.parametrize("op", BUILTIN_OPS, ids=lambda op: op.signature()[0] + "-" + op.family)
    def test_builtin_families(self, op, seed):
        plan = default_plan(1, seed=seed)
        assert repr(check_norm_axioms(op, plan)) == repr(reference_norm_report(op, plan))

    @pytest.mark.parametrize("seed", [0, 1, 3])
    @pytest.mark.parametrize("name", sorted(BROKEN_OPS))
    def test_broken_operations(self, name, seed):
        op, broken_laws = BROKEN_OPS[name]
        plan = default_plan(1, seed=seed)
        report = check_norm_axioms(op, plan)
        assert set(broken_laws) <= set(report.violated())
        assert repr(report) == repr(reference_norm_report(op, plan))
