"""Each family vocabulary is one table: the map rules, the point-sequence
families, and the enums the config schema offers, whose names
`ifncheck.vocabulary` holds and each implementing table is paired with.

The reference functions below are the if-chains the tables replaced,
kept verbatim as oracles: every table row must give the same floats (bit
for bit, NaN and signed zeros included) and the same descriptions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifncheck import vocabulary
from ifncheck.config_schema import (
    FUNCSEQ_SCHEMA,
    MAP_SCHEMA,
    SCHEMAS,
    SEQUENCE_SCHEMA,
    SPACE_SCHEMA,
    build_funcseq,
    build_map,
    build_plan,
    build_sample,
    build_sequence,
    build_space,
)
from ifncheck.continuity import _RULES, MAP_RULES, MapRule
from ifncheck.errors import InvalidParameter, UnsupportedFamily
from ifncheck.function_sequences import sample_domain
from ifncheck.ifn_core import check_ifn_axioms
from ifncheck.point_convergence import SEQUENCE_FAMILIES, PointSequence
from ifncheck.sampling import Interval, default_plan

# ---------------------------------------------------------------------------
# The replaced chains
# ---------------------------------------------------------------------------


def old_rule_value(rule, xs):
    xs = np.asarray(xs, dtype=float)
    if rule.tag == "identity":
        return xs
    if rule.tag == "affine":
        a, b = rule.params
        return a * xs + b
    if rule.tag == "power":
        return xs ** rule.params[0]
    if rule.tag == "reciprocal":
        return 1.0 / xs
    if rule.tag == "quotient":
        n = rule.params[0]
        return n / (xs + n)
    if rule.tag == "constant":
        return np.full_like(xs, rule.params[0])
    if rule.tag == "step":
        return np.where(xs >= rule.params[0], 1.0, 0.0)
    if rule.tag == "sum":
        f, g = rule.children
        return old_rule_value(f, xs) + old_rule_value(g, xs)
    if rule.tag == "product":
        f, g = rule.children
        return old_rule_value(f, xs) * old_rule_value(g, xs)
    if rule.tag == "scalar":
        return rule.params[0] * old_rule_value(rule.children[0], xs)
    if rule.tag == "recip-of":
        return 1.0 / old_rule_value(rule.children[0], xs)
    raise AssertionError(rule.tag)


def old_describe(rule) -> str:
    if rule.tag == "affine":
        return f"{rule.params[0]}*x + {rule.params[1]}"
    if rule.tag == "power":
        return f"x^{rule.params[0]}"
    if rule.tag == "quotient":
        return f"{rule.params[0]}/(x + {rule.params[0]})"
    if rule.tag == "scalar":
        return f"{rule.params[0]} * ({old_describe(rule.children[0])})"
    if rule.tag in ("sum", "product"):
        a, b = (old_describe(c) for c in rule.children)
        sep = " + " if rule.tag == "sum" else " * "
        return f"({a}){sep}({b})"
    if rule.tag == "recip-of":
        return f"1/({old_describe(rule.children[0])})"
    if rule.tag == "constant":
        return f"{rule.params[0]}"
    if rule.tag == "step":
        return f"step(x >= {rule.params[0]})"
    if rule.tag == "reciprocal":
        return "1/x"
    return rule.tag


def old_terms(seq, ns):
    ns = np.asarray(ns, dtype=float)
    if seq.family == "reciprocal":
        out = 1.0 / (ns + 1.0)
    elif seq.family == "constant":
        out = np.full_like(ns, float(seq.params[0]))
    elif seq.family == "linear":
        out = ns.copy()
    elif seq.family == "alternating":
        out = np.where(np.asarray(ns, dtype=int) % 2 == 0, 1.0, -1.0)
    elif seq.family == "shifted-reciprocal":
        center, offset = seq.params
        out = center + 1.0 / (ns + offset)
    else:
        raise AssertionError(seq.family)
    return out.reshape(-1, 1)


# ---------------------------------------------------------------------------
# Oracle comparisons
# ---------------------------------------------------------------------------

_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, np.inf, -np.inf, np.nan, 1.0, -1.0)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_XS = st.lists(_FLOATS, max_size=12).map(lambda v: np.array(list(_SPECIAL) + v))


def _params(tag):
    return st.tuples(*[_FLOATS] * _RULES[tag].arity)


def _rules(tags, depth):
    """A rule of one of `tags`; a combined rule's operands nest up to
    `depth` combinations deep."""

    def build(tag):
        if tag in MAP_RULES:
            return _params(tag).map(lambda p: MapRule(tag, p))
        n = 1 if tag in ("scalar", "recip-of") else 2
        inner = _rules(list(_RULES) if depth > 1 else list(MAP_RULES), depth - 1)
        operands = st.lists(inner, min_size=n, max_size=n)
        return st.tuples(_params(tag), operands).map(lambda po: MapRule(tag, po[0], tuple(po[1])))

    return st.sampled_from(tags).flatmap(build)


def _same(new, old) -> bool:
    new, old = np.asarray(new), np.asarray(old)
    return (
        new.shape == old.shape
        and np.array_equal(new, old, equal_nan=True)
        and np.array_equal(np.signbit(new), np.signbit(old))
    )


@pytest.mark.parametrize("tag", list(_RULES))
@given(data=st.data(), xs=_XS)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rule_table_matches_the_old_chains(tag, data, xs):
    rule = data.draw(_rules([tag], depth=2))
    with np.errstate(all="ignore"):
        assert _same(rule(xs), old_rule_value(rule, xs))
    assert rule.describe() == old_describe(rule)


@pytest.mark.parametrize("family", list(SEQUENCE_FAMILIES))
@given(data=st.data(), ns=_XS)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_sequence_table_matches_the_old_chain(family, data, ns):
    params = data.draw(st.tuples(*[_FLOATS] * SEQUENCE_FAMILIES[family].arity))
    seq = PointSequence(family, params)
    with np.errstate(all="ignore"):
        assert _same(seq.values(ns), old_terms(seq, ns))
        # the usual index range
        ints = np.arange(1.0, 50.0)
        assert _same(seq.values(ints), old_terms(seq, ints))


def test_unknown_tags_fail_at_construction():
    with pytest.raises(UnsupportedFamily, match="'compose'"):
        MapRule("compose", (), (MapRule("identity"), MapRule("identity")))
    with pytest.raises(UnsupportedFamily, match="'bogus'"):
        PointSequence("bogus")
    with pytest.raises(InvalidParameter, match="'power' takes 1 params, got 0"):
        MapRule("power")
    with pytest.raises(InvalidParameter, match="'constant' takes 1 params, got 0"):
        PointSequence("constant")


# ---------------------------------------------------------------------------
# The schema offers only what the code accepts
# ---------------------------------------------------------------------------


def _enum(schema, field):
    return schema["properties"][field]["enum"]


def test_a_table_that_drifts_from_its_vocabulary_fails_at_import():
    # the schema offers the vocabulary's names; each table must hold the same, in order
    names = vocabulary.MAP_RULE_NAMES
    assert vocabulary.paired(names, MAP_RULES) is MAP_RULES
    for table in ({"identity": None}, dict.fromkeys(reversed(names))):
        with pytest.raises(ImportError, match="differ from the vocabulary"):
            vocabulary.paired(names, table)


@pytest.mark.parametrize("tag", _enum(MAP_SCHEMA, "rule"))
def test_every_schema_map_rule_builds(tag):
    line = build_space({"family": "standard"})
    cfg = {"rule": tag, "params": [1.0] * MAP_RULES[tag].arity, "domain": {"lo": 0.5, "hi": 2.0}}
    f = build_map(cfg, line, line)
    assert np.all(np.isfinite(f(np.array([0.5, 1.0, 2.0]))))
    assert f.rule.describe()


@pytest.mark.parametrize("family", _enum(SEQUENCE_SCHEMA, "family"))
def test_every_schema_sequence_family_builds(family):
    arity = SEQUENCE_FAMILIES[family].arity
    seq = build_sequence({"family": family, "params": [1.0] * arity, "budget": 10})
    assert seq.values(np.arange(1, 11)).shape == (10, 1)


@pytest.mark.parametrize("family", _enum(FUNCSEQ_SCHEMA, "family"))
def test_every_schema_funcseq_family_builds(family):
    (seq,) = build_funcseq({"family": family, "domain": {"lo": 0.0, "hi": 0.5}})
    xs = np.linspace(0.0, 0.5, 5)
    assert np.all(np.isfinite(seq.values(np.arange(1, 11), xs)))
    assert np.all(np.isfinite(seq.exact_limit(xs)))


@pytest.mark.parametrize(
    "field, value",
    [
        (field, value)
        for field in ("norm", "tnorm", "tconorm", "tier")
        for value in _enum(SPACE_SCHEMA, field)
    ],
)
def test_every_schema_space_choice_builds(field, value):
    cfg = {"family": "standard", field: value}
    if value in ("euclidean", "max-coordinate"):
        cfg["dimension"] = 2
    if field in ("tnorm", "tconorm"):
        cfg["tier"] = "core"  # only min/max are idempotent (axiom xii)
    space = build_space(cfg)
    assert space.signature()


@pytest.mark.parametrize("tier", _enum(SCHEMAS["axioms"], "tier"))
def test_every_schema_axioms_tier_runs(tier):
    space = build_space({"family": "standard"})
    assert check_ifn_axioms(space, tier=tier, plan=build_plan(None, 1, 0)).passed


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_default_plan_config_is_the_default_plan(d, seed):
    built, default = build_plan(None, d, seed), default_plan(d, seed)
    assert np.array_equal(built.points(), default.points())
    assert built.summary() == default.summary()


def test_default_sample_config_is_the_default_sample():
    unit = Interval(0.0, 1.0, open_lo=True, open_hi=True)
    assert build_sample(None, unit) == sample_domain(unit)
    cfg = {"points": 9, "refine_side": "hi", "refine_depth": 5}
    assert build_sample(cfg, unit) == sample_domain(unit, 9, "hi", 5)
