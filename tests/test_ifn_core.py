import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifncheck.catalog import broken_spaces
from ifncheck.errors import DomainError, InvalidParameter, UnknownTag
from ifncheck.ifn_core import (
    IFNSpace,
    check_ifn_axioms,
    custom_membership,
    limit_at_infinity,
    make_example_family,
    make_standard_space,
    membership_radius,
    standard_nu,
    tabulated_membership,
)
from ifncheck.norm_algebra import TriangularConorm, TriangularNorm
from ifncheck.point_convergence import _p_window_scan, classical_equivalence_probe, reciprocal_sequence
from ifncheck.sampling import SamplingPlan, default_plan, product_grid


class TestStandardSpace:
    def test_simple_values(self):
        sp = make_standard_space(1.0)
        assert sp.mu_eval(1.0, 1.0) == 0.5
        assert sp.nu_eval(1.0, 1.0) == 0.5

    def test_k2_substitution(self):
        sp = make_standard_space(2.0)
        assert sp.mu_eval(3.0, 4.0) == pytest.approx(0.4)
        assert sp.nu_eval(3.0, 4.0) == pytest.approx(0.6)

    def test_origin_boundary(self):
        sp = make_standard_space(3.7)
        for t in (0.01, 1.0, 50.0):
            assert sp.mu_eval(0.0, t) == 1.0
            assert sp.nu_eval(0.0, t) == 0.0

    def test_invalid_k(self):
        with pytest.raises(InvalidParameter):
            make_standard_space(0.0)
        with pytest.raises(InvalidParameter):
            make_standard_space(-1.0)

    @pytest.mark.parametrize(
        "values",
        [np.full((2, 2), np.nan), np.array([[1.0, 1.0], [np.nan, 0.5]]), np.full((2, 2), -0.5)],
        ids=["all-nan", "one-nan", "below-zero"],
    )
    def test_tabulated_membership_rejects_values_outside_unit(self, values):
        with pytest.raises(InvalidParameter):
            tabulated_membership([0.0, 1.0], [0.0, 1.0], values)

    def test_domain_errors(self):
        sp = make_standard_space(1.0)
        with pytest.raises(DomainError):
            sp.mu_eval(1.0, 0.0)
        with pytest.raises(DomainError):
            sp.mu_eval(1.0, -2.0)
        with pytest.raises(DomainError):
            sp.mu_eval([1.0, 2.0], 1.0)

    def test_mu_plus_nu_is_one_to_one_ulp(self):
        # the pair shares a denominator, so the sum is 1 up to the single
        # rounding of each division (bitwise equality is unattainable)
        sp = make_standard_space(0.5, dimension=3, norm="euclidean")
        pts = np.array([[1.0, -2.0, 0.5], [0.1, 0.0, 4.0], [3.3, 1.7, -0.2]])
        for t in (0.1, 1.0, 10.0):
            total = sp.mu_many(pts, t) + sp.nu_many(pts, t)
            assert np.all(np.abs(total - 1.0) <= 2.0 ** -52)

    def test_scaling_exact_for_dyadic_scalars(self):
        # zero-slack identity: both evaluation paths agree bitwise for
        # power-of-two scalars
        sp = make_standard_space(1.0)
        xs = np.linspace(-5.0, 5.0, 21).reshape(-1, 1)
        for c in (-4.0, -2.0, -1.0, -0.5, 0.5, 2.0, 4.0):
            for t in (0.1, 1.0, 7.0):
                lhs = sp.mu_many(c * xs, t)
                rhs = sp.mu_many(xs, t / abs(c))
                np.testing.assert_array_equal(lhs, rhs)


def tabulated_pair_space(plan: SamplingPlan, dimension: int = 1) -> IFNSpace:
    """mu = t/(2t + |x|) and nu = |x|/(2t + |x|), tabulated in the first
    coordinate over the plan's times: a ladder limit of 1/2, not 1."""
    t_nodes = plan.all_t()
    x_nodes = np.linspace(-5.0, 5.0, 41)
    xx, tt = np.meshgrid(x_nodes, t_nodes, indexing="ij")
    mu = tabulated_membership(x_nodes, t_nodes, tt / (2 * tt + np.abs(xx)))
    nu = tabulated_membership(x_nodes, t_nodes, np.abs(xx) / (2 * tt + np.abs(xx)))
    ops = TriangularNorm("minimum"), TriangularConorm("maximum")
    return IFNSpace(dimension, mu, nu, *ops, axiom_tier="core")


def constant_pair_space(mu_value: float, nu_value: float) -> IFNSpace:
    """A space whose memberships take one fixed value everywhere, to place
    each side of the demand exactly on its boundary."""
    return IFNSpace(
        dimension=1,
        mu=custom_membership(lambda pts, t: np.full(len(pts), mu_value)),
        nu=custom_membership(lambda pts, t: np.full(len(pts), nu_value)),
        tnorm=TriangularNorm("minimum"),
        tconorm=TriangularConorm("maximum"),
    )


def test_a_standard_pair_built_directly_is_the_standard_family():
    # the family, k and norm are read from the pair, so a space built
    # without make_standard_space gets the closed-form radius, summary and
    # classical probe of the family
    one = make_standard_space(1.0)
    direct = IFNSpace(1, one.mu, one.nu, one.tnorm, one.tconorm)
    assert direct.is_standard and direct.summary() == one.summary()
    assert membership_radius(direct, 0.5, 1.0) == 1.0
    assert classical_equivalence_probe(direct, reciprocal_sequence(), 0.0).agree
    three = make_standard_space(2.0, dimension=3, norm="max-coordinate")
    direct = IFNSpace(3, three.mu, three.nu, three.tnorm, three.tconorm)
    assert (direct.family, direct.k, direct.norm) == ("standard", 2.0, three.norm)
    # a pair of two k is not the standard family
    mixed = IFNSpace(1, one.mu, standard_nu(2.0, one.norm), one.tnorm, one.tconorm)
    assert (mixed.is_standard, mixed.family, mixed.k, mixed.norm) == (False, "custom", None, None)
    assert mixed.summary() == {
        "family": "custom", "dimension": 1, "tnorm": "minimum", "tconorm": "maximum", "tier": "strict"
    }


class TestWithin:
    def test_mu_on_boundary_is_excluded(self):
        z = np.zeros((1, 1))
        assert not constant_pair_space(0.75, 0.0).within(z, 0.25, 1.0)[0]
        assert constant_pair_space(np.nextafter(0.75, 1.0), 0.0).within(z, 0.25, 1.0)[0]

    def test_nu_on_boundary_is_excluded(self):
        z = np.zeros((1, 1))
        assert not constant_pair_space(1.0, 0.25).within(z, 0.25, 1.0)[0]
        assert constant_pair_space(1.0, np.nextafter(0.25, 0.0)).within(z, 0.25, 1.0)[0]

    def test_standard_boundary_radius_is_excluded(self):
        # mu(1, 1) = 0.5 = 1 - r exactly for k = 1, r = 0.5
        sp = make_standard_space(1.0)
        z = np.array([[1.0], [0.999]])
        assert sp.within(z, 0.5, 1.0).tolist() == [False, True]

    def test_nan_difference_fails(self):
        sp = make_standard_space(1.0)
        assert sp.within(np.array([[np.nan], [0.0]]), 0.5, 1.0).tolist() == [False, True]


class TestExampleFamily:
    def test_tags(self):
        a = make_example_family("example-3.15-A")
        assert a.k == 1.0 and a.dimension == 1
        b = make_example_family("example-3.15-B(k=3)")
        assert b.k == 3.0
        four = make_example_family("example-4.x")
        assert four.k == 1.0

    def test_unknown(self):
        with pytest.raises(UnknownTag):
            make_example_family("example-9.99")


class TestAxiomChecker:
    def test_standard_strict_tier_empty_report(self):
        plan = default_plan(1, seed=0)
        sp = make_standard_space(1.0)
        report = check_ifn_axioms(sp, tier="strict", plan=plan)
        assert report.passed
        assert report.violated() == ()

    def test_doubled_nu_flags_boundedness(self):
        space, _ = broken_spaces()["i"]
        report = check_ifn_axioms(space, plan=default_plan(1, seed=0))
        assert "i" in report.violated()
        # the witness from direct evaluation: mu + nu' = 0.5 + 1.0 at x=1, t=1
        assert space.mu_eval(1.0, 1.0) + space.nu_eval(1.0, 1.0) > 1.0

    def test_idempotency_flagged_for_product_ops(self):
        sp = make_standard_space(
            1.0, ops=("product", "probabilistic-sum"), tier="core"
        )
        report = check_ifn_axioms(sp, tier="idempotent", plan=default_plan(1, seed=0))
        assert "xii" in report.violated()
        # direct evaluation at a = 0.5
        assert float(sp.tnorm(0.5, 0.5)) == 0.25 != 0.5

    def test_forcing_conditions_off_by_default(self):
        sp = make_standard_space(1.0)
        plan = default_plan(1, seed=0)
        report = check_ifn_axioms(sp, tier="idempotent", plan=plan)
        assert all(r.roman not in ("xiii", "xiv") for r in report.results)
        literal = check_ifn_axioms(
            sp, tier="idempotent", plan=plan, include_forcing_conditions=True
        )
        # as literally stated the forcing conditions reject every nontrivial
        # space
        assert {"xiii", "xiv"} <= set(literal.violated())

    def test_determinism(self):
        plan = default_plan(1, seed=11)
        space, _ = broken_spaces()["v"]
        r1 = check_ifn_axioms(space, plan=plan)
        r2 = check_ifn_axioms(space, plan=plan)
        assert [(a.roman, a.total_violations) for a in r1.results] == [
            (a.roman, a.total_violations) for a in r2.results
        ]
        assert [v.point for a in r1.results for v in a.violations] == [
            v.point for a in r2.results for v in a.violations
        ]

    def test_plan_dimension_mismatch(self):
        sp = make_standard_space(1.0, dimension=3)
        with pytest.raises(DomainError):
            check_ifn_axioms(sp, plan=default_plan(1))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_membership_blocks_match_per_t_loop(self, d, seed):
        # `memberships` over a (T, 1) column of times against a per-t loop
        # of `eval`: the fused standard pair, and the custom and tabulated
        # pairs that loop inside it; a 7-point axis (origin included) keeps
        # d = 4 affordable
        axis = np.linspace(-5.0, 5.0, 7)
        plan = SamplingPlan(product_grid(axis, d, seed), random_count=50, seed=seed)
        P = plan.points()
        for ops in (("minimum", "maximum"), ("product", "probabilistic-sum")):
            sp = make_standard_space(1.5, dimension=d, ops=ops, tier="core", verify=False)
            # the same closed forms behind custom tags take the per-t path
            per_t = IFNSpace(
                d, custom_membership(sp.mu.eval), custom_membership(sp.nu.eval),
                sp.tnorm, sp.tconorm, axiom_tier="core",
            )
            for space in (sp, per_t, tabulated_pair_space(plan, d)):
                for ts in (plan.all_t(), np.add.outer(plan.t_grid, plan.t_grid).ravel()):
                    blocks = space.memberships(P, ts.reshape(-1, 1))
                    for block, fn in zip(blocks, (space.mu, space.nu)):
                        assert np.array_equal(block, np.stack([fn.eval(P, t) for t in ts]))
            tiers = itertools.product(("core", "idempotent", "strict"), (False, True))
            for tier, forcing in tiers:
                fast = check_ifn_axioms(sp, tier, plan, forcing)
                slow = check_ifn_axioms(per_t, tier, plan, forcing)
                assert fast.results == slow.results


class TestLimitAtInfinity:
    def test_standard_converges(self):
        sp = make_standard_space(1.0)
        rec = limit_at_infinity(sp, 1.0)
        assert rec.converged
        assert rec.mu_limit == pytest.approx(1.0, abs=1e-6)
        assert rec.nu_limit == pytest.approx(0.0, abs=1e-6)

    def test_origin_immediate(self):
        sp = make_standard_space(2.0)
        rec = limit_at_infinity(sp, 0.0)
        assert rec.converged and rec.mu_limit == 1.0 and rec.nu_limit == 0.0

    def test_pathological_grid_fails(self):
        # tabulated mu(x,t) = t/(2t + |x|): ladder limit is 1/2, not 1
        plan = default_plan(1, seed=0)
        bad = tabulated_pair_space(plan)
        rec = limit_at_infinity(bad, 1.0, plan)
        assert not rec.converged
        assert rec.mu_limit == pytest.approx(0.5, abs=1e-3)
        report = check_ifn_axioms(bad, tier="core", plan=plan)
        assert "vi" in report.violated()

    def test_ladder_matches_per_t_loop(self):
        # one `memberships` call over the ladder column against the per-t
        # `mu_many`/`nu_many` loop it replaced, bit for bit
        plan = default_plan(1, seed=0)
        spaces = (make_standard_space(2.0), broken_spaces()["vi"][0], tabulated_pair_space(plan))
        for space, x in itertools.product(spaces, (0.0, 1.0, -3.5, 1e-9)):
            rec = limit_at_infinity(space, x, plan)
            pt = np.array([[x]])
            ladder = plan.t_infinity_ladder
            assert rec.mu_values == tuple(float(space.mu_many(pt, t)[0]) for t in ladder)
            assert rec.nu_values == tuple(float(space.nu_many(pt, t)[0]) for t in ladder)


class TestSerialization:
    def test_space_roundtrip_through_config(self):
        from ifncheck.config_schema import build_space

        cfg = {
            "family": "standard",
            "k": 2.0,
            "dimension": 3,
            "norm": "euclidean",
            "tnorm": "minimum",
            "tconorm": "maximum",
            "tier": "strict",
        }
        sp = build_space(cfg)
        assert sp.summary() == {
            "family": "standard",
            "dimension": 3,
            "tnorm": "minimum",
            "tconorm": "maximum",
            "tier": "strict",
            "k": 2.0,
            "norm": "euclidean",
        }
        rebuilt = build_space(sp.summary() | {"family": "standard"})
        assert rebuilt.signature() == sp.signature()


@given(
    # |x| bounded away from 0 so that k|x|/t stays resolvable in doubles;
    # the boundary-uniqueness direction is meaningless below that scale
    x=st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-6, max_value=10),
        st.floats(min_value=-10, max_value=-1e-6),
    ),
    t=st.floats(min_value=1e-3, max_value=1e3),
    k=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=80, deadline=None)
def test_membership_pair_properties(x, t, k):
    sp = make_standard_space(k, verify=False)
    mu, nu = sp.mu_eval(x, t), sp.nu_eval(x, t)
    assert 0.0 <= mu <= 1.0 and 0.0 <= nu <= 1.0
    assert mu + nu <= 1.0 + 1e-12
    assert (mu == 1.0) == (x == 0.0)


# The standard family's expressions before `IFNSpace.memberships`, kept as
# the reference: each membership computes its own norm, reduced along the
# row, and the Cauchy scan evaluates mu once more for its margin.
def old_norm(family, pts):
    if family == "absolute-value":
        return np.abs(pts[:, 0])
    if family == "euclidean":
        return np.sqrt(np.sum(pts * pts, axis=1))
    return np.max(np.abs(pts), axis=1)


def old_mu(k, family, pts, t):
    kn = k * old_norm(family, pts)
    return t / (t + kn)


def old_nu(k, family, pts, t):
    kn = k * old_norm(family, pts)
    return kn / (t + kn)


def old_within(k, family, diffs, r, t):
    return (old_mu(k, family, diffs, t) > 1.0 - r) & (old_nu(k, family, diffs, t) < r)


def old_p_window_scan(k, family, vals, r, t, p_max):
    n_total = len(vals)
    first = np.full(max(n_total - 1, 0), n_total)
    worst = np.full(max(n_total - 1, 0), -np.inf)
    for p in range(1, min(p_max, n_total - 1) + 1):
        diffs = vals[p:] - vals[:-p]
        bad = np.flatnonzero(~old_within(k, family, diffs, r, t))
        first[bad] = np.minimum(first[bad], p)
        head = worst[: n_total - p]
        np.maximum(head, 1.0 - old_mu(k, family, diffs, t), out=head)
    return first, worst


_EDGE_COORDS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, np.inf, -np.inf, np.nan]
_TIMES = st.floats(1e-300, 1e300)
_NORM_DIMS = [("absolute-value", 1)] + [
    (family, d) for family in ("euclidean", "max-coordinate") for d in range(1, 11)
]


@pytest.mark.parametrize("family, d", _NORM_DIMS)
@given(
    k=st.one_of(st.sampled_from([0.5, 1.0, 3.0]), st.floats(1e-3, 1e3)),
    r=st.floats(1e-6, 1.0 - 1e-6),
    times=st.sampled_from(["scalar", "per-point", "column"]),
    p_max=st.integers(1, 12),
    data=st.data(),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_fused_memberships_match_the_old_expressions(family, d, k, r, times, p_max, data):
    n = data.draw(st.integers(1, 12))
    # rows of full-mantissa coordinates of one scale, whose squares round
    # differently when added in another order, then edge values and any
    # float at drawn places
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, (n, d)) * 10.0 ** rng.integers(-5, 6, (n, 1))
    edge = st.one_of(st.sampled_from(_EDGE_COORDS), st.floats())
    places = st.tuples(st.integers(0, n - 1), st.integers(0, d - 1), edge)
    for i, j, v in data.draw(st.lists(places)):
        pts[i, j] = v
    t = data.draw(_TIMES)
    if times == "per-point":
        t = np.array(data.draw(st.lists(_TIMES, min_size=n, max_size=n)))
    elif times == "column":
        t = np.array(data.draw(st.lists(_TIMES, min_size=1, max_size=4))).reshape(-1, 1)
    sp = make_standard_space(k, family, dimension=d, verify=False)

    def same(a, b):
        return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)

    with np.errstate(all="ignore"):
        assert same(sp.norm(pts), old_norm(family, pts))
        mu, nu = sp.memberships(pts, t)
        assert same(mu, old_mu(k, family, pts, t)) and same(nu, old_nu(k, family, pts, t))
        assert same(sp.mu_many(pts, t), mu) and same(sp.nu_many(pts, t), nu)
        assert same(sp.within(pts, r, t), old_within(k, family, pts, r, t))
        if times == "scalar":
            first, worst = _p_window_scan(sp, pts, r, t, p_max)
            old_first, old_worst = old_p_window_scan(k, family, pts, r, t, p_max)
            assert same(first, old_first) and same(worst, old_worst)


def _pair_space(mu=None, nu=None, ops=("minimum", "maximum")) -> IFNSpace:
    """The k = 1 standard pair on the line with mu and/or nu replaced by a
    custom membership."""
    std = make_standard_space(1.0, ops=ops, verify=False)
    return IFNSpace(
        1,
        custom_membership(mu) if mu else std.mu,
        custom_membership(nu) if nu else std.nu,
        std.tnorm,
        std.tconorm,
    )


def _abs1(p):
    return np.abs(np.asarray(p, dtype=float)[:, 0])


def _axiom_violators() -> dict[str, tuple[IFNSpace, bool]]:
    """A space violating each condition (i)-(xvi), with whether the forcing
    conditions are requested: the six broken spaces and small custom pairs.
    A suffixed case reaches a second clause of its condition: a value at
    theta, or a step against monotonicity in t (at t = 2)."""
    broken = {roman: space for roman, (space, _) in broken_spaces().items()}
    std = make_standard_space(1.0, verify=False)

    def at_two(t):
        return np.where(np.asarray(t) == 2.0, 3.0, 1.0)

    return {
        "i": (broken["i"], False),
        "ii": (_pair_space(mu=lambda p, t: np.where(_abs1(p) >= 2.0, 0.0, t / (t + _abs1(p)))), False),
        "iii": (_pair_space(mu=lambda p, t: np.where(_abs1(p) < 0.5, 1.0, t / (t + _abs1(p)))), False),
        "iii-theta": (_pair_space(mu=lambda p, t: t / (t + _abs1(p) + 0.1)), False),
        "iv": (broken["iv"], False),
        "v": (broken["v"], False),
        "vi": (broken["vi"], False),
        "vi-step": (_pair_space(mu=lambda p, t: t / (t + _abs1(p) * at_two(t))), False),
        "vii": (_pair_space(nu=lambda p, t: np.where(_abs1(p) >= 2.0, 1.0, _abs1(p) / (t + _abs1(p)))), False),
        "viii": (_pair_space(nu=lambda p, t: np.where(_abs1(p) < 0.5, 0.0, _abs1(p) / (t + _abs1(p)))), False),
        "viii-theta": (_pair_space(nu=lambda p, t: (_abs1(p) + 0.1) / (t + _abs1(p) + 0.1)), False),
        "ix": (_pair_space(nu=broken["iv"].nu.eval), False),
        "x": (broken["x"], False),
        "xi": (_pair_space(nu=lambda p, t: _abs1(p) / (np.minimum(t, 1.0) + _abs1(p))), False),
        "xi-step": (_pair_space(nu=lambda p, t: _abs1(p) * at_two(t) / (t + _abs1(p) * at_two(t))), False),
        "xii": (_pair_space(ops=("product", "probabilistic-sum")), False),
        "xiii": (std, True),
        "xiv": (std, True),
        "xv": (broken["xv"], False),
        "xvi": (_pair_space(nu=broken["xv"].nu.eval), False),
    }


# case -> (violated(), checked, total_violations, first witness's point and
# detail) of the case's condition on default_plan(1, 0) at the strict tier
AXIOM_PINS = {
    'i': (('i', 'vii'), 2431, 2372, (-5.0, 0.01), 'mu+nu=1.001996007984032 > 1'),
    'ii': (('ii', 'iv', 'v', 'vi'), 1547, 924, (-5.0, 0.01), 'mu=0 <= 0'),
    'iii': (('i', 'iii', 'iv', 'v'), 1547, 119, (-0.1872729152728585, 0.01), 'mu=1 for x != theta'),
    'iii-theta': (('iii', 'iv'), 1547, 7, (0.0, 0.01), 'mu(theta,t)=0.090909090909090912 != 1'),
    'iv': (('iv', 'ix'), 9282, 6699, (-5.0, -2.0, 0.01), 'mu(cx,t)=0.00095147478591817321 != mu(x,t/|c|)=0.00090826521344232523'),
    'v': (('iv', 'v', 'ix', 'x'), 28224, 3608, (-5.0, -5.0, 0.01, 0.01), 'tnorm(mu,mu)=0.00039984006397441024 > mu(x+y,s+t)=0.00019996000799840034'),
    'vi': (('vi',), 2431, 220, (-5.0,), 'mu ladder limit 0.49999999999875 != 1'),
    'vi-step': (('iv', 'v', 'vi', 'xv'), 2431, 220, (-5.0, 1.0, 2.0), 'mu not non-decreasing in t'),
    'vii': (('i', 'vii', 'ix', 'x', 'xi'), 1547, 924, (-5.0, 0.01), 'nu=1 >= 1'),
    'viii': (('viii', 'ix', 'x'), 1547, 119, (-0.1872729152728585, 0.01), 'nu=0 for x != theta'),
    'viii-theta': (('i', 'viii', 'ix'), 1547, 7, (0.0, 0.01), 'nu(theta,t)=0.90909090909090917 != 0'),
    'ix': (('i', 'ix'), 9282, 6699, (-5.0, -2.0, 0.01), 'nu(cx,t)=0.99904852521408183 != nu(x,t/|c|)=0.99909173478655766'),
    'x': (('i', 'ix', 'x'), 28224, 3608, (-5.0, -5.0, 0.01, 0.01), 'tconorm(nu,nu)=0.99960015993602558 < nu(x+y,s+t)=0.99980003999200162'),
    'xi': (('i', 'ix', 'x', 'xi', 'xvi'), 2431, 220, (-5.0,), 'nu ladder limit 0.83333333333333337 != 0'),
    'xi-step': (('i', 'ix', 'x', 'xi', 'xvi'), 2431, 220, (-5.0, 1.0, 2.0), 'nu not non-increasing in t'),
    'xii': (('xii',), 82, 78, (0.05,), 'a*a=0.0025000000000000005 != a'),
    'xiii': (('xiii', 'xiv'), 220, 220, (-5.0,), 'mu(x,t) > 0 at every sampled t yet x != theta (condition as written)'),
    'xiv': (('xiii', 'xiv'), 220, 220, (-5.0,), 'nu(x,t) < 1 at every sampled t yet x != theta (condition as written)'),
    'xv': (('iv', 'v', 'ix', 'x', 'xv', 'xvi'), 2200, 220, (-5.0, 1.0, 2.0), 'mu(1.0)=0.16666666666666666 !< mu(2.0)=0.16666666666666666'),
    'xvi': (('i', 'ix', 'x', 'xvi'), 2200, 220, (-5.0, 1.0, 2.0), 'nu(1.0)=0.83333333333333337 !> nu(2.0)=0.83333333333333337'),
}


@pytest.mark.parametrize("case", list(AXIOM_PINS))
def test_each_axiom_condition_is_pinned(case):
    space, forcing = _axiom_violators()[case]
    report = check_ifn_axioms(space, "strict", default_plan(1, 0), forcing)
    res = report.result(case.split("-")[0])
    first = res.violations[0]
    assert (report.violated(), res.checked, res.total_violations, first.point, first.detail) == (
        AXIOM_PINS[case]
    )
