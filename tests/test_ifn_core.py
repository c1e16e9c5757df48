import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifncheck import ifn_core
from ifncheck.catalog import broken_spaces
from ifncheck.config_schema import build_plan
from ifncheck.errors import AxiomFailure, DomainError, InvalidParameter, UnknownTag
from ifncheck.ifn_core import (
    LIMIT_TOL,
    ClassicalNorm,
    IFNSpace,
    check_ifn_axioms,
    custom_membership,
    make_example_family,
    make_standard_space,
    membership_radius,
    standard_mu,
    standard_nu,
)
from ifncheck.norm_algebra import TriangularConorm, TriangularNorm
from ifncheck.point_convergence import _p_window_scan, classical_equivalence_probe, reciprocal_sequence
from ifncheck.sampling import DEFAULT_T_GRID, DEFAULT_T_LADDER, SamplingPlan, default_plan, product_grid


def memberships_at(space: IFNSpace, x, t) -> tuple[float, float]:
    """(mu, nu) of `space` at one point x and one time t."""
    return tuple(float(v[0]) for v in space.memberships(np.reshape(x, (1, -1)), t))


class TestStandardSpace:
    def test_simple_values(self):
        sp = make_standard_space(1.0)
        assert memberships_at(sp, 1.0, 1.0) == (0.5, 0.5)

    def test_k2_substitution(self):
        sp = make_standard_space(2.0)
        assert memberships_at(sp, 3.0, 4.0) == pytest.approx((0.4, 0.6))

    def test_origin_boundary(self):
        sp = make_standard_space(3.7)
        for t in (0.01, 1.0, 50.0):
            assert memberships_at(sp, 0.0, t) == (1.0, 0.0)

    def test_invalid_k(self):
        with pytest.raises(InvalidParameter):
            make_standard_space(0.0)
        with pytest.raises(InvalidParameter):
            make_standard_space(-1.0)

    def test_mu_plus_nu_is_one_to_one_ulp(self):
        # the pair shares a denominator, so the sum is 1 up to the single
        # rounding of each division (bitwise equality is unattainable)
        sp = make_standard_space(0.5, dimension=3, norm="euclidean")
        pts = np.array([[1.0, -2.0, 0.5], [0.1, 0.0, 4.0], [3.3, 1.7, -0.2]])
        for t in (0.1, 1.0, 10.0):
            total = sp.mu_many(pts, t) + sp.nu.eval(pts, t)
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


_SMALL_NORM_DIMS = [("absolute-value", 1)] + [
    (family, d) for family in ("euclidean", "max-coordinate") for d in range(1, 5)
]


@pytest.mark.parametrize("family, d", _SMALL_NORM_DIMS)
def test_memberships_at_dyadic_multiples_are_those_at_divided_times(family, d):
    # ||c x|| = |c| ||x|| and t + k |c| ||x|| = |c| (t / |c| + k ||x||) hold
    # exactly for c = +-2^m away from overflow and underflow, so both
    # memberships agree bit for bit
    rng = np.random.default_rng(d)
    pts = rng.uniform(-1.0, 1.0, (64, d)) * 10.0 ** rng.integers(-3, 4, (64, 1))
    pts[0] = 0.0
    for k in (1.0, 1.7):
        sp = make_standard_space(k, family, dimension=d, verify=False)
        for m, sign, t in itertools.product(range(-6, 7), (-1.0, 1.0), DEFAULT_T_GRID):
            c = sign * 2.0**m
            for lhs, rhs in zip(sp.memberships(c * pts, t), sp.memberships(pts, t / abs(c))):
                assert lhs.tobytes() == rhs.tobytes(), (k, m, sign, t)


@given(
    k=st.floats(0.1, 10.0),
    family_d=st.sampled_from([(f, d) for f, d in _SMALL_NORM_DIMS if d <= 3]),
    m=st.integers(-6, 6),
    width=st.sampled_from([5.0, 1e6, 1e17]),
    ladder=st.sampled_from([DEFAULT_T_LADDER, (10.0, 100.0)]),
    seed=st.integers(0, 1000),
    forcing=st.booleans(),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_axiom_counts_are_invariant_under_dyadic_scaling_of_k_and_times(
    k, family_d, m, width, ladder, seed, forcing
):
    # at (c k, c t) with c = 2^m every membership value is the same float, and
    # c (s + t) = c s + c t, so each axiom checks and fails the same tuples;
    # wide grids (nu rounds to 1) and short ladders make some of them fail
    family, d = family_d
    c = 2.0**m
    grid = product_grid(np.linspace(-width, width, 9), d)
    plan = SamplingPlan(grid, random_count=50, seed=seed, t_infinity_ladder=ladder, random_halfwidth=width)
    scaled_plan = SamplingPlan(
        plan.vector_grid,
        tuple(c * t for t in plan.t_grid),
        plan.random_count,
        plan.seed,
        tuple(c * t for t in plan.t_infinity_ladder),
        plan.random_halfwidth,
    )

    def counts(s, p):
        rep = check_ifn_axioms(
            make_standard_space(s * k, family, d, verify=False), plan=p, include_forcing_conditions=forcing
        )
        return [(res.roman, res.checked, res.total_violations) for res in rep.results]

    assert counts(c, scaled_plan) == counts(1.0, plan)


def half_limit_space(dimension: int = 1) -> IFNSpace:
    """mu = t/(2t + |x_1|) and nu = |x_1|/(2t + |x_1|) on the first
    coordinate, a custom pair: a ladder limit of 1/2, not 1."""
    mu = custom_membership(lambda p, t: t / (2 * t + np.abs(p[:, 0])))
    nu = custom_membership(lambda p, t: np.abs(p[:, 0]) / (2 * t + np.abs(p[:, 0])))
    ops = TriangularNorm("minimum"), TriangularConorm("maximum")
    return IFNSpace(dimension, mu, nu, *ops, axiom_tier="core")


def constant_pair_space(mu_value: float, nu_value: float) -> IFNSpace:
    """A space whose memberships take one fixed value everywhere, to place
    each side of the demand exactly on its boundary."""

    def constant(value):
        return lambda pts, t: np.broadcast_to(value, np.broadcast_shapes(np.shape(t), (len(pts),)))

    return IFNSpace(
        dimension=1,
        mu=custom_membership(constant(mu_value)),
        nu=custom_membership(constant(nu_value)),
        tnorm=TriangularNorm("minimum"),
        tconorm=TriangularConorm("maximum"),
    )


def _fields(space) -> dict:
    """The config fields of a space, as `build_space` reads them; k and
    the norm only for the standard pair."""
    out = {
        "family": space.family,
        "dimension": space.dimension,
        "tnorm": space.tnorm.family,
        "tconorm": space.tconorm.family,
        "tier": space.axiom_tier,
    }
    if space.standard_pair:
        out |= {"k": space.k, "norm": space.norm.family}
    return out


def test_a_standard_pair_built_directly_is_the_standard_family():
    # the family, k and norm are read from the pair, so a space built
    # without make_standard_space gets the closed-form radius, fields and
    # classical probe of the family
    one = make_standard_space(1.0)
    direct = IFNSpace(1, one.mu, one.nu, one.tnorm, one.tconorm)
    assert direct.standard_pair and _fields(direct) == _fields(one)
    assert membership_radius(direct, 0.5, 1.0) == 1.0
    assert classical_equivalence_probe(direct, reciprocal_sequence(), 0.0).agree
    three = make_standard_space(2.0, dimension=3, norm="max-coordinate")
    direct = IFNSpace(3, three.mu, three.nu, three.tnorm, three.tconorm)
    assert (direct.family, direct.k, direct.norm) == ("standard", 2.0, three.norm)
    # a pair of two k is not the standard family
    mixed = IFNSpace(1, one.mu, standard_nu(2.0, one.norm), one.tnorm, one.tconorm)
    assert (mixed.standard_pair, mixed.family, mixed.k, mixed.norm) == (False, "custom", None, None)
    assert _fields(mixed) == {
        "family": "custom", "dimension": 1, "tnorm": "minimum", "tconorm": "maximum", "tier": "strict"
    }


def test_a_standard_pair_of_two_equal_norms_is_the_standard_family():
    # norms are compared by family, not by object: two equal norms built
    # apart make the standard pair, two different families do not
    ops = (TriangularNorm("minimum"), TriangularConorm("maximum"))
    apart = IFNSpace(
        1, standard_mu(1.0, ClassicalNorm("absolute-value")),
        standard_nu(1.0, ClassicalNorm("absolute-value")), *ops,
    )
    assert (apart.family, apart.k, apart.norm.family) == ("standard", 1.0, "absolute-value")
    assert membership_radius(apart, 0.5, 1.0) == 1.0
    assert classical_equivalence_probe(apart, reciprocal_sequence(), 0.0).agree
    mixed = IFNSpace(
        2, standard_mu(1.0, ClassicalNorm("euclidean")),
        standard_nu(1.0, ClassicalNorm("max-coordinate")), *ops,
    )
    assert (mixed.family, mixed.norm) == ("custom", None)


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
        assert sum(memberships_at(space, 1.0, 1.0)) > 1.0

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
        # of `eval`: the fused standard pair, and custom pairs, which take
        # one `eval` per column; a 7-point axis (origin included) keeps
        # d = 4 affordable
        axis = np.linspace(-5.0, 5.0, 7)
        plan = SamplingPlan(product_grid(axis, d, seed), random_count=50, seed=seed)
        P = plan.points()

        def assert_blocks_match(space):
            for ts in (plan.all_t(), np.add.outer(plan.t_grid, plan.t_grid).ravel()):
                blocks = space.memberships(P, ts.reshape(-1, 1))
                for block, fn in zip(blocks, (space.mu, space.nu)):
                    assert np.array_equal(block, np.stack([fn.eval(P, t) for t in ts]))

        # the half-limit pair and, on the line, the six broken spaces
        custom = [half_limit_space(d)]
        if d == 1:
            custom += [space for space, _ in broken_spaces().values()]
        for space in custom:
            assert_blocks_match(space)
        for ops in (("minimum", "maximum"), ("product", "probabilistic-sum")):
            sp = make_standard_space(1.5, dimension=d, ops=ops, tier="core", verify=False)
            # the same closed forms behind custom tags, at a time column at
            # once and one time at a time
            at_once = IFNSpace(d, custom_membership(sp.mu.eval), custom_membership(sp.nu.eval), sp.tnorm, sp.tconorm)
            per_t = _per_time(sp)
            for space in (sp, at_once, per_t):
                assert_blocks_match(space)
            tiers = itertools.product(("core", "idempotent", "strict"), (False, True))
            for tier, forcing in tiers:
                fast = check_ifn_axioms(sp, tier, plan, forcing)
                slow = check_ifn_axioms(per_t, tier, plan, forcing)
                assert fast.results == slow.results


class TestLimitAtInfinity:
    """The t -> oo ladder limits that conditions (vi)/(xi) check, read from
    one `memberships` call over the ladder column."""

    @staticmethod
    def ladder(space: IFNSpace, x, plan: SamplingPlan) -> tuple[np.ndarray, np.ndarray]:
        column = np.reshape(plan.t_infinity_ladder, (-1, 1))
        return tuple(v[:, 0] for v in space.memberships(np.array([[x]]), column))

    def test_standard_converges(self):
        plan = default_plan(1, seed=0)
        mus, nus = self.ladder(make_standard_space(1.0), 1.0, plan)
        assert abs(mus[-1] - mus[-2]) < LIMIT_TOL and mus[-1] > 1.0 - LIMIT_TOL
        assert abs(nus[-1] - nus[-2]) < LIMIT_TOL and nus[-1] < LIMIT_TOL

    def test_origin_immediate(self):
        mus, nus = self.ladder(make_standard_space(2.0), 0.0, default_plan(1, seed=0))
        assert np.all(mus == 1.0) and np.all(nus == 0.0)

    def test_pathological_limit_fails(self):
        # mu(x,t) = t/(2t + |x|): ladder limit is 1/2, not 1
        plan = default_plan(1, seed=0)
        bad = half_limit_space()
        mus, _ = self.ladder(bad, 1.0, plan)
        assert mus[-1] == pytest.approx(0.5, abs=1e-3)
        report = check_ifn_axioms(bad, tier="core", plan=plan)
        assert "vi" in report.violated()

    def test_ladder_matches_per_t_loop(self):
        # one `memberships` call over the ladder column against a per-t
        # loop of `mu.eval`/`nu.eval`, bit for bit
        plan = default_plan(1, seed=0)
        spaces = (make_standard_space(2.0), broken_spaces()["vi"][0], half_limit_space())
        for space, x in itertools.product(spaces, (0.0, 1.0, -3.5, 1e-9)):
            mus, nus = self.ladder(space, x, plan)
            pt = np.array([[x]])
            ladder = plan.t_infinity_ladder
            assert mus.tolist() == [float(space.mu.eval(pt, t)[0]) for t in ladder]
            assert nus.tolist() == [float(space.nu.eval(pt, t)[0]) for t in ladder]


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
        assert _fields(sp) == {
            "family": "standard",
            "dimension": 3,
            "tnorm": "minimum",
            "tconorm": "maximum",
            "tier": "strict",
            "k": 2.0,
            "norm": "euclidean",
        }
        rebuilt = build_space(_fields(sp))
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
    mu, nu = memberships_at(sp, x, t)
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

    def overflows(block):
        # where the old t + k||x|| overflowed, nu read inf / inf = NaN at a
        # finite point; the kernel raises DomainError there instead
        with np.errstate(all="ignore", over="raise"):
            try:
                old_mu(k, family, block, t)
            except FloatingPointError:
                return True
        return False

    with np.errstate(all="ignore"):
        assert same(sp.norm(pts), old_norm(family, pts))
        if overflows(pts):
            for call in (sp.memberships, sp.mu_many, sp.nu.eval):
                with pytest.raises(DomainError, match="overflow binary64"):
                    call(pts, t)
        else:
            mu, nu = sp.memberships(pts, t)
            assert same(mu, old_mu(k, family, pts, t)) and same(nu, old_nu(k, family, pts, t))
            assert same(sp.mu_many(pts, t), mu) and same(sp.nu.eval(pts, t), nu)
            assert same(sp.within(pts, r, t), old_within(k, family, pts, r, t))
        if times == "scalar":
            if any(overflows(pts[p:] - pts[:-p]) for p in range(1, min(p_max, n - 1) + 1)):
                with pytest.raises(DomainError, match="overflow binary64"):
                    _p_window_scan(sp, pts, r, t, p_max)
            else:
                first, worst = _p_window_scan(sp, pts, r, t, p_max)
                old_first, old_worst = old_p_window_scan(k, family, pts, r, t, p_max)
                assert same(first, old_first) and same(worst, old_worst)


@pytest.mark.parametrize("family, d", _SMALL_NORM_DIMS)
@given(
    k=st.one_of(st.sampled_from([0.5, 3.0]), st.floats(1e-3, 1e3)),
    n=st.one_of(st.integers(1, 4), st.just(32), st.integers(33, 60)),
    times=st.sampled_from(["scalar", "per-point", "column"]),
    overflow=st.booleans(),
    data=st.data(),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_blocked_standard_evaluation_matches_one_block(family, d, k, n, times, overflow, data):
    # with 4-point blocks an evaluation of more than 8 blocks (n >= 33) runs
    # block by block: each value is bit for bit the one-block evaluation of
    # its slice, and an overflow names the same first point
    block = 4
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, (n, d)) * 10.0 ** rng.integers(-5, 6, (n, 1))
    if overflow:
        # k||x|| overflows at a coordinate of float max where k > 1 or the
        # norm is euclidean; the rows lie past the first block where n allows
        rows = data.draw(st.sets(st.integers(min(block, n - 1), n - 1), min_size=1, max_size=2))
        for i in rows:
            pts[i, data.draw(st.integers(0, d - 1))] = np.finfo(float).max
    t = data.draw(st.floats(1e-3, 1e3))
    if times == "per-point":
        t = rng.uniform(1e-3, 1e3, n)
    elif times == "column":
        t = rng.uniform(1e-3, 1e3, (data.draw(st.integers(1, 3)), 1))
    sp = make_standard_space(k, family, dimension=d, verify=False)
    calls = {
        "mu.eval": sp.mu.eval,
        "nu.eval": sp.nu.eval,
        "mu_many": sp.mu_many,
        "memberships": lambda p, s: np.stack(sp.memberships(p, s)),
    }

    def outcome(call, p, s):
        try:
            return call(p, s)
        except DomainError as exc:
            return str(exc)

    def same(a, b):
        if isinstance(a, str) or isinstance(b, str):
            return a == b
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    for name, call in calls.items():
        whole = outcome(call, pts, t)
        parts = [
            outcome(call, pts[i : i + block], t[..., i : i + block] if times == "per-point" else t)
            for i in range(0, n, block)
        ]
        errors = [part for part in parts if isinstance(part, str)]
        sliced = errors[0] if errors else np.concatenate(parts, axis=-1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ifn_core, "_BLOCK_POINTS", block)
            blocked = outcome(call, pts, t)
        assert same(blocked, whole) and same(blocked, sliced), (name, blocked, whole)


def _per_time(space: IFNSpace) -> IFNSpace:
    """`space` with each membership a custom one that evaluates a (T, 1)
    column of times one time at a time, by a loop over `eval`."""

    def per_time(f):
        def fn(pts, t):
            return np.stack([f.eval(pts, s) for s in np.ravel(t)]) if np.ndim(t) == 2 else f.eval(pts, t)

        return custom_membership(fn)

    return IFNSpace(space.dimension, per_time(space.mu), per_time(space.nu), space.tnorm, space.tconorm,
                    space.axiom_tier)


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
    theta, or a step against monotonicity in t (at t = 2); a `-both` case
    reaches both clauses, whose order its first witness pins."""
    broken = {roman: space for roman, (space, _) in broken_spaces().items()}
    std = make_standard_space(1.0, verify=False)

    def at_two(t):
        return np.where(np.asarray(t) == 2.0, 3.0, 1.0)

    return {
        "i": (broken["i"], False),
        "ii": (_pair_space(mu=lambda p, t: np.where(_abs1(p) >= 2.0, 0.0, t / (t + _abs1(p)))), False),
        "iii": (_pair_space(mu=lambda p, t: np.where(_abs1(p) < 0.5, 1.0, t / (t + _abs1(p)))), False),
        "iii-theta": (_pair_space(mu=lambda p, t: t / (t + _abs1(p) + 0.1)), False),
        "iii-both": (_pair_space(mu=lambda p, t: np.where((_abs1(p) > 0.0) & (_abs1(p) < 0.5), 1.0, t / (t + _abs1(p) + 0.1))), False),
        "iv": (broken["iv"], False),
        "v": (broken["v"], False),
        "vi": (broken["vi"], False),
        "vi-step": (_pair_space(mu=lambda p, t: t / (t + _abs1(p) * at_two(t))), False),
        "vi-both": (_pair_space(mu=lambda p, t: t / (2.0 * t + _abs1(p) * at_two(t))), False),
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
    'iii-both': (('i', 'iii', 'iv', 'v'), 1547, 126, (0.0, 0.01), 'mu(theta,t)=0.090909090909090912 != 1'),
    'iv': (('iv', 'ix'), 9282, 6699, (-5.0, -2.0, 0.01), 'mu(cx,t)=0.00095147478591817321 != mu(x,t/|c|)=0.00090826521344232523'),
    'v': (('iv', 'v', 'ix', 'x'), 28224, 3608, (-5.0, -5.0, 0.01, 0.01), 'tnorm(mu,mu)=0.00039984006397441024 > mu(x+y,s+t)=0.00019996000799840034'),
    'vi': (('vi',), 2431, 220, (-5.0,), 'mu ladder limit 0.49999999999875 != 1'),
    'vi-step': (('iv', 'v', 'vi', 'xv'), 2431, 220, (-5.0, 1.0, 2.0), 'mu not non-decreasing in t'),
    'vi-both': (('iii', 'iv', 'v', 'vi', 'xv'), 2431, 441, (-5.0, 1.0, 2.0), 'mu not non-decreasing in t'),
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


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_axiom_reports_do_not_depend_on_broadcasting(seed):
    # every violator (the six broken spaces among them) with one `eval` per
    # time column and with one per time; a standard pair takes its fused
    # path either way
    plan = default_plan(1, seed)
    for case, (space, forcing) in _axiom_violators().items():
        on, off = (
            repr(check_ifn_axioms(s, "strict", plan, forcing))
            for s in (space, space if space.standard_pair else _per_time(space))
        )
        assert on == off, case


def test_a_custom_pair_that_does_not_broadcast_is_rejected():
    # values of shape (N,) at a (T, 1) column of times name both shapes,
    # where numpy's own error once escaped from the axiom checker
    std = make_standard_space(1.0, verify=False)
    flat = custom_membership(lambda p, t: np.abs(p[:, 0]) / (np.max(t) + np.abs(p[:, 0])))
    plan = default_plan(1, 0)
    space = IFNSpace(1, std.mu, flat, std.tnorm, std.tconorm)
    with pytest.raises(InvalidParameter, match=r"^nu gave values of shape \(221,\), not \(11, 221\)$"):
        check_ifn_axioms(space, "strict", plan)
    mu_flat = IFNSpace(1, flat, std.nu, std.tnorm, std.tconorm)
    with pytest.raises(InvalidParameter, match=r"^mu gave values of shape \(3,\), not \(2, 3\)$"):
        mu_flat.memberships(np.zeros((3, 1)), np.ones((2, 1)))
    # a scalar or per-point time gives (N,) values, which it may
    assert mu_flat.within(np.zeros((3, 1)), 0.5, 1.0).shape == (3,)
    assert mu_flat.within(np.zeros((3, 1)), 0.5, np.ones(3)).shape == (3,)


def _axiom_outcome(space: IFNSpace, plan: SamplingPlan, forcing: bool, block: int) -> str:
    """`repr` of the strict-tier report with the checker's point blocks
    patched to `block` points, or the error it raised, in the errstate of a
    config run."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="raise", invalid="raise", divide="raise"):
        mp.setattr(ifn_core, "_AXIOM_POINTS", block)
        try:
            return repr(check_ifn_axioms(space, "strict", plan, forcing))
        except (DomainError, FloatingPointError) as exc:
            return f"{type(exc).__name__}: {exc}"


@given(block=st.integers(2, 240), seed=st.integers(0, 2**16))
@settings(max_examples=3, deadline=None, derandomize=True)
def test_blocked_axiom_checks_of_the_violators_match_one_block(block, seed):
    # every violator, with and without the forcing conditions: counts,
    # `checked`, and the witnesses and their order, for blocks from two
    # points up to the whole line plan
    plan = default_plan(1, seed)
    n_pts = len(plan.points())
    for case, (space, _) in _axiom_violators().items():
        for forcing in (False, True):
            whole = _axiom_outcome(space, plan, forcing, n_pts)
            assert _axiom_outcome(space, plan, forcing, block) == whole, (case, forcing)


@given(
    d=st.integers(1, 4),
    k=st.one_of(st.sampled_from([0.5, 1.0, 3.0]), st.floats(1e-2, 1e2)),
    seed=st.integers(0, 2**16),
    parts=st.integers(2, 9),
    halfwidth=st.sampled_from([5.0, 5.0, 1e154, 6e307, 8e307]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_blocked_standard_axiom_checks_match_one_block(d, k, seed, parts, halfwidth, data):
    # standard spaces on config plans split into 2..9 blocks, with halfwidths
    # at which k||x||, sums of points or scaled points overflow: a block may
    # not raise an error that one block over all points raises later
    family = data.draw(st.sampled_from(["absolute-value", "max-coordinate"] if d == 1 else ["euclidean", "max-coordinate"]))
    space = make_standard_space(k, family, dimension=d, verify=False)
    plan = build_plan({"grid_halfwidth": halfwidth}, d, seed)
    n_pts = len(plan.points())
    whole = _axiom_outcome(space, plan, True, n_pts)
    assert _axiom_outcome(space, plan, True, -(-n_pts // parts)) == whole


def _scaling_by_loop(space: IFNSpace, plan: SamplingPlan) -> dict:
    """(iv)/(ix) as (checked, total_violations, witnesses), from one
    `mu.eval` or `nu.eval` per scalar and time: scalars in SCALING_SCALARS
    order, times ascending, points in plan order, and the first
    _MAX_WITNESSES witnesses as (point, detail)."""
    P, cap = plan.points(), ifn_core._MAX_WITNESSES
    out = {}
    for roman, name, fn in (("iv", "mu", space.mu), ("ix", "nu", space.nu)):
        checked, total, witnesses = 0, 0, []
        for c in ifn_core.SCALING_SCALARS:
            for t in sorted(plan.t_grid):
                lhs, rhs = fn.eval(c * P, t), fn.eval(P, t / abs(c))
                bad = np.flatnonzero(np.abs(lhs - rhs) > ifn_core.EQUALITY_TOL)
                checked, total = checked + len(P), total + len(bad)
                witnesses += [
                    (
                        (*map(float, P[p]), c, t),
                        f"{name}(cx,t)={lhs[p]:.17g} != {name}(x,t/|c|)={rhs[p]:.17g}",
                    )
                    for p in bad[: cap - len(witnesses)]
                ]
        out[roman] = (checked, total, witnesses)
    return out


@pytest.mark.parametrize("seed", [0, 3])
def test_scaling_conditions_match_a_per_scalar_loop(seed):
    # the six broken spaces, and standard spaces up to d = 3: counts and the
    # first witnesses in per-scalar, then (t, p), order
    spaces = [(space, 1) for space, _ in broken_spaces().values()]
    spaces += [(make_standard_space(k, dimension=d, verify=False), d) for d in (1, 2, 3) for k in (0.5, 3.0)]
    for space, d in spaces:
        plan = default_plan(d, seed)
        report = check_ifn_axioms(space, "strict", plan)
        for roman, expected in _scaling_by_loop(space, plan).items():
            res = report.result(roman)
            got = (res.checked, res.total_violations, [(v.point, v.detail) for v in res.violations])
            assert got == expected, (space.signature(), roman)


@pytest.fixture
def construction_checks(monkeypatch):
    """An empty construction-check memo, and the spaces that
    `make_standard_space` checks from here on."""
    monkeypatch.setattr(ifn_core, "_VERIFIED", set())
    checked = []
    check = ifn_core.check_ifn_axioms

    def counting(space, *args, **kwargs):
        checked.append(space)
        return check(space, *args, **kwargs)

    monkeypatch.setattr(ifn_core, "check_ifn_axioms", counting)
    return checked


class TestConstructionCheckMemo:
    def test_one_check_per_space(self, construction_checks):
        make_standard_space(1.0)
        make_standard_space(1.0)
        assert len(construction_checks) == 1
        make_standard_space(3.0)
        assert len(construction_checks) == 2

    def test_a_failing_check_is_never_remembered(self, construction_checks):
        for _ in range(2):
            with pytest.raises(AxiomFailure):
                make_standard_space(1.0, ops=("product", "probabilistic-sum"), tier="strict")
        assert len(construction_checks) == 2
