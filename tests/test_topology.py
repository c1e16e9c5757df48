import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifncheck.continuity import make_map, rule
from ifncheck.errors import DomainError, NotFound, UnsupportedFamily, WitnessNotFound
from ifncheck.ifn_core import (
    IFNSpace,
    custom_membership,
    make_standard_space,
    membership_radius,
)
from ifncheck.norm_algebra import TriangularConorm, TriangularNorm, tconorm, tnorm
from ifncheck.sampling import Interval, SamplingPlan, as_point
from ifncheck.topology import (
    _BALL_FRACTIONS,
    _FROM_ONE,
    SEARCH_RESOLUTION,
    OpenBall,
    SampledSet,
    ball_classical_radius,
    ball_contains,
    ball_contains_many,
    inner_ball_witness,
    inner_ball_witnesses,
    preimage_open_check,
    sample_in_ball,
    set_is_open_sampled,
    verify_containment,
    _bisect,
)


@pytest.fixture(scope="module")
def std():
    return make_standard_space(1.0)


@pytest.fixture(scope="module")
def unit_ball(std):
    return OpenBall(np.array([0.0]), 0.5, 1.0)


class TestBallMembership:
    def test_interior_point(self, std, unit_ball):
        # mu(0.5, 1) = 1/1.5 > 0.5
        assert ball_contains(std, unit_ball, 0.5)

    def test_center_always_inside(self, std, unit_ball):
        assert ball_contains(std, unit_ball, 0.0)

    def test_classical_boundary_excluded(self, std, unit_ball):
        # mu(1, 1) = 0.5 exactly: both defining inequalities are strict
        assert not ball_contains(std, unit_ball, 1.0)

    def test_dimension_mismatch(self, std, unit_ball):
        with pytest.raises(Exception):
            ball_contains(std, unit_ball, [1.0, 2.0])


class TestClassicalRadius:
    def test_values(self, unit_ball):
        assert ball_classical_radius(make_standard_space(1.0), unit_ball) == 1.0
        assert ball_classical_radius(make_standard_space(2.0), unit_ball) == 0.5

    def test_monotone_in_r(self, std):
        radii = [
            ball_classical_radius(std, OpenBall(np.array([0.0]), r, 1.0))
            for r in (0.1, 0.2, 0.4, 0.8)
        ]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_cross_oracle_equality(self, std, unit_ball):
        # membership test agrees with the classical-radius predicate
        rho = ball_classical_radius(std, unit_ball)
        ys = np.linspace(-2.0, 2.0, 401).reshape(-1, 1)
        member = ball_contains_many(std, unit_ball, ys)
        classical = np.abs(ys[:, 0]) < rho
        np.testing.assert_array_equal(member, classical)

    @pytest.mark.parametrize(
        "k, r, t",
        [(1.0, 0.75, 1e308), (1e-300, 0.5, 2.5e8), (1.0, 1.0 - 2.0**-53, 2.8e292)],
        ids=["large-t", "small-k", "r-near-1"],
    )
    def test_radius_past_binary64_is_a_domain_error(self, k, r, t):
        # r t / (k (1 - r)) is past 1.8e308, so inf in binary64; half of it is not
        space = make_standard_space(k, verify=False)
        assert np.isfinite(ball_classical_radius(space, OpenBall(np.array([0.0]), r, t / 2.0)))
        with pytest.raises(DomainError, match="overflows binary64"):
            ball_classical_radius(space, OpenBall(np.array([0.0]), r, t))

    def test_unsupported_family(self, unit_ball):
        from ifncheck.catalog import broken_spaces

        bad, _ = broken_spaces()["v"]
        with pytest.raises(UnsupportedFamily):
            ball_classical_radius(bad, unit_ball)


class TestInnerBallWitness:
    def test_worked_construction(self, std, unit_ball):
        # y = 0.2: t0 = 1/2, r0 = mu(0.2, 0.5) = 5/7, inner radius 1 - r0
        inner = inner_ball_witness(std, unit_ball, 0.2)
        assert inner.t == 0.5
        assert inner.r == pytest.approx(1.0 - 0.5 / 0.7, abs=1e-12)
        assert verify_containment(std, inner, unit_ball, 1000) == 1.0

    def test_center_witness(self, std, unit_ball):
        inner = inner_ball_witness(std, unit_ball, 0.0)
        assert 0.0 < inner.r < 1.0
        assert verify_containment(std, inner, unit_ball, 1000) == 1.0

    def test_near_boundary_witness(self, std, unit_ball):
        rho = ball_classical_radius(std, unit_ball)
        inner = inner_ball_witness(std, unit_ball, 0.99 * rho)
        assert verify_containment(std, inner, unit_ball, 1000) == 1.0
        # the construction shrinks the time parameter toward the boundary
        assert inner.t < unit_ball.t

    def test_non_idempotent_ops_take_bisection_route(self, unit_ball):
        space = make_standard_space(1.0, ops=("product", "probabilistic-sum"), tier="core")
        inner = inner_ball_witness(space, unit_ball, 0.2)
        assert verify_containment(space, inner, unit_ball, 1000) == 1.0

    def test_broken_operation_pair_has_no_r3(self, unit_ball):
        zero = TriangularNorm("tabulated", np.zeros((2, 2)))
        space = make_standard_space(1.0, ops=(zero, "maximum"), tier="core", verify=False)
        with pytest.raises(WitnessNotFound, match="no admissible r3; operation pair is broken"):
            inner_ball_witness(space, unit_ball, 0.2)

    def test_requires_membership(self, std, unit_ball):
        with pytest.raises(DomainError):
            inner_ball_witness(std, unit_ball, 5.0)

    def test_sampled_points_are_inside(self, std, unit_ball):
        pts = sample_in_ball(std, unit_ball, 200)
        assert len(pts) > 0
        assert bool(np.all(ball_contains_many(std, unit_ball, pts)))


# The bisection's other start: just above 0, searching upward
_FROM_ZERO = (1e-12, 1.0)


class TestBisect:
    """`_bisect` on the operation-pair searches of the open-ball lemmas:
    r3 with r1 * r3 > r2 from 1 downward (as the inner-ball construction
    searches), r4 with r4 (+) r2 < r1 from 0 upward, and the squaring
    bounds r6 * r6 >= r5 and r7 (+) r7 <= r5."""

    def test_min_max_interpolants(self):
        tn, tc = tnorm("minimum"), tconorm("maximum")
        r3 = _bisect(lambda x: float(tn(0.7, x)) > 0.5, *_FROM_ONE)
        r4 = _bisect(lambda x: float(tc(x, 0.5)) < 0.7, *_FROM_ZERO)
        assert 0.0 < r3 < 1.0 and 0.0 < r4 < 1.0
        assert float(tn(0.7, r3)) > 0.5
        assert float(tc(r4, 0.5)) < 0.7

    def test_product_probsum_interpolants(self):
        tn, tc = tnorm("product"), tconorm("probabilistic-sum")
        r3 = _bisect(lambda x: float(tn(0.9, x)) > 0.5, *_FROM_ONE)
        r4 = _bisect(lambda x: float(tc(x, 0.5)) < 0.9, *_FROM_ZERO)
        assert 0.9 * r3 > 0.5  # any admissible r3 exceeds 5/9
        assert r3 > 5.0 / 9.0 - 1e-6
        assert float(tc(r4, 0.5)) < 0.9

    def test_degenerate_near_tie(self):
        tn, tc = tnorm("minimum"), tconorm("maximum")
        r3 = _bisect(lambda x: float(tn(0.500001, x)) > 0.5, *_FROM_ONE)
        r4 = _bisect(lambda x: float(tc(x, 0.5)) < 0.500001, *_FROM_ZERO)
        assert float(tn(0.500001, r3)) > 0.5
        assert float(tc(r4, 0.5)) < 0.500001

    def test_deterministic(self):
        tn = tnorm("lukasiewicz")
        runs = [_bisect(lambda x: float(tn(0.8, x)) > 0.3, *_FROM_ONE) for _ in range(2)]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "tn, tc, r5, r6, r7",
        [
            ("minimum", "maximum", 0.8, 0.8, 0.8),
            ("product", "probabilistic-sum", 0.81, 0.9, None),
            ("lukasiewicz", "maximum", 0.5, 0.75, None),
        ],
    )
    def test_squaring_bounds(self, tn, tc, r5, r6, r7):
        tn, tc = tnorm(tn), tconorm(tc)
        found6 = _bisect(lambda x: float(tn(x, x)) >= r5, *_FROM_ONE)
        found7 = _bisect(lambda x: float(tc(x, x)) <= r5, *_FROM_ZERO)
        assert abs(found6 - r6) <= 2e-6 and float(tn(found6, found6)) >= r5
        assert float(tc(found7, found7)) <= r5
        if r7 is not None:
            assert abs(found7 - r7) <= 2e-6

    def test_broken_op_not_found(self):
        # a constant-zero "t-norm" admits no r3: the search fails at its start
        broken = TriangularNorm("tabulated", np.zeros((11, 11)))
        with pytest.raises(NotFound, match="fails at its start"):
            _bisect(lambda x: float(broken(0.7, x)) > 0.5, *_FROM_ONE)


@given(r1=st.floats(min_value=0.05, max_value=0.95), gap=st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=40, deadline=None)
def test_bisection_is_admissible_within_the_resolution(r1, gap):
    # the value returned holds, and one SEARCH_RESOLUTION further on fails
    r2 = r1 * (1.0 - gap)
    for tn_family, tc_family in (("minimum", "maximum"), ("product", "probabilistic-sum")):
        tn, tc = tnorm(tn_family), tconorm(tc_family)
        for pred, start, step in (
            (lambda x: float(tn(r1, x)) > r2, _FROM_ONE, -SEARCH_RESOLUTION),
            (lambda x: float(tc(x, r2)) < r1, _FROM_ZERO, SEARCH_RESOLUTION),
        ):
            found = _bisect(pred, *start)
            assert pred(found) and not pred(found + step)


def reference_sample_in_ball(space, ball, n, seed):
    """The per-ball sample of `sample_in_ball`, drawn as one ball at a time."""
    rho = membership_radius(space, ball.r, ball.t)
    d = space.dimension
    rng = np.random.default_rng((seed, 31))
    dirs = [np.eye(d), -np.eye(d)]
    if n > 8 * d:
        extra = rng.normal(size=(max(8, n // len(_BALL_FRACTIONS)), d))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        dirs.append(extra)
    dirs = np.vstack(dirs)
    radii = rho * (1.0 - 1e-9) * np.asarray(_BALL_FRACTIONS)
    pts = (ball.center.reshape(1, 1, -1) + radii.reshape(-1, 1, 1) * dirs).reshape(-1, d)
    pts = pts[: max(n, 1)]
    return pts[ball_contains_many(space, ball, pts)]


def reference_inner_ball_witness(space, outer, y, verify_points=128, seed=0):
    """The one-member witness construction, scalar step by scalar step."""
    pt = as_point(y, space.dimension)
    if not ball_contains(space, outer, pt):
        raise DomainError("witness construction needs y inside the outer ball")
    x, r, t = outer.center, outer.r, outer.t
    diff = (x - pt).reshape(1, -1)

    t0 = None
    for j in range(1, 48):
        cand = t * (1.0 - 2.0 ** (-j))
        if space.within(diff, r, cand)[0]:
            t0 = cand
            break
    if t0 is None:
        raise WitnessNotFound("no admissible t0 below t; space violates its axioms")

    r0 = float(space.mu_many(diff, t0)[0])
    s = 1.0 - 0.5 * (r0 + (1.0 - r))
    tn, tc = space.tnorm, space.tconorm

    def admissible(x3: float) -> bool:
        return float(tn(r0, x3)) > 1.0 - s and float(tc(1.0 - r0, 1.0 - x3)) < s

    if tn.idempotent and tc.idempotent and r0 < 1.0 and admissible(r0):
        r3 = r0
    elif tn.idempotent and tc.idempotent and r0 >= 1.0:
        r3 = 1.0 - 0.5 * s
    else:
        try:
            r3 = _bisect(admissible, *_FROM_ONE)
        except NotFound as exc:
            raise WitnessNotFound("no admissible r3; operation pair is broken") from exc

    inner = OpenBall(pt, 1.0 - r3, t - t0)
    pts = reference_sample_in_ball(space, inner, verify_points, seed)
    frac = float(np.mean(ball_contains_many(space, outer, pts))) if len(pts) else 0.0
    if frac < 1.0:
        raise WitnessNotFound(
            f"containment post-verification failed ({frac:.3f} of sampled points inside)"
        )
    return inner


def _witness_spaces():
    from ifncheck.catalog import broken_spaces

    zero = TriangularNorm("tabulated", np.zeros((2, 2)))
    min_max = TriangularNorm("minimum"), TriangularConorm("maximum")

    def step(before, after):
        return custom_membership(
            lambda p, t: np.where(t >= 0.5, after, before) * np.ones(len(p)), radial=True
        )

    return {
        "min-max-d1": make_standard_space(1.0, verify=False),
        "min-max-d3": make_standard_space(2.0, dimension=3, verify=False),
        "bisection-d1": make_standard_space(
            1.0, ops=("product", "probabilistic-sum"), verify=False
        ),
        "bisection-d3": make_standard_space(
            0.5, dimension=3, ops=("lukasiewicz", "lukasiewicz"), verify=False
        ),
        "zero-tnorm": make_standard_space(1.0, ops=(zero, "maximum"), verify=False),
        # superadditive squared radius: some inner balls leave the outer one
        "broken-triangle": broken_spaces()["v"][0],
        # memberships jump at t = 1/2, so at t = 1/2 no t0 < t keeps y inside
        "step-in-t": IFNSpace(1, step(0.0, 1.0), step(1.0, 0.0), *min_max),
    }


@pytest.mark.parametrize("name", sorted(_witness_spaces()))
@pytest.mark.parametrize("r, t", [(0.3, 0.5), (0.7, 2.0)])
# 8 points use the coordinate directions only; at (8, 1) one broken-triangle
# ball has exactly one sampled point outside the outer ball
@pytest.mark.parametrize("verify_points, seed", [(8, 1), (128, 0), (1000, 3)])
def test_batched_witnesses_match_reference(name, r, t, verify_points, seed):
    space = _witness_spaces()[name]
    d = space.dimension
    center = np.zeros(d)
    center[0] = 0.5
    outer = OpenBall(center, r, t)
    rho = min(membership_radius(space, r, t), 50.0)
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(24, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scale = np.concatenate([rng.uniform(0.0, 0.98, 16), 1.0 - 10.0 ** -np.arange(3.0, 10.0)])
    members = np.vstack([center, center + dirs[: len(scale)] * (rho * scale)[:, None]])
    members = members[ball_contains_many(space, outer, members)]
    assert len(members) >= 20

    batch = inner_ball_witnesses(space, outer, members, verify_points, seed)
    assert len(batch) == len(members)
    for y, got in zip(members, batch):
        try:
            want = reference_inner_ball_witness(space, outer, y, verify_points, seed)
        except WitnessNotFound as exc:
            assert isinstance(got, WitnessNotFound) and str(got) == str(exc)
            with pytest.raises(WitnessNotFound, match=re.escape(str(exc))):
                inner_ball_witness(space, outer, y, verify_points, seed)
        else:
            assert isinstance(got, OpenBall)
            assert np.array_equal(got.center, want.center)
            assert (got.r, got.t) == (want.r, want.t)


def test_post_verification_where_the_probe_point_is_outside_its_ball():
    # memberships that are not monotone along rays: the inner ball around
    # y = 0, +-0.1 holds the points at distance [0.2, 1.5) from y, so its
    # innermost sampled points (the probe among them) are outside it and the
    # rest inside; the one around y = +-0.3 holds no point at all
    def ring(p, t):
        u = np.abs(p[:, 0])
        return np.select([u < 0.2, u < 1.5], [0.6, 0.9], 0.3)

    mu = custom_membership(ring, radial=True)
    nu = custom_membership(lambda p, t: 1.0 - ring(p, t), radial=True)
    space = IFNSpace(1, mu, nu, TriangularNorm("minimum"), TriangularConorm("maximum"))
    outer = OpenBall(np.array([0.0]), 0.75, 1.0)
    members = np.array([[0.1], [-0.1], [0.3], [-0.3], [0.0], [1.0]])
    batch = inner_ball_witnesses(space, outer, members, 128, 0)
    for y, got in zip(members, batch):
        try:
            want = reference_inner_ball_witness(space, outer, y, 128, 0)
        except WitnessNotFound as exc:
            assert isinstance(got, WitnessNotFound) and str(got) == str(exc)
        else:
            assert isinstance(got, OpenBall) and (got.r, got.t) == (want.r, want.t)
    assert [isinstance(b, OpenBall) for b in batch[:4]] == [True, True, False, False]
    assert str(batch[2]) == "containment post-verification failed (0.000 of sampled points inside)"


def test_batched_witnesses_reject_a_member_outside(std, unit_ball):
    members = np.array([[0.0], [0.2], [5.0]])
    with pytest.raises(DomainError):
        inner_ball_witnesses(std, unit_ball, members)


class TestOpenSets:
    def test_open_interval_is_open(self, std):
        sset = SampledSet(
            lambda pts: np.abs(pts[:, 0]) < 1.0,
            np.linspace(-0.9, 0.9, 7).reshape(-1, 1),
            "open unit interval",
        )
        rec = set_is_open_sampled(std, sset)
        assert rec.all_open
        assert all(p.ball is not None for p in rec.per_point)

    def test_closed_endpoint_not_open(self, std):
        sset = SampledSet(
            lambda pts: np.abs(pts[:, 0]) <= 1.0, np.array([[1.0]]), "closed interval endpoint"
        )
        rec = set_is_open_sampled(std, sset)
        assert not rec.all_open

    def test_whole_space_open(self, std):
        sset = SampledSet(
            lambda pts: np.ones(len(pts), dtype=bool),
            np.array([[0.0], [2.0], [-4.0]]),
            "whole space",
        )
        assert set_is_open_sampled(std, sset).all_open

    def test_witnesses_of_another_dimension_are_rejected(self):
        plane = make_standard_space(1.0, dimension=2)
        sset = SampledSet(lambda pts: np.abs(pts[:, 0]) < 1.0, np.array([[0.0], [0.5]]))
        with pytest.raises(DomainError, match="dimension"):
            set_is_open_sampled(plane, sset)

    def test_neighbourhood_coherence(self, std):
        sset = SampledSet(
            lambda pts: np.abs(pts[:, 0]) < 1.0,
            np.linspace(-0.9, 0.9, 5).reshape(-1, 1),
            "open unit interval",
        )
        # an open set is a neighbourhood of each of its sampled members: a
        # one-witness openness check at x says whether it is one of x
        assert set_is_open_sampled(std, sset).all_open
        for x in (-0.9, 0.0, 0.5):
            assert set_is_open_sampled(std, SampledSet(sset.predicate, np.array([[x]]))).all_open
        closed = SampledSet(lambda pts: np.abs(pts[:, 0]) <= 1.0, np.array([[1.0]]))
        assert not set_is_open_sampled(std, closed).all_open


def reference_set_is_open(space, sset, plan):
    """The ball per witness of `set_is_open_sampled`, searched one (r, t)
    rung and one ball at a time: t ascending, then r = 2^-1 .. 2^-30."""
    n = 4 * len(_BALL_FRACTIONS) * space.dimension
    found = []
    for w in sset.witnesses:
        ball = None
        for t in sorted(plan.t_grid):
            for r in (2.0 ** -j for j in range(1, 31)):
                pts = reference_sample_in_ball(space, OpenBall(w, r, t), n, plan.seed)
                if len(pts) and bool(np.all(sset.predicate(pts))):
                    ball = OpenBall(w, r, t)
                    break
            if ball is not None:
                break
        found.append(ball)
    return found


@st.composite
def _sampled_sets(draw, kind):
    d = draw(st.integers(1, 3))
    norm = draw(st.sampled_from(["euclidean", "max-coordinate"] + ["absolute-value"] * (d == 1)))
    space = make_standard_space(draw(st.sampled_from([0.5, 1.0, 3.0])), norm=norm, dimension=d)
    coords = st.floats(-4.0, 4.0, allow_nan=False)
    ws = np.array(draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=4)))
    # fractions of the way to the boundary: near 1 the first rungs overshoot it
    u = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 0.99, 0.999, 0.99999, 1.0]),
                               min_size=len(ws), max_size=len(ws))))
    if kind == "norm-ball":
        radius = draw(st.floats(0.1, 3.0))
        norms = space.norm(ws)[:, None]
        dirs = np.where(norms > 1e-6, ws / np.maximum(norms, 1e-6), np.eye(d)[0])
        ws = dirs * (np.minimum(u, 0.99999) * radius)[:, None]
        predicate = lambda pts: space.norm(pts) < radius
    elif kind == "interval":
        lo = draw(st.floats(-3.0, 0.0))
        hi = lo + draw(st.floats(0.0, 3.0))
        ws[:, 0] = lo + u * (hi - lo)  # endpoints among the witnesses
        predicate = lambda pts: (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
    elif kind == "closed-endpoint":
        ws[:, 0] = np.where(ws[:, 0] < 0.0, -1.0, 1.0)
        predicate = lambda pts: np.abs(pts[:, 0]) <= 1.0
    else:
        predicate = lambda pts: np.ones(len(pts), dtype=bool)
    times = st.sampled_from([0.01, 0.3, 1.0, 2.0, 7.5, 100.0])
    t_grid = tuple(draw(st.lists(times, min_size=1, max_size=4)))  # duplicates too
    plan = SamplingPlan(np.zeros((1, d)), t_grid=t_grid, seed=draw(st.integers(0, 3)))
    return space, SampledSet(predicate, ws, kind), plan


@pytest.mark.parametrize("kind", ["norm-ball", "interval", "closed-endpoint", "whole"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_openness_search_matches_reference_loop(kind, data):
    space, sset, plan = data.draw(_sampled_sets(kind))
    got = set_is_open_sampled(space, sset, plan).per_point
    want = reference_set_is_open(space, sset, plan)
    assert len(got) == len(want)
    for w, p, ball in zip(sset.witnesses, got, want):
        assert p.point == tuple(float(v) for v in w)
        if ball is None:
            assert p.ball is None
        else:
            assert np.array_equal(p.ball.center, ball.center)
            assert (p.ball.r, p.ball.t) == (ball.r, ball.t)


def _raising_set(witnesses, raising):
    """The open unit interval, with a predicate that raises DomainError
    (naming the point) on a block holding any of the `raising` points."""

    def predicate(pts):
        for p in raising:
            if bool(np.any(np.all(pts == p, axis=1))):
                raise DomainError(f"pole at {p[0]!r}")
        return np.abs(pts[:, 0]) < 1.0

    return SampledSet(predicate, np.asarray(witnesses, dtype=float), "interval with poles")


def _rung_point(space, w, rung, plan):
    """The first sampled in-ball point of witness w's ball at ladder rung
    `rung` (t ascending, then r = 2^-1 .. 2^-30)."""
    t, j = sorted(plan.t_grid)[rung // 30], rung % 30
    n = 4 * len(_BALL_FRACTIONS) * space.dimension
    return reference_sample_in_ball(space, OpenBall(np.atleast_1d(w), 2.0 ** -(j + 1), t), n, plan.seed)[0]


class TestOpennessAtRaisingPoints:
    """The search decides rungs in blocks; a block may evaluate rungs that a
    rung-by-rung search never reaches, and an error there must not count."""

    @pytest.fixture
    def near_end(self, std):
        # the balls at rungs 0 and 1 reach past x = 1, the one at rung 2 does not
        plan = SamplingPlan(np.zeros((1, 1)))
        t = min(plan.t_grid)
        rho = [membership_radius(std, 2.0 ** -j, t) for j in (2, 3)]
        w = 1.0 - 0.5 * (rho[0] + rho[1])
        (ball,) = reference_set_is_open(std, _raising_set([[w]], []), plan)
        assert (ball.r, ball.t) == (0.125, t)
        return plan, w

    def test_error_past_the_fitting_rung_is_not_reached(self, std, near_end):
        plan, w = near_end
        sset = _raising_set([[w], [0.0]], [_rung_point(std, w, 3, plan)])
        rec = set_is_open_sampled(std, sset, plan)
        want = reference_set_is_open(std, _raising_set([[w], [0.0]], []), plan)
        assert [(p.ball.r, p.ball.t) for p in rec.per_point] == [(b.r, b.t) for b in want]

    def test_error_at_a_reached_rung_is_the_first_in_search_order(self, std, near_end):
        # the rung-by-rung search meets the pole on w's rung 1 before the one
        # on rung 0 of the later witness 0.0
        plan, w = near_end
        first, later = _rung_point(std, w, 1, plan), _rung_point(std, 0.0, 0, plan)
        sset = _raising_set([[w], [0.0]], [first, later])
        with pytest.raises(DomainError, match=re.escape(f"pole at {first[0]!r}")):
            reference_set_is_open(std, sset, plan)
        with pytest.raises(DomainError, match=re.escape(f"pole at {first[0]!r}")):
            set_is_open_sampled(std, sset, plan)


class TestPreimageChecks:
    def test_identity_preimage_is_ball(self, std, unit_ball):
        f = make_map(std, std, rule("identity"), Interval(-2.0, 2.0))
        rec = preimage_open_check(f, unit_ball)
        assert rec.open_verdict
        assert set(rec.continuity_verdicts) == {"witnessed"}

    def test_doubling_preimage_open(self, std, unit_ball):
        f = make_map(std, std, rule("affine", 2.0, 0.0), Interval(-2.0, 2.0))
        rec = preimage_open_check(f, unit_ball)
        assert rec.open_verdict
        # sampled preimage members satisfy |2x| < classical radius
        rho = ball_classical_radius(std, unit_ball)
        for p in rec.openness.per_point:
            assert abs(2.0 * p.point[0]) < rho

    def test_step_preimage_not_open_at_boundary(self, std):
        f = make_map(std, std, rule("step", 0.0), Interval(-1.0, 1.0))
        target = OpenBall(np.array([1.0]), 0.3, 0.5)
        rec = preimage_open_check(f, target)
        assert not rec.open_verdict
        boundary = [p for p in rec.openness.per_point if p.point == (0.0,)]
        assert boundary and not boundary[0].open_at_point


def test_ball_parameter_validation():
    with pytest.raises(Exception):
        OpenBall(np.array([0.0]), 1.5, 1.0)
    with pytest.raises(Exception):
        OpenBall(np.array([0.0]), 0.5, -1.0)


def test_three_dimensional_balls():
    space = make_standard_space(2.0, dimension=3)
    ball = OpenBall(np.array([0.5, 0.0, 0.0]), 0.7, 2.0)
    member = np.array([0.4, 0.1, -0.1])
    assert ball_contains(space, ball, member)
    inner = inner_ball_witness(space, ball, member)
    assert verify_containment(space, inner, ball, 1000) == 1.0


# Dyadic scaling: t / (t + k||z||) and k||z|| / (t + k||z||) are the same
# floats at (c k, c t) for c = 2^m, away from overflow and underflow, and so
# is the closed-form radius r (c t) / (c k (1 - r)).  So the balls, inner balls
# and openness rungs at (c k, c t) are those at (k, t), with t scaled.

_SCALING_SPACES = [("absolute-value", 1)] + [
    (family, d) for family in ("euclidean", "max-coordinate") for d in (1, 2, 3)
]


@st.composite
def _scaled_pairs(draw):
    """A standard space and its copy at c k, c = 2^m with m in -6..6, sharing
    operations; the scale c, a demand (r, t), and a seeded generator."""
    family, d = draw(st.sampled_from(_SCALING_SPACES))
    k, m = draw(st.floats(0.1, 10.0)), draw(st.integers(-6, 6))
    ops = draw(st.sampled_from([("minimum", "maximum"), ("product", "probabilistic-sum")]))
    c = 2.0**m
    base, scaled = (make_standard_space(s * k, family, d, ops=ops, verify=False) for s in (1.0, c))
    r, t = draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 10.0))
    return base, scaled, c, r, t, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@given(case=_scaled_pairs())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_ball_masks_and_inner_balls_are_invariant_under_dyadic_scaling(case):
    base, scaled, c, r, t, rng = case
    d = base.dimension
    center = rng.uniform(-2.0, 2.0, d)
    rho = membership_radius(base, r, t)
    # about half of them inside, some within 1e-12 of the boundary
    ys = center + rng.uniform(-1.0, 1.0, (64, d)) * rho * 1.5
    ys[:8] = center + rho * (1.0 - 10.0 ** -rng.uniform(1, 12, (8, 1))) * np.eye(d)[0]
    outer, outer_scaled = OpenBall(center, r, t), OpenBall(center, r, c * t)
    mask = ball_contains_many(base, outer, ys)
    assert ball_contains_many(scaled, outer_scaled, ys).tobytes() == mask.tobytes()
    seed = int(rng.integers(0, 100))
    got = inner_ball_witnesses(scaled, outer_scaled, ys[mask], 64, seed)
    want = inner_ball_witnesses(base, outer, ys[mask], 64, seed)
    for g, w in zip(got, want, strict=True):
        if isinstance(w, WitnessNotFound):
            assert isinstance(g, WitnessNotFound) and str(g) == str(w)
        else:
            assert g.center.tobytes() == w.center.tobytes() and (g.r, g.t) == (w.r, c * w.t)


@given(case=_scaled_pairs(), size=st.floats(0.05, 5.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_openness_rungs_are_invariant_under_dyadic_scaling(case, size):
    # a ball of the norm, with members inside, on its boundary's float and
    # just inside it; a plan whose times and ladder are scaled by c
    base, scaled, c, _, _, rng = case
    d = base.dimension
    norm = base.norm
    witnesses = rng.uniform(-1.0, 1.0, (6, d)) * size / np.sqrt(d)
    witnesses[0] = 0.0
    witnesses[1] = np.eye(d)[0] * size * (1.0 - 1e-9)
    sset = SampledSet(lambda pts: norm(pts) < size, witnesses, "norm ball")
    plan = SamplingPlan(np.zeros((1, d)), seed=int(rng.integers(0, 100)))
    scaled_plan = SamplingPlan(
        plan.vector_grid,
        t_grid=tuple(c * t for t in plan.t_grid),
        seed=plan.seed,
        t_infinity_ladder=tuple(c * t for t in plan.t_infinity_ladder),
    )
    got = set_is_open_sampled(scaled, sset, scaled_plan).per_point
    want = set_is_open_sampled(base, sset, plan).per_point
    assert [p.point for p in got] == [p.point for p in want]
    assert [None if p.ball is None else (p.ball.r, p.ball.t) for p in got] == [
        None if p.ball is None else (p.ball.r, c * p.ball.t) for p in want
    ]
