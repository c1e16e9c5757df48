import re

import numpy as np
import pytest

from ifncheck.continuity import make_map, rule
from ifncheck.errors import DomainError, NotFound, UnsupportedFamily, WitnessNotFound
from ifncheck.ifn_core import (
    IFNSpace,
    custom_membership,
    make_standard_space,
    membership_radius,
)
from ifncheck.norm_algebra import _FROM_ONE, TriangularConorm, TriangularNorm, _bisect
from ifncheck.sampling import Interval, as_point
from ifncheck.topology import (
    _BALL_FRACTIONS,
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
