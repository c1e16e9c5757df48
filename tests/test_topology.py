import numpy as np
import pytest

from ifncheck.continuity import make_map, rule
from ifncheck.errors import DomainError, UnsupportedFamily, WitnessNotFound
from ifncheck.ifn_core import make_standard_space
from ifncheck.norm_algebra import TriangularNorm
from ifncheck.sampling import Interval
from ifncheck.topology import (
    OpenBall,
    SampledSet,
    ball_classical_radius,
    ball_contains,
    ball_contains_many,
    inner_ball_witness,
    is_neighbourhood,
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

    def test_neighbourhood_coherence(self, std):
        sset = SampledSet(
            lambda pts: np.abs(pts[:, 0]) < 1.0,
            np.linspace(-0.9, 0.9, 5).reshape(-1, 1),
            "open unit interval",
        )
        # an open set is a neighbourhood of each of its sampled members
        assert set_is_open_sampled(std, sset).all_open
        for x in (-0.9, 0.0, 0.5):
            assert is_neighbourhood(std, sset, x)
        assert not is_neighbourhood(
            std, SampledSet(lambda pts: np.abs(pts[:, 0]) <= 1.0, np.array([[1.0]])), 1.0
        )


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
