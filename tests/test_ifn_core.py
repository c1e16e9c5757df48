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
    tabulated_membership,
)
from ifncheck.norm_algebra import TriangularConorm, TriangularNorm
from ifncheck.sampling import default_plan


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
        assert make_example_family("example-3.15-B").k == 3.0
        assert make_example_family("example-3.15-B(k=1.5)").k == 1.5
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
        t_nodes = np.asarray(sorted(set(plan.t_grid) | set(plan.t_infinity_ladder)))
        x_nodes = np.linspace(-5.0, 5.0, 41)
        xx, tt = np.meshgrid(x_nodes, t_nodes, indexing="ij")
        mu = tabulated_membership(x_nodes, t_nodes, tt / (2 * tt + np.abs(xx)))
        nu = tabulated_membership(x_nodes, t_nodes, np.abs(xx) / (2 * tt + np.abs(xx)))
        sp = make_standard_space(1.0, verify=False)
        from ifncheck.ifn_core import IFNSpace

        bad = IFNSpace(1, mu, nu, sp.tnorm, sp.tconorm, axiom_tier="core")
        rec = limit_at_infinity(bad, 1.0, plan)
        assert not rec.converged
        assert rec.mu_limit == pytest.approx(0.5, abs=1e-3)
        report = check_ifn_axioms(bad, tier="core", plan=plan)
        assert "vi" in report.violated()


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
