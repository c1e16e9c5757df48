import numpy as np
import pytest

from ifncheck.catalog import closure_pair
from ifncheck.continuity import (
    CauchyPreservationRecord,
    cauchy_preservation_check,
    combine,
    continuity_witness_search,
    equivalence_probe,
    make_map,
    recheck_witness,
    rule,
    sequential_continuity_check,
    uniform_continuity_search,
)
from ifncheck.errors import CertificationError, DomainError, InvalidParameter, ZeroDivisor
from ifncheck.ifn_core import IFNSpace, make_example_family, make_standard_space, tabulated_membership
from ifncheck.point_convergence import (
    linear_sequence,
    reciprocal_sequence,
    shifted_reciprocal_sequence,
)
from ifncheck.sampling import Interval


@pytest.fixture(scope="module")
def std():
    return make_standard_space(1.0)


@pytest.fixture(scope="module")
def reciprocal_315():
    A = make_example_family("example-3.15-A")
    B = make_example_family("example-3.15-B(k=3)")
    return make_map(A, B, rule("reciprocal"), Interval(0.0, 1.0, open_lo=True, open_hi=True))


class TestWitnessSearch:
    def test_identity_witnessed_at_rung_zero(self, std):
        f = make_map(std, std, rule("identity"), Interval(-2.0, 2.0))
        w = continuity_witness_search(f, 0.3, epsilon=0.7, alpha=0.25)
        assert w.witnessed and w.rung == 0
        assert w.delta == 0.7 and w.beta == 0.25

    def test_reciprocal_witnessed(self, reciprocal_315):
        w = continuity_witness_search(reciprocal_315, 0.5, epsilon=1.0, alpha=0.5)
        assert w.witnessed
        assert recheck_witness(reciprocal_315, w)

    def test_reciprocal_witness_dense_oracle(self, reciprocal_315):
        # re-verify the returned (delta, beta) on an independent dense scan:
        # hypothesis radius from the closed form, conclusion from the raw rule
        w = continuity_witness_search(reciprocal_315, 0.5, epsilon=1.0, alpha=0.5)
        rho = w.delta * w.beta / (1.0 - w.beta)  # k_U = 1
        xs = 0.5 + np.linspace(-rho, rho, 1001)[1:-1]
        xs = xs[(xs > 0) & (xs < 1)]
        img_dev = np.abs(1.0 / xs - 2.0)
        # conclusion: mu_B(dev, 1) > 0.5 <=> 3 * dev < 1
        assert np.all(3.0 * img_dev < 1.0)

    def test_step_refuted_at_origin(self, std):
        f = make_map(std, std, rule("step", 0.0), Interval(-1.0, 1.0))
        w = continuity_witness_search(f, 0.0, epsilon=0.5, alpha=0.4)
        assert w.verdict == "refuted"
        cx = w.counterexample
        assert cx["x"] < 0
        assert cx["mu_V"] == pytest.approx(1.0 / 3.0)
        assert cx["mu_V"] <= 1.0 - 0.4

    def test_witness_monotone_under_shrinking(self, std):
        # any (delta' <= delta, beta' <= beta) below a witness is a witness
        f = make_map(std, std, rule("affine", 2.0, 0.0), Interval(-1.0, 1.0))
        w = continuity_witness_search(f, 0.2, epsilon=1.0, alpha=0.5)
        assert w.witnessed
        assert recheck_witness(f, w, delta=w.delta / 2, beta=w.beta / 2)
        assert recheck_witness(f, w, delta=w.delta / 4, beta=w.beta)

    def test_outside_restriction(self, reciprocal_315):
        with pytest.raises(DomainError):
            continuity_witness_search(reciprocal_315, 1.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            continuity_witness_search(reciprocal_315, 0.5, -1.0, 0.5)


class TestSequentialAndEquivalence:
    def test_reciprocal_image_converges(self, reciprocal_315):
        seq = shifted_reciprocal_sequence(0.5, 10.0, budget=20000)
        rec = sequential_continuity_check(reciprocal_315, 0.5, [seq], r=0.2, t=0.5)
        assert rec.continuous
        assert all(c.certified for c in rec.image_certificates)

    def test_constant_map_trivial(self, std):
        f = make_map(std, std, rule("constant", 3.0), Interval(-1.0, 1.0))
        seq = shifted_reciprocal_sequence(0.0, 5.0, budget=10000)
        rec = sequential_continuity_check(f, 0.0, [seq], r=0.3, t=0.5)
        assert rec.continuous

    def test_step_fails_sequentially(self, std):
        f = make_map(std, std, rule("step", 0.0), Interval(-1.0, 1.0))
        # x_n = -1/(n+1) -> 0 from below; image is constantly 0 != f(0) = 1
        from ifncheck.point_convergence import PointSequence

        seq = PointSequence("custom", budget=10000, fn=lambda ns: (-1.0 / (ns + 1.0)).reshape(-1, 1))
        rec = sequential_continuity_check(f, 0.0, [seq], r=0.3, t=0.5)
        assert not rec.continuous

    def test_uncertified_input_raises(self, std):
        f = make_map(std, std, rule("identity"), Interval(-10.0, 10.0))
        with pytest.raises(CertificationError):
            sequential_continuity_check(f, 0.0, [linear_sequence(budget=1000)], 0.3, 0.5)

    def test_equivalence_probe_agreement(self, std, reciprocal_315):
        p = equivalence_probe(
            reciprocal_315, 0.5, 1.0, 0.5,
            [shifted_reciprocal_sequence(0.5, 10.0, budget=20000)], 0.2, 0.5,
        )
        assert p.agree and not p.disagreement_is_bug

        f = make_map(std, std, rule("step", 0.0), Interval(-1.0, 1.0))
        from ifncheck.point_convergence import PointSequence

        seq = PointSequence("custom", budget=10000, fn=lambda ns: (-1.0 / (ns + 1.0)).reshape(-1, 1))
        p = equivalence_probe(f, 0.0, 0.5, 0.4, [seq], 0.3, 0.5)
        assert p.agree and not p.disagreement_is_bug  # both say discontinuous


class TestCombine:
    def test_sum_gives_constant(self, std):
        f = make_map(std, std, rule("identity"), Interval(0.0, 1.0))
        g = make_map(std, std, rule("affine", -1.0, 1.0), Interval(0.0, 1.0))
        h = combine("sum", f, g)
        xs = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(h(xs), 1.0)

    def test_scalar_zero_gives_zero_map(self, std):
        f = make_map(std, std, rule("power", 3.0), Interval(-1.0, 1.0))
        z = combine("scalar", f, k=0.0)
        assert np.all(z(np.linspace(-1, 1, 7)) == 0.0)

    def test_reciprocal_of_identity(self):
        A = make_example_family("example-3.15-A")
        B = make_example_family("example-3.15-B(k=3)")
        g = make_map(A, B, rule("identity"), Interval(0.0, 1.0, open_lo=True, open_hi=True))
        h = combine("reciprocal", g)
        assert h(np.array([0.25]))[0] == 4.0

    def test_zero_divisor_detected(self, std):
        g = make_map(std, std, rule("identity"), Interval(-1.0, 1.0))
        with pytest.raises(ZeroDivisor):
            combine("reciprocal", g)
        g2 = make_map(std, std, rule("affine", 1.0, -0.5), Interval(0.0, 1.0))
        with pytest.raises(ZeroDivisor):
            combine("reciprocal", g2)

    def test_maps_on_different_tabulated_spaces_do_not_combine(self, std):
        # two mu tables with their middle rows swapped: the same node counts
        # and the same sum, but mu(1, 1) is 0.5 against 0.25
        rows = [[1.0, 1.0, 1.0], [0.25, 0.5, 0.75], [0.125, 0.25, 0.5]]
        spaces = []
        for mu in (np.array(rows), np.array(rows)[[0, 2, 1]]):
            pair = (tabulated_membership([0.0, 1.0, 2.0], [0.5, 1.0, 2.0], v) for v in (mu, 1.0 - mu))
            spaces.append(IFNSpace(1, *pair, std.tnorm, std.tconorm))
        assert spaces[0].mu_eval(1.0, 1.0) != spaces[1].mu_eval(1.0, 1.0)
        assert spaces[0].signature() != spaces[1].signature()
        f, g = (make_map(sp, std, rule("identity"), Interval(0.0, 1.0)) for sp in spaces)
        with pytest.raises(InvalidParameter, match="share domain and codomain"):
            combine("sum", f, g)

    def test_domain_intersection(self, std):
        f = make_map(std, std, rule("identity"), Interval(0.0, 2.0))
        g = make_map(std, std, rule("identity"), Interval(1.0, 3.0, open_hi=True))
        h = combine("product", f, g)
        assert h.restriction.lo == 1.0 and h.restriction.hi == 2.0

    def test_closure_on_catalog_pair(self):
        f, g = closure_pair()
        points = [0.1, 0.5, 0.9]
        for h in (combine("sum", f, g), combine("scalar", f, k=3.0),
                  combine("product", f, g),
                  combine("product", f, combine("reciprocal", g))):
            for x0 in points:
                w = continuity_witness_search(h, x0, 0.5, 0.25)
                assert w.witnessed, (h.rule.describe(), x0)


class TestUniformContinuity:
    def test_doubling_map_witnessed(self, std):
        f = make_map(std, std, rule("affine", 2.0, 0.0), Interval(0.0, 1.0))
        u = uniform_continuity_search(f, epsilon=1.0, alpha=0.5)
        assert u.witnessed
        # the scaling identity makes (eps/2, alpha/2) serve every pair
        assert u.delta == 0.5 and u.beta == 0.25

    def test_identity_witnessed_at_rung_zero(self, std):
        f = make_map(std, std, rule("identity"), Interval(0.0, 1.0))
        u = uniform_continuity_search(f, epsilon=1.0, alpha=0.5)
        assert u.witnessed and u.rung == 0

    def test_reciprocal_refuted(self, reciprocal_315):
        u = uniform_continuity_search(reciprocal_315, epsilon=1.0, alpha=0.5)
        assert u.verdict == "refuted"
        cx = u.counterexample
        assert cx is not None and 0 < cx["x2"] < cx["x1"] < 0.01

    def test_uniform_witness_serves_pointwise(self, std):
        # containment: the uniform (delta, beta) works at every base point
        f = make_map(std, std, rule("affine", 2.0, 0.0), Interval(0.0, 1.0))
        u = uniform_continuity_search(f, epsilon=1.0, alpha=0.5)
        for x0 in (0.1, 0.5, 0.9):
            w = continuity_witness_search(f, x0, 1.0, 0.5)
            assert w.witnessed
            assert recheck_witness(f, w, delta=u.delta, beta=u.beta)


class TestCauchyPreservation:
    def test_reciprocal_refutes_uniform_continuity(self, reciprocal_315):
        rec = cauchy_preservation_check(
            reciprocal_315, reciprocal_sequence(budget=8000), r=0.5, t=1.0
        )
        assert isinstance(rec, CauchyPreservationRecord)
        assert rec.input_certificate.certified
        assert rec.image_certificate.status == "failed"
        assert rec.image_escape_indices == (1000, 2000, 4000, 8000)
        assert all(g >= 2.0 for g in rec.growth_factors)
        assert rec.verdict == "refutes-uniform-continuity"

    def test_doubling_preserves(self, std):
        f = make_map(std, std, rule("affine", 2.0, 0.0), Interval(0.0, 1.0, open_lo=True, open_hi=True))
        rec = cauchy_preservation_check(f, reciprocal_sequence(budget=8000), 0.5, 1.0)
        assert rec.verdict == "preserved"

    def test_constant_preserves(self, std):
        f = make_map(std, std, rule("constant", 2.0), Interval(0.0, 1.0, open_lo=True, open_hi=True))
        rec = cauchy_preservation_check(f, reciprocal_sequence(budget=8000), 0.5, 1.0)
        assert rec.verdict == "preserved"

    def test_non_cauchy_input_raises(self, std):
        f = make_map(std, std, rule("identity"), Interval(0.0, 1e6))
        with pytest.raises(CertificationError):
            cauchy_preservation_check(f, linear_sequence(budget=4000), 0.5, 1.0)
