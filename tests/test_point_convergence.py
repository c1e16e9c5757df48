import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifncheck.errors import DomainError, UnsupportedFamily
from ifncheck.ifn_core import make_standard_space
from ifncheck.point_convergence import (
    STATUS_INCONCLUSIVE,
    PointSequence,
    _status_from_mask,
    alternating_sequence,
    cauchy_escape_index,
    cauchy_index,
    classical_equivalence_probe,
    constant_sequence,
    convergence_index,
    linear_sequence,
    mapped_sequence,
    reciprocal_sequence,
    shifted_reciprocal_sequence,
    tail_index,
)


def brute_force_index(k, seq_vals, limit, r, t):
    """Independent oracle: direct scan of the membership inequalities
    computed from the closed form, no library calls."""
    last_bad = 0
    for n, x in enumerate(seq_vals, start=1):
        d = abs(x - limit) * k
        mu = t / (t + d)
        nu = d / (t + d)
        if not (mu > 1 - r and nu < r):
            last_bad = n
    return last_bad + 1


@pytest.fixture(scope="module")
def space():
    return make_standard_space(1.0)


class TestConvergenceIndex:
    def test_reciprocal_tight_demand(self, space):
        cert = convergence_index(space, reciprocal_sequence(), 0.0, 0.1, 0.1)
        assert cert.n0 == 90 and cert.certified

    def test_reciprocal_loose_demand(self, space):
        cert = convergence_index(space, reciprocal_sequence(), 0.0, 0.5, 1.0)
        assert cert.n0 == 1 and cert.certified

    def test_matches_brute_force_oracle(self, space):
        vals = [1.0 / (n + 1) for n in range(1, 2001)]
        for r, t in ((0.1, 0.1), (0.3, 0.5), (0.05, 2.0)):
            seq = reciprocal_sequence(budget=2000)
            cert = convergence_index(space, seq, 0.0, r, t)
            assert cert.n0 == brute_force_index(1.0, vals, 0.0, r, t)

    def test_reciprocal_analytic_oracle(self, space):
        # exact rational oracle: first n with 1/(n+1) < r t/(1-r) in true
        # rationals, including the exact-tie cases where strictness decides
        from fractions import Fraction

        cases = (
            (Fraction(1, 10), Fraction(1, 10)),
            (Fraction(1, 5), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 1)),
        )
        for r, t in cases:
            threshold = r * t / (1 - r)
            n = 1
            while not (Fraction(1, n + 1) < threshold):
                n += 1
            cert = convergence_index(space, reciprocal_sequence(), 0.0, float(r), float(t))
            assert cert.n0 == n

    def test_constant_sequence(self, space):
        cert = convergence_index(space, constant_sequence(2.5), 2.5, 0.25, 0.3)
        assert cert.n0 == 1 and cert.certified

    def test_divergent_fails(self, space):
        cert = convergence_index(space, linear_sequence(budget=5000), 0.0, 0.5, 1.0)
        assert cert.status == "failed" and cert.n0 is None

    def test_oscillation_inconclusive(self, space):
        # passes only at even indices; the all-pass tail starts at the very
        # end of the window
        seq = PointSequence(
            "custom",
            budget=1000,
            fn=lambda ns: np.where(ns % 2 == 0, 0.0, 0.5).reshape(-1, 1),
        )
        cert = convergence_index(space, seq, 0.0, 0.2, 0.1)
        assert cert.status == "inconclusive"

    def test_bad_parameters(self, space):
        with pytest.raises(DomainError):
            convergence_index(space, reciprocal_sequence(), 0.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            convergence_index(space, reciprocal_sequence(), 0.0, 0.5, 0.0)

    @pytest.mark.parametrize("r1,r2", [(0.1, 0.3), (0.2, 0.6)])
    def test_monotone_in_r(self, space, r1, r2):
        seq = reciprocal_sequence(budget=20000)
        n_tight = convergence_index(space, seq, 0.0, r1, 0.5).n0
        n_loose = convergence_index(space, seq, 0.0, r2, 0.5).n0
        assert n_loose <= n_tight

    @pytest.mark.parametrize("t1,t2", [(0.1, 0.5), (0.5, 2.0)])
    def test_monotone_in_t(self, space, t1, t2):
        seq = reciprocal_sequence(budget=20000)
        n_small = convergence_index(space, seq, 0.0, 0.1, t1).n0
        n_big = convergence_index(space, seq, 0.0, 0.1, t2).n0
        assert n_big <= n_small


_unit = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


@given(
    seq=st.sampled_from(
        [
            reciprocal_sequence(budget=300),
            alternating_sequence(budget=300),
            shifted_reciprocal_sequence(0.5, 2.0, budget=300),
        ]
    ),
    limit=st.floats(min_value=-2.0, max_value=2.0),
    k=st.floats(min_value=0.1, max_value=10.0),
    t=st.floats(min_value=1e-3, max_value=10.0),
    r1=_unit,
    r2=_unit,
)
@settings(max_examples=60, deadline=None)
def test_convergence_index_never_grows_with_r(seq, limit, k, t, r1, r2):
    # exact in IEEE arithmetic: 1.0 - r and the bound r are both monotone
    # in r, so the passing set only grows; a failed status counts as an
    # unbounded index
    space = make_standard_space(k, verify=False)
    lo, hi = sorted((r1, r2))

    def n0(r):
        cert = convergence_index(space, seq, limit, r, t)
        return math.inf if cert.n0 is None else cert.n0

    assert n0(hi) <= n0(lo)


class TestTailIndex:
    def test_clean_column(self):
        assert tail_index(np.ones(5, dtype=bool)) == 1

    def test_last_entry_fails(self):
        assert tail_index(np.array([True, True, False])) == 4

    def test_failure_in_middle(self):
        assert tail_index(np.array([True, False, False, True, True])) == 4

    def test_block_is_scanned_per_column(self):
        ok = np.array([[True, False, True], [False, True, True], [True, True, True]])
        assert tail_index(ok) == [3, 2, 1]

    def test_empty_mask(self):
        assert tail_index(np.zeros(0, dtype=bool)) == 1
        assert _status_from_mask(np.zeros(0, dtype=bool)) == (None, STATUS_INCONCLUSIVE)


class TestCauchyIndex:
    def test_reciprocal(self, space):
        cert = cauchy_index(space, reciprocal_sequence(budget=20000), 0.5, 1.0)
        assert cert.n0 == 1 and cert.certified
        assert cert.margin_monotone

    def test_divergent(self, space):
        cert = cauchy_index(space, linear_sequence(budget=2000), 0.5, 1.0)
        assert cert.status == "failed"

    def test_constant(self, space):
        cert = cauchy_index(space, constant_sequence(1.0, budget=2000), 0.3, 0.5)
        assert cert.n0 == 1 and cert.certified

    def test_escape_index_tracks_budget_for_divergent_image(self):
        # image of 1/(n+1) under 1/x is n+1: the violation never leaves the
        # window, so the escape index equals the budget
        spB = make_standard_space(3.0)
        img = mapped_sequence(reciprocal_sequence(budget=8000), lambda v: 1.0 / v)
        escapes = [cauchy_escape_index(spB, img, 0.5, 1.0, budget=b) for b in (1000, 2000, 4000)]
        assert escapes == [1000, 2000, 4000]

    def test_escape_index_stabilises_for_cauchy_image(self):
        spB = make_standard_space(3.0)
        img = mapped_sequence(reciprocal_sequence(budget=8000), lambda v: 2.0 * v)
        escapes = {cauchy_escape_index(spB, img, 0.5, 1.0, budget=b) for b in (1000, 2000, 4000)}
        assert len(escapes) == 1


class TestClassicalEquivalence:
    def test_reciprocal_agrees(self, space):
        rec = classical_equivalence_probe(space, reciprocal_sequence(), 0.0)
        assert rec.ifn_converged and rec.classical_converged and rec.agree

    def test_alternating_agrees_on_divergence(self, space):
        rec = classical_equivalence_probe(space, alternating_sequence(budget=5000), 0.0)
        assert not rec.ifn_converged and not rec.classical_converged and rec.agree

    def test_constant_agrees(self, space):
        rec = classical_equivalence_probe(space, constant_sequence(0.7, budget=5000), 0.7)
        assert rec.ifn_converged and rec.classical_converged and rec.agree

    def test_shifted_reciprocal(self, space):
        rec = classical_equivalence_probe(
            space, shifted_reciprocal_sequence(1.5, 3.0), 1.5
        )
        assert rec.agree and rec.ifn_converged

    def test_requires_standard_family(self):
        from ifncheck.catalog import broken_spaces

        bad, _ = broken_spaces()["v"]
        with pytest.raises(UnsupportedFamily):
            classical_equivalence_probe(bad, reciprocal_sequence(budget=100), 0.0)

    def test_never_fails_when_classical_converges(self, space):
        # the membership verdict cannot lag the classical one on standard
        # spaces at matching thresholds
        for seq, limit in (
            (reciprocal_sequence(), 0.0),
            (shifted_reciprocal_sequence(-2.0, 7.0), -2.0),
        ):
            rec = classical_equivalence_probe(space, seq, limit)
            if rec.classical_converged:
                assert rec.ifn_converged
