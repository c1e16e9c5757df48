import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifncheck.continuity import MapBetweenSpaces, cauchy_preservation_check, make_map, rule
from ifncheck.errors import DomainError, UnsupportedFamily
from ifncheck.function_sequences import (
    DomainSample,
    FunctionSequence,
    _certificate,
    uniform_cauchy_check,
)
from ifncheck.ifn_core import IFNSpace, custom_membership, make_standard_space
from ifncheck.point_convergence import (
    STATUS_INCONCLUSIVE,
    PointSequence,
    _p_window_scan,
    _status_from_mask,
    alternating_sequence,
    cauchy_escape_index,
    cauchy_index,
    classical_equivalence_probe,
    constant_sequence,
    convergence_index,
    linear_sequence,
    reciprocal_sequence,
    shifted_reciprocal_sequence,
    tail_index,
)
from ifncheck.sampling import Interval


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

    @staticmethod
    def _image_escapes(space, map_rule):
        f = make_map(space, make_standard_space(3.0), map_rule, Interval(0.0, 1.0, True, True))
        rec = cauchy_preservation_check(
            f, reciprocal_sequence(budget=8000), 0.5, 1.0, budgets=(1000, 2000, 4000)
        )
        return rec.image_escape_indices

    def test_escape_index_tracks_budget_for_divergent_image(self, space):
        # image of 1/(n+1) under 1/x is n+1: the violation never leaves the
        # window, so the escape index equals the budget
        assert self._image_escapes(space, rule("reciprocal")) == (1000, 2000, 4000)

    def test_escape_index_stabilises_for_cauchy_image(self, space):
        assert len(set(self._image_escapes(space, rule("affine", 2.0, 0.0)))) == 1


# The p-window loops that `_p_window_scan` replaced, kept as the reference:
# the ok mask, the margin loop of `cauchy_index` and the prefix rescan of
# the escape index at each budget.
def reference_ok_mask(space, vals, r, t, p_max):
    n_total = vals.shape[0]
    ok = np.ones(n_total - 1, dtype=bool)
    for p in range(1, p_max + 1):
        if p >= n_total:
            break
        ok[: n_total - p] &= space.within(vals[p:] - vals[:-p], r, t)
    return ok


def reference_cauchy_index(space, seq, r, t, p_max):
    vals = seq.values(np.arange(1, seq.budget + 1))
    n0, status = _status_from_mask(reference_ok_mask(space, vals, r, t, p_max))
    if status == "certified-up-to-budget" and n0 + p_max > seq.budget:
        status = STATUS_INCONCLUSIVE
    margin_monotone = None
    if n0 is not None:
        worst = None
        for p in range(1, min(p_max, seq.budget - 1) + 1):
            mu = space.mu_many(vals[p:] - vals[:-p], t)
            m = np.full(seq.budget - 1, -np.inf)
            m[: seq.budget - p] = 1.0 - mu
            worst = m if worst is None else np.maximum(worst, m)
        tail = worst[n0 - 1 : seq.budget - p_max]
        margin_monotone = bool(len(tail) < 2 or np.all(np.diff(tail) <= 1e-12))
    return n0, status, margin_monotone


def reference_escape_index(space, seq, r, t, p_max, budget):
    vals = seq.values(np.arange(1, min(budget, seq.budget) + 1))
    return tail_index(reference_ok_mask(space, vals, r, t, p_max))


def reference_uniform_cauchy_check(space, seq, sample, r, t, p_max):
    n_total = seq.budget + p_max
    vals = seq.values(np.arange(1, n_total + 1), sample.all_points())
    ok = np.column_stack(
        [reference_ok_mask(space, v.reshape(-1, 1), r, t, p_max)[: seq.budget] for v in vals.T]
    )
    cert = _certificate(ok, sample, seq.budget, r, t, kind="cauchy-criterion")
    if cert.uniform:
        n0 = cert.n0
        grid = sorted({min(n_total, v) for v in (n0, n0 + 1, 2 * n0, 4 * n0, seq.budget)})
        pairs = ((n, m) for i, n in enumerate(grid) for m in grid[i + 1 :])
        if not all(
            np.all(space.within((vals[m - 1] - vals[n - 1]).reshape(-1, 1), r, t))
            for n, m in pairs
        ):
            cert = replace(cert, verdict="inconclusive", n0=None)
    return cert


# terms from a small set, so that differences tie and cross the radius,
# followed by a constant tail, so that some windows certify
_TERMS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0, 3.0]),
    st.floats(min_value=-4.0, max_value=4.0),
)


@st.composite
def _term_tables(draw, columns):
    head = draw(st.integers(min_value=0, max_value=30))
    tail = draw(st.integers(min_value=0, max_value=30))
    rows = [draw(st.lists(_TERMS, min_size=columns, max_size=columns)) for _ in range(head)]
    rows += [draw(st.lists(_TERMS, min_size=columns, max_size=columns))] * tail
    return np.array(rows or [[0.0] * columns])


@given(
    table=_term_tables(1),
    columns=_term_tables(3),
    k=st.sampled_from([0.5, 1.0, 3.0]),
    radial=st.booleans(),
    r=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    t=st.floats(min_value=1e-3, max_value=100.0),
    p_max=st.integers(min_value=1, max_value=30),
    data=st.data(),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_p_window_scan_matches_reference_loops(table, columns, k, radial, r, t, p_max, data):
    std = make_standard_space(k)
    # the standard memberships declared non-radial, for the p-bounded branch
    # of the uniform Cauchy criterion
    wrapped = IFNSpace(
        1,
        custom_membership(lambda z, s: std.mu.eval(z, s)),
        custom_membership(lambda z, s: std.nu.eval(z, s)),
        std.tnorm,
        std.tconorm,
    )
    space = std if radial else wrapped
    n = len(table)
    seq = PointSequence("custom", budget=n, fn=lambda ns: table[ns - 1])

    cert = cauchy_index(space, seq, r, t, p_max)
    assert (cert.n0, cert.status, cert.margin_monotone) == reference_cauchy_index(
        space, seq, r, t, p_max
    )
    b = data.draw(st.integers(1, n))
    assert cauchy_escape_index(space, seq, r, t, p_max, b) == reference_escape_index(
        space, seq, r, t, p_max, b
    )

    if p_max < n:
        # the image of x_n = 1/(n+1) is the table; the input is Cauchy in a
        # domain space whose k makes every difference negligible
        budgets = tuple(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4)))
        image = lambda xs: table[np.rint(1.0 / xs - 1.0).astype(int) - 1]
        f = MapBetweenSpaces(make_standard_space(1e-12), space, image, Interval(0.0, 1.0))
        rec = cauchy_preservation_check(f, reciprocal_sequence(budget=n), r, t, p_max, budgets)
        assert rec.image_certificate == cert
        assert rec.image_escape_indices == tuple(
            reference_escape_index(space, seq, r, t, p_max, b) for b in budgets
        )

    budget = max(1, len(columns) - p_max)
    columns = np.resize(columns, (budget + p_max, 3))  # repeats rows of a short table
    funcs = FunctionSequence(
        "custom", Interval(0.0, 3.0), budget=budget,
        fn=lambda ns, xs: columns[ns - 1][:, xs.astype(int)],
    )
    sample = DomainSample((0.0, 1.0, 2.0))
    assert uniform_cauchy_check((wrapped, wrapped), funcs, sample, r, t, p_max) == (
        reference_uniform_cauchy_check(wrapped, funcs, sample, r, t, p_max)
    )


def test_p_window_scan_evaluates_each_membership_once_per_p():
    # a non-radial custom pair takes no fused path: the margin comes from
    # the mu the demand already evaluated, not from a second mu per p
    std = make_standard_space(1.0)
    calls = {"mu": 0, "nu": 0}

    def counted(name, fn):
        def wrapped(z, s):
            calls[name] += 1
            return fn.eval(z, s)

        return custom_membership(wrapped)

    space = IFNSpace(1, counted("mu", std.mu), counted("nu", std.nu), std.tnorm, std.tconorm)
    vals = reciprocal_sequence(budget=60).values(np.arange(1, 61))
    first, worst = _p_window_scan(space, vals, 0.5, 1.0, 20)
    assert calls == {"mu": 20, "nu": 20}
    ref_first, ref_worst = _p_window_scan(std, vals, 0.5, 1.0, 20)
    assert np.array_equal(first, ref_first) and np.array_equal(worst, ref_worst)


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
