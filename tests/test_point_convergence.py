import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifncheck.continuity import MapBetweenSpaces, cauchy_preservation_check, make_map, rule
from ifncheck import ifn_core
from ifncheck.errors import DomainError, UnsupportedFamily
from ifncheck.function_sequences import (
    DomainSample,
    FunctionSequence,
    UniformCertificate,
    sample_domain,
    uniform_cauchy_check,
)
from ifncheck.ifn_core import (
    NORM_FAMILIES,
    IFNSpace,
    _safe_radius,
    custom_membership,
    make_standard_space,
    membership_radius,
    safe_radius,
)
from ifncheck.point_convergence import (
    STATUS_INCONCLUSIVE,
    PointSequence,
    _p_window_scan,
    _status_from_mask,
    cauchy_escape_index,
    cauchy_index,
    classical_equivalence_probe,
    convergence_index,
    reciprocal_sequence,
    shifted_reciprocal_sequence,
    tail_index,
)
from ifncheck.sampling import Interval

from stand_ins import TabulatedSequence


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
        cert = convergence_index(space, PointSequence("constant", (2.5,)), 2.5, 0.25, 0.3)
        assert cert.n0 == 1 and cert.certified

    def test_divergent_fails(self, space):
        cert = convergence_index(space, PointSequence("linear", budget=5000), 0.0, 0.5, 1.0)
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


_unit = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


@given(
    seq=st.sampled_from(
        [
            reciprocal_sequence(budget=300),
            PointSequence("alternating", budget=300),
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


@given(
    seq_limit=st.sampled_from(
        [
            (reciprocal_sequence(budget=2000), 0.0),
            (shifted_reciprocal_sequence(0.5, 2.0, budget=2000), 0.5),
            (PointSequence("alternating", budget=2000), 0.0),
        ]
    ),
    k=st.floats(min_value=0.1, max_value=5.0),
    r=_unit,
    t1=st.floats(min_value=1e-3, max_value=5.0),
    t2=st.floats(min_value=1e-3, max_value=5.0),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_indices_never_grow_with_t(seq_limit, k, r, t1, t2):
    # a larger t loosens both halves of the demand, so the passing set only
    # grows, for the convergence and the Cauchy index alike; a failed status
    # (n0 None) counts as past the budget
    seq, limit = seq_limit
    space = make_standard_space(k, verify=False)
    lo, hi = sorted((t1, t2))

    def n0(cert):
        return math.inf if cert.n0 is None else cert.n0

    for index in (
        lambda t: convergence_index(space, seq, limit, r, t),
        lambda t: cauchy_index(space, seq, r, t),
    ):
        assert n0(index(hi)) <= n0(index(lo))


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
        cert = cauchy_index(space, PointSequence("linear", budget=2000), 0.5, 1.0)
        assert cert.status == "failed"

    def test_constant(self, space):
        cert = cauchy_index(space, PointSequence("constant", (1.0,), budget=2000), 0.3, 0.5)
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
    """The criterion's certificate from the two-sided statement over every
    (n, m), n up to the budget and m up to budget + p_max: each point's
    index is the start of its all-pass tail, or None when the last n fails
    there, and a refinement ladder's indices are read, not judged."""
    vals = seq.values(np.arange(1, seq.budget + p_max + 1), sample.all_points())
    idx = []
    for v in vals.T:
        ok = np.array([np.all(space.within(v[n + 1 :] - v[n], r, t)) for n in range(seq.budget)])
        idx.append(tail_index(ok) if ok[-1] else None)
    uniform = None not in idx
    return UniformCertificate(
        r, t, max(idx) if uniform else None, tuple(zip(sample.all_points().tolist(), idx)),
        "uniform-up-to-budget" if uniform else "inconclusive", seq.budget,
        tuple(idx[len(sample.points) :]), "cauchy-criterion",
    )


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
    standard=st.booleans(),
    r=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    t=st.floats(min_value=1e-3, max_value=100.0),
    p_max=st.integers(min_value=1, max_value=30),
    data=st.data(),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_p_window_scan_matches_reference_loops(table, columns, k, standard, r, t, p_max, data):
    std = make_standard_space(k)
    # the standard memberships behind custom tags, for the per-p loop
    wrapped = IFNSpace(
        1,
        custom_membership(lambda z, s: std.mu.eval(z, s)),
        custom_membership(lambda z, s: std.nu.eval(z, s)),
        std.tnorm,
        std.tconorm,
    )
    space = std if standard else wrapped
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
    funcs = TabulatedSequence(lambda ns, xs: columns[ns - 1][:, xs.astype(int)], Interval(0.0, 3.0), budget)
    sample = DomainSample((0.0, 1.0, 2.0))
    assert uniform_cauchy_check((std, std), funcs, sample, r, t, p_max) == (
        reference_uniform_cauchy_check(std, funcs, sample, r, t, p_max)
    )
    with pytest.raises(UnsupportedFamily):
        uniform_cauchy_check((wrapped, wrapped), funcs, sample, r, t, p_max)


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


def reference_window_scan(space, vals, r, t, p_max):
    """first and worst of `_p_window_scan` from a plain loop over every
    (n, p): the first failing p, and the largest 1 - mu over the window."""
    n_total = len(vals)
    first = np.full(max(n_total - 1, 0), n_total)
    worst = np.full(max(n_total - 1, 0), -np.inf)
    for p in range(1, min(p_max, n_total - 1) + 1):
        diffs = vals[p:] - vals[:-p]
        head = first[: n_total - p]
        head[~space.within(diffs, r, t) & (head == n_total)] = p
        np.maximum(worst[: n_total - p], 1.0 - space.mu_many(diffs, t), out=worst[: n_total - p])
    return first, worst


def _ulps(x, j):
    """The float j ulps above the positive float x."""
    return float((np.array(x).view(np.int64) + j).view(np.float64))


@st.composite
def _near_tie_walks(draw):
    """A standard space on the real line, a demand, and a walk whose steps
    are the float radius (the closed form's or the safe one) give or take
    up to 1,000 ulps, or just those ulps, followed by a constant tail or a
    monotone one whose steps are a fraction of the radius."""
    family = draw(st.sampled_from(NORM_FAMILIES))
    k, r = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-6, 1 - 1e-6))
    t = draw(st.floats(1e-3, 1e3))
    space = make_standard_space(k, family, verify=False)
    radius = draw(st.sampled_from([membership_radius, safe_radius]))(space, r, t)
    ulps = st.integers(-1000, 1000)
    signs = st.sampled_from([-1.0, 1.0])
    steps = [
        sign * (_ulps(radius, j) - radius * nudge)
        for j, sign, nudge in draw(st.lists(st.tuples(ulps, signs, st.booleans()), max_size=40))
    ]
    tail = draw(st.integers(0, 30))
    if draw(st.booleans()):
        steps += [0.0] * tail
    else:
        part = _ulps(radius / draw(st.integers(1, 4)), draw(ulps))
        steps += [draw(signs) * part] * tail
    start = radius * draw(st.floats(-3.0, 3.0))
    vals = np.cumsum([start, *steps]).reshape(-1, 1)
    p_max = draw(st.integers(1, len(vals) + 3))
    return space, r, t, vals, p_max


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


@given(case=_near_tie_walks())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_window_extrema_scan_matches_the_per_p_loop_at_near_ties(case):
    space, r, t, vals, p_max = case
    first, worst = _p_window_scan(space, vals, r, t, p_max)
    ref_first, ref_worst = reference_window_scan(space, vals, r, t, p_max)
    assert _same_bits(first, ref_first) and _same_bits(worst, ref_worst)


# NaN, +-inf, and finite terms huge enough that a difference or k|z|
# overflows binary64
_EDGE_TERMS = [np.nan, np.inf, -np.inf, 1e308, -1e308, 8e307, -8e307]


@st.composite
def _edge_blocks(draw):
    """A standard space on the real line and a block of 0 to 39 terms from
    `_TERMS`, up to two of them from `_EDGE_TERMS`; blocks of 0, 1 and 2
    terms are drawn as often as longer ones."""
    space = make_standard_space(
        draw(st.sampled_from([0.5, 1.0, 3.0])), draw(st.sampled_from(NORM_FAMILIES)), verify=False
    )
    n = draw(st.one_of(st.integers(0, 2), st.integers(3, 39)))
    terms = draw(st.lists(_TERMS, min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        terms[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_EDGE_TERMS))
    return space, np.array(terms, dtype=float).reshape(-1, 1)


def _outcome(scan, *args):
    """What a scan gave: its arrays, or the type and message of its error."""
    try:
        return None, scan(*args)
    except DomainError as exc:
        return (type(exc), str(exc)), None


@given(
    case=_edge_blocks(),
    r=st.floats(1e-6, 1 - 1e-6),
    t=st.floats(1e-3, 1e3),
    p_max=st.integers(1, 49),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_p_window_scan_matches_the_plain_loop_on_non_finite_and_short_blocks(case, r, t, p_max):
    space, vals = case
    with np.errstate(all="ignore"):  # inf - inf, overflowing differences and inf / inf, in both
        error, arrays = _outcome(_p_window_scan, space, vals, r, t, p_max)
        ref_error, ref_arrays = _outcome(reference_window_scan, space, vals, r, t, p_max)
    assert error == ref_error
    if ref_arrays is not None:
        (first, worst), (ref_first, ref_worst) = arrays, ref_arrays
        assert first.dtype == ref_first.dtype and np.array_equal(first, ref_first)
        assert worst.dtype == ref_worst.dtype and np.array_equal(worst, ref_worst, equal_nan=True)


_UNIT_ROUNDOFF = Fraction(1, 2**53)


def exact_safe_radius(space, r, t):
    """The first float |z| >= 0 at which the demand's monotone sufficient
    condition fails, by a plain binary search over float bit patterns: mu's
    float half, which falls as |z| grows, and fl(k |z|) below the exact nu
    cap r t (1 - u) / (1 + u - r (1 - u)), u = 2^-53.  z = 0 passes it."""
    rf = Fraction(r)
    cap = rf * Fraction(t) * (1 - _UNIT_ROUNDOFF) / (1 + _UNIT_ROUNDOFF - rf * (1 - _UNIT_ROUNDOFF))

    def passes(bits):
        z = np.array([[bits]], dtype=np.int64).view(np.float64)
        with np.errstate(over="ignore"):
            kn = float(space.norm(z)[0] * space.k)
        return math.isfinite(kn) and t / (t + kn) > 1.0 - r and Fraction(kn) < cap

    lo, hi = 0, int(np.array(np.inf).view(np.int64))  # lo passes, hi fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return float(np.array(hi).view(np.float64))


@given(
    k=st.floats(1e-3, 1e3),
    family=st.sampled_from(NORM_FAMILIES),
    r=st.one_of(st.floats(1e-6, 1 - 1e-6), st.sampled_from([1e-6, 1e-5, 1 - 1e-6])),
    t=st.one_of(st.floats(1e-3, 1e3), st.sampled_from([5e-324, 1e-310, 1e-300, 1e300])),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_safe_radius_is_a_sound_bound_below_the_exact_search(k, family, r, t, seed):
    # every float below the bound meets the demand, either sign: the 4,096
    # just below it and 4,096 drawn from all patterns below it; and the
    # bound never passes the first float the exact search fails
    space = make_standard_space(k, family, verify=False)
    x = safe_radius(space, r, t)
    assert 0.0 <= x <= exact_safe_radius(space, r, t)
    bits = int(np.array(x).view(np.int64))
    below = np.concatenate([
        np.arange(max(bits - 4096, 0), bits),
        np.random.default_rng(seed).integers(0, max(bits, 1), 4096 if bits else 0),
    ]).view(np.float64)
    z = np.concatenate([below, -below]).reshape(-1, 1)
    with np.errstate(over="ignore"):
        assert np.all(space.within(z, r, t)), (k, r, t, x)


@st.composite
def _straddles(draw):
    """A standard space on the real line, a demand, and differences a <= b
    from the 2,064 floats around the exact search's first failing float:
    where the float demand is not monotone there, a fails and b passes."""
    family = draw(st.sampled_from(NORM_FAMILIES))
    k, r = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-6, 1 - 1e-6))
    t = draw(st.floats(1e-3, 1e3))
    space = make_standard_space(k, family, verify=False)
    bits = np.array(exact_safe_radius(space, r, t)).view(np.int64)
    band = np.arange(bits - 16, bits + 2048).view(np.float64)
    ok = space.within(band.reshape(-1, 1), r, t)
    # the failing floats with a passing one above them
    flips = np.flatnonzero(~ok & (np.cumsum(ok[::-1])[::-1] > 0))
    if len(flips):
        i = int(draw(st.sampled_from(flips)))
        j = i + 1 + int(draw(st.sampled_from(np.flatnonzero(ok[i + 1 :]))))
    else:
        i = draw(st.integers(0, len(band) - 1))
        j = draw(st.integers(i, len(band) - 1))
    return space, r, t, band[i], band[j]


@st.composite
def _straddle_walks(draw):
    """f_n(0) = 0, a, b, b, ... for a straddle (a, b), either sign, with its
    space, demand and p_max in 1..4."""
    space, r, t, a, b = draw(_straddles())
    sign, p_max = draw(st.sampled_from([-1.0, 1.0])), draw(st.integers(1, 4))
    v = sign * np.array([0.0, a] + [b] * (6 + p_max))
    funcs = TabulatedSequence(lambda ns, xs: v[ns - 1][:, None] + 0.0 * xs, budget=len(v) - p_max)
    return space, funcs, DomainSample((0.0,)), r, t, p_max


def _family_case(family, lo, hi, refine, r, t, p_max):
    """A closed-form family on 300 terms, sampled at 9 points and, with
    `refine`, a 6-rung ladder toward that open end, in the k = 1 space."""
    seq = FunctionSequence(family, Interval(lo, hi, open_lo=refine is not None, open_hi=refine is not None), budget=300)
    sample = sample_domain(seq.domain, 9, refine_side=refine, refine_depth=6)
    return make_standard_space(1.0, verify=False), seq, sample, r, t, p_max


@given(case=_straddle_walks())
@example(case=_family_case("power", 0.0, 0.5, None, 0.1, 0.1, 5))
@example(case=_family_case("power", 0.0, 1.0, "hi", 0.1, 0.1, 20))
@example(case=_family_case("quotient", 0.0, 10.0, None, 0.3, 0.5, 10))
@example(case=_family_case("scaled", 0.0, 1.0, None, 0.1, 0.05, 3))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_radial_cauchy_criterion_is_exact_per_n_and_m(case):
    # the standard pair's index is the brute-force one over every later term
    space, funcs, sample, r, t, p_max = case
    cert = uniform_cauchy_check((space, space), funcs, sample, r, t, p_max)
    want = reference_uniform_cauchy_check(space, funcs, sample, r, t, p_max)
    if sample.ladder:  # whose verdict the ladder rule may make
        assert (cert.kind, cert.per_point_index, cert.ladder_indices) == (
            want.kind, want.per_point_index, want.ladder_indices
        )
        assert not cert.uniform or cert.n0 == want.n0
    else:
        assert cert == want


@pytest.mark.parametrize("family", NORM_FAMILIES)
def test_floats_below_the_safe_radius_meet_the_demand(family):
    # the 4,096 floats just below the safe radius, either sign, all pass, on
    # a grid reaching subnormal and huge times; on the normal grid the safe
    # radius lies within a relative 1e-9 of the true one (fl(1 - r) moves
    # mu's cut by up to about 2^-53 / r, the nu cap sits about 2^-52 / (1 - r)
    # below it, and the ladder's rung at most as far again)
    for k in (1e-3, 0.5, 1.0, 3.0, 1e3):
        space = make_standard_space(k, family, verify=False)
        for r in (1e-6, 0.1, 0.5, 0.6765943970031398, 0.9, 1 - 1e-6):
            for t in (5e-324, 1e-310, 1e-3, 0.1, 0.3849829517584646, 1.0, 1e3, 1e300):
                x = safe_radius(space, r, t)
                bits = np.array(x).view(np.int64)
                below = np.arange(max(bits - 4096, 0), bits).view(np.float64)
                z = np.concatenate([below, -below]).reshape(-1, 1)
                with np.errstate(over="ignore"):
                    assert np.all(space.within(z, r, t)), (k, r, t, x)
                if 1e-3 <= t <= 1e3:
                    exact = r * t / (k * (1 - r))
                    assert abs(x - exact) <= 1e-9 * exact, (k, r, t, x)


@given(
    k=st.floats(1e-3, 1e3),
    family=st.sampled_from(NORM_FAMILIES),
    r=st.floats(1e-6, 1 - 1e-6),
    t=st.floats(1e-3, 1e3),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_memoised_safe_radius_is_the_uncached_value(k, family, r, t):
    # the memo is keyed on mu's signature and (r, t), and rebuilds mu from
    # it: it reads what the ladder on the space's own mu gives, and a
    # fresh space of the same k and norm hits it
    space = make_standard_space(k, family, verify=False)
    x = safe_radius(space, r, t)
    with mock.patch.object(ifn_core, "standard_mu", lambda *_: space.mu):
        assert x == _safe_radius.__wrapped__(space.mu.signature(), r, t)
    hits = _safe_radius.cache_info().hits
    assert safe_radius(make_standard_space(k, family, verify=False), r, t) == x
    assert _safe_radius.cache_info().hits == hits + 1


def test_safe_radius_memo_is_bounded():
    _safe_radius.cache_clear()
    space = make_standard_space(1.0, verify=False)
    maxsize = _safe_radius.cache_info().maxsize
    xs = [safe_radius(space, 0.5, 1.0 + i) for i in range(maxsize + 8)]
    info = _safe_radius.cache_info()
    assert info.currsize == maxsize and info.misses == maxsize + 8
    # the oldest entries were dropped, and are computed again
    assert safe_radius(space, 0.5, 1.0) == xs[0]
    assert _safe_radius.cache_info().misses == maxsize + 9


class TestClassicalEquivalence:
    def test_reciprocal_agrees(self, space):
        rec = classical_equivalence_probe(space, reciprocal_sequence(), 0.0)
        assert rec.ifn_converged and rec.classical_converged and rec.agree

    def test_alternating_agrees_on_divergence(self, space):
        rec = classical_equivalence_probe(space, PointSequence("alternating", budget=5000), 0.0)
        assert not rec.ifn_converged and not rec.classical_converged and rec.agree

    def test_constant_agrees(self, space):
        rec = classical_equivalence_probe(space, PointSequence("constant", (0.7,), budget=5000), 0.7)
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


@st.composite
def _catalog_point_sequences(draw):
    """A catalog point-sequence family on 2,000 terms, and a limit: its own,
    or a float near it."""
    seq, limit = draw(
        st.sampled_from(
            [
                (reciprocal_sequence(budget=2000), 0.0),
                (PointSequence("alternating", budget=2000), 1.0),
                (PointSequence("linear", budget=2000), 2000.0),
                (shifted_reciprocal_sequence(0.5, 2.0, budget=2000), 0.5),
                (shifted_reciprocal_sequence(-3.0, 40.0, budget=2000), -3.0),
                (PointSequence("constant", (2.5,), budget=2000), 2.5),
            ]
        )
    )
    return seq, limit + draw(st.sampled_from([0.0, 0.0, 1e-3, -0.25, 1.0]))


def _assert_embedding_keeps_certificates(case, family, axis, rest, k, r, t, p_max):
    """A sequence on the real line and its copy on coordinate `axis` of
    R^(1 + len(rest)), whose other coordinates hold the constants `rest` in
    the terms and in the limit, get the same certificates."""
    seq, limit = case
    d = 1 + len(rest)
    line, space = (make_standard_space(k, family, dim, verify=False) for dim in (1, d))
    others = [j for j in range(d) if j != axis]

    def embedded(ns):
        out = np.empty((len(ns), d))
        out[:, axis] = seq.values(ns)[:, 0]
        out[:, others] = rest
        return out

    flat = PointSequence("custom", budget=seq.budget, dimension=d, fn=embedded)
    lim = np.empty(d)
    lim[axis], lim[others] = limit, rest
    got = convergence_index(space, flat, lim, r, t)
    assert got._replace(limit=(limit,)) == convergence_index(line, seq, limit, r, t)
    assert cauchy_index(space, flat, r, t, p_max) == cauchy_index(line, seq, r, t, p_max)


@given(
    case=_catalog_point_sequences(),
    family=st.sampled_from(["euclidean", "max-coordinate"]),
    axis=st.integers(0, 1),
    k=st.floats(0.1, 5.0),
    r=st.floats(1e-6, 1.0 - 1e-6),
    t=st.floats(1e-3, 5.0),
    p_max=st.integers(1, 200),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_certificates_are_invariant_under_embedding_in_the_plane(case, family, axis, k, r, t, p_max):
    # sqrt(x * x + 0 * 0) and max(|x|, |0|) are |x| in binary64, so a sequence
    # on the real line and its copy on an axis of the plane get the same
    # certificates: the plane takes the general per-p scan and the plain
    # mask, the line its window-extrema scan and safe-radius filter
    _assert_embedding_keeps_certificates(case, family, axis, (0.0,), k, r, t, p_max)


@given(
    case=_catalog_point_sequences(),
    family=st.sampled_from(["euclidean", "max-coordinate"]),
    axis=st.integers(0, 2),
    rest=st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-3, 7e5])] * 2),
    k=st.floats(0.1, 5.0),
    r=st.floats(1e-6, 1.0 - 1e-6),
    t=st.floats(1e-3, 5.0),
    p_max=st.integers(1, 200),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_certificates_are_invariant_under_embedding_in_three_dimensions(
    case, family, axis, rest, k, r, t, p_max
):
    # a constant coordinate that the limit shares differs by 0.0 in every
    # term and window, so each norm is |x| as on the line
    _assert_embedding_keeps_certificates(case, family, axis, rest, k, r, t, p_max)
