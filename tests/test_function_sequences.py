import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifncheck import function_sequences
from ifncheck.errors import DomainError, IFNError, InvalidParameter, NoLimit, UnsupportedFamily
from ifncheck.function_sequences import (
    DEFAULT_P_MAX,
    DomainSample,
    FunctionSequence,
    _limit_masks,
    classical_uniform_probe,
    closed_form_index_power,
    criterion_pair,
    pointwise_limit_estimate,
    sample_domain,
    sup_deviation_oracle,
    uniform_cauchy_check,
    uniform_index_search,
    uniform_index_sweep,
    uniform_limit_scenario,
)
from ifncheck.ifn_core import (
    NORM_FAMILIES,
    IFNSpace,
    custom_membership,
    make_example_family,
    make_standard_space,
    membership_radius,
    safe_radius,
)
from ifncheck.point_convergence import cauchy_index, convergence_index
from ifncheck.sampling import Interval

from stand_ins import TabulatedSequence, column_sequence


@pytest.fixture(scope="module")
def spaces():
    sp = make_example_family("example-4.x")
    return (sp, sp)


def power_index_oracle(c, r, t, n_max=100000):
    """Direct scan: first n with c^n < r t / (1 - r) and all later n too
    (monotone, so the first passing n is the index)."""
    threshold = r * t / (1.0 - r)
    for n in range(1, n_max):
        if c ** n < threshold:
            return n
    return None


class TestPointwise:
    def test_power_limit_zero(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
        limit, cert = pointwise_limit_estimate(spaces, seq, 0.5, 0.1, 0.1)
        assert limit == 0.0
        assert cert.certified and cert.n0 == 7

    def test_quotient_limit_one(self, spaces):
        seq = FunctionSequence("quotient", Interval(0.0, 10.0))
        limit, cert = pointwise_limit_estimate(spaces, seq, 1.0, 0.1, 0.5)
        assert limit == 1.0 and cert.certified

    def test_fixed_point_trivial(self, spaces):
        # x = 0 is a fixed point of every power map
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        limit, cert = pointwise_limit_estimate(spaces, seq, 0.0, 0.3, 1.0)
        assert limit == 0.0 and cert.n0 == 1

    def test_oscillating_custom_has_no_limit(self, spaces):
        seq = TabulatedSequence(lambda ns, xs: np.outer((-1.0) ** ns, np.ones_like(xs)), budget=2000)
        with pytest.raises(NoLimit):
            pointwise_limit_estimate(spaces, seq, 0.5, 0.2, 1.0)

    def test_outside_domain(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        with pytest.raises(DomainError):
            pointwise_limit_estimate(spaces, seq, 0.9, 0.1, 0.1)


class TestUniformIndexSearch:
    def test_power_closed_half(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        cert = uniform_index_search(spaces, seq, sample_domain(seq.domain, 17), 0.1, 0.1)
        assert cert.uniform and cert.n0 == 7

    def test_index_is_max_of_per_point(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        cert = uniform_index_search(spaces, seq, sample_domain(seq.domain, 17), 0.1, 0.1)
        per_point = dict(cert.per_point_index)
        assert cert.n0 == max(per_point.values())
        # uniform implies pointwise at every sampled x with index <= n0
        assert all(i is not None and i <= cert.n0 for i in per_point.values())

    def test_matches_brute_force_at_endpoint(self, spaces):
        for r, t in ((0.1, 0.1), (0.3, 0.5)):
            seq = FunctionSequence("power", Interval(0.0, 0.5))
            cert = uniform_index_search(spaces, seq, sample_domain(seq.domain, 17), r, t)
            assert cert.n0 == power_index_oracle(0.5, r, t)

    def test_open_unit_interval_not_uniform(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
        sample = sample_domain(seq.domain, 17, refine_side="hi", refine_depth=10)
        cert = uniform_index_search(spaces, seq, sample, 0.1, 0.1)
        assert cert.verdict == "not-uniform-on-sample"
        ladder = [i for i in cert.ladder_indices if i is not None]
        assert all(b > a for a, b in zip(ladder, ladder[1:]))
        assert ladder[6] >= 2 * ladder[3]

    def test_scaled_family_boundary_strictness(self, spaces):
        # at x = 1 and (r, t) = (1/2, 1): |x/n| < 1 first holds strictly at n = 2
        seq = FunctionSequence("scaled", Interval(0.0, 1.0))
        cert = uniform_index_search(spaces, seq, sample_domain(seq.domain, 17), 0.5, 1.0)
        assert cert.n0 == 2

    def test_constant_family(self, spaces):
        seq = FunctionSequence("constant", Interval(0.0, 1.0), params=("identity",))
        cert = uniform_index_search(spaces, seq, sample_domain(seq.domain, 9), 0.5, 1.0)
        assert cert.n0 == 1 and cert.uniform

    def test_certificate_monotone_in_demand(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.9))
        sample = sample_domain(seq.domain, 9)
        n_tight = uniform_index_search(spaces, seq, sample, 0.05, 0.1).n0
        n_loose = uniform_index_search(spaces, seq, sample, 0.5, 0.1).n0
        assert n_loose <= n_tight
        n_small_t = uniform_index_search(spaces, seq, sample, 0.1, 0.1).n0
        n_big_t = uniform_index_search(spaces, seq, sample, 0.1, 1.0).n0
        assert n_big_t <= n_small_t


def _sweep_cases():
    power_half = FunctionSequence("power", Interval(0.0, 0.5))
    open_unit = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
    quotient = FunctionSequence("quotient", Interval(0.0, 10.0))
    scaled = FunctionSequence("scaled", Interval(0.0, 1.0))
    constant = FunctionSequence("constant", Interval(0.0, 1.0), params=("identity",))
    return {
        "power": (power_half, sample_domain(power_half.domain, 17)),
        "power-ladder": (
            open_unit,
            sample_domain(open_unit.domain, 17, refine_side="hi", refine_depth=10),
        ),
        "quotient": (quotient, sample_domain(quotient.domain, 11)),
        "scaled": (scaled, sample_domain(scaled.domain, 17)),
        "constant": (constant, sample_domain(constant.domain, 9)),
    }


_SWEEP_CASES = _sweep_cases()


class TestUniformIndexSweep:
    # (0.1, 0.1) repeats, so a pair must not see state left by an earlier one
    RTS = [(0.1, 0.1), (0.5, 1.0), (0.9, 10.0), (0.3, 0.05), (0.1, 0.1)]

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_equals_separate_searches(self, spaces, case):
        seq, sample = _SWEEP_CASES[case]
        sweep = uniform_index_sweep(spaces, seq, sample, self.RTS)
        assert sweep == [uniform_index_search(spaces, seq, sample, r, t) for r, t in self.RTS]


@pytest.mark.parametrize(
    "r, t, p_max",
    [
        pytest.param(r, t, DEFAULT_P_MAX, id=f"{r}-{t}")
        for r, t in [(0.0, 0.1), (1.5, 0.1), (0.1, -1.0), (0.1, float("inf"))]
    ]
    + [pytest.param(0.1, 0.1, 0, id="p_max-0")],
)
def test_uniform_certificates_reject_bad_demands(spaces, r, t, p_max):
    seq, sample = _SWEEP_CASES["scaled"]
    if p_max < 1:
        # only the Cauchy criterion has a p window
        with pytest.raises(InvalidParameter, match="p_max must be >= 1"):
            uniform_cauchy_check(spaces, seq, sample, r, t, p_max)
        return
    with pytest.raises(DomainError):
        uniform_index_sweep(spaces, seq, sample, [(0.1, 0.1), (r, t)])
    with pytest.raises(DomainError):
        uniform_cauchy_check(spaces, seq, sample, r, t, p_max)
    with pytest.raises(DomainError):
        classical_uniform_probe(spaces, seq, sample, r, t)


@given(
    case=st.sampled_from(["power-ladder", "scaled", "quotient"]),
    rts=st.lists(
        st.tuples(
            st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
            st.floats(min_value=1e-3, max_value=100.0),
        ),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=30, deadline=None)
def test_sweep_equals_separate_searches_on_random_grids(case, rts):
    sp = make_example_family("example-4.x")
    seq, sample = _SWEEP_CASES[case]
    assert uniform_index_sweep((sp, sp), seq, sample, rts) == [
        uniform_index_search((sp, sp), seq, sample, r, t) for r, t in rts
    ]


def k1_radius(r, t):
    """The membership radius r t / (1 - r) of the catalog's k = 1 space."""
    return membership_radius(make_example_family("example-4.x"), r, t)


class TestClosedFormIndex:
    def test_reference_case(self):
        assert closed_form_index_power(0.5, k1_radius(0.1, 0.1)) == 7

    def test_clamped_when_bound_exceeds_one(self):
        assert closed_form_index_power(0.5, k1_radius(0.5, 1.0)) == 1

    def test_agrees_with_brute_force(self):
        for c in (0.3, 0.5, 0.7, 0.9, 0.99):
            for r, t in ((0.1, 0.1), (0.25, 0.5), (0.6, 0.05)):
                assert closed_form_index_power(c, k1_radius(r, t)) == power_index_oracle(c, r, t)

    def test_diverges_toward_one(self):
        ks = [closed_form_index_power(c, k1_radius(0.1, 0.1)) for c in (0.5, 0.9, 0.99, 0.999)]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_dominates_per_point_indices(self, spaces):
        # the endpoint bound dominates every interior sampled point
        a, r, t = 0.8, 0.1, 0.1
        k = closed_form_index_power(a, k1_radius(r, t))
        for x in np.linspace(0.05, a, 9):
            assert power_index_oracle(float(x), r, t) <= k

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            closed_form_index_power(1.2, k1_radius(0.1, 0.1))
        with pytest.raises(DomainError):
            closed_form_index_power(0.5, k1_radius(0.0, 0.1))


@given(
    c=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    r=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    t=st.floats(min_value=1e-3, max_value=100.0),
)
# one ulp below 1, where an estimate through 1 / c was twice the index
@example(c=1.0 - 2.0**-53, r=0.1, t=0.1)
@settings(max_examples=200, deadline=None)
def test_closed_form_index_equals_single_point_search(spaces, c, r, t):
    # the paper's logarithmic index at c is the direct search's n0 on the
    # one-point sample {c}; an index past the budget is no index there
    seq = FunctionSequence("power", Interval(0.0, 1.0, open_hi=True))
    k = closed_form_index_power(c, membership_radius(spaces[1], r, t))
    n0 = uniform_index_search(spaces, seq, DomainSample((c,)), r, t).n0
    assert n0 == (k if k <= seq.budget else None)


class TestCauchyCriterion:
    def test_power_closed_half_index(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        cert = uniform_cauchy_check(spaces, seq, sample_domain(seq.domain, 17), 0.1, 0.1)
        assert cert.uniform
        assert 7 <= cert.n0 <= 9

    def test_criterion_agrees_with_direct_on_catalog(self, spaces):
        from ifncheck.catalog import catalog_function_sequences

        for name, (seq, refine) in catalog_function_sequences().items():
            sample = sample_domain(seq.domain, 9, refine_side=refine, refine_depth=10)
            direct = uniform_index_search(spaces, seq, sample, 0.1, 0.1)
            criterion = uniform_cauchy_check(spaces, seq, sample, 0.1, 0.1)
            assert direct.verdict == criterion.verdict, name

    def test_constant_sequence_index_one(self, spaces):
        seq = FunctionSequence("constant", Interval(0.0, 1.0), params=("identity",))
        cert = uniform_cauchy_check(spaces, seq, sample_domain(seq.domain, 9), 0.5, 1.0)
        assert cert.n0 == 1

    def test_criterion_rechecks_a_passing_worst_deviation_near_the_radius(self):
        # at n = 1 the worst later deviation, 0.8054198989992021, passes, yet
        # the nearer later term 0.805419898999202 fails: the float demand is
        # not monotone in |z| near the radius, so n0 is 2, not 1
        sp = make_standard_space(1.0)
        r, t = 0.6765943970031398, 0.3849829517584646
        rows = np.array([0.0, 0.805419898999202] + [0.8054198989992021] * 9)
        assert list(sp.within(rows[1:3].reshape(-1, 1), r, t)) == [False, True]
        seq = TabulatedSequence(lambda ns, xs: rows[ns - 1][:, None] + 0.0 * xs, budget=8)
        cert = uniform_cauchy_check((sp, sp), seq, DomainSample((0.0,)), r, t, p_max=3)
        assert (cert.verdict, cert.n0) == ("uniform-up-to-budget", 2)

    def test_criterion_needs_the_standard_pair_on_the_line(self, spaces):
        # the suffix extrema decide each n only where the demand falls with
        # |z|, which the standard pair on the real line guarantees
        sp = spaces[1]
        custom = IFNSpace(1, custom_membership(sp.mu.eval), custom_membership(sp.nu.eval), sp.tnorm, sp.tconorm)
        plane = make_standard_space(1.0, dimension=2, verify=False)
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        sample = sample_domain(seq.domain, 9)
        for codomain in (custom, plane):
            with pytest.raises(UnsupportedFamily, match="the standard pair on the real line"):
                uniform_cauchy_check((sp, codomain), seq, sample, 0.1, 0.1)
            with pytest.raises(UnsupportedFamily, match="the standard pair on the real line"):
                criterion_pair((sp, codomain), seq, sample, 0.1, 0.1)


class TestSupOracle:
    def test_reference_value(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        sup = sup_deviation_oracle(seq, 0.5, 2, 4)
        assert sup == pytest.approx(0.1875, abs=1e-6)
        # attained at the right endpoint: the interior critical point
        # (m/n)^(1/(n-m)) ~ 0.707 lies beyond a = 0.5
        assert (2.0 / 4.0) ** (1.0 / 2.0) > 0.5

    def test_strictly_below_doubled_bound(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        for a, m, n in ((0.5, 2, 4), (0.9, 1, 100), (0.3, 3, 8)):
            sup = sup_deviation_oracle(seq, a, m, n)
            assert sup <= a ** m + 1e-12
            assert sup < 2.0 * a ** m

    def test_equal_orders_give_zero(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        assert sup_deviation_oracle(seq, 0.5, 3, 3) == 0.0

    def test_interior_critical_point_case(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.9))
        a, m, n = 0.9, 1, 100
        sup = sup_deviation_oracle(seq, a, m, n)
        x_star = (m / n) ** (1.0 / (n - m))
        expected = x_star ** m - x_star ** n if x_star < a else a ** m - a ** n
        assert sup == pytest.approx(expected, abs=1e-6)

    def test_family_guard(self, spaces):
        seq = FunctionSequence("quotient", Interval(0.0, 1.0))
        with pytest.raises(UnsupportedFamily):
            sup_deviation_oracle(seq, 0.5, 2, 4)


class TestUniformLimit:
    def test_uniform_case(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        rec = uniform_limit_scenario(
            spaces, seq, sample_domain(seq.domain, 9), 0.1, 0.1, 0.5, 0.25
        )
        assert rec.certificate.uniform
        assert rec.limit_continuous_everywhere
        assert all(v == "witnessed" for _, v in rec.member_witnesses)

    def test_converse_fails_case(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
        sample = sample_domain(seq.domain, 9, refine_side="hi", refine_depth=10)
        rec = uniform_limit_scenario(spaces, seq, sample, 0.1, 0.1, 0.5, 0.25)
        assert rec.certificate.verdict == "not-uniform-on-sample"
        assert rec.limit_continuous_everywhere  # continuity of O survives

    def test_constant_sequence_limit_is_member_map(self, spaces):
        seq = FunctionSequence("constant", Interval(0.0, 1.0), params=("identity",))
        rec = uniform_limit_scenario(
            spaces, seq, sample_domain(seq.domain, 9), 0.5, 1.0, 0.5, 0.25
        )
        assert rec.certificate.uniform and rec.certificate.n0 == 1
        assert rec.limit_continuous_everywhere


class TestClassicalProbe:
    def test_power_closed_half(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        rec = classical_uniform_probe(spaces, seq, sample_domain(seq.domain, 9))
        assert rec.classical_uniform and rec.ifn_certificate.uniform and rec.agree

    def test_power_open_unit(self, spaces):
        seq = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
        sample = sample_domain(seq.domain, 9, refine_side="hi", refine_depth=10)
        rec = classical_uniform_probe(spaces, seq, sample)
        assert not rec.classical_uniform and not rec.ifn_certificate.uniform and rec.agree

    def test_quotient(self, spaces):
        seq = FunctionSequence("quotient", Interval(0.0, 10.0))
        rec = classical_uniform_probe(spaces, seq, sample_domain(seq.domain, 9))
        assert rec.agree and rec.classical_uniform


_SMALL_SWEEP_SEQUENCES = {
    "power": FunctionSequence("power", Interval(0.0, 0.9), budget=400),
    "quotient": FunctionSequence("quotient", Interval(0.0, 10.0), budget=400),
    "scaled": FunctionSequence("scaled", Interval(0.0, 1.0), budget=400),
}


@given(
    family=st.sampled_from(sorted(_SMALL_SWEEP_SEQUENCES)),
    rs=st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), min_size=2, max_size=5),
    t=st.floats(min_value=1e-3, max_value=100.0),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_sweep_indices_do_not_grow_with_r(family, rs, t):
    # mu > 1 - r and nu < r only loosen as r grows, and 1 - r rounds
    # monotonically, so this holds exactly in floats
    sp = make_example_family("example-4.x")
    seq = _SMALL_SWEEP_SEQUENCES[family]
    sample = sample_domain(seq.domain, 9)
    certs = uniform_index_sweep((sp, sp), seq, sample, [(r, t) for r in sorted(rs)])
    never = seq.budget + 1
    for tight, loose in zip(certs, certs[1:]):
        for (x, n_tight), (y, n_loose) in zip(tight.per_point_index, loose.per_point_index):
            assert x == y
            assert (never if n_loose is None else n_loose) <= (never if n_tight is None else n_tight)


@given(
    family=st.sampled_from(sorted(_SMALL_SWEEP_SEQUENCES)),
    k=st.sampled_from([0.5, 1.0, 3.0]),
    r=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    steps=st.lists(st.integers(-24, 16), min_size=2, max_size=5, unique=True),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_sweep_indices_do_not_grow_with_t(family, k, r, steps):
    # mu > 1 - r and nu < r only loosen as t grows.  Two times a few ulps
    # apart can still flip a near-tie (fl(t + k|z|) may step up by more
    # than t does), so the times are 10^(j/8), at least 33 % apart, which
    # moves both quotients far past their rounding
    sp = make_standard_space(k, verify=False)
    seq = _SMALL_SWEEP_SEQUENCES[family]
    sample = sample_domain(seq.domain, 9)
    certs = uniform_index_sweep((sp, sp), seq, sample, [(r, 10.0 ** (j / 8)) for j in sorted(steps)])
    never = seq.budget + 1
    for tight, loose in zip(certs, certs[1:]):
        assert (never if loose.n0 is None else loose.n0) <= (never if tight.n0 is None else tight.n0)
        for (x, n_tight), (y, n_loose) in zip(tight.per_point_index, loose.per_point_index):
            assert x == y
            assert (never if n_loose is None else n_loose) <= (never if n_tight is None else n_tight)


# Bases where x ** n is special: signed zeros, NaN, infinities, the smallest
# subnormals, |x| > 1 (overflow) and x next to 1 (slow decay).
_POWER_BASES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324]),
    st.floats(min_value=1.0, max_value=4.0, exclude_min=True).flatmap(
        lambda a: st.sampled_from([a, -a])
    ),
    st.floats(min_value=1.0 - 1e-4, max_value=1.0 + 1e-4).flatmap(lambda a: st.sampled_from([a, -a])),
    st.floats(min_value=-1.0, max_value=1.0),
)


@given(
    xs=st.lists(_POWER_BASES, min_size=1, max_size=12),
    ns=st.lists(
        st.one_of(st.just(0), st.integers(min_value=0, max_value=10_100)), min_size=1, max_size=40
    ),
)
@settings(max_examples=200, deadline=None)
def test_power_values_are_xs_to_the_ns_bit_for_bit(xs, ns):
    seq = FunctionSequence("power", Interval(0.0, 1.0))
    xs, ns = np.array(xs), np.array(ns, dtype=float)
    with np.errstate(over="ignore"):
        got = seq.values(ns, xs)
        want = xs.reshape(1, -1) ** ns.reshape(-1, 1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _ulps_from(x, j):
    """The float j ulps above the non-negative float x (below for j < 0)."""
    return float((np.array(x).view(np.int64) + j).view(np.float64))


def _closed_form_pair(space):
    """The standard pair's closed forms t/(t + k|z|) and k|z|/(t + k|z|) as
    callables: not a standard pair."""
    mu = lambda p, s: s / (s + space.k * np.abs(p[:, 0]))
    nu = lambda p, s: space.k * np.abs(p[:, 0]) / (s + space.k * np.abs(p[:, 0]))
    return custom_membership(mu), custom_membership(nu)


def _custom_pair(space):
    """mu = exp(-k |z| / t) and nu = 1 - mu, as callables."""
    mu = lambda p, s: np.exp(-space.k * np.abs(p[:, 0]) / s)
    return custom_membership(mu), custom_membership(lambda p, s: 1.0 - mu(p, s))


@st.composite
def _deviation_blocks(draw):
    """A codomain on the real line, (r, t) demands, and an (N, M) block of
    f_n(x) with its M limits.  The codomain is a standard space, or its
    pair replaced by a custom one, its own closed forms or another.  The
    deviations are the floats up to 4 ulps either side of each demand's
    safe radius and of its float radius r t / (k (1 - r)) on the standard
    space, either sign, plus NaN, +-inf, +-0.0 and random ones; most limits
    are 0.0, so most deviations are exactly these floats."""
    k = draw(st.sampled_from([0.5, 1.0, 3.0]))
    space = make_standard_space(k, draw(st.sampled_from(NORM_FAMILIES)), verify=False)
    rts = draw(
        st.lists(st.tuples(st.floats(1e-6, 1 - 1e-6), st.floats(1e-3, 1e3)), min_size=1, max_size=3)
    )
    near = [
        _ulps_from(x, j)
        for r, t in rts
        for x in (safe_radius(space, r, t), r * t / (k * (1.0 - r)))
        for j in range(-4, 5)
    ]
    devs = near + [-z for z in near] + [math.nan, math.inf, -math.inf, -0.0, 0.0]
    devs += draw(st.lists(st.floats(-10.0, 10.0), max_size=20))
    devs = draw(st.permutations(devs))
    m = draw(st.integers(1, 4))
    devs += [0.0] * (-len(devs) % m)
    limits = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, -0.25]), min_size=m, max_size=m)))
    with np.errstate(invalid="ignore"):
        vals = np.array(devs).reshape(-1, m) + limits
    pair = draw(st.sampled_from([None, _closed_form_pair, _custom_pair]))
    if pair is not None:
        space = IFNSpace(1, *pair(space), space.tnorm, space.tconorm)
    return space, rts, vals, limits


@given(case=_deviation_blocks())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_filtered_limit_mask_equals_the_per_column_within_mask(case):
    space, rts, vals, limits = case
    with np.errstate(invalid="ignore"):
        got = list(_limit_masks(space, vals, limits, rts))
        want = [
            np.column_stack([space.within((v - lim).reshape(-1, 1), r, t) for v, lim in zip(vals.T, limits)])
            for r, t in rts
        ]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == bool and g.shape == w.shape and g.tobytes() == w.tobytes()


# Cross-layer relations (metamorphic properties): each pits a fast path
# against another layer's certificate on the catalog's sequence families.


def _catalog_sequence_cases():
    """The catalog's function sequences on a budget of 2,000 terms, each with
    the refinement side of its domain sample."""
    from ifncheck.catalog import catalog_function_sequences

    return {
        name: (FunctionSequence(seq.family, seq.domain, seq.params, 2000), refine)
        for name, (seq, refine) in catalog_function_sequences().items()
    }


_CATALOG_SEQUENCES = _catalog_sequence_cases()


@st.composite
def _catalog_demands(draw):
    """A catalog function sequence with a domain sample, and a standard
    codomain on the real line with a demand: k in [0.1, 5], r in (0, 1),
    t in [1e-3, 5]."""
    seq, refine = _CATALOG_SEQUENCES[draw(st.sampled_from(sorted(_CATALOG_SEQUENCES)))]
    sample = sample_domain(seq.domain, draw(st.integers(2, 17)), refine_side=refine, refine_depth=10)
    k = draw(st.floats(0.1, 5.0))
    family = draw(st.sampled_from(NORM_FAMILIES))
    r, t = draw(st.floats(1e-6, 1.0 - 1e-6)), draw(st.floats(1e-3, 5.0))
    return seq, sample, k, family, r, t


@given(case=_catalog_demands())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_uniform_per_point_indices_are_the_point_convergence_indices(case):
    # the direct search decides a flattened, filtered (budget, M) mask; the
    # point layer scans each image sequence f_n(x) term by term
    seq, sample, k, family, r, t = case
    sp = make_standard_space(k, family, verify=False)
    cert = uniform_index_search((sp, sp), seq, sample, r, t)
    limits = seq.exact_limit(sample.all_points())
    want = tuple(
        (float(x), convergence_index(sp, column_sequence(seq, x), lim, r, t).n0)
        for x, lim in zip(sample.all_points(), limits)
    )
    assert cert.per_point_index == want
    indices = [i for _, i in want]
    if cert.uniform or (None not in indices and not sample.ladder):
        assert cert.uniform and cert.n0 == max(indices)


@given(case=_catalog_demands(), m=st.integers(-6, 6), p_max=st.integers(1, 200), data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_certificates_are_invariant_under_dyadic_scaling_of_k_and_t(case, m, p_max, data):
    # t / (t + k|z|) and k|z| / (t + k|z|) are the same floats at (c k, c t)
    # for c = 2^m, away from overflow and underflow, so every certificate is
    # the same but for its t
    seq, sample, k, family, r, t = case
    c = 2.0**m
    base, scaled = (make_standard_space(s * k, family, verify=False) for s in (1.0, c))

    def same(got, want):
        assert repr(got._replace(t=t)) == repr(want)

    for a, b in zip(
        criterion_pair((scaled, scaled), seq, sample, r, c * t, p_max),
        criterion_pair((base, base), seq, sample, r, t, p_max),
    ):
        same(a, b)
    x = data.draw(st.sampled_from(sample.all_points().tolist()))
    points = column_sequence(seq, x)
    lim = float(seq.exact_limit(np.array([x]))[0])
    same(convergence_index(scaled, points, lim, r, c * t), convergence_index(base, points, lim, r, t))
    same(cauchy_index(scaled, points, r, c * t, p_max), cauchy_index(base, points, r, t, p_max))


def test_a_nan_term_fails_every_cauchy_row_at_or_before_it():
    # f_n(x) = x / n with f_5001(0.5) = NaN: in the criterion every
    # n <= 5001 sees the NaN among its later terms or as its own term, and
    # `within` fails a NaN deviation, so that column's index is 5002
    sp = make_example_family("example-4.x")

    def fn(ns, xs):
        vals = np.outer(1.0 / ns, xs)
        vals[np.ix_(ns == 5001, xs == 0.5)] = np.nan
        return vals

    seq = TabulatedSequence(fn, budget=10_000)
    cert = uniform_cauchy_check((sp, sp), seq, DomainSample((0.25, 0.5, 0.75)), 0.5, 1.0)
    assert [i for _, i in cert.per_point_index] == [1, 5002, 1]
    assert cert.uniform and cert.n0 == 5002


def test_a_nan_cell_fails_the_limit_mask():
    sp = make_example_family("example-4.x")
    vals = np.array([[0.5, np.nan], [0.0, 0.25], [np.nan, 0.0]])
    masks = list(_limit_masks(sp, vals, np.array([0.0, 0.0]), [(0.5, 1.0), (0.1, 0.1)]))
    assert [m.tolist() for m in masks] == [
        [[True, False], [True, True], [False, True]],
        [[False, False], [True, False], [False, True]],
    ]


# The column-block walk: every certificate is per column, so the block size
# changes nothing.


def _nan_cell(n_nan, x_nan):
    """f_n(x) = x / n, but NaN at the one cell (n_nan, x_nan)."""

    def fn(ns, xs):
        vals = np.outer(1.0 / ns, xs)
        vals[np.ix_(ns == n_nan, xs == x_nan)] = np.nan
        return vals

    return fn


@st.composite
def _walk_cases(draw):
    """A function sequence on a small budget with a domain sample, with or
    without a refinement ladder, a codomain on the real line (a standard
    space, or its pair behind custom tags, which only the direct search
    takes) and an (r, t) demand with p_max."""
    budget, p_max = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    family = draw(st.sampled_from(["power", "quotient", "scaled", "constant", "custom"]))
    refine = draw(st.sampled_from([None, "hi"])) if family == "power" else None
    domain = {"power": Interval(0.0, 1.0, open_hi=refine is not None), "quotient": Interval(0.0, 10.0)}
    domain = domain.get(family, Interval(0.0, 1.0))
    points, depth = draw(st.integers(1, 9)), draw(st.integers(4, 8))
    sample = sample_domain(domain, points, refine_side=refine, refine_depth=depth)
    if family == "custom":
        x_nan = draw(st.sampled_from(sample.all_points().tolist()))
        fn = _nan_cell(draw(st.integers(1, budget + p_max)), x_nan)
        seq = TabulatedSequence(fn, domain, budget)
    else:
        seq = FunctionSequence(family, domain, budget=budget)
    space = std = make_standard_space(draw(st.sampled_from([0.5, 1.0, 3.0])), verify=False)
    if draw(st.booleans()):
        space = IFNSpace(
            1,
            custom_membership(lambda p, s: std.mu.eval(p, s)),
            custom_membership(lambda p, s: std.nu.eval(p, s)),
            std.tnorm,
            std.tconorm,
        )
    r, t = draw(st.floats(1e-6, 1.0 - 1e-6)), draw(st.floats(1e-3, 100.0))
    return (space, space), seq, sample, r, t, p_max


def _walk_certificates(spaces, seq, sample, r, t, p_max):
    """Each walker's certificates, or the error it raises (NoLimit for the
    custom family, UnsupportedFamily for the criterion and the classical
    probe off the standard pair)."""
    calls = {
        "sweep": lambda: uniform_index_sweep(spaces, seq, sample, [(r, t), (0.5, 1.0)]),
        "criterion_pair": lambda: criterion_pair(spaces, seq, sample, r, t, p_max),
        "cauchy": lambda: uniform_cauchy_check(spaces, seq, sample, r, t, p_max),
        "classical": lambda: classical_uniform_probe(spaces, seq, sample, r, t),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except IFNError as exc:
            out[name] = repr(exc)
    return out


@given(case=_walk_cases(), cells=st.integers(1, 200))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_column_blocks_give_the_one_block_certificates(case, cells):
    whole = _walk_certificates(*case)
    for block in (1, 2, 7, cells):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(function_sequences, "_BLOCK_CELLS", block)
            assert _walk_certificates(*case) == whole, block


def test_checks_hold_a_few_blocks_of_f_n_x_at_a_time(spaces):
    # the 40,000 x 170 matrix of f_n(x) alone is 54 MB; a check holds one
    # column block and temporaries of its order
    seq = FunctionSequence("power", Interval(0.0, 0.5), budget=40_000)
    sample = sample_domain(seq.domain, 170)
    bound = 5 * 8 * function_sequences._BLOCK_CELLS
    for check in (
        lambda: uniform_index_sweep(spaces, seq, sample, [(0.1, 0.1), (0.5, 1.0)]),
        lambda: criterion_pair(spaces, seq, sample, 0.1, 0.1, 100),
    ):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak
