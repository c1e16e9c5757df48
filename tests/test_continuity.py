import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifncheck.catalog import closure_pair
from ifncheck.continuity import (
    _PROBE_FRACTIONS,
    INCONCLUSIVE,
    LADDER_DEPTH,
    MAP_RULES,
    REFUTED,
    WITNESSED,
    CauchyPreservationRecord,
    ContinuityWitness,
    MapRule,
    UniformWitness,
    _pair_sample,
    cauchy_preservation_check,
    combine,
    continuity_witness_search,
    continuity_witness_searches,
    equivalence_probe,
    make_map,
    recheck_witness,
    rule,
    sequential_continuity_check,
    uniform_continuity_search,
)
from ifncheck.errors import (
    CertificationError,
    DomainError,
    InvalidParameter,
    UnsupportedFamily,
    ZeroDivisor,
)
from ifncheck.ifn_core import (
    EXAMPLE_SPACES,
    IFNSpace,
    custom_membership,
    make_example_family,
    make_standard_space,
    membership_radius,
)
from ifncheck.point_convergence import (
    PointSequence,
    reciprocal_sequence,
    shifted_reciprocal_sequence,
)
from ifncheck.sampling import Interval, sorted_unique


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


def _point_mass_space():
    """mu = 1 at z = 0 and 0 elsewhere: no hypothesis set holds a point
    but x0, so no rung of a witness search is probed."""
    mu = lambda p, s: np.broadcast_to(p[:, 0] == 0.0, np.broadcast_shapes(np.shape(s), (len(p),))).astype(float)
    std = make_standard_space(1.0)
    return IFNSpace(1, custom_membership(mu), custom_membership(lambda p, s: 1.0 - mu(p, s)),
                    std.tnorm, std.tconorm)


@st.composite
def _witness_searches(draw):
    """A map between catalog spaces (identity, affine, power, step or
    reciprocal on an interval), x0 in its interval (often a step's jump),
    and (epsilon, alpha).  The domain may also be `_point_mass_space`."""
    name = draw(st.sampled_from([*EXAMPLE_SPACES, "point-mass"]))
    U = _point_mass_space() if name == "point-mass" else make_example_family(name)
    V = make_example_family(draw(st.sampled_from(list(EXAMPLE_SPACES))))
    tag = draw(st.sampled_from(["identity", "affine", "power", "step", "reciprocal"]))
    lo = draw(st.floats(0.05, 2.0) if tag in ("power", "reciprocal") else st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.1, 3.0))
    params = draw({
        "affine": st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        "power": st.tuples(st.floats(0.5, 4.0)),
        "step": st.tuples(st.floats(lo, hi)),
    }.get(tag, st.just(())))
    x0 = params[0] if tag == "step" and draw(st.booleans()) else draw(st.floats(lo, hi))
    f = make_map(U, V, rule(tag, *params), Interval(lo, hi))
    return f, x0, draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 0.99))


@given(case=_witness_searches())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_witness_search_refutes_exactly_when_a_counterexample_is_recorded(case):
    f, x0, epsilon, alpha = case
    w = continuity_witness_search(f, x0, epsilon, alpha)
    assert w.verdict in (WITNESSED, REFUTED, INCONCLUSIVE)
    if w.verdict == INCONCLUSIVE:
        assert w.rung is None and w.counterexample is None
    elif w.verdict == REFUTED:
        assert w.counterexample is not None and w.rung == w.counterexample["rung"]
    else:
        assert w.counterexample is None and w.rung is not None


def reference_witness_search(f, x0, epsilon, alpha, seed):
    """`continuity_witness_search` as a rung-by-rung loop.  The probes of
    rung j are a domain-wide sample, points closing in on x0, and
    `_PROBE_FRACTIONS` of the hypothesis radius on each side of x0; the
    first rung with a probed hypothesis point and no violation witnesses,
    and otherwise the first violation of the last probed rung refutes."""
    dom, U, V = f.restriction, f.domain, f.codomain
    if not bool(dom.contains(x0)):
        raise DomainError(f"x0={x0!r} is outside the map's restriction")
    rng = np.random.default_rng((seed, 17))
    offs = max(x0 - dom.lo, dom.hi - x0, 1e-9) * 2.0 ** (-np.arange(0, 47, dtype=float))
    near = np.concatenate([x0 + offs, x0 - offs])
    base = sorted_unique(np.concatenate([dom.grid(41), dom.random(64, rng), near[dom.contains(near)]]))
    fx0 = float(f(x0))
    plan = {"seed": seed, "ladder_depth": LADDER_DEPTH}
    probes, counterexample = 0, None
    for j in range(LADDER_DEPTH + 1):
        delta, beta = epsilon * 2.0 ** (-j), alpha * 2.0 ** (-j)
        try:
            rho = membership_radius(U, beta, delta)
        except UnsupportedFamily:
            rho = None
        xs = base
        if rho is not None and np.isfinite(rho):
            adapted = np.concatenate([x0 + rho * np.asarray(_PROBE_FRACTIONS), x0 - rho * np.asarray(_PROBE_FRACTIONS)])
            xs = sorted_unique(np.concatenate([base, adapted[dom.contains(adapted)]]))
        dx, dfx = (xs - x0).reshape(-1, 1), (f(xs) - fx0).reshape(-1, 1)
        mu_u, nu_u = U.memberships(dx, delta)
        mu_v, nu_v = V.memberships(dfx, epsilon)
        hyp_mu, hyp_nu = mu_u > 1.0 - beta, nu_u < beta
        viol = (hyp_mu & ~(mu_v > 1.0 - alpha)) | (hyp_nu & ~(nu_v < alpha))
        probes += len(xs)
        if not np.any((hyp_mu | hyp_nu) & (xs != x0)):
            continue
        if not np.any(viol):
            return ContinuityWitness(x0, epsilon, alpha, delta, beta, WITNESSED, j, None, probes, plan)
        i = int(np.flatnonzero(viol)[0])
        counterexample = {
            "x": float(xs[i]), "f(x)": float(f(xs[i])),
            "mu_U": float(U.mu_many(dx[i : i + 1], delta)[0]),
            "mu_V": float(V.mu_many(dfx[i : i + 1], epsilon)[0]),
            "delta": delta, "beta": beta, "rung": j,
        }
    if counterexample is None:
        return ContinuityWitness(x0, epsilon, alpha, None, None, INCONCLUSIVE, None, None, probes, plan)
    return ContinuityWitness(
        x0, epsilon, alpha, None, None, REFUTED, counterexample["rung"], counterexample, probes, plan
    )


def reference_uniform_search(f, epsilon, alpha, seed):
    """`uniform_continuity_search` as a rung-by-rung loop over the pair
    sample: the first rung with a hypothesis pair and no violation
    witnesses; a violation at every rung refutes."""
    U, V = f.domain, f.codomain
    xa, xb = _pair_sample(f, seed)
    dx, dfx = (xa - xb).reshape(-1, 1), (f(xa) - f(xb)).reshape(-1, 1)
    concl = V.within(dfx, alpha, epsilon)
    pairs, violated, counterexample = 0, [], None
    for j in range(LADDER_DEPTH + 1):
        delta, beta = epsilon * 2.0 ** (-j), alpha * 2.0 ** (-j)
        hyp = U.within(dx, beta, delta)
        viol = hyp & ~concl
        pairs += len(xa)
        violated.append(bool(np.any(viol)))
        if not violated[-1] and np.any(hyp):
            return UniformWitness(epsilon, alpha, delta, beta, WITNESSED, j, None, pairs)
        if violated[-1]:
            i = int(np.flatnonzero(viol)[0])
            counterexample = {
                "x1": float(xa[i]), "x2": float(xb[i]), "f(x1)": float(f(xa[i])), "f(x2)": float(f(xb[i])),
                "delta": delta, "beta": beta, "rung": j,
            }
    if all(violated):
        return UniformWitness(epsilon, alpha, None, None, REFUTED, LADDER_DEPTH, counterexample, pairs)
    return UniformWitness(epsilon, alpha, None, None, INCONCLUSIVE, None, counterexample, pairs)


def _outcome(search):
    """What a search call gives: its results' fields, repr'd so that -0.0 and
    0.0 differ, or the type and text of what it raised."""
    try:
        result = search()
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("returned", repr([r._asdict() for r in (result if isinstance(result, list) else [result])]))


def _rule_of(draw, lo, hi, depth=0):
    """A catalog map rule with params drawn for [lo, hi]; at the top level,
    `combine`'s rules too, whose reciprocal may have poles."""
    tag = draw(st.sampled_from([*MAP_RULES] + ["sum", "product", "scalar", "recip-of"] * (depth == 0)))
    if tag in ("sum", "product"):
        return MapRule(tag, (), (_rule_of(draw, lo, hi, 1), _rule_of(draw, lo, hi, 1)))
    if tag in ("scalar", "recip-of"):
        k = (draw(st.floats(-4.0, 4.0)),) if tag == "scalar" else ()
        return MapRule(tag, k, (_rule_of(draw, lo, hi, 1),))
    params = {
        "affine": st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        "power": st.tuples(st.sampled_from([0.5, 1.0, 2.0, 3.0, 2.5])),
        "quotient": st.tuples(st.floats(0.1, 3.0)),
        "step": st.tuples(st.floats(lo, hi)),
        "constant": st.tuples(st.floats(-3.0, 3.0)),
    }.get(tag, st.just(()))
    return MapRule(tag, tuple(draw(params)))


@st.composite
def _ladder_cases(draw):
    """A map between standard spaces (k in [0.1, 5], or a point-mass
    domain) on an interval, x0s with endpoints and repeats (an open endpoint
    is outside the interval), epsilon, alpha and a seed.  Besides any rule:
    a step with x0 at its jump, and 1/x on (0, hi]."""
    k = st.floats(0.1, 5.0)
    U = _point_mass_space() if draw(st.integers(0, 9)) == 0 else make_standard_space(draw(k), verify=False)
    V = make_standard_space(draw(k), verify=False)
    shape = draw(st.sampled_from(["any", "any", "jump", "pole"]))
    lo = 0.0 if shape == "pole" else draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.1, 3.0))
    if shape == "any":
        f_rule = _rule_of(draw, lo, hi)
    else:
        f_rule = MapRule("step", (draw(st.floats(lo, hi)),)) if shape == "jump" else MapRule("reciprocal")
    dom = Interval(lo, hi, shape == "pole" or draw(st.integers(0, 5)) == 0, draw(st.integers(0, 5)) == 0)
    special = [lo, hi, 0.5 * (lo + hi), *f_rule.params[: shape == "jump"]]
    x0s = draw(st.lists(st.one_of(st.sampled_from(special), st.floats(lo, hi)), min_size=1, max_size=5))
    x0s += draw(st.lists(st.sampled_from(x0s), max_size=2))  # repeats
    f = make_map(U, V, f_rule, dom)
    return f, x0s, draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 0.99)), draw(st.integers(0, 3))


@given(case=_ladder_cases())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_witness_search_matches_reference_loop(case):
    f, x0s, epsilon, alpha, seed = case
    for x0 in x0s:
        want = _outcome(lambda: reference_witness_search(f, x0, epsilon, alpha, seed))
        assert _outcome(lambda: continuity_witness_search(f, x0, epsilon, alpha, seed)) == want
    want = _outcome(lambda: [reference_witness_search(f, x0, epsilon, alpha, seed) for x0 in x0s])
    assert _outcome(lambda: continuity_witness_searches(f, x0s, epsilon, alpha, seed)) == want


def _with_poles(slope, poles):
    """x -> slope x on [-1, 1], save that it is NaN (so the map raises) at
    each of the poles: slope x + 0 / (x - p1) + 0 / (x - p2) + ..."""
    std = make_standard_space(1.0)
    f_rule = rule("affine", slope, 0.0)
    for p in poles:
        pole = MapRule("scalar", (0.0,), (MapRule("recip-of", (), (MapRule("affine", (1.0, -p)),)),))
        f_rule = MapRule("sum", (), (f_rule, pole))
    return make_map(std, std, f_rule, Interval(-1.0, 1.0))


def _probe_at(x0, rung, epsilon=1.0, alpha=0.5):
    """The outermost rung-adapted probe of x0 at `rung` (k = 1)."""
    return x0 + membership_radius(make_standard_space(1.0), alpha * 2.0**-rung, epsilon * 2.0**-rung) * 0.999


class TestWitnessLadderAtRaisingPoints:
    """A block may evaluate rungs and x0s that the rung-by-rung loop does not
    reach; an error there must not count, and one the loop reaches must be
    the loop's first.  Slope 8 is witnessed at rung 2 at both x0s."""

    X0S = [0.3, -0.4]

    def test_pole_past_the_witnessing_rung_is_not_reached(self):
        f = _with_poles(8.0, [_probe_at(-0.4, 3)])
        want = [reference_witness_search(_with_poles(8.0, []), x0, 1.0, 0.5, 0) for x0 in self.X0S]
        assert [w.rung for w in want] == [2, 2]
        assert _outcome(lambda: [reference_witness_search(f, x0, 1.0, 0.5, 0) for x0 in self.X0S]) == _outcome(
            lambda: want
        )
        assert _outcome(lambda: continuity_witness_searches(f, self.X0S, 1.0, 0.5)) == _outcome(lambda: want)

    def test_pole_the_loop_reaches_is_its_first(self):
        # the loop meets the pole on 0.3's rung 1 before the one on rung 0 of
        # the later x0, which a block of rung 0 meets first
        first, later = _probe_at(0.3, 1), _probe_at(-0.4, 0)
        f = _with_poles(8.0, [first, later])
        message = re.escape(f"is not finite at x={first!r}")
        with pytest.raises(DomainError, match=message):
            [reference_witness_search(f, x0, 1.0, 0.5, 0) for x0 in self.X0S]
        with pytest.raises(DomainError, match=message):
            continuity_witness_searches(f, self.X0S, 1.0, 0.5)


@given(case=_ladder_cases())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_uniform_search_matches_reference_loop(case):
    f, _, epsilon, alpha, seed = case
    want = _outcome(lambda: reference_uniform_search(f, epsilon, alpha, seed))
    assert _outcome(lambda: uniform_continuity_search(f, epsilon, alpha, seed)) == want


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
        seq = PointSequence("custom", budget=10000, fn=lambda ns: (-1.0 / (ns + 1.0)).reshape(-1, 1))
        rec = sequential_continuity_check(f, 0.0, [seq], r=0.3, t=0.5)
        assert not rec.continuous

    def test_uncertified_input_raises(self, std):
        f = make_map(std, std, rule("identity"), Interval(-10.0, 10.0))
        with pytest.raises(CertificationError):
            sequential_continuity_check(f, 0.0, [PointSequence("linear", budget=1000)], 0.3, 0.5)

    def test_equivalence_probe_agreement(self, std, reciprocal_315):
        p = equivalence_probe(
            reciprocal_315, 0.5, 1.0, 0.5,
            [shifted_reciprocal_sequence(0.5, 10.0, budget=20000)], 0.2, 0.5,
        )
        assert p.agree and not p.disagreement_is_bug

        f = make_map(std, std, rule("step", 0.0), Interval(-1.0, 1.0))
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

    def test_maps_on_different_custom_spaces_do_not_combine(self, std):
        # two custom pairs of one form, t/(t + c|x|), whose c differ: mu(1, 1)
        # is 0.5 against 0.25, and the signatures name their callables
        spaces = []
        for c in (1.0, 3.0):
            mu = custom_membership(lambda p, t, c=c: t / (t + c * np.abs(p[:, 0])))
            nu = custom_membership(lambda p, t, c=c: c * np.abs(p[:, 0]) / (t + c * np.abs(p[:, 0])))
            spaces.append(IFNSpace(1, mu, nu, std.tnorm, std.tconorm))
        at = [float(sp.memberships(np.ones((1, 1)), 1.0)[0][0]) for sp in spaces]
        assert at == [0.5, 0.25]
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
            cauchy_preservation_check(f, PointSequence("linear", budget=4000), 0.5, 1.0)
