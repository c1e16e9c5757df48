"""Continuity certification between two spaces: witness search over a
(delta, beta) ladder, sequential checks, the function algebra, uniform
continuity over point pairs, and Cauchy preservation.

A "witnessed" verdict carries concrete (delta, beta) verified against every
sampled probe.  "Refuted" never claims a proof of discontinuity: it means a
concrete sampled counterexample survives the finest ladder rung and is
reported with its values.  "Inconclusive" is a first-class verdict.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    CertificationError,
    DomainError,
    InvalidParameter,
    UnsupportedFamily,
    ZeroDivisor,
)
from .ifn_core import IFNSpace, membership_radius
from .point_convergence import (
    ConvergenceCertificate,
    PointSequence,
    _cauchy_scan,
    _convergence,
    _terms,
    _window_ok,
    cauchy_index,
    convergence_index,
    tail_index,
)
from .sampling import Interval, _Frozen, _staged_ladder, intersect, sorted_unique
from .vocabulary import DEFAULT_P_MAX, MAP_RULE_NAMES, paired

LADDER_DEPTH = 20
ZERO_SET_TOL = 1e-12

# Grid size of the sampled zero-set check before a reciprocal combination.
_ZERO_SET_GRID = 2001

# Fresh random points drawn when a witness is re-verified.
_RECHECK_POINTS = 512

WITNESSED = "witnessed"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# Offsets (as fractions of the hypothesis radius) probed on both sides of
# the base point at every ladder rung.
_PROBE_FRACTIONS = (0.999, 0.75, 0.5, 0.25, 0.1, 0.01)


class _Rule(NamedTuple):
    arity: int  # number of params
    value: Callable  # (params, children, xs) -> image of xs
    text: str  # formatted with the params, then the children's descriptions


# The rules a config can name.
MAP_RULES = paired(MAP_RULE_NAMES, {
    "identity": _Rule(0, lambda p, c, xs: xs, "identity"),
    "affine": _Rule(2, lambda p, c, xs: p[0] * xs + p[1], "{0}*x + {1}"),
    "power": _Rule(1, lambda p, c, xs: xs ** p[0], "x^{0}"),
    "reciprocal": _Rule(0, lambda p, c, xs: 1.0 / xs, "1/x"),
    "quotient": _Rule(1, lambda p, c, xs: p[0] / (xs + p[0]), "{0}/(x + {0})"),
    "step": _Rule(1, lambda p, c, xs: np.where(xs >= p[0], 1.0, 0.0), "step(x >= {0})"),
    "constant": _Rule(1, lambda p, c, xs: np.full_like(xs, p[0]), "{0}"),
})

# The rules `combine` builds from its operands' rules (the children).
_RULES = MAP_RULES | {
    "sum": _Rule(0, lambda p, c, xs: c[0](xs) + c[1](xs), "({0}) + ({1})"),
    "product": _Rule(0, lambda p, c, xs: c[0](xs) * c[1](xs), "({0}) * ({1})"),
    "scalar": _Rule(1, lambda p, c, xs: p[0] * c[0](xs), "{0} * ({1})"),
    "recip-of": _Rule(0, lambda p, c, xs: 1.0 / c[0](xs), "1/({0})"),
}


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------


class MapRule(_Frozen):
    """A closed-form rule on the real line, composable algebraically."""

    __slots__ = ("tag", "params", "children")

    def __init__(self, tag: str, params: tuple = (), children: tuple[MapRule, ...] = ()):
        if tag not in _RULES:
            raise UnsupportedFamily(f"unknown map rule {tag!r}")
        arity = _RULES[tag].arity
        if len(params) != arity:
            raise InvalidParameter(f"map rule {tag!r} takes {arity} params, got {len(params)}")
        self._set(tag=tag, params=params, children=children)

    def __call__(self, xs):
        return _RULES[self.tag].value(self.params, self.children, np.asarray(xs, dtype=float))

    def describe(self) -> str:
        return _RULES[self.tag].text.format(*self.params, *(c.describe() for c in self.children))


def rule(tag: str, *params) -> MapRule:
    return MapRule(tag, tuple(float(p) for p in params))


class MapBetweenSpaces(_Frozen):
    """f : (U, A) -> (V, B), total on its interval restriction.

    Rules are univariate, so both spaces are one-dimensional here.  An image
    that is not finite (a pole or a NaN inside the restriction) raises
    DomainError, so no verdict is ever computed from one.
    """

    __slots__ = ("domain", "codomain", "rule", "restriction")

    def __init__(self, domain: IFNSpace, codomain: IFNSpace, rule: MapRule, restriction: Interval):
        if domain.dimension != 1 or codomain.dimension != 1:
            raise InvalidParameter("map rules are univariate; spaces must have d=1")
        self._set(domain=domain, codomain=codomain, rule=rule, restriction=restriction)

    def __call__(self, xs):
        # a non-finite image is raised below together with its point, so a
        # numpy warning about it would only repeat that on stderr
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ys = self.rule(xs)
        bad = ~np.isfinite(ys)
        if bad.any():
            i = np.flatnonzero(bad)[0]
            x, y = float(np.ravel(xs)[i]), float(np.ravel(ys)[i])
            raise DomainError(f"map {self.rule.describe()} is not finite at x={x!r}: f(x)={y!r}")
        return ys


def make_map(
    domain: IFNSpace, codomain: IFNSpace, map_rule: MapRule, restriction: Interval
) -> MapBetweenSpaces:
    return MapBetweenSpaces(domain, codomain, map_rule, restriction)


def combine(
    op: str,
    f: MapBetweenSpaces,
    g: MapBetweenSpaces | None = None,
    k: float | None = None,
) -> MapBetweenSpaces:
    """Pointwise algebra of maps: sum, scalar(k), product, reciprocal.

    Domains are intersected; for `reciprocal` the operand's sampled zero set
    must be empty (magnitude below ZERO_SET_TOL or a sign change between
    adjacent grid samples raises ZeroDivisor).
    """
    if op not in ("sum", "product", "scalar", "reciprocal"):
        raise InvalidParameter(f"unknown combination {op!r}")
    params, children, restriction = (), (f.rule,), f.restriction
    if op == "scalar":
        if k is None:
            raise InvalidParameter("scalar combination needs k")
        params = (float(k),)
    elif op == "reciprocal":
        _check_no_zero(f)
    else:
        if g is None:
            raise InvalidParameter(f"{op!r} combination needs two maps")
        if (f.domain.signature(), f.codomain.signature()) != (g.domain.signature(), g.codomain.signature()):
            raise InvalidParameter("combined maps must share domain and codomain spaces")
        children, restriction = (f.rule, g.rule), intersect(f.restriction, g.restriction)
    tag = "recip-of" if op == "reciprocal" else op
    return MapBetweenSpaces(f.domain, f.codomain, MapRule(tag, params, children), restriction)


def _check_no_zero(g: MapBetweenSpaces):
    xs = g.restriction.grid(_ZERO_SET_GRID)
    vals = g.rule(xs)
    if np.any(np.abs(vals) < ZERO_SET_TOL):
        raise ZeroDivisor(f"map {g.rule.describe()} vanishes on the sampling grid")
    if np.any(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        raise ZeroDivisor(f"map {g.rule.describe()} changes sign on the sampling grid")


# ---------------------------------------------------------------------------
# Pointwise continuity witness search
# ---------------------------------------------------------------------------


class ContinuityWitness(NamedTuple):
    x0: float
    epsilon: float
    alpha: float
    delta: float | None
    beta: float | None
    verdict: str
    rung: int | None
    counterexample: dict | None
    probes_checked: int
    plan: dict

    @property
    def witnessed(self) -> bool:
        return self.verdict == WITNESSED

    def summary(self) -> dict:
        names = ("x0", "epsilon", "alpha", "delta", "beta", "verdict", "rung")
        return {k: getattr(self, k) for k in names} | {"probes": self.probes_checked}


def _ladder(epsilon: float, alpha: float) -> list[tuple[float, float]]:
    """The rungs (delta, beta) = (epsilon 2^-j, alpha 2^-j), j = 0..LADDER_DEPTH."""
    if not (np.isfinite(epsilon) and epsilon * 2.0 ** -LADDER_DEPTH > 0):  # every rung's t > 0
        raise DomainError(f"epsilon 2^-{LADDER_DEPTH} must be positive, got epsilon={epsilon!r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    return [(epsilon * 2.0 ** (-j), alpha * 2.0 ** (-j)) for j in range(LADDER_DEPTH + 1)]


def _hypothesis_radius(space: IFNSpace, beta: float, delta: float) -> float:
    try:
        return membership_radius(space, beta, delta)
    except UnsupportedFamily:
        return np.nan


def _implications(
    f: MapBetweenSpaces, dx: np.ndarray, dfx: np.ndarray,
    delta: float, beta: float, epsilon: float, alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The two implications of pointwise continuity, checked separately:
    mu_U(dx, delta) > 1 - beta implies mu_V(dfx, epsilon) > 1 - alpha, and
    nu_U(dx, delta) < beta implies nu_V(dfx, epsilon) < alpha.

    Returns the mask of points violating either implication and the mask
    of points inside either hypothesis set.
    """
    mu_u, nu_u = f.domain.memberships(dx, delta)
    mu_v, nu_v = f.codomain.memberships(dfx, epsilon)
    hyp_mu, hyp_nu = mu_u > 1.0 - beta, nu_u < beta
    return (hyp_mu & ~(mu_v > 1.0 - alpha)) | (hyp_nu & ~(nu_v < alpha)), hyp_mu | hyp_nu


def continuity_witness_search(
    f: MapBetweenSpaces,
    x0: float,
    epsilon: float,
    alpha: float,
    seed: int = 0,
) -> ContinuityWitness:
    """Search the ladder (delta, beta) = (epsilon 2^-j, alpha 2^-j) for the
    first rung whose defining implications hold at every sampled point.

    Both implications are checked separately: a point inside the mu
    (respectively nu) hypothesis set must satisfy the mu (respectively nu)
    conclusion.  Probes combine a domain-wide sample with rung-adapted
    points placed just inside the hypothesis set (its radius is inverted
    from the domain membership).  A rung with no nontrivial hypothesis
    probe cannot witness.  The one-x0 case of `continuity_witness_searches`.
    """
    return _witness_ladder(f, [x0], epsilon, alpha, seed)[0]


def continuity_witness_searches(
    f: MapBetweenSpaces,
    x0s,
    epsilon: float,
    alpha: float,
    seed: int = 0,
) -> list[ContinuityWitness]:
    """`continuity_witness_search` at each of the points x0s, field for
    field, deciding their ladders in the blocks of `sampling._staged_ladder`:
    one map call and one `memberships` call per side per block."""
    return _witness_ladder(f, list(x0s), epsilon, alpha, seed)


def _witness_ladder(f: MapBetweenSpaces, x0s: list, epsilon: float, alpha: float, seed: int) -> list:
    ladder = _ladder(epsilon, alpha)
    deltas, betas = np.array(ladder).T
    U, V, dom = f.domain, f.codomain, f.restriction
    # the domain-wide probes, the same at every x0 and rung
    shared = np.concatenate([dom.grid(41), dom.random(64, np.random.default_rng((seed, 17)))])
    points = np.array(x0s, dtype=float)
    halvings = 2.0 ** (-np.arange(0, 47, dtype=float))  # offsets from x0, as fractions of w
    fx0, checked = np.empty(len(x0s)), set()  # f(x0) of the x0s checked to lie in the domain
    rhos: dict[int, float] = {}  # rung -> hypothesis radius
    seen: dict = {}  # (x0, rung) -> probes, any probed, the first violation's (x, dx, dfx) or None

    def decide(pairs: list[tuple[int, int]]) -> list[bool]:
        """Whether each (x0, rung) pair witnesses, from one stacked block."""
        items, rungs = (np.array(c) for c in zip(*pairs))
        if new := [i for i in dict.fromkeys(items.tolist()) if i not in checked]:
            if not (inside := dom.contains(points[new])).all():
                raise DomainError(f"x0={x0s[new[inside.argmin()]]!r} is outside the map's restriction")
            fx0[new] = f(points[new])
            checked.update(new)
        rhos.update((j, _hypothesis_radius(U, betas[j], deltas[j])) for j in set(rungs.tolist()) - rhos.keys())
        # each row: the shared probes, points closing in on x0 and, where the
        # radius is finite, fractions of it on each side, sorted and distinct
        # (NaN marks a point outside the domain, and is dropped)
        x0 = points[items][:, None]
        offs = np.maximum(np.maximum(x0 - dom.lo, dom.hi - x0), 1e-9) * halvings
        radii = np.array([rhos[j] for j in rungs.tolist()])[:, None] * np.asarray(_PROBE_FRACTIONS)
        own = np.concatenate([x0 + offs, x0 - offs, x0 + radii, x0 - radii], axis=1)
        own[~dom.contains(own)] = np.nan
        rows = np.sort(np.concatenate([np.broadcast_to(shared, (len(pairs), len(shared))), own], axis=1), axis=1)
        keep = ~np.isnan(rows)
        keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
        sizes = keep.sum(axis=1)
        xs = rows[keep]
        owner = np.repeat(np.arange(len(pairs)), sizes)
        at = points[items[owner]]
        dx = (xs - at).reshape(-1, 1)
        dfx = (f(xs) - fx0[items[owner]]).reshape(-1, 1)
        viol, hyp = _implications(f, dx, dfx, deltas[rungs[owner]], betas[rungs[owner]], epsilon, alpha)
        starts = np.cumsum(sizes) - sizes
        probed = np.logical_or.reduceat(hyp & (xs != at), starts).tolist()
        first_bad = np.minimum.reduceat(np.where(viol, np.arange(len(xs)), len(xs)), starts).tolist()
        for pair, n, p, k in zip(pairs, sizes.tolist(), probed, first_bad):
            seen[pair] = (n, p, None if k == len(xs) else (float(xs[k]), dx[k, 0], dfx[k, 0]))
        return [p and k == len(xs) for p, k in zip(probed, first_bad)]

    size = len(shared) + 2 * (len(halvings) + len(_PROBE_FRACTIONS))
    results = []
    for i, j in enumerate(_staged_ladder(len(x0s), LADDER_DEPTH + 1, size, decide)):
        climbed = range(LADDER_DEPTH + 1 if j is None else j + 1)
        probed = [r for r in climbed if seen[i, r][1]]
        w = (None, None, INCONCLUSIVE, None, None) if j is None else (*ladder[j], WITNESSED, j, None)
        if j is None and probed:
            j = probed[-1]  # the first violation of the last probed rung refutes
            x, dx, dfx = seen[i, j][2]
            delta, beta = ladder[j]
            counterexample = {
                "x": x, "f(x)": float(f(x)), "mu_U": float(U.mu_many(np.array([[dx]]), delta)[0]),
                "mu_V": float(V.mu_many(np.array([[dfx]]), epsilon)[0]), "delta": delta, "beta": beta, "rung": j,
            }
            w = (None, None, REFUTED, j, counterexample)
        plan = {"seed": seed, "ladder_depth": LADDER_DEPTH}
        results.append(ContinuityWitness(x0s[i], epsilon, alpha, *w, sum(seen[i, r][0] for r in climbed), plan))
    return results


def recheck_witness(
    f: MapBetweenSpaces,
    witness: ContinuityWitness,
    delta: float | None = None,
    beta: float | None = None,
    seed: int = 1,
) -> bool:
    """Re-verify a witness (optionally shrunk) on a fresh dense sample."""
    if not witness.witnessed:
        return False
    delta = witness.delta if delta is None else delta
    beta = witness.beta if beta is None else beta
    x0 = witness.x0
    rho = _hypothesis_radius(f.domain, beta, delta)
    offs = rho * np.asarray(_PROBE_FRACTIONS) if np.isfinite(rho) else np.empty(0)
    xs = np.concatenate([
        f.restriction.random(_RECHECK_POINTS, np.random.default_rng((seed, 23))),
        sorted_unique(np.concatenate([x0 + offs, x0 - offs])),
    ])
    xs = xs[f.restriction.contains(xs)]
    dx = (xs - x0).reshape(-1, 1)
    dfx = (f(xs) - float(f(x0))).reshape(-1, 1)
    viol, _ = _implications(f, dx, dfx, delta, beta, witness.epsilon, witness.alpha)
    return not bool(np.any(viol))


# ---------------------------------------------------------------------------
# Sequential continuity and the equivalence probe
# ---------------------------------------------------------------------------


class SequentialRecord(NamedTuple):
    x0: float
    r: float
    t: float
    input_certificates: tuple[ConvergenceCertificate, ...]
    image_certificates: tuple[ConvergenceCertificate, ...]
    continuous: bool

    def summary(self) -> dict:
        return {
            "x0": self.x0,
            "r": self.r,
            "t": self.t,
            "sequences": len(self.input_certificates),
            "image_status": [c.status for c in self.image_certificates],
            "continuous": self.continuous,
        }


def sequential_continuity_check(
    f: MapBetweenSpaces,
    x0: float,
    sequences: list[PointSequence],
    r: float,
    t: float,
) -> SequentialRecord:
    """For each input sequence certified to converge to x0, certify that the
    image sequence, the block of terms f(x_n), converges to f(x0); the
    verdict is the conjunction."""
    if not bool(f.restriction.contains(x0)):
        raise DomainError(f"x0={x0!r} is outside the map's restriction")
    fx0 = float(f(x0))
    in_certs = []
    img_certs = []
    for seq in sequences:
        cert = convergence_index(f.domain, seq, x0, r, t)
        if not cert.certified:
            raise CertificationError(
                f"input sequence {seq.family!r} is not certified to converge to {x0}"
            )
        in_certs.append(cert)
        img_certs.append(_convergence(f.codomain, f.rule(_terms(f.domain, seq)), fx0, r, t))
    continuous = all(c.certified for c in img_certs)
    return SequentialRecord(x0, r, t, tuple(in_certs), tuple(img_certs), continuous)


class EquivalenceProbe(NamedTuple):
    witness: ContinuityWitness
    sequential: SequentialRecord
    agree: bool
    disagreement_is_bug: bool

    def summary(self) -> dict:
        return {
            "witness_verdict": self.witness.verdict,
            "sequential_continuous": self.sequential.continuous,
            "agree": self.agree,
            "disagreement_is_bug": self.disagreement_is_bug,
        }


def equivalence_probe(
    f: MapBetweenSpaces,
    x0: float,
    epsilon: float,
    alpha: float,
    sequences: list[PointSequence],
    r: float,
    t: float,
    seed: int = 0,
) -> EquivalenceProbe:
    """Run the witness search and the sequential check side by side.

    The two notions are equivalent, so a definite disagreement at matching
    budgets is flagged as a bug-level event rather than a mathematical
    finding.
    """
    w = continuity_witness_search(f, x0, epsilon, alpha, seed=seed)
    s = sequential_continuity_check(f, x0, sequences, r, t)
    agree = w.verdict == INCONCLUSIVE or (w.verdict == WITNESSED) == s.continuous
    return EquivalenceProbe(w, s, agree, not agree)


# ---------------------------------------------------------------------------
# Uniform continuity over point pairs
# ---------------------------------------------------------------------------


class UniformWitness(NamedTuple):
    epsilon: float
    alpha: float
    delta: float | None
    beta: float | None
    verdict: str
    rung: int | None
    counterexample: dict | None
    pairs_checked: int

    @property
    def witnessed(self) -> bool:
        return self.verdict == WITNESSED

    def summary(self) -> dict:
        names = ("epsilon", "alpha", "delta", "beta", "verdict", "rung")
        return {k: getattr(self, k) for k in names} | {"pairs": self.pairs_checked}


def _pair_sample(f: MapBetweenSpaces, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (x1, x2): adjacent grid pairs, seeded random pairs, and
    adversarial ladders approaching every open endpoint with geometrically
    shrinking gaps (counterexamples to uniformity live at boundaries)."""
    dom = f.restriction
    rng = np.random.default_rng((seed, 29))
    grid = dom.grid(41)
    x1 = [grid[:-1]]
    x2 = [grid[1:]]
    a = dom.random(48, rng)
    b = dom.random(48, rng)
    x1.append(a)
    x2.append(b)
    w = dom.width
    exps = np.arange(1, 46, dtype=float)
    if dom.open_lo:
        lo_pts = dom.lo + w * 2.0 ** (-exps)
        x1.append(lo_pts[:-1])
        x2.append(lo_pts[1:])
    if dom.open_hi:
        hi_pts = dom.hi - w * 2.0 ** (-exps)
        x1.append(hi_pts[:-1])
        x2.append(hi_pts[1:])
    # near-diagonal pairs spanning all gap magnitudes at the domain centre
    mid = 0.5 * (dom.lo + dom.hi)
    gaps = w * 2.0 ** (-exps)
    c1 = np.full_like(gaps, mid)
    c2 = mid + gaps
    keep = dom.contains(c2)
    x1.append(c1[keep])
    x2.append(c2[keep])
    xa = np.concatenate(x1)
    xb = np.concatenate(x2)
    keep = dom.contains(xa) & dom.contains(xb) & (xa != xb)
    return xa[keep], xb[keep]


def uniform_continuity_search(
    f: MapBetweenSpaces,
    epsilon: float,
    alpha: float,
    seed: int = 0,
) -> UniformWitness:
    """Like the pointwise search, but one (delta, beta) must serve every
    sampled pair (x1, x2): the conjunction of the two hypothesis
    inequalities must imply the conjunction of the two conclusions.

    Refuted means every ladder rung had a violating sampled pair.  Rungs
    are decided in the blocks of `sampling._staged_ladder`.
    """
    ladder = _ladder(epsilon, alpha)
    deltas, betas = np.array(ladder).T
    U, V = f.domain, f.codomain
    xa, xb = _pair_sample(f, seed)
    dx = (xa - xb).reshape(-1, 1)
    dfx = (f(xa) - f(xb)).reshape(-1, 1)
    concl = V.within(dfx, alpha, epsilon)
    violation: dict[int, int | None] = {}  # rung -> its first violating pair

    def decide(pairs: list[tuple[int, int]]) -> list[bool]:
        """Whether each rung witnesses, from one (rungs, pairs) block."""
        rungs = [j for _, j in pairs]
        hyp = U.meets(*U.memberships(dx, deltas[rungs, None]), betas[rungs, None])
        viol = hyp & ~concl
        violation.update((j, int(row.argmax()) if row.any() else None) for j, row in zip(rungs, viol))
        return (hyp.any(axis=1) & ~viol.any(axis=1)).tolist()

    (j,) = _staged_ladder(1, LADDER_DEPTH + 1, len(xa), decide)
    if j is not None:
        return UniformWitness(epsilon, alpha, *ladder[j], WITNESSED, j, None, len(xa) * (j + 1))
    violated = [r for r, i in violation.items() if i is not None]
    counterexample = None
    if violated:  # the first violating pair of the last violated rung
        j = max(violated)
        i = violation[j]
        counterexample = {
            "x1": float(xa[i]), "x2": float(xb[i]), "f(x1)": float(f(xa[i])), "f(x2)": float(f(xb[i])),
            "delta": ladder[j][0], "beta": ladder[j][1], "rung": j,
        }
    verdict, rung = (REFUTED, LADDER_DEPTH) if len(violated) == LADDER_DEPTH + 1 else (INCONCLUSIVE, None)
    return UniformWitness(epsilon, alpha, None, None, verdict, rung, counterexample, len(xa) * (LADDER_DEPTH + 1))


# ---------------------------------------------------------------------------
# Cauchy preservation
# ---------------------------------------------------------------------------


class CauchyPreservationRecord(NamedTuple):
    r: float
    t: float
    input_certificate: ConvergenceCertificate
    image_certificate: ConvergenceCertificate
    budgets: tuple[int, ...]
    image_escape_indices: tuple[int, ...]
    growth_factors: tuple[float, ...]
    image_diverges: bool
    verdict: str  # "preserved" | "refutes-uniform-continuity" | "inconclusive"

    def summary(self) -> dict:
        return {
            "r": self.r,
            "t": self.t,
            "input_status": self.input_certificate.status,
            "image_status": self.image_certificate.status,
            "budgets": list(self.budgets),
            "image_escape_indices": list(self.image_escape_indices),
            "growth_factors": [round(g, 6) for g in self.growth_factors],
            "verdict": self.verdict,
        }


def cauchy_preservation_check(
    f: MapBetweenSpaces,
    seq: PointSequence,
    r: float,
    t: float,
    p_max: int = DEFAULT_P_MAX,
    budgets: tuple[int, ...] = (1000, 2000, 4000, 8000),
) -> CauchyPreservationRecord:
    """Certify or refute that the image of a Cauchy sequence is Cauchy.

    Used contrapositively: a certified-Cauchy input whose image fails, with
    image escape indices growing proportionally to the budget across the
    doubling ladder (factor >= 2 at each doubling), refutes uniform
    continuity of f.  The escape index at budget b is the start of the
    violation-free tail within the first b terms; one p-window scan of the
    image serves its certificate and every budget in 1..seq.budget.
    """
    input_cert = cauchy_index(f.domain, seq, r, t, p_max)
    if not input_cert.certified:
        raise CertificationError(
            f"input sequence {seq.family!r} is not certified Cauchy at (r={r}, t={t})"
        )
    beyond = [b for b in budgets if not 1 <= b <= seq.budget]
    if beyond:
        raise DomainError(
            f"escape budgets {beyond} lie outside the sequence budget 1..{seq.budget}"
        )
    image_cert, first = _cauchy_scan(f.codomain, f.rule(_terms(f.domain, seq)), r, t, p_max)
    escapes = tuple(tail_index(_window_ok(first, b)) for b in budgets)
    growth = tuple(
        escapes[i + 1] / escapes[i] if escapes[i] > 0 else float("inf")
        for i in range(len(escapes) - 1)
    )
    diverges = len(growth) > 0 and all(g >= 2.0 - 1e-9 for g in growth)
    if image_cert.certified:
        verdict = "preserved"
    elif image_cert.status == "failed" and diverges:
        verdict = "refutes-uniform-continuity"
    else:
        verdict = "inconclusive"
    return CauchyPreservationRecord(
        r, t, input_cert, image_cert, budgets, escapes, growth, diverges, verdict
    )
