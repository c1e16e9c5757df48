"""Continuity certification between two spaces: witness search over a
(delta, beta) ladder, sequential checks, the function algebra, uniform
continuity over point pairs, and Cauchy preservation.

A "witnessed" verdict carries concrete (delta, beta) verified against every
sampled probe.  "Refuted" never claims a proof of discontinuity: it means a
concrete sampled counterexample survives the finest ladder rung and is
reported with its values.  "Inconclusive" is a first-class verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    cauchy_escape_index,
    cauchy_index,
    convergence_index,
    mapped_sequence,
)
from .sampling import Interval, intersect

LADDER_DEPTH = 20
ZERO_SET_TOL = 1e-12

WITNESSED = "witnessed"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# Offsets (as fractions of the hypothesis radius) probed on both sides of
# the base point at every ladder rung.
_PROBE_FRACTIONS = (0.999, 0.75, 0.5, 0.25, 0.1, 0.01)

# Number of params each map rule takes.
_RULE_ARITY = {
    "identity": 0, "affine": 2, "power": 1, "reciprocal": 0, "quotient": 1, "constant": 1,
    "step": 1, "sum": 0, "product": 0, "scalar": 1, "recip-of": 0, "compose": 0,
}


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MapRule:
    """A closed-form rule on the real line, composable algebraically."""

    tag: str
    params: tuple = ()
    children: tuple["MapRule", ...] = ()

    def __post_init__(self):
        arity = _RULE_ARITY.get(self.tag)
        if arity is not None and len(self.params) != arity:
            raise InvalidParameter(
                f"map rule {self.tag!r} takes {arity} params, got {len(self.params)}"
            )

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        if self.tag == "identity":
            return xs
        if self.tag == "affine":
            a, b = self.params
            return a * xs + b
        if self.tag == "power":
            return xs ** self.params[0]
        if self.tag == "reciprocal":
            return 1.0 / xs
        if self.tag == "quotient":
            n = self.params[0]
            return n / (xs + n)
        if self.tag == "constant":
            return np.full_like(xs, self.params[0])
        if self.tag == "step":
            return np.where(xs >= self.params[0], 1.0, 0.0)
        if self.tag == "sum":
            f, g = self.children
            return f(xs) + g(xs)
        if self.tag == "product":
            f, g = self.children
            return f(xs) * g(xs)
        if self.tag == "scalar":
            return self.params[0] * self.children[0](xs)
        if self.tag == "recip-of":
            return 1.0 / self.children[0](xs)
        if self.tag == "compose":
            f, g = self.children
            return f(g(xs))
        raise UnsupportedFamily(f"unknown map rule {self.tag!r}")

    def describe(self) -> str:
        if self.tag == "affine":
            return f"{self.params[0]}*x + {self.params[1]}"
        if self.tag == "power":
            return f"x^{self.params[0]}"
        if self.tag == "quotient":
            return f"{self.params[0]}/(x + {self.params[0]})"
        if self.tag == "scalar":
            return f"{self.params[0]} * ({self.children[0].describe()})"
        if self.tag in ("sum", "product"):
            a, b = (c.describe() for c in self.children)
            sep = " + " if self.tag == "sum" else " * "
            return f"({a}){sep}({b})"
        if self.tag == "recip-of":
            return f"1/({self.children[0].describe()})"
        if self.tag == "compose":
            a, b = (c.describe() for c in self.children)
            return f"({a}) o ({b})"
        if self.tag == "constant":
            return f"{self.params[0]}"
        if self.tag == "step":
            return f"step(x >= {self.params[0]})"
        if self.tag == "reciprocal":
            return "1/x"
        return self.tag


def rule(tag: str, *params) -> MapRule:
    return MapRule(tag, tuple(float(p) for p in params))


@dataclass(frozen=True, eq=False)
class MapBetweenSpaces:
    """f : (U, A) -> (V, B), total on its interval restriction.

    Rules are univariate, so both spaces are one-dimensional here.
    """

    domain: IFNSpace
    codomain: IFNSpace
    rule: MapRule
    restriction: Interval

    def __post_init__(self):
        if self.domain.dimension != 1 or self.codomain.dimension != 1:
            raise InvalidParameter("map rules are univariate; spaces must have d=1")

    def __call__(self, xs):
        return self.rule(xs)

    def summary(self) -> dict:
        return {"rule": self.rule.describe(), "domain": self.restriction.summary()}


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
    if op == "scalar":
        if k is None:
            raise InvalidParameter("scalar combination needs k")
        return MapBetweenSpaces(
            f.domain, f.codomain, MapRule("scalar", (float(k),), (f.rule,)), f.restriction
        )
    if op == "reciprocal":
        _check_no_zero(f)
        return MapBetweenSpaces(
            f.domain, f.codomain, MapRule("recip-of", (), (f.rule,)), f.restriction
        )
    if g is None:
        raise InvalidParameter(f"{op!r} combination needs two maps")
    if f.domain.signature() != g.domain.signature() or (
        f.codomain.signature() != g.codomain.signature()
    ):
        raise InvalidParameter("combined maps must share domain and codomain spaces")
    restriction = intersect(f.restriction, g.restriction)
    if op == "sum":
        r = MapRule("sum", (), (f.rule, g.rule))
    elif op == "product":
        r = MapRule("product", (), (f.rule, g.rule))
    else:
        raise InvalidParameter(f"unknown combination {op!r}")
    return MapBetweenSpaces(f.domain, f.codomain, r, restriction)


def _check_no_zero(g: MapBetweenSpaces, n_grid: int = 2001):
    xs = g.restriction.grid(n_grid)
    vals = g.rule(xs)
    if np.any(np.abs(vals) < ZERO_SET_TOL):
        raise ZeroDivisor(f"map {g.rule.describe()} vanishes on the sampling grid")
    if np.any(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
        raise ZeroDivisor(f"map {g.rule.describe()} changes sign on the sampling grid")


# ---------------------------------------------------------------------------
# Pointwise continuity witness search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuityWitness:
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
        return {
            "x0": self.x0,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "delta": self.delta,
            "beta": self.beta,
            "verdict": self.verdict,
            "rung": self.rung,
            "probes": self.probes_checked,
        }


def _check_eps_alpha(epsilon: float, alpha: float):
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"epsilon must be positive, got {epsilon!r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")


def _hypothesis_radius(space: IFNSpace, beta: float, delta: float) -> float | None:
    try:
        return membership_radius(space, beta, delta)
    except UnsupportedFamily:
        return None


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
    U, V = f.domain, f.codomain
    hyp_mu = U.mu_many(dx, delta) > 1.0 - beta
    hyp_nu = U.nu_many(dx, delta) < beta
    concl_mu = V.mu_many(dfx, epsilon) > 1.0 - alpha
    concl_nu = V.nu_many(dfx, epsilon) < alpha
    return (hyp_mu & ~concl_mu) | (hyp_nu & ~concl_nu), hyp_mu | hyp_nu


def _base_samples(f: MapBetweenSpaces, x0: float, seed: int) -> np.ndarray:
    dom = f.restriction
    rng = np.random.default_rng((seed, 17))
    pieces = [dom.grid(41), dom.random(64, rng)]
    w = max(x0 - dom.lo, dom.hi - x0, 1e-9)
    offs = w * 2.0 ** (-np.arange(0, 47, dtype=float))
    near = np.concatenate([x0 + offs, x0 - offs])
    pieces.append(near[dom.contains(near)])
    return np.unique(np.concatenate(pieces))


def _rung_probes(
    f: MapBetweenSpaces, x0: float, rho: float | None, base: np.ndarray
) -> np.ndarray:
    if rho is None or not np.isfinite(rho):
        return base
    offs = rho * np.asarray(_PROBE_FRACTIONS)
    adapted = np.concatenate([x0 + offs, x0 - offs])
    adapted = adapted[f.restriction.contains(adapted)]
    return np.unique(np.concatenate([base, adapted]))


def continuity_witness_search(
    f: MapBetweenSpaces,
    x0: float,
    epsilon: float,
    alpha: float,
    seed: int = 0,
    ladder_depth: int = LADDER_DEPTH,
) -> ContinuityWitness:
    """Search the ladder (delta, beta) = (epsilon 2^-j, alpha 2^-j) for the
    first rung whose defining implications hold at every sampled point.

    Both implications are checked separately: a point inside the mu
    (respectively nu) hypothesis set must satisfy the mu (respectively nu)
    conclusion.  Probes combine a domain-wide sample with rung-adapted
    points placed just inside the hypothesis set (its radius is inverted
    from the domain membership).  A rung with no nontrivial hypothesis
    probe cannot witness.
    """
    _check_eps_alpha(epsilon, alpha)
    if not bool(f.restriction.contains(x0)):
        raise DomainError(f"x0={x0!r} is outside the map's restriction")
    U, V = f.domain, f.codomain
    base = _base_samples(f, x0, seed)
    fx0 = float(f(x0))
    probes_checked = 0
    last_counterexample = None
    last_probed_rung = None

    for j in range(ladder_depth + 1):
        delta = epsilon * 2.0 ** (-j)
        beta = alpha * 2.0 ** (-j)
        rho = _hypothesis_radius(U, beta, delta)
        xs = _rung_probes(f, x0, rho, base)
        dx = (xs - x0).reshape(-1, 1)
        dfx = (f(xs) - fx0).reshape(-1, 1)
        viol, hyp = _implications(f, dx, dfx, delta, beta, epsilon, alpha)
        probed = hyp & (xs != x0)
        probes_checked += len(xs)
        if np.any(probed):
            last_probed_rung = j
            if np.any(viol):
                i = int(np.flatnonzero(viol)[0])
                last_counterexample = {
                    "x": float(xs[i]),
                    "f(x)": float(f(xs[i])),
                    "mu_U": float(U.mu_many(dx[i : i + 1], delta)[0]),
                    "mu_V": float(V.mu_many(dfx[i : i + 1], epsilon)[0]),
                    "delta": delta,
                    "beta": beta,
                    "rung": j,
                }
            else:
                return ContinuityWitness(
                    x0, epsilon, alpha, delta, beta, WITNESSED, j, None,
                    probes_checked, {"seed": seed, "ladder_depth": ladder_depth},
                )
    if (
        last_counterexample is not None
        and last_probed_rung is not None
        and last_counterexample["rung"] == last_probed_rung
    ):
        return ContinuityWitness(
            x0, epsilon, alpha, None, None, REFUTED, last_probed_rung,
            last_counterexample, probes_checked,
            {"seed": seed, "ladder_depth": ladder_depth},
        )
    return ContinuityWitness(
        x0, epsilon, alpha, None, None, INCONCLUSIVE, last_probed_rung,
        last_counterexample, probes_checked,
        {"seed": seed, "ladder_depth": ladder_depth},
    )


def recheck_witness(
    f: MapBetweenSpaces,
    witness: ContinuityWitness,
    delta: float | None = None,
    beta: float | None = None,
    n_points: int = 512,
    seed: int = 1,
) -> bool:
    """Re-verify a witness (optionally shrunk) on a fresh dense sample."""
    if not witness.witnessed:
        return False
    delta = witness.delta if delta is None else delta
    beta = witness.beta if beta is None else beta
    x0 = witness.x0
    rho = _hypothesis_radius(f.domain, beta, delta)
    rng = np.random.default_rng((seed, 23))
    xs = np.concatenate(
        [
            f.restriction.random(n_points, rng),
            _rung_probes(f, x0, rho, np.empty(0)),
        ]
    )
    xs = xs[f.restriction.contains(xs)]
    dx = (xs - x0).reshape(-1, 1)
    dfx = (f(xs) - float(f(x0))).reshape(-1, 1)
    viol, _ = _implications(f, dx, dfx, delta, beta, witness.epsilon, witness.alpha)
    return not bool(np.any(viol))


# ---------------------------------------------------------------------------
# Sequential continuity and the equivalence probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequentialRecord:
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
    image sequence converges to f(x0); the verdict is the conjunction."""
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
        img_certs.append(
            convergence_index(f.codomain, mapped_sequence(seq, f.rule), fx0, r, t)
        )
    continuous = all(c.certified for c in img_certs)
    return SequentialRecord(x0, r, t, tuple(in_certs), tuple(img_certs), continuous)


@dataclass(frozen=True)
class EquivalenceProbe:
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
    if w.verdict == INCONCLUSIVE:
        agree, bug = True, False
    else:
        agree = (w.verdict == WITNESSED) == s.continuous
        bug = not agree
    return EquivalenceProbe(w, s, agree, bug)


# ---------------------------------------------------------------------------
# Uniform continuity over point pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformWitness:
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
        return {
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "delta": self.delta,
            "beta": self.beta,
            "verdict": self.verdict,
            "rung": self.rung,
            "pairs": self.pairs_checked,
        }


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
    ladder_depth: int = LADDER_DEPTH,
) -> UniformWitness:
    """Like the pointwise search, but one (delta, beta) must serve every
    sampled pair (x1, x2): the conjunction of the two hypothesis
    inequalities must imply the conjunction of the two conclusions.

    Refuted means every ladder rung had a violating sampled pair.
    """
    _check_eps_alpha(epsilon, alpha)
    U, V = f.domain, f.codomain
    xa, xb = _pair_sample(f, seed)
    dx = (xa - xb).reshape(-1, 1)
    dfx = (f(xa) - f(xb)).reshape(-1, 1)
    concl = V.within(dfx, alpha, epsilon)
    pairs_checked = 0
    every_rung_violated = True
    counterexample = None
    for j in range(ladder_depth + 1):
        delta = epsilon * 2.0 ** (-j)
        beta = alpha * 2.0 ** (-j)
        hyp = U.within(dx, beta, delta)
        viol = hyp & ~concl
        pairs_checked += len(xa)
        if not np.any(viol):
            every_rung_violated = False
            if np.any(hyp):
                return UniformWitness(
                    epsilon, alpha, delta, beta, WITNESSED, j, None, pairs_checked
                )
        else:
            i = int(np.flatnonzero(viol)[0])
            counterexample = {
                "x1": float(xa[i]),
                "x2": float(xb[i]),
                "f(x1)": float(f(xa[i])),
                "f(x2)": float(f(xb[i])),
                "delta": delta,
                "beta": beta,
                "rung": j,
            }
    if every_rung_violated:
        return UniformWitness(
            epsilon, alpha, None, None, REFUTED, ladder_depth, counterexample, pairs_checked
        )
    return UniformWitness(
        epsilon, alpha, None, None, INCONCLUSIVE, None, counterexample, pairs_checked
    )


# ---------------------------------------------------------------------------
# Cauchy preservation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchyPreservationRecord:
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
    p_max: int = 100,
    budgets: tuple[int, ...] = (1000, 2000, 4000, 8000),
) -> CauchyPreservationRecord:
    """Certify or refute that the image of a Cauchy sequence is Cauchy.

    Used contrapositively: a certified-Cauchy input whose image fails, with
    image escape indices growing proportionally to the budget across the
    doubling ladder (factor >= 2 at each doubling), refutes uniform
    continuity of f.
    """
    input_cert = cauchy_index(f.domain, seq, r, t, p_max)
    if not input_cert.certified:
        raise CertificationError(
            f"input sequence {seq.family!r} is not certified Cauchy at (r={r}, t={t})"
        )
    image = mapped_sequence(seq, f.rule)
    image_cert = cauchy_index(f.codomain, image, r, t, p_max)
    escapes = tuple(
        cauchy_escape_index(f.codomain, image, r, t, p_max, budget=b) for b in budgets
    )
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
