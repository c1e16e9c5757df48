"""Open balls, sampled open sets, neighbourhoods, and the preimage
characterisation of continuity.

Set membership statements are quantified over all of V, so sets are
represented by a predicate plus a finite witness sample and every "open"
verdict is relative to the recorded witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidParameter, NotFound, UnsupportedFamily, WitnessNotFound
from .ifn_core import IFNSpace, membership_radius
from .continuity import MapBetweenSpaces
from .norm_algebra import _bisect_from_above
from .sampling import SamplingPlan, as_point, default_plan

# (r, t) ladder searched when testing openness at a witness point.
_R_LADDER = tuple(2.0 ** (-j) for j in range(1, 31))

# Directions/fractions sampled inside a candidate ball.
_BALL_FRACTIONS = (0.999999, 0.9, 0.5, 0.1)


@dataclass(frozen=True, eq=False)
class OpenBall:
    """B(center, r, t): the points y whose difference center - y meets the
    strict membership demand `IFNSpace.within(., r, t)`."""

    center: np.ndarray
    r: float
    t: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", c)
        if not (0.0 < self.r < 1.0):
            raise InvalidParameter(f"ball radius r must lie in (0,1), got {self.r!r}")
        if not (np.isfinite(self.t) and self.t > 0.0):
            raise InvalidParameter(f"ball parameter t must be positive, got {self.t!r}")

    def summary(self) -> dict:
        return {"center": [float(v) for v in self.center], "r": self.r, "t": self.t}


def ball_contains(space: IFNSpace, ball: OpenBall, y) -> bool:
    pt = as_point(y, space.dimension)
    diff = (ball.center - pt).reshape(1, -1)
    return bool(space.within(diff, ball.r, ball.t)[0])


def ball_contains_many(space: IFNSpace, ball: OpenBall, ys: np.ndarray) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    if ys.shape[1] != space.dimension:
        raise DomainError("point block dimension mismatch")
    return space.within(ball.center.reshape(1, -1) - ys, ball.r, ball.t)


def ball_classical_radius(space: IFNSpace, ball: OpenBall) -> float:
    """For the standard family the two membership inequalities collapse to a
    single classical inequality ||center - y|| < r t / (k (1 - r))."""
    if not space.is_standard:
        raise UnsupportedFamily("classical radius exists only for the standard family")
    return membership_radius(space, ball.r, ball.t)


def sample_in_ball(
    space: IFNSpace, ball: OpenBall, n: int, seed: int = 0
) -> np.ndarray:
    """Deterministic sample of points strictly inside a ball.

    Uses the inverted membership radius (exact for the standard family),
    with directions spread over the unit sphere and radii pushed toward the
    boundary; every returned point is re-checked for membership.
    """
    rho = membership_radius(space, ball.r, ball.t)
    d = space.dimension
    rng = np.random.default_rng((seed, 31))
    dirs = [np.eye(d), -np.eye(d)]
    if n > 8 * d:
        extra = rng.normal(size=(max(8, n // len(_BALL_FRACTIONS)), d))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        dirs.append(extra)
    dirs = np.vstack(dirs)
    radii = rho * (1.0 - 1e-9) * np.asarray(_BALL_FRACTIONS)
    pts = (ball.center.reshape(1, 1, -1) + radii.reshape(-1, 1, 1) * dirs).reshape(-1, d)
    pts = pts[: max(n, 1)]
    inside = ball_contains_many(space, ball, pts)
    return pts[inside]


def verify_containment(
    space: IFNSpace,
    inner: OpenBall,
    outer: OpenBall,
    n: int = 1000,
    seed: int = 0,
) -> float:
    """Fraction of sampled inner-ball points that lie in the outer ball."""
    pts = sample_in_ball(space, inner, n, seed)
    if len(pts) == 0:
        return 0.0
    return float(np.mean(ball_contains_many(space, outer, pts)))


def inner_ball_witness(
    space: IFNSpace,
    outer: OpenBall,
    y,
    verify_points: int = 128,
    seed: int = 0,
) -> OpenBall:
    """Construct a ball around an interior point y that stays inside
    `outer`.

    The construction picks t0 in (0, t) (starting at t/2 and retrying
    toward t until membership at t0 still holds), sets r0 = mu(x - y, t0),
    chooses s by the midpoint 1 - s = (r0 + (1 - r))/2, and finds r3 with
    r0 * r3 > 1 - s and (1-r0) (+) (1-r3) < s -- directly as r3 = r0 for
    idempotent operation pairs, otherwise by bisection from 1 downward.
    The returned ball B(y, 1 - r3, t - t0) is post-verified on a sample.
    """
    pt = as_point(y, space.dimension)
    if not ball_contains(space, outer, pt):
        raise DomainError("witness construction needs y inside the outer ball")
    x, r, t = outer.center, outer.r, outer.t
    diff = (x - pt).reshape(1, -1)

    t0 = None
    for j in range(1, 48):
        cand = t * (1.0 - 2.0 ** (-j))
        if space.within(diff, r, cand)[0]:
            t0 = cand
            break
    if t0 is None:
        raise WitnessNotFound("no admissible t0 below t; space violates its axioms")

    r0 = float(space.mu_many(diff, t0)[0])
    s = 1.0 - 0.5 * (r0 + (1.0 - r))
    tn, tc = space.tnorm, space.tconorm

    def admissible(x3: float) -> bool:
        return float(tn(r0, x3)) > 1.0 - s and float(tc(1.0 - r0, 1.0 - x3)) < s

    if tn.idempotent and tc.idempotent and r0 < 1.0 and admissible(r0):
        r3 = r0
    elif tn.idempotent and tc.idempotent and r0 >= 1.0:
        # y at (or numerically indistinguishable from) the centre: any value
        # in (1 - s, 1) is admissible; take the midpoint.
        r3 = 1.0 - 0.5 * s
    else:
        try:
            r3 = _bisect_from_above(admissible)
        except NotFound as exc:
            raise WitnessNotFound("no admissible r3; operation pair is broken") from exc

    inner = OpenBall(pt, 1.0 - r3, t - t0)
    frac = verify_containment(space, inner, outer, verify_points, seed)
    if frac < 1.0:
        raise WitnessNotFound(
            f"containment post-verification failed ({frac:.3f} of sampled points inside)"
        )
    return inner


# ---------------------------------------------------------------------------
# Sampled sets and openness
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampledSet:
    """A subset of V given by a predicate over point blocks plus a finite
    witness sample of members; every witness must satisfy the predicate."""

    predicate: Callable[[np.ndarray], np.ndarray]
    witnesses: np.ndarray
    description: str = "set"

    def __post_init__(self):
        w = np.asarray(self.witnesses, dtype=float)
        if w.ndim == 1:
            w = w.reshape(-1, 1)
        object.__setattr__(self, "witnesses", w)
        if len(w) and not bool(np.all(self.predicate(w))):
            raise InvalidParameter("every stored witness must satisfy the predicate")


@dataclass(frozen=True)
class PointOpenness:
    point: tuple[float, ...]
    ball: OpenBall | None

    @property
    def open_at_point(self) -> bool:
        return self.ball is not None


@dataclass(frozen=True)
class OpennessRecord:
    description: str
    per_point: tuple[PointOpenness, ...]
    plan: dict

    @property
    def all_open(self) -> bool:
        return all(p.open_at_point for p in self.per_point)

    def summary(self) -> dict:
        return {
            "set": self.description,
            "witnesses": len(self.per_point),
            "open_at": sum(1 for p in self.per_point if p.open_at_point),
            "all_open": self.all_open,
        }


def set_is_open_sampled(
    space: IFNSpace, sset: SampledSet, plan: SamplingPlan | None = None
) -> OpennessRecord:
    """For each witness x, search the (r, t) ladder for a ball around x
    whose sampled points all satisfy the predicate.

    The verdict is relative to the recorded witnesses and ball samples: a
    point with no fitting ladder ball is reported not-open-at-point.
    """
    if len(sset.witnesses) == 0:
        raise InvalidParameter("witness sample must be nonempty")
    plan = plan or default_plan(space.dimension)
    results = []
    for w in sset.witnesses:
        found = None
        for t in sorted(plan.t_grid):
            for r in _R_LADDER:
                ball = OpenBall(w, r, t)
                pts = sample_in_ball(space, ball, 4 * len(_BALL_FRACTIONS) * space.dimension, plan.seed)
                if len(pts) == 0:
                    continue
                if bool(np.all(sset.predicate(pts))):
                    found = ball
                    break
            if found is not None:
                break
        results.append(PointOpenness(tuple(float(v) for v in w), found))
    return OpennessRecord(sset.description, tuple(results), plan.summary())


def is_neighbourhood(
    space: IFNSpace, sset: SampledSet, x, plan: SamplingPlan | None = None
) -> bool:
    """N is a neighbourhood of x when some ladder ball at x is sampled
    inside N (single-witness openness check)."""
    single = SampledSet(sset.predicate, as_point(x, space.dimension).reshape(1, -1), sset.description)
    return set_is_open_sampled(space, single, plan).all_open


@dataclass(frozen=True)
class PreimageRecord:
    target: OpenBall
    witnesses: int
    openness: OpennessRecord
    continuity_verdicts: tuple[str, ...]

    @property
    def open_verdict(self) -> bool:
        return self.openness.all_open

    def summary(self) -> dict:
        out = self.openness.summary()
        out["target"] = self.target.summary()
        out["continuity_at_witnesses"] = list(self.continuity_verdicts)
        return out


def preimage_open_check(
    f: MapBetweenSpaces,
    target: OpenBall,
    plan: SamplingPlan | None = None,
    max_witnesses: int = 12,
    check_continuity: bool = True,
) -> PreimageRecord:
    """Materialise a sampled preimage of the target ball and test its
    openness in the domain space.

    Continuity of f at (a few of) the witnesses is recorded, not assumed;
    for maps certified continuous the verdict must be open.
    """
    from .continuity import continuity_witness_search

    plan = plan or default_plan(f.domain.dimension)
    dom = f.restriction
    rng = np.random.default_rng((plan.seed, 37))
    xs = np.unique(np.concatenate([dom.grid(81), dom.random(128, rng)]))
    member = ball_contains_many(f.codomain, target, f(xs).reshape(-1, 1))
    witnesses = xs[member][:: max(1, int(np.sum(member)) // max_witnesses)][:max_witnesses]

    def predicate(pts: np.ndarray) -> np.ndarray:
        flat = pts[:, 0]
        ok = dom.contains(flat)
        vals = np.zeros(len(flat), dtype=bool)
        if np.any(ok):
            vals[ok] = ball_contains_many(
                f.codomain, target, f(flat[ok]).reshape(-1, 1)
            )
        return ok & vals

    sset = SampledSet(predicate, witnesses.reshape(-1, 1), "preimage of target ball")
    openness = set_is_open_sampled(f.domain, sset, plan)
    verdicts = ()
    if check_continuity:
        verdicts = tuple(
            continuity_witness_search(
                f, float(w), epsilon=target.t, alpha=target.r, seed=plan.seed
            ).verdict
            for w in witnesses[:3]
        )
    return PreimageRecord(target, int(len(witnesses)), openness, verdicts)
