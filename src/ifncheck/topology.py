"""Open balls, sampled open sets, and the preimage characterisation of
continuity.

Set membership statements are quantified over all of V, so sets are
represented by a predicate plus a finite witness sample and every "open"
verdict is relative to the recorded witnesses.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InvalidParameter, NotFound, UnsupportedFamily, WitnessNotFound
from .ifn_core import IFNSpace, membership_radius
from .continuity import MapBetweenSpaces, continuity_witness_searches
from .sampling import SamplingPlan, _Frozen, _staged_ladder, as_point, default_plan, sorted_unique

# (r, t) ladder searched when testing openness at a witness point.
_R_LADDER = tuple(2.0 ** (-j) for j in range(1, 31))

# Directions/fractions sampled inside a candidate ball.
_BALL_FRACTIONS = (0.999999, 0.9, 0.5, 0.1)

# Members of a sampled preimage kept as openness witnesses.
_PREIMAGE_WITNESSES = 12

# The r3 bisection runs from just below 1 toward 0, and stops once its
# bracket is narrower than SEARCH_RESOLUTION.
SEARCH_RESOLUTION = 1e-6
_FROM_ONE = (1.0 - 1e-12, 0.0)


class OpenBall(_Frozen):
    """B(center, r, t): the points y whose difference center - y meets the
    strict membership demand `IFNSpace.within(., r, t)`."""

    __slots__ = ("center", "r", "t")

    def __init__(self, center: np.ndarray, r: float, t: float):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if not (0.0 < r < 1.0):
            raise InvalidParameter(f"ball radius r must lie in (0,1), got {r!r}")
        if not (0.0 < t < np.inf):  # NaN fails both
            raise InvalidParameter(f"ball parameter t must be positive, got {t!r}")
        self._set(center=center, r=r, t=t)

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
    return space.within(_by_coordinate(np.subtract, ball.center.reshape(1, -1), ys), ball.r, ball.t)


def ball_classical_radius(space: IFNSpace, ball: OpenBall) -> float:
    """For the standard family the two membership inequalities collapse to a
    single classical inequality ||center - y|| < r t / (k (1 - r)), which
    must be a finite real: DomainError where it overflows binary64."""
    if not space.standard_pair:
        raise UnsupportedFamily("classical radius exists only for the standard family")
    rho = membership_radius(space, ball.r, ball.t)
    if not np.isfinite(rho):
        raise DomainError(
            f"classical radius r t / (k (1 - r)) of the ball {ball.summary()} overflows binary64"
        )
    return rho


@functools.lru_cache(maxsize=64)
def _ball_directions(d: int, n: int, seed: int) -> np.ndarray:
    """Unit directions for an n-point ball sample: the 2d coordinate
    directions, then (for n > 8d) a seeded batch spread over the sphere.
    They depend only on (d, n, seed), never on the ball, so each tuple is
    drawn once and shared, read-only."""
    dirs = [np.eye(d), -np.eye(d)]
    if n > 8 * d:
        rng = np.random.default_rng((seed, 31))
        extra = rng.normal(size=(max(8, n // len(_BALL_FRACTIONS)), d))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        dirs.append(extra)
    dirs = np.vstack(dirs)
    dirs.flags.writeable = False
    return dirs


def _by_coordinate(op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """op(a, b) for (B, n, d) and (B, 1, d) blocks, either way round, one
    coordinate at a time, as numpy runs that broadcast in inner loops of length d."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for k in range(out.shape[-1]):
        op(a[..., k], b[..., k], out=out[..., k])
    return out


def _ball_points(space: IFNSpace, centers: np.ndarray, rs, ts, dirs: np.ndarray, n: int) -> np.ndarray:
    """(B, n', d) candidate points of the balls B(centers[i], rs[i], ts[i]):
    membership radii (`membership_radius` on the arrays) pushed toward each
    boundary along `dirs`, built one coordinate at a time as `_by_coordinate`
    builds a sum."""
    rho = membership_radius(space, np.asarray(rs, dtype=float), np.asarray(ts, dtype=float))
    radii = (rho * (1.0 - 1e-9))[:, None] * np.asarray(_BALL_FRACTIONS)
    m = min(max(n, 1), radii.shape[1] * len(dirs))
    out = np.empty((len(centers), m, dirs.shape[1]))
    for k in range(dirs.shape[1]):
        steps = (radii[:, :, None] * dirs[:, k]).reshape(len(centers), -1)
        np.add(steps[:, :m], centers[:, k, None], out=out[..., k])
    return out


def _sample_balls(space: IFNSpace, centers: np.ndarray, rs, ts, dirs: np.ndarray, n: int):
    """The `_ball_points` of B balls and the (B, n') mask of those inside
    their own ball, from one `within` call."""
    pts = _ball_points(space, centers, rs, ts, dirs, n)
    m, d = pts.shape[1:]
    to_centre = _by_coordinate(np.subtract, centers[:, None, :], pts).reshape(-1, d)
    return pts, space.within(to_centre, np.repeat(rs, m), np.repeat(ts, m)).reshape(-1, m)


def sample_in_ball(
    space: IFNSpace, ball: OpenBall, n: int, seed: int = 0
) -> np.ndarray:
    """Deterministic sample of points strictly inside a ball.

    Uses the inverted membership radius (exact for the standard family) with
    directions spread over the unit sphere and radii pushed toward the
    boundary, re-checking each point: the one-ball case of `_sample_balls`.
    """
    dirs = _ball_directions(space.dimension, n, seed)
    pts, inside = _sample_balls(space, ball.center.reshape(1, -1), [ball.r], [ball.t], dirs, n)
    return pts[0][inside[0]]


def verify_containment(
    space: IFNSpace,
    inner: OpenBall,
    outer: OpenBall,
    n: int = 1000,
    seed: int = 0,
) -> float:
    """Fraction of sampled inner-ball points that lie in the outer ball."""
    pts = sample_in_ball(space, inner, n, seed)
    return float(np.mean(ball_contains_many(space, outer, pts))) if len(pts) else 0.0


def _bisect(pred: Callable[[float], bool], good: float, bad: float) -> float:
    """Deterministic bisection between a value where the monotone `pred`
    holds and one where it fails; returns an admissible value within
    SEARCH_RESOLUTION of the threshold."""
    if not pred(good):
        raise NotFound(f"no admissible value: the search fails at its start {good!r}")
    while abs(bad - good) > SEARCH_RESOLUTION:
        mid = 0.5 * (good + bad)
        if pred(mid):
            good = mid
        else:
            bad = mid
    return good


# t0 candidates t (1 - 2^-j), j = 1..47, tried in order by the witness
_T0_LADDER = 1.0 - 2.0 ** -np.arange(1, 48)


def inner_ball_witnesses(
    space: IFNSpace,
    outer: OpenBall,
    ys,
    verify_points: int = 128,
    seed: int = 0,
) -> list[OpenBall | WitnessNotFound]:
    """Construct, for each interior point y of an (M, d) block, a ball
    around y that stays inside `outer`; one result per member, either the
    ball or the WitnessNotFound that explains why none was found.

    Per member, the construction picks t0 in (0, t) (the first of
    t (1 - 2^-j), j = 1, 2, ..., at which membership still holds), sets
    r0 = mu(x - y, t0), chooses s by the midpoint 1 - s = (r0 + (1 - r))/2,
    and finds r3 with r0 * r3 > 1 - s and (1-r0) (+) (1-r3) < s -- directly
    as r3 = r0 for idempotent operation pairs, otherwise by bisection from 1
    downward.  Each ball B(y, 1 - r3, t - t0) is post-verified on a sample
    of `verify_points` of its points, all of which must lie in `outer`.
    The t0 ladder, r0, s, the idempotent r3 and the post-verification each
    run as one block over all members, and only the bisection per member;
    raises DomainError if any member lies outside `outer`.
    """
    ys = np.array(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys.reshape(-1, 1)
    if not bool(np.all(ball_contains_many(space, outer, ys))):
        raise DomainError("witness construction needs y inside the outer ball")
    x, r, t = outer.center, outer.r, outer.t
    diffs = x - ys
    d = ys.shape[1]

    # t0 ladder: one (47, M) demand block over a column of rungs; first
    # admissible rung
    cands = t * _T0_LADDER
    ok = space.within(diffs, r, cands.reshape(-1, 1))
    t0s = cands[ok.argmax(axis=0)]
    r0s = space.mu_many(diffs, t0s)
    has_t0 = ok.any(axis=0)

    # the member step on (M,) arrays: r3 = r0 where an idempotent pair
    # admits it, the midpoint of (1 - s, 1) at the centre (r0 >= 1), and NaN
    # where the scalar bisection decides, or finds no r3
    s = 1.0 - 0.5 * (r0s + (1.0 - r))
    tn, tc = space.tnorm, space.tconorm
    r3s = np.full(len(ys), np.nan)
    if tn.idempotent and tc.idempotent:
        centre = r0s >= 1.0
        fits = ~centre & (tn(r0s, r0s) > 1.0 - s) & (tc(1.0 - r0s, 1.0 - r0s) < s)
        r3s = np.where(fits, r0s, np.where(centre, 1.0 - 0.5 * s, r3s))
    for i in np.flatnonzero(has_t0 & np.isnan(r3s)).tolist():
        r0, s_i = float(r0s[i]), float(s[i])

        def admissible(x3: float) -> bool:
            return float(tn(r0, x3)) > 1.0 - s_i and float(tc(1.0 - r0, 1.0 - x3)) < s_i

        try:
            r3s[i] = _bisect(admissible, *_FROM_ONE)
        except NotFound:
            pass

    rs, ts = 1.0 - r3s, t - t0s
    results: list[OpenBall | WitnessNotFound] = []
    for y, found, r_i, t_i in zip(ys, has_t0.tolist(), rs.tolist(), ts.tolist()):
        if not found:
            results.append(WitnessNotFound("no admissible t0 below t; space violates its axioms"))
        elif r_i != r_i:  # NaN
            results.append(WitnessNotFound("no admissible r3; operation pair is broken"))
        else:
            results.append(OpenBall(y, r_i, t_i))

    # post-verification on one (B, n', d) sample block: a ball fails when no
    # point is inside it, or one inside it is outside `outer`; so "inside it"
    # is decided outside `outer`, at one probe per ball, and in full on failure
    built = np.flatnonzero(has_t0 & ~np.isnan(rs))
    if not len(built):
        return results
    centres, rs, ts = ys[built], rs[built], ts[built]
    pts = _ball_points(space, centres, rs, ts, _ball_directions(d, verify_points, seed), verify_points)
    in_outer = ball_contains_many(space, outer, pts.reshape(-1, d)).reshape(pts.shape[:2])
    asked = np.logical_not(in_outer)
    asked[:, -1] = True  # the probe
    rows, cols = np.divmod(np.flatnonzero(asked), asked.shape[1])  # 2-D nonzero is slower
    inside = space.within(centres[rows] - pts[rows, cols], rs[rows], ts[rows])
    suspect = np.where(inside, ~in_outer[rows, cols], cols == asked.shape[1] - 1)
    for k in sorted(set(rows[suspect].tolist())):  # np.unique would load numpy.ma
        inside = space.within(_by_coordinate(np.subtract, centres[k, None], pts[k]), rs[k], ts[k])
        n_in, n_kept = int(inside.sum()), int((inside & in_outer[k]).sum())
        if n_kept < n_in or n_in == 0:
            frac = n_kept / n_in if n_in else 0.0
            results[built[k]] = WitnessNotFound(
                f"containment post-verification failed ({frac:.3f} of sampled points inside)"
            )
    return results


def inner_ball_witness(
    space: IFNSpace,
    outer: OpenBall,
    y,
    verify_points: int = 128,
    seed: int = 0,
) -> OpenBall:
    """Construct a ball around an interior point y that stays inside
    `outer`: the one-member case of `inner_ball_witnesses`, raising the
    WitnessNotFound it reports."""
    pt = as_point(y, space.dimension).reshape(1, -1)
    (ball,) = inner_ball_witnesses(space, outer, pt, verify_points, seed)
    if isinstance(ball, WitnessNotFound):
        raise ball
    return ball


# ---------------------------------------------------------------------------
# Sampled sets and openness
# ---------------------------------------------------------------------------


class SampledSet(_Frozen):
    """A subset of V given by a predicate over (N, d) point blocks plus a
    finite witness sample of members, each satisfying the predicate.  The
    predicate decides each row on its own and has no side effects."""

    __slots__ = ("predicate", "witnesses", "description")

    def __init__(self, predicate: Callable[[np.ndarray], np.ndarray], witnesses: np.ndarray, description="set"):
        witnesses = np.asarray(witnesses, dtype=float)
        if witnesses.ndim == 1:
            witnesses = witnesses.reshape(-1, 1)
        if len(witnesses) and not bool(np.all(predicate(witnesses))):
            raise InvalidParameter("every stored witness must satisfy the predicate")
        self._set(predicate=predicate, witnesses=witnesses, description=description)


class PointOpenness(NamedTuple):
    point: tuple[float, ...]
    ball: OpenBall | None

    @property
    def open_at_point(self) -> bool:
        return self.ball is not None


class OpennessRecord(NamedTuple):
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
    if sset.witnesses.shape[1] != space.dimension:
        raise DomainError(
            f"witnesses have dimension {sset.witnesses.shape[1]}, the space {space.dimension}"
        )
    plan = plan or default_plan(space.dimension)
    ws, n = sset.witnesses, 4 * len(_BALL_FRACTIONS) * space.dimension
    dirs = _ball_directions(space.dimension, n, plan.seed)
    rungs = [(r, t) for t in sorted(plan.t_grid) for r in _R_LADDER]

    def decide(pairs: list[tuple[int, int]]) -> list[bool]:
        """Whether each (witness, rung) ball fits, from one predicate call."""
        rs, ts = zip(*(rungs[j] for _, j in pairs))
        pts, inside = _sample_balls(space, ws[[i for i, _ in pairs]], rs, ts, dirs, n)
        outside = np.zeros_like(inside)
        outside[inside] = np.logical_not(sset.predicate(pts[inside]))
        return (inside.any(axis=1) & ~outside.any(axis=1)).tolist()

    first = _staged_ladder(len(ws), len(rungs), n, decide)
    balls = [None if j is None else OpenBall(w, *rungs[j]) for w, j in zip(ws, first)]
    per_point = tuple(PointOpenness(tuple(float(v) for v in w), b) for w, b in zip(ws, balls))
    return OpennessRecord(sset.description, per_point, plan.summary())


class PreimageRecord(NamedTuple):
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
) -> PreimageRecord:
    """Materialise a sampled preimage of the target ball and test its
    openness in the domain space.

    Continuity of f at (a few of) the witnesses is recorded, not assumed;
    for maps certified continuous the verdict must be open.  A target ball
    that no sampled point maps into raises DomainError.
    """
    plan = plan or default_plan(f.domain.dimension)
    dom = f.restriction
    rng = np.random.default_rng((plan.seed, 37))
    xs = sorted_unique(np.concatenate([dom.grid(81), dom.random(128, rng)]))
    member = ball_contains_many(f.codomain, target, f(xs).reshape(-1, 1))
    witnesses = xs[member][:: max(1, int(np.sum(member)) // _PREIMAGE_WITNESSES)][:_PREIMAGE_WITNESSES]
    if len(witnesses) == 0:
        raise DomainError(
            f"target ball {target.summary()} has no sampled preimage under "
            f"{f.rule.describe()} on [{dom.lo}, {dom.hi}]"
        )

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
    ws = continuity_witness_searches(f, witnesses[:3].tolist(), target.t, target.r, seed=plan.seed)
    verdicts = tuple(w.verdict for w in ws)
    return PreimageRecord(target, int(len(witnesses)), openness, verdicts)
