"""Pointwise versus uniform convergence of function sequences, the Cauchy
criterion, closed-form index bounds, and the uniform limit scenario.

"Not uniform" is always sample-relative: it is declared only when a
boundary-refinement ladder shows per-point indices growing without bound
(factor >= 2 across 3 refinements), mirroring how non-uniformity actually
manifests at open endpoints.  Finite sampling cannot certify failure on an
open set, so anything weaker stays inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NoLimit, UnsupportedFamily
from .continuity import (
    ContinuityWitness,
    MapBetweenSpaces,
    MapRule,
    continuity_witness_search,
)
from .ifn_core import IFNSpace, membership_radius
from .point_convergence import (
    ConvergenceCertificate,
    PointSequence,
    convergence_index,
    tail_index,
)
from .sampling import Interval

DEFAULT_BUDGET = 10_000
DEFAULT_P_MAX = 100

# Tail used to estimate limits of custom families, and the oscillation
# tolerance beyond which no limit is reported.
LIMIT_TAIL = 10
LIMIT_OSCILLATION_TOL = 1e-9

VERDICT_UNIFORM = "uniform-up-to-budget"
VERDICT_NOT_UNIFORM = "not-uniform-on-sample"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class FunctionSequence:
    """A sequence of univariate maps n -> f_n on a fixed interval."""

    family: str  # power | quotient | scaled | constant | custom
    domain: Interval
    params: tuple = ()
    budget: int = DEFAULT_BUDGET
    fn: Callable | None = None  # custom: fn(ns (K,), xs (M,)) -> (K, M)

    def values(self, ns: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Matrix of f_n(x) with rows indexed by n and columns by x."""
        ns = np.asarray(ns, dtype=float).reshape(-1, 1)
        xs = np.asarray(xs, dtype=float).reshape(1, -1)
        if self.family == "power":
            return xs ** ns
        if self.family == "quotient":
            return ns / (xs + ns)
        if self.family == "scaled":
            return xs / ns
        if self.family == "constant":
            base = MapRule(*self.params) if self.params else MapRule("identity")
            return np.broadcast_to(base(xs), (ns.shape[0], xs.shape[1])).copy()
        if self.family == "custom":
            return np.asarray(self.fn(ns.ravel().astype(int), xs.ravel()), dtype=float)
        raise UnsupportedFamily(f"unknown function-sequence family {self.family!r}")

    def exact_limit(self, xs: np.ndarray) -> np.ndarray | None:
        xs = np.asarray(xs, dtype=float)
        if self.family == "power":
            # on the catalog domains |x| < 1; x = 1 would be a fixed point
            return np.where(np.abs(xs) < 1.0, 0.0, np.where(xs == 1.0, 1.0, np.nan))
        if self.family == "quotient":
            return np.ones_like(xs)
        if self.family == "scaled":
            return np.zeros_like(xs)
        if self.family == "constant":
            base = MapRule(*self.params) if self.params else MapRule("identity")
            return base(xs)
        return None

    def map_at(self, n: int, domain_space: IFNSpace, codomain_space: IFNSpace) -> MapBetweenSpaces:
        if self.family == "power":
            r = MapRule("power", (float(n),))
        elif self.family == "quotient":
            r = MapRule("quotient", (float(n),))
        elif self.family == "scaled":
            r = MapRule("scalar", (1.0 / n,), (MapRule("identity"),))
        elif self.family == "constant":
            r = MapRule(*self.params) if self.params else MapRule("identity")
        else:
            raise UnsupportedFamily("custom sequences have no closed-form member maps")
        return MapBetweenSpaces(domain_space, codomain_space, r, self.domain)

    def point_sequence(self, x: float) -> PointSequence:
        """The image sequence n -> f_n(x) at a fixed point."""
        return PointSequence(
            "custom",
            budget=self.budget,
            fn=lambda ns: self.values(ns, np.array([x])),
        )

    def summary(self) -> dict:
        return {
            "family": self.family,
            "params": [float(p) for p in self.params if not isinstance(p, (tuple, str))],
            "domain": self.domain.summary(),
            "budget": int(self.budget),
        }


@dataclass(frozen=True)
class DomainSample:
    """Base sample points plus an optional ordered refinement ladder
    approaching an open boundary."""

    points: tuple[float, ...]
    ladder: tuple[float, ...] = ()

    def all_points(self) -> np.ndarray:
        return np.asarray(self.points + self.ladder, dtype=float)

    def summary(self) -> dict:
        return {"base_points": len(self.points), "ladder_points": len(self.ladder)}


def sample_domain(
    interval: Interval, n: int = 17, refine_side: str | None = None, refine_depth: int = 10
) -> DomainSample:
    """Evenly sample an interval; when a side is named, add the geometric
    approach ladder e -+ w 2^-j toward that (open) endpoint."""
    base = tuple(float(x) for x in interval.grid(n))
    ladder: tuple[float, ...] = ()
    if refine_side is not None:
        ladder = tuple(float(x) for x in interval.approach(refine_side, refine_depth))
    return DomainSample(base, ladder)


@dataclass(frozen=True)
class UniformCertificate:
    r: float
    t: float
    n0: int | None
    per_point_index: tuple[tuple[float, int | None], ...]
    verdict: str
    budget: int
    ladder_indices: tuple[int | None, ...] = ()
    kind: str = "direct"  # direct | cauchy-criterion

    @property
    def uniform(self) -> bool:
        return self.verdict == VERDICT_UNIFORM

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "r": self.r,
            "t": self.t,
            "n0": self.n0,
            "verdict": self.verdict,
            "budget": self.budget,
            "points": len(self.per_point_index),
            "ladder_indices": list(self.ladder_indices),
        }


def pointwise_limit_estimate(
    spaces: tuple[IFNSpace, IFNSpace],
    seq: FunctionSequence,
    x: float,
    r: float,
    t: float,
) -> tuple[float, ConvergenceCertificate]:
    """Estimate the limit of f_n(x) (exact for closed-form families, tail
    mean otherwise) and certify convergence against it."""
    if not bool(seq.domain.contains(x)):
        raise DomainError(f"x={x!r} is outside the sequence domain")
    _, codomain = spaces
    exact = seq.exact_limit(np.array([x]))
    if exact is not None and np.isfinite(exact[0]):
        limit = float(exact[0])
    else:
        tail = seq.values(
            np.arange(seq.budget - LIMIT_TAIL + 1, seq.budget + 1), np.array([x])
        )[:, 0]
        if float(np.max(tail) - np.min(tail)) > LIMIT_OSCILLATION_TOL:
            raise NoLimit(f"tail of f_n({x}) oscillates beyond tolerance")
        limit = float(np.mean(tail))
    cert = convergence_index(codomain, seq.point_sequence(x), limit, r, t)
    return limit, cert


def _per_point_indices(
    codomain: IFNSpace,
    seq: FunctionSequence,
    xs: np.ndarray,
    limits: np.ndarray,
    r: float,
    t: float,
) -> list[int | None]:
    """Minimal tail index at each x by exhaustive scan over n."""
    ns = np.arange(1, seq.budget + 1)
    vals = seq.values(ns, xs)  # (N, M)
    out: list[int | None] = []
    for col in range(vals.shape[1]):
        diffs = (vals[:, col] - limits[col]).reshape(-1, 1)
        ok = codomain.within(diffs, r, t)
        out.append(tail_index(ok) if ok[-1] else None)
    return out


def _ladder_verdict(ladder_indices: list[int | None]) -> bool:
    """Divergence rule: indices along the refinement ladder strictly
    increase and at least double across every 3-step window (an index past
    the budget counts as unbounded)."""
    if len(ladder_indices) < 4:
        return False
    if None in ladder_indices:
        # indices that outgrew the budget must continue an increasing
        # finite prefix; anything else is not a divergence pattern
        first = ladder_indices.index(None)
        prefix = ladder_indices[:first]
        if not all(i is None for i in ladder_indices[first:]):
            return False
        return len(prefix) >= 1 and all(b > a for a, b in zip(prefix, prefix[1:]))
    finite = list(ladder_indices)
    if any(b <= a for a, b in zip(finite, finite[1:])):
        return False
    return all(finite[j + 3] >= 2 * finite[j] for j in range(len(finite) - 3))


def _uniform_verdict(
    idx: list[int | None], ladder_idx: list[int | None]
) -> tuple[str, int | None]:
    """A diverging refinement ladder refutes uniformity on the sample; a
    per-point index everywhere gives n0 = their maximum; anything else is
    inconclusive."""
    if ladder_idx and _ladder_verdict(ladder_idx):
        return VERDICT_NOT_UNIFORM, None
    if all(i is not None for i in idx):
        return VERDICT_UNIFORM, max(idx)
    return VERDICT_INCONCLUSIVE, None


def uniform_index_search(
    spaces: tuple[IFNSpace, IFNSpace],
    seq: FunctionSequence,
    limit_map: Callable | None,
    sample: DomainSample,
    r: float,
    t: float,
) -> UniformCertificate:
    """Per-point minimal indices over the sample, combined into a single
    n0 = max when one exists within budget.

    With a refinement ladder present, index divergence along the ladder
    yields `not-uniform-on-sample`; otherwise a missing per-point index
    leaves the verdict inconclusive.
    """
    _, codomain = spaces
    base = np.asarray(sample.points, dtype=float)
    ladder = np.asarray(sample.ladder, dtype=float)
    xs = np.concatenate([base, ladder])
    if limit_map is not None:
        limits = np.asarray([limit_map(x) for x in xs], dtype=float)
    else:
        exact = seq.exact_limit(xs)
        if exact is None or not np.all(np.isfinite(exact)):
            raise NoLimit("no limit map available; certify pointwise first")
        limits = exact
    idx = _per_point_indices(codomain, seq, xs, limits, r, t)
    ladder_idx = idx[len(base) :]
    verdict, n0 = _uniform_verdict(idx, ladder_idx)
    return UniformCertificate(
        r,
        t,
        n0,
        tuple((float(x), i) for x, i in zip(xs, idx)),
        verdict,
        seq.budget,
        tuple(ladder_idx),
        kind="direct",
    )


def closed_form_index_power(c: float, r: float, t: float) -> int:
    """Minimal index for the power family at the point c in (0, 1), from
    the logarithmic bound c^n < r t / (1 - r), clamped to 1 when the bound
    already exceeds 1; near-tie strictness is resolved by direct check."""
    if not (0.0 < c < 1.0):
        raise DomainError(f"c must lie in (0, 1), got {c!r}")
    if not (0.0 < r < 1.0) or t <= 0.0:
        raise DomainError(f"need r in (0,1) and t > 0, got r={r!r}, t={t!r}")
    threshold = r * t / (1.0 - r)
    if threshold >= 1.0:
        return 1
    k = math.floor(math.log(1.0 / threshold) / math.log(1.0 / c)) + 1
    k = max(k, 1)
    while k > 1 and c ** (k - 1) < threshold:
        k -= 1
    while not (c ** k < threshold):
        k += 1
    return k


def uniform_cauchy_check(
    spaces: tuple[IFNSpace, IFNSpace],
    seq: FunctionSequence,
    sample: DomainSample,
    r: float,
    t: float,
    p_max: int = DEFAULT_P_MAX,
) -> UniformCertificate:
    """Minimal k such that the tail-difference inequalities
    mu(f_{n+p}(x) - f_n(x), t) > 1 - r and nu < r hold for every sampled x
    and every later index within budget; no limit function is needed.

    For radial memberships the two-sided statement (all m > n up to
    budget + p_max) is checked exactly via suffix extrema, which subsumes
    both the p-bounded form and the (n, m) form.  Otherwise the p-bounded
    form is scanned directly and a geometric (n, m) spot-check grid guards
    against a too-optimistic index.  The verdict follows the same
    refinement-ladder rule as the direct search.
    """
    _, codomain = spaces
    base = np.asarray(sample.points, dtype=float)
    ladder = np.asarray(sample.ladder, dtype=float)
    xs = np.concatenate([base, ladder])
    n_total = seq.budget + p_max
    vals = seq.values(np.arange(1, n_total + 1), xs)  # (N + p_max, M)
    radial = codomain.mu.radial and codomain.nu.radial and codomain.dimension == 1

    ok = np.ones((seq.budget, len(xs)), dtype=bool)
    if radial:
        for col in range(len(xs)):
            v = vals[:, col]
            sfx_max = np.maximum.accumulate(v[::-1])[::-1]
            sfx_min = np.minimum.accumulate(v[::-1])[::-1]
            n_idx = np.arange(seq.budget)
            worst = np.maximum(sfx_max[n_idx + 1] - v[n_idx], v[n_idx] - sfx_min[n_idx + 1])
            ok[:, col] = codomain.within(worst.reshape(-1, 1), r, t)
    else:
        for p in range(1, p_max + 1):
            diffs = vals[p : seq.budget + p] - vals[: seq.budget]
            for col in range(len(xs)):
                ok[:, col] &= codomain.within(diffs[:, col].reshape(-1, 1), r, t)

    idx = [i if last else None for i, last in zip(tail_index(ok), ok[-1])]
    ladder_idx = idx[len(base) :]
    verdict, n0 = _uniform_verdict(idx, ladder_idx)
    if verdict == VERDICT_UNIFORM and not radial:
        # spot-check the two-sided form on a geometric (n, m) grid
        grid = sorted(
            {min(n_total, v) for v in (n0, n0 + 1, 2 * n0, 4 * n0, seq.budget)}
        )
        pairs = ((n, m) for i, n in enumerate(grid) for m in grid[i + 1 :])
        if not all(
            np.all(codomain.within((vals[m - 1] - vals[n - 1]).reshape(-1, 1), r, t))
            for n, m in pairs
        ):
            verdict, n0 = VERDICT_INCONCLUSIVE, None
    return UniformCertificate(
        r,
        t,
        n0,
        tuple((float(x), i) for x, i in zip(xs, idx)),
        verdict,
        seq.budget,
        tuple(ladder_idx),
        kind="cauchy-criterion",
    )


def sup_deviation_oracle(
    seq: FunctionSequence, a: float, m: int, n: int, grid: int = 100_001
) -> float:
    """Brute-force maximum of |x^n - x^m| over a dense grid on [0, a].

    An independent check of claimed suprema for the power family; the true
    value never exceeds a^m (and a doubled bound 2 a^m is loose by at least
    a factor of two).
    """
    if seq.family != "power":
        raise UnsupportedFamily("the deviation oracle applies to the power family")
    if not (0.0 < a < 1.0):
        raise DomainError(f"a must lie in (0, 1), got {a!r}")
    if m == n:
        return 0.0
    xs = np.linspace(0.0, a, grid)
    return float(np.max(np.abs(xs ** n - xs ** m)))


@dataclass(frozen=True)
class UniformLimitRecord:
    member_witnesses: tuple[tuple[int, str], ...]
    certificate: UniformCertificate
    limit_witnesses: tuple[ContinuityWitness, ...]

    @property
    def limit_continuous_everywhere(self) -> bool:
        return all(w.witnessed for w in self.limit_witnesses)

    def summary(self) -> dict:
        return {
            "members_checked": [list(mw) for mw in self.member_witnesses],
            "uniform_verdict": self.certificate.verdict,
            "limit_witnessed": [w.verdict for w in self.limit_witnesses],
            "limit_continuous": self.limit_continuous_everywhere,
        }


def uniform_limit_scenario(
    spaces: tuple[IFNSpace, IFNSpace],
    seq: FunctionSequence,
    sample: DomainSample,
    r: float,
    t: float,
    epsilon: float,
    alpha: float,
    member_ns: tuple[int, ...] = (1, 2, 5, 10),
    seed: int = 0,
) -> UniformLimitRecord:
    """Certify continuity of finitely many members, run the uniform search,
    then check the limit map for continuity at every base sample point.

    When convergence is uniform, the limit must be witnessed continuous
    everywhere sampled; when it is not, the limit check still runs and
    reports whichever outcome (the converse direction may fail).
    """
    domain_space, codomain_space = spaces
    member_ws = []
    probe_points = list(sample.points[:: max(1, len(sample.points) // 3)])
    for n in member_ns:
        fn = seq.map_at(n, domain_space, codomain_space)
        verdicts = {
            continuity_witness_search(fn, float(x0), epsilon, alpha, seed=seed).verdict
            for x0 in probe_points
        }
        member_ws.append((n, "witnessed" if verdicts == {"witnessed"} else ",".join(sorted(verdicts))))

    cert = uniform_index_search(spaces, seq, None, sample, r, t)

    xs = np.asarray(sample.points, dtype=float)
    limits = seq.exact_limit(xs)
    if limits is not None and np.all(limits == limits[0]):
        limit_rule = MapRule("constant", (float(limits[0]),))
    elif seq.family == "constant":
        # the limit of a constant sequence is the member map itself
        limit_rule = MapRule(*seq.params) if seq.params else MapRule("identity")
    else:
        raise UnsupportedFamily("limit continuity checks need a closed-form limit")
    limit_map = MapBetweenSpaces(domain_space, codomain_space, limit_rule, seq.domain)
    limit_ws = tuple(
        continuity_witness_search(limit_map, float(x0), epsilon, alpha, seed=seed)
        for x0 in sample.points
    )
    return UniformLimitRecord(tuple(member_ws), cert, limit_ws)


@dataclass(frozen=True)
class ClassicalUniformRecord:
    thresholds: tuple[float, ...]
    classical_indices: tuple[int | None, ...]
    classical_uniform: bool
    ifn_certificate: UniformCertificate

    @property
    def agree(self) -> bool:
        return self.classical_uniform == self.ifn_certificate.uniform

    def summary(self) -> dict:
        return {
            "classical_uniform": self.classical_uniform,
            "classical_indices": list(self.classical_indices),
            "ifn_verdict": self.ifn_certificate.verdict,
            "agree": self.agree,
        }


def classical_uniform_probe(
    spaces: tuple[IFNSpace, IFNSpace],
    seq: FunctionSequence,
    limit_map: Callable | None,
    sample: DomainSample,
    r: float = 0.1,
    t: float = 0.1,
) -> ClassicalUniformRecord:
    """Classical sup-norm uniform convergence over the sample, computed from
    raw norms only and thresholded at the demand-matched value
    e = r t / (k (1 - r)), compared against the membership verdict at the
    same (r, t).

    Both sides apply the identical refinement-ladder divergence rule, so for
    standard-family spaces the two verdicts must agree on the catalog; the
    comparison exercises the membership evaluation path, not the rule.
    """
    _, codomain = spaces
    if not codomain.is_standard:
        raise UnsupportedFamily("classical probe requires a standard-family codomain")
    xs = sample.all_points()
    if limit_map is not None:
        limits = np.asarray([limit_map(x) for x in xs], dtype=float)
    else:
        limits = seq.exact_limit(xs)
        if limits is None:
            raise NoLimit("no limit map available")
    threshold = membership_radius(codomain, r, t)
    ns = np.arange(1, seq.budget + 1)
    ok = np.abs(seq.values(ns, xs) - limits.reshape(1, -1)) < threshold
    indices = [i if last else None for i, last in zip(tail_index(ok), ok[-1])]
    verdict, _ = _uniform_verdict(indices, indices[len(sample.points) :])
    classical_uniform = verdict == VERDICT_UNIFORM
    cert = uniform_index_search(spaces, seq, limit_map, sample, r, t)
    return ClassicalUniformRecord(
        (threshold,), tuple(indices), classical_uniform, cert
    )
