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
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InvalidParameter, NoLimit, UnsupportedFamily
from .continuity import (
    ContinuityWitness,
    MapBetweenSpaces,
    MapRule,
    continuity_witness_searches,
)
from .ifn_core import IFNSpace, membership_radius
from .point_convergence import (
    ConvergenceCertificate,
    PointSequence,
    _check_rt,
    convergence_index,
    tail_index,
)
from .sampling import Interval, _Frozen
from .vocabulary import DEFAULT_P_MAX, FUNCSEQ_FAMILY_NAMES, paired

DEFAULT_BUDGET = 10_000


class _FuncFamily(NamedTuple):
    values: Callable  # (seq, float indices ns (K, 1), xs (1, M)) -> (K, M) f_n(x)
    limit: Callable  # (seq, xs) -> lim f_n(x)
    member: Callable  # (seq, n) -> the MapRule of f_n


def _power(ns: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """xs ** ns bit for bit at whole-number n, without pow on a cell whose
    |x|^n < 2^-1100.

    pow takes a slow path on every result that underflows, and for
    0 <= x <= 1/2 most of a 10,000-row matrix does.  Below 2^-1075 a
    correctly rounded pow gives a signed zero, so such a cell (with a 25
    binade margin for the rounding of n log2|x|) is filled: -0.0 for a
    negative base and odd n, +0.0 otherwise.  NaN and 0 * -inf (n = 0 at
    x = 0) compare false and stay with pow.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        dead = ns * np.log2(np.abs(xs)) <= -1100.0
        # np.full, not np.zeros: calloc moves glibc's heap thresholds and
        # later large blocks fault their pages in again
        out = np.full(dead.shape, 0.0)
        if np.signbit(xs).any():
            out[np.signbit(xs) & (np.abs(np.fmod(ns, 2.0)) == 1.0)] = -0.0
    with np.errstate(over="ignore"):  # inf is pow's correctly rounded result
        np.power(xs, ns, out=out, where=np.logical_not(dead, out=dead))
    return out


# The closed-form families.
FUNCSEQ_FAMILIES = paired(FUNCSEQ_FAMILY_NAMES, {
    "power": _FuncFamily(
        lambda seq, ns, xs: _power(ns, xs),
        # on the catalog domains |x| < 1; x = 1 would be a fixed point
        lambda seq, xs: np.where(np.abs(xs) < 1.0, 0.0, np.where(xs == 1.0, 1.0, np.nan)),
        lambda seq, n: MapRule("power", (float(n),)),
    ),
    "quotient": _FuncFamily(
        lambda seq, ns, xs: ns / (xs + ns),
        lambda seq, xs: np.ones_like(xs),
        lambda seq, n: MapRule("quotient", (float(n),)),
    ),
    "scaled": _FuncFamily(
        lambda seq, ns, xs: xs / ns,
        lambda seq, xs: np.zeros_like(xs),
        lambda seq, n: MapRule("scalar", (1.0 / n,), (MapRule("identity"),)),
    ),
    "constant": _FuncFamily(
        lambda seq, ns, xs: np.broadcast_to(seq.constant_rule()(xs), (len(ns), xs.shape[1])).copy(),
        lambda seq, xs: seq.constant_rule()(xs),
        lambda seq, n: seq.constant_rule(),
    ),
})

# Tail used to estimate a limit that has no finite closed form, and the
# oscillation tolerance beyond which no limit is reported.
LIMIT_TAIL = 10
LIMIT_OSCILLATION_TOL = 1e-9

VERDICT_UNIFORM = "uniform-up-to-budget"
VERDICT_NOT_UNIFORM = "not-uniform-on-sample"
VERDICT_INCONCLUSIVE = "inconclusive"


class FunctionSequence(_Frozen):
    """A sequence of univariate maps n -> f_n on a fixed interval."""

    __slots__ = ("family", "domain", "params", "budget")

    def __init__(
        self,
        family: str,  # one of FUNCSEQ_FAMILIES
        domain: Interval,
        params: tuple = (),
        budget: int = DEFAULT_BUDGET,
    ):
        self._set(family=family, domain=domain, params=params, budget=budget)

    def values(self, ns: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Matrix of f_n(x) with rows indexed by n and columns by x."""
        ns = np.asarray(ns, dtype=float).reshape(-1, 1)
        xs = np.asarray(xs, dtype=float).reshape(1, -1)
        if self.family not in FUNCSEQ_FAMILIES:
            raise UnsupportedFamily(f"unknown function-sequence family {self.family!r}")
        return FUNCSEQ_FAMILIES[self.family].values(self, ns, xs)

    def exact_limit(self, xs: np.ndarray) -> np.ndarray | None:
        """lim f_n(x) of a closed-form family; None for any other."""
        row = FUNCSEQ_FAMILIES.get(self.family)
        return None if row is None else row.limit(self, np.asarray(xs, dtype=float))

    def constant_rule(self) -> MapRule:
        """The map every member of the `constant` family equals."""
        return MapRule(*self.params) if self.params else MapRule("identity")

    def map_at(self, n: int, domain_space: IFNSpace, codomain_space: IFNSpace) -> MapBetweenSpaces:
        if self.family not in FUNCSEQ_FAMILIES:
            raise UnsupportedFamily("custom sequences have no closed-form member maps")
        rule = FUNCSEQ_FAMILIES[self.family].member(self, n)
        return MapBetweenSpaces(domain_space, codomain_space, rule, self.domain)

    def point_sequence(self, x: float) -> PointSequence:
        """The image sequence n -> f_n(x) at a fixed point."""
        return PointSequence(
            "custom",
            budget=self.budget,
            fn=lambda ns: self.values(ns, np.array([x])),
        )


class DomainSample(NamedTuple):
    """Base sample points plus an optional ordered refinement ladder
    approaching an open boundary."""

    points: tuple[float, ...]
    ladder: tuple[float, ...] = ()

    def all_points(self) -> np.ndarray:
        return np.asarray(self.points + self.ladder, dtype=float)


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


class UniformCertificate(NamedTuple):
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
        ns = np.arange(seq.budget - LIMIT_TAIL + 1, seq.budget + 1)
        tail = seq.values(ns, np.array([x]))[:, 0]
        if not np.isfinite(tail).all():
            i = int(np.argmin(np.isfinite(tail)))
            raise DomainError(f"f_n(x) is not finite at x={x!r}, n={ns[i]}: f_n(x) = {float(tail[i])}")
        if float(np.max(tail) - np.min(tail)) > LIMIT_OSCILLATION_TOL:
            raise NoLimit(f"tail of f_n({x}) oscillates beyond tolerance")
        limit = float(np.mean(tail))
    cert = convergence_index(codomain, seq.point_sequence(x), limit, r, t)
    return limit, cert


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


def _limits(seq: FunctionSequence, sample: DomainSample) -> np.ndarray:
    """The exact limit of f_n(x) at every sampled point."""
    limits = seq.exact_limit(sample.all_points())
    if limits is None or not np.all(np.isfinite(limits)):
        raise NoLimit("no closed-form limit at every sampled point; certify pointwise first")
    return limits


# Cells of f_n(x) per column block: every catalog, example and benchmark
# matrix (at most 10,000 x 25) is one block
_BLOCK_CELLS = 2**20


def _blocks(seq: FunctionSequence, sample: DomainSample, rts: list, n_rows: int):
    """(columns, (n_rows, b) block of f_n(x)) over `sample.all_points()`, b
    columns at a time, once every (r, t) of `rts` is known to be a valid demand."""
    for r, t in rts:
        _check_rt(r, t)
    xs, ns, b = sample.all_points(), np.arange(1, n_rows + 1), max(1, _BLOCK_CELLS // n_rows)
    return ((slice(j, j + b), seq.values(ns, xs[j : j + b])) for j in range(0, len(xs), b))


def _indices(ok: np.ndarray) -> list[int | None]:
    """Each column's all-pass tail start, or None where its last row fails."""
    return [i if last else None for i, last in zip(tail_index(ok), ok[-1])]


def _limit_masks(codomain: IFNSpace, vals: np.ndarray, limits: np.ndarray, rts: list):
    """ok[n-1, j] = f_n(x_j) meets the (r, t) demand around the limit at x_j,
    one mask per (r, t) of `rts`.  One `within` call decides the cells that
    `IFNSpace.near_radius` names, and the others pass."""
    size = vals - limits
    np.abs(size, out=size)
    for r, t in rts:
        ok = np.ones(size.shape, dtype=bool)
        rest = codomain.near_radius(size, r, t)
        z = vals.flat[rest] - limits[rest % len(limits)]  # the block's subtraction, at these cells
        ok.flat[rest] = codomain.within(z.reshape(-1, 1), r, t)
        yield ok


def _certificate(
    idx: list, sample: DomainSample, budget: int, r: float, t: float, kind: str = "direct"
) -> UniformCertificate:
    """The certificate of per-point indices (`_indices`) over `sample.all_points()`:
    a diverging refinement ladder refutes uniformity on the sample; an index
    everywhere gives n0 = their maximum; anything else is inconclusive."""
    ladder_idx = idx[len(sample.points) :]
    if ladder_idx and _ladder_verdict(ladder_idx):
        verdict, n0 = VERDICT_NOT_UNIFORM, None
    elif all(i is not None for i in idx):
        verdict, n0 = VERDICT_UNIFORM, max(idx)
    else:
        verdict, n0 = VERDICT_INCONCLUSIVE, None
    points = tuple((float(x), i) for x, i in zip(sample.all_points(), idx))
    return UniformCertificate(r, t, n0, points, verdict, budget, tuple(ladder_idx), kind)


def uniform_index_sweep(
    spaces: tuple[IFNSpace, IFNSpace],
    seq: FunctionSequence,
    sample: DomainSample,
    rts: list[tuple[float, float]],
) -> list[UniformCertificate]:
    """`uniform_index_search` at every (r, t) of `rts`, in that order.

    The limits and each (budget, b) column block of f_n(x) do not depend on
    (r, t): they are built once per call, and only the demand mask runs per pair.
    """
    limits, idx = _limits(seq, sample), [[] for _ in rts]
    for cols, vals in _blocks(seq, sample, rts, seq.budget):
        for acc, ok in zip(idx, _limit_masks(spaces[1], vals, limits[cols], rts)):
            acc += _indices(ok)
    return [_certificate(i, sample, seq.budget, r, t) for (r, t), i in zip(rts, idx)]


def uniform_index_search(
    spaces: tuple[IFNSpace, IFNSpace],
    seq: FunctionSequence,
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
    return uniform_index_sweep(spaces, seq, sample, [(r, t)])[0]


def closed_form_index_power(c: float, radius: float) -> int:
    """Minimal index n with c^n < radius for the power family at the point
    c in (0, 1): with the membership radius r t / (k (1 - r)) of an (r, t)
    demand (`membership_radius`), the paper's logarithmic bound, clamped to 1
    when the radius already exceeds 1; near-tie strictness is resolved by
    direct check."""
    if not (0.0 < c < 1.0):
        raise DomainError(f"c must lie in (0, 1), got {c!r}")
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius!r}")
    if radius >= 1.0:
        return 1
    # log(c), not log(1 / c): one ulp below 1, 1 / c rounds to 1 + 2^-52,
    # which halves the estimate and leaves ~3e16 unit steps to the index
    k = math.floor(math.log(radius) / math.log(c)) + 1
    k = max(k, 1)
    while k > 1 and c ** (k - 1) < radius:
        k -= 1
    while not (c ** k < radius):
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

    The codomain is the standard pair on the real line (else
    UnsupportedFamily), so the two-sided statement (all m > n up to
    budget + p_max) is checked via suffix extrema, which subsumes both the
    p-bounded form and the (n, m) form: the worst later deviation decides
    each n, and `within` runs only on the worst deviations that
    `IFNSpace.near_radius` names.  The float demand is not monotone in |z|
    near the radius, so a named worst deviation that passes is rechecked
    against every later term, and the index is exact per (n, m).  The
    verdict follows the same refinement-ladder rule as the direct search.
    """
    return _criterion(spaces[1], seq, sample, r, t, p_max, None)[1]


def criterion_pair(spaces, seq, sample, r, t, p_max=DEFAULT_P_MAX) -> tuple[UniformCertificate, ...]:
    """`uniform_index_search` and `uniform_cauchy_check` at (r, t) from one walk over f_n(x),
    as each cell is computed on its own: the direct search reads each block's first budget rows."""
    return _criterion(spaces[1], seq, sample, r, t, p_max, _limits(seq, sample))


def _criterion(codomain, seq, sample, r, t, p_max, limits) -> tuple[UniformCertificate | None, ...]:
    """The direct certificate (None without `limits`) and the criterion's."""
    if p_max < 1:
        raise InvalidParameter("p_max must be >= 1")
    if not (codomain.standard_pair and codomain.dimension == 1):
        raise UnsupportedFamily("the Cauchy criterion needs the standard pair on the real line")
    direct, idx = [], []
    for cols, vals in _blocks(seq, sample, [(r, t)], seq.budget + p_max):  # (N + p_max, b)
        if limits is not None:
            direct += _indices(next(_limit_masks(codomain, vals[: seq.budget], limits[cols], [(r, t)])))
        ok = np.ones((seq.budget, vals.shape[1]), dtype=bool)
        for col, v in enumerate(vals.T):
            # the worst later deviation from f_n(x), by suffix extrema
            later_max = np.maximum.accumulate(v[::-1])[::-1][1 : seq.budget + 1]
            later_min = np.minimum.accumulate(v[::-1])[::-1][1 : seq.budget + 1]
            now = v[: seq.budget]
            worst = np.maximum(later_max - now, now - later_min)
            rows = codomain.near_radius(worst, r, t)
            passed = codomain.within(worst[rows].reshape(-1, 1), r, t)
            ok[rows, col] = passed
            for n in rows[passed]:
                ok[n, col] = np.all(codomain.within(v[n + 1 :] - v[n], r, t))
        idx += _indices(ok)

    cert = _certificate(idx, sample, seq.budget, r, t, kind="cauchy-criterion")
    direct = None if limits is None else _certificate(direct, sample, seq.budget, r, t)
    return direct, cert


# Grid points of the brute-force deviation oracle on [0, a].
_ORACLE_GRID = 100_001

# Members whose continuity the uniform limit scenario certifies first.
_LIMIT_MEMBERS = (1, 2, 5, 10)


def sup_deviation_oracle(seq: FunctionSequence, a: float, m: int, n: int) -> float:
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
    xs = np.linspace(0.0, a, _ORACLE_GRID)
    return float(np.max(np.abs(xs ** n - xs ** m)))


class UniformLimitRecord(NamedTuple):
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
    seed: int = 0,
) -> UniformLimitRecord:
    """Certify continuity of finitely many members, run the uniform search,
    then check the limit map for continuity at every base sample point.

    When convergence is uniform, the limit must be witnessed continuous
    everywhere sampled; when it is not, the limit check still runs and
    reports whichever outcome (the converse direction may fail).
    """
    domain_space, codomain_space = spaces
    x0s = [float(x0) for x0 in sample.points]
    member_ws = []
    for n in _LIMIT_MEMBERS:
        fn = seq.map_at(n, domain_space, codomain_space)
        ws = continuity_witness_searches(fn, x0s[:: max(1, len(x0s) // 3)], epsilon, alpha, seed=seed)
        verdicts = {w.verdict for w in ws}
        member_ws.append((n, "witnessed" if verdicts == {"witnessed"} else ",".join(sorted(verdicts))))

    cert = uniform_index_search(spaces, seq, sample, r, t)

    limits = seq.exact_limit(np.asarray(sample.points, dtype=float))
    if limits is not None and np.all(limits == limits[0]):
        limit_rule = MapRule("constant", (float(limits[0]),))
    elif seq.family == "constant":
        # the limit of a constant sequence is the member map itself
        limit_rule = seq.constant_rule()
    else:
        raise UnsupportedFamily("limit continuity checks need a closed-form limit")
    limit_fn = MapBetweenSpaces(domain_space, codomain_space, limit_rule, seq.domain)
    limit_ws = tuple(continuity_witness_searches(limit_fn, x0s, epsilon, alpha, seed=seed))
    return UniformLimitRecord(tuple(member_ws), cert, limit_ws)


class ClassicalUniformRecord(NamedTuple):
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
    if not codomain.standard_pair:
        raise UnsupportedFamily("classical probe requires a standard-family codomain")
    limits = _limits(seq, sample)
    blocks = _blocks(seq, sample, [(r, t)], seq.budget)  # checks (r, t) before the radius uses it
    threshold = membership_radius(codomain, r, t)
    indices, ifn = [], []
    for cols, vals in blocks:
        indices += _indices(np.abs(vals - limits[cols]) < threshold)
        ifn += _indices(next(_limit_masks(codomain, vals, limits[cols], [(r, t)])))
    uniform = _certificate(indices, sample, seq.budget, r, t).uniform
    cert = _certificate(ifn, sample, seq.budget, r, t)
    return ClassicalUniformRecord((threshold,), tuple(indices), uniform, cert)
