"""Convergence and Cauchy certificates for sequences of points.

A certificate never claims more than it checked: it records the index n0,
the (r, t) demand, and the budget (N_max, p_max) over which the defining
membership inequalities were verified.  `certified-up-to-budget` requires
the clean tail to cover at least the second half of the budget; a pass that
only appears near the end of the window is `inconclusive` (slow convergence
and oscillation are indistinguishable there), and a failure at the end of
the window is `failed`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, InvalidParameter, UnsupportedFamily
from .ifn_core import IFNSpace
from .sampling import _Frozen, as_point
from .vocabulary import DEFAULT_P_MAX, SEQUENCE_FAMILY_NAMES, paired

DEFAULT_BUDGET = 100_000

STATUS_CERTIFIED = "certified-up-to-budget"
STATUS_FAILED = "failed"
STATUS_INCONCLUSIVE = "inconclusive"


class _Family(NamedTuple):
    arity: int  # number of params
    terms: Callable  # (params, float indices ns) -> terms x_n


# The closed-form families.
SEQUENCE_FAMILIES = paired(SEQUENCE_FAMILY_NAMES, {
    "reciprocal": _Family(0, lambda p, ns: 1.0 / (ns + 1.0)),
    "constant": _Family(1, lambda p, ns: np.full_like(ns, float(p[0]))),
    "linear": _Family(0, lambda p, ns: ns.copy()),
    "alternating": _Family(
        0, lambda p, ns: np.where(np.asarray(ns, dtype=int) % 2 == 0, 1.0, -1.0)
    ),
    "shifted-reciprocal": _Family(2, lambda p, ns: p[0] + 1.0 / (ns + p[1])),
})


class PointSequence(_Frozen):
    """A sequence n -> R, total on 1..budget, of a closed-form family."""

    __slots__ = ("family", "params", "budget")

    def __init__(self, family: str, params: tuple = (), budget: int = DEFAULT_BUDGET):
        if family not in SEQUENCE_FAMILIES:
            raise UnsupportedFamily(f"unknown sequence family {family!r}")
        arity = SEQUENCE_FAMILIES[family].arity
        if len(params) != arity:
            raise InvalidParameter(f"sequence family {family!r} takes {arity} params, got {len(params)}")
        self._set(family=family, params=params, budget=budget)

    def values(self, ns: np.ndarray) -> np.ndarray:
        """The (N, 1) block of x_n at the indices ns."""
        ns = np.asarray(ns, dtype=float)  # the integer indices are freed before the terms are built
        return SEQUENCE_FAMILIES[self.family].terms(self.params, ns).reshape(-1, 1)


def reciprocal_sequence(budget: int = DEFAULT_BUDGET) -> PointSequence:
    """x_n = 1/(n+1)."""
    return PointSequence("reciprocal", budget=budget)


def shifted_reciprocal_sequence(
    center: float, offset: float = 10.0, budget: int = DEFAULT_BUDGET
) -> PointSequence:
    """x_n = center + 1/(n + offset)."""
    return PointSequence("shifted-reciprocal", (float(center), float(offset)), budget=budget)


class ConvergenceCertificate(NamedTuple):
    kind: str  # "convergence" | "cauchy"
    r: float
    t: float
    n0: int | None
    status: str
    limit: tuple[float, ...] | None
    budget_n: int
    budget_p: int | None = None
    margin_monotone: bool | None = None

    @property
    def certified(self) -> bool:
        return self.status == STATUS_CERTIFIED

    def summary(self) -> dict:
        out = {
            "kind": self.kind,
            "r": self.r,
            "t": self.t,
            "n0": self.n0,
            "status": self.status,
            "budget_n": self.budget_n,
        }
        if self.budget_p is not None:
            out["budget_p"] = self.budget_p
        if self.limit is not None:
            out["limit"] = list(self.limit)
        if self.margin_monotone is not None:
            out["margin_monotone"] = self.margin_monotone
        return out


def _check_rt(r: float, t: float):
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r!r}")
    if not (np.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be a positive real, got {t!r}")


def _terms(space: IFNSpace, seq: PointSequence) -> np.ndarray:
    """The (budget, d) block of x_1..x_budget, in the space's dimension d."""
    terms = seq.values(np.arange(1, seq.budget + 1))
    if terms.shape[1] != space.dimension:
        raise DomainError(
            f"sequence dimension {terms.shape[1]} differs from space dimension {space.dimension}"
        )
    return terms


def tail_index(ok: np.ndarray) -> int | list[int]:
    """Start of the all-pass tail of each column of `ok`: 1 + the 1-based
    position of the last False, or 1 when the column has none.

    ok[i] is the verdict at index i+1.  A 1-D mask gives an int, an (N, M)
    block a list of M ints.  The scan does not look at ok[-1] specially:
    callers decide what a failing last entry means.
    """
    ok = np.asarray(ok, dtype=bool)
    if ok.ndim == 2:
        rev = np.empty((ok.shape[1], len(ok) + 1), dtype=bool)
        rev[:, :-1], rev[:, -1] = ok[::-1].T, False  # reversed columns, a False sentinel
        return (len(ok) + 1 - rev.argmin(axis=1)).tolist()
    bad = np.flatnonzero(~ok)
    return int(bad[-1]) + 2 if len(bad) else 1


def _status_from_mask(ok: np.ndarray) -> tuple[int | None, str]:
    """Minimal all-pass tail start and the resulting status.

    ok[i] is the verdict at index i+1.  The tail-evidence rule: a
    certificate needs the clean tail to start no later than half the
    checked window.
    """
    n = len(ok)
    if n == 0:
        return None, STATUS_INCONCLUSIVE
    if not ok[-1]:
        return None, STATUS_FAILED
    n0 = tail_index(ok)
    if n0 <= max(1, n // 2):
        return n0, STATUS_CERTIFIED
    return n0, STATUS_INCONCLUSIVE


def convergence_index(
    space: IFNSpace, seq: PointSequence, limit, r: float, t: float
) -> ConvergenceCertificate:
    """Smallest n0 such that mu(x_n - x, t) > 1 - r and nu(x_n - x, t) < r
    for every n in [n0, budget], by exhaustive scan."""
    return _convergence(space, _terms(space, seq), limit, r, t)


def _convergence(space: IFNSpace, terms: np.ndarray, limit, r: float, t: float) -> ConvergenceCertificate:
    """`convergence_index` of the (N, d) block of terms x_1..x_N, N the budget."""
    _check_rt(r, t)
    lim, budget = as_point(limit, space.dimension), len(terms)
    terms = terms - lim  # x_n - x: rebinding frees the terms before `within` runs
    n0, status = _status_from_mask(space.within(terms, r, t))
    return ConvergenceCertificate("convergence", r, t, n0, status, tuple(lim), budget)


def _p_window_scan(
    space: IFNSpace, vals: np.ndarray, r: float, t: float, p_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """One pass over p = 1..p_max of the differences x_{n+p} - x_n of an
    (N, d) block, for n = 1..N-1.

    Returns first[n-1], the first p at which the demand fails at (n, p)
    (N when it holds at every p scanned), and worst[n-1], the largest
    1 - mu(x_{n+p} - x_n, t) over those p.  Each p evaluates mu and nu once.
    A standard pair on the real line takes `_window_extrema_scan`, which
    returns the same arrays bit for bit; a block it does not decide runs
    the loop here whole, so its results and its errors are the loop's own.
    """
    n_total = len(vals)
    p_top = min(p_max, n_total - 1)
    if space.standard_pair and vals.shape[1:] == (1,) and p_top >= 1:
        scanned = _window_extrema_scan(space, vals[:, 0], r, t, p_top)
        if scanned is not None:
            return scanned
    first = np.full(max(n_total - 1, 0), n_total)
    worst = np.full(max(n_total - 1, 0), np.inf)  # the smallest mu until the end
    for p in range(1, p_top + 1):
        mu, nu = space.memberships(vals[p:] - vals[:-p], t)
        bad = np.flatnonzero(~space.meets(mu, nu, r))
        first[bad] = np.minimum(first[bad], p)
        np.minimum(worst[: n_total - p], mu, out=worst[: n_total - p])
        del mu, nu  # freed before the next p's evaluation, not after it
    # fl(1 - x) is monotone, so 1 - min(mu) is max(1 - mu) bit for bit
    return first, np.subtract(1.0, worst, out=worst)


def _window_extrema(x: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The max and the min of x[i+1 : i+1+width] for i = 0..len(x)-2, each
    window cut off at the end, by doubling the span in place."""
    hi, lo = x[1:].copy(), x[1:].copy()
    span = 1  # hi[i] and lo[i] cover x[i+1 : i+1+span]
    while span < width:
        step = min(span, width - span)
        np.maximum(hi[:-step], hi[step:], out=hi[:-step])
        np.minimum(lo[:-step], lo[step:], out=lo[:-step])
        span += step
    return hi, lo


def _window_extrema_scan(
    space: IFNSpace, x: np.ndarray, r: float, t: float, p_top: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """`_p_window_scan` of terms x on the real line for a standard pair, from
    each window's extrema, or None for a block it does not decide.

    fl(y - x_n) is monotone in y, so the largest |x_{n+p} - x_n| over the
    window is far_n = max(fl(M_n - x_n), fl(x_n - m_n)) for its max M_n and
    min m_n; mu falls as |z| grows, so worst = 1 - mu(far).  The block is
    decided only when every far_n is finite and its memberships evaluate:
    then so do those of every difference.  A row whose far_n
    `IFNSpace.near_radius` does not name meets the demand at every p.
    The rows it names are scanned p by p, each leaving at its first failure,
    so every entry decided is the loop's own float expression.
    """
    last = len(x) - 1
    far, lo = _window_extrema(x, p_top)
    np.subtract(far, x[:-1], out=far)
    np.maximum(far, np.subtract(x[:-1], lo, out=lo), out=far)
    del lo
    if not np.isfinite(far).all():
        return None
    try:
        mu = space.memberships(far, t)[0]
    except DomainError:
        return None
    rows = space.near_radius(far, r, t)
    del far
    first = np.full(last, last + 1)
    for p in range(1, p_top + 1):
        rows = rows[: np.searchsorted(rows, last + 1 - p)]  # rows i whose x[i + p] exists
        if not len(rows):
            break
        ok = space.within(x[rows + p] - x[rows], r, t)
        first[rows[~ok]] = p
        rows = rows[ok]
    return first, np.subtract(1.0, mu, out=mu)


def _window_ok(first: np.ndarray, budget: int) -> np.ndarray:
    """ok[n-1] for n = 1..budget-1: the demand holds at every (n, p) whose
    x_{n+p} lies within the first `budget` terms, i.e. the first violation
    at n lies beyond budget - n."""
    return first[: budget - 1] > np.arange(budget - 1, 0, -1)


def _cauchy_scan(
    space: IFNSpace, terms: np.ndarray, r: float, t: float, p_max: int
) -> tuple[ConvergenceCertificate, np.ndarray]:
    """The Cauchy certificate of `cauchy_index` for the (N, d) block of terms
    x_1..x_N, N the budget, and the per-n first violations of its p-window
    scan, from which every escape index within the budget is read by
    `_window_ok`."""
    _check_rt(r, t)
    if p_max < 1:
        raise InvalidParameter("p_max must be >= 1")
    budget = len(terms)
    first, worst = _p_window_scan(space, terms, r, t, p_max)
    del terms  # no longer needed: freed before the masks below are built
    n0, status = _status_from_mask(_window_ok(first, budget))
    if status == STATUS_CERTIFIED and n0 + p_max > budget:
        status = STATUS_INCONCLUSIVE

    margin_monotone = None
    if n0 is not None:
        # worst mu margin per n over the window actually used for the tail
        tail = worst[n0 - 1 : budget - p_max]
        margin_monotone = bool(len(tail) < 2 or np.all(np.diff(tail) <= 1e-12))
    cert = ConvergenceCertificate(
        "cauchy", r, t, n0, status, None, budget, p_max, margin_monotone
    )
    return cert, first


def cauchy_index(
    space: IFNSpace,
    seq: PointSequence,
    r: float,
    t: float,
    p_max: int = DEFAULT_P_MAX,
) -> ConvergenceCertificate:
    """Smallest n0 such that mu(x_{n+p} - x_n, t) > 1 - r and the dual nu
    inequality hold for all n >= n0 and p in [1, p_max] within budget.

    Certification additionally requires n0 + p_max <= budget (the full
    p-window must actually have been observed at n0) and the tail-evidence
    rule.  The limit statement is certified alongside as "the worst margin
    1 - mu over p shrinks monotonically along the checked tail".
    """
    return _cauchy_scan(space, _terms(space, seq), r, t, p_max)[0]


def cauchy_escape_index(
    space: IFNSpace,
    seq: PointSequence,
    r: float,
    t: float,
    p_max: int = DEFAULT_P_MAX,
    budget: int | None = None,
) -> int:
    """Minimal n0 past which no violation is observable within the first
    `budget` terms (all of them by default), allowing the truncated tail.

    For a Cauchy sequence this stabilises as the budget grows; for a
    divergent one it tracks the budget.  `cauchy_preservation_check` reads
    every budget of its ladder from one scan instead of calling this.
    """
    _check_rt(r, t)
    n = min(budget or seq.budget, seq.budget)
    first, _ = _p_window_scan(space, _terms(space, seq)[:n], r, t, p_max)
    return tail_index(_window_ok(first, n))


class EquivalenceRecord(NamedTuple):
    ifn_certificates: tuple[ConvergenceCertificate, ...]
    ifn_converged: bool
    classical_thresholds: tuple[float, ...]
    classical_indices: tuple[int | None, ...]
    classical_converged: bool

    @property
    def agree(self) -> bool:
        return self.ifn_converged == self.classical_converged


# (r, t) demands and the matching classical thresholds; floors are tied to
# the default budget (1/(n+1)-type tails reach 1e-4 within 1e5 terms).
_PROBE_RT = ((0.5, 1.0), (0.1, 0.1), (0.01, 0.01))
_PROBE_THRESHOLDS = (0.1, 0.01, 1e-3, 1e-4)


def classical_equivalence_probe(
    space: IFNSpace, seq: PointSequence, limit
) -> EquivalenceRecord:
    """Compare the classical ||x_n - x|| -> 0 verdict against the membership
    verdict on a fixed (r, t) grid.

    The classical side thresholds raw norms directly and never evaluates mu
    or nu, so agreement is a genuine cross-check of the membership path.
    For standard-family spaces the two verdicts must agree.
    """
    if not space.standard_pair:
        raise UnsupportedFamily("classical probe requires a standard-family space")
    lim = as_point(limit, space.dimension)
    certs = tuple(
        convergence_index(space, seq, lim, r, t) for r, t in _PROBE_RT
    )
    ifn_converged = all(c.certified for c in certs)

    ns = np.arange(1, seq.budget + 1)
    norms = space.norm(seq.values(ns) - lim)
    indices: list[int | None] = []
    for e in _PROBE_THRESHOLDS:
        ok = norms < e
        n0, status = _status_from_mask(ok)
        indices.append(n0 if status == STATUS_CERTIFIED else None)
    classical_converged = all(i is not None for i in indices)
    return EquivalenceRecord(
        certs, ifn_converged, _PROBE_THRESHOLDS, tuple(indices), classical_converged
    )
