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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidParameter, UnsupportedFamily
from .ifn_core import IFNSpace
from .sampling import as_point

DEFAULT_BUDGET = 100_000
DEFAULT_P_MAX = 100

STATUS_CERTIFIED = "certified-up-to-budget"
STATUS_FAILED = "failed"
STATUS_INCONCLUSIVE = "inconclusive"

# Number of params each closed-form sequence family takes.
_FAMILY_ARITY = {
    "reciprocal": 0, "constant": 1, "linear": 0, "alternating": 0, "shifted-reciprocal": 2,
}


@dataclass(frozen=True, eq=False)
class PointSequence:
    """A sequence n -> R^d, total on 1..budget.

    Closed-form families are vectorised; `custom` wraps a callable taking an
    integer array of indices and returning an (N, d) block.
    """

    family: str
    params: tuple = ()
    budget: int = DEFAULT_BUDGET
    dimension: int = 1
    fn: Callable | None = None

    def __post_init__(self):
        arity = _FAMILY_ARITY.get(self.family)
        if arity is not None and len(self.params) != arity:
            raise InvalidParameter(
                f"sequence family {self.family!r} takes {arity} params, got {len(self.params)}"
            )

    def values(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=float)
        if self.family == "reciprocal":
            out = 1.0 / (ns + 1.0)
        elif self.family == "constant":
            out = np.full_like(ns, float(self.params[0]))
        elif self.family == "linear":
            out = ns.copy()
        elif self.family == "alternating":
            out = np.where(np.asarray(ns, dtype=int) % 2 == 0, 1.0, -1.0)
        elif self.family == "shifted-reciprocal":
            center, offset = self.params
            out = center + 1.0 / (ns + offset)
        elif self.family == "custom":
            return np.asarray(self.fn(np.asarray(ns, dtype=int)), dtype=float).reshape(
                len(ns), self.dimension
            )
        else:
            raise UnsupportedFamily(f"unknown sequence family {self.family!r}")
        return out.reshape(-1, 1)

    def summary(self) -> dict:
        return {
            "family": self.family,
            "params": [float(p) for p in self.params],
            "budget": int(self.budget),
        }


def reciprocal_sequence(budget: int = DEFAULT_BUDGET) -> PointSequence:
    """x_n = 1/(n+1)."""
    return PointSequence("reciprocal", budget=budget)


def constant_sequence(c: float, budget: int = DEFAULT_BUDGET) -> PointSequence:
    return PointSequence("constant", (float(c),), budget=budget)


def linear_sequence(budget: int = DEFAULT_BUDGET) -> PointSequence:
    """x_n = n (divergent)."""
    return PointSequence("linear", budget=budget)


def alternating_sequence(budget: int = DEFAULT_BUDGET) -> PointSequence:
    """x_n = (-1)^n."""
    return PointSequence("alternating", budget=budget)


def shifted_reciprocal_sequence(
    center: float, offset: float = 10.0, budget: int = DEFAULT_BUDGET
) -> PointSequence:
    """x_n = center + 1/(n + offset)."""
    return PointSequence("shifted-reciprocal", (float(center), float(offset)), budget=budget)


def mapped_sequence(base: PointSequence, fn: Callable, dimension: int = 1) -> PointSequence:
    """The image sequence n -> fn(x_n) (values mapped elementwise)."""
    return PointSequence(
        "custom",
        budget=base.budget,
        dimension=dimension,
        fn=lambda ns: np.asarray(fn(base.values(ns)), dtype=float),
    )


@dataclass(frozen=True)
class ConvergenceCertificate:
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


def tail_index(ok: np.ndarray) -> int | list[int]:
    """Start of the all-pass tail of each column of `ok`: 1 + the 1-based
    position of the last False, or 1 when the column has none.

    ok[i] is the verdict at index i+1.  A 1-D mask gives an int, an (N, M)
    block a list of M ints.  The scan does not look at ok[-1] specially:
    callers decide what a failing last entry means.
    """
    ok = np.asarray(ok, dtype=bool)
    if ok.ndim == 2:
        return [tail_index(col) for col in ok.T]
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
    _check_rt(r, t)
    lim = as_point(limit, space.dimension)
    ns = np.arange(1, seq.budget + 1)
    diffs = seq.values(ns) - lim
    n0, status = _status_from_mask(space.within(diffs, r, t))
    return ConvergenceCertificate(
        "convergence", r, t, n0, status, tuple(lim), seq.budget
    )


def _cauchy_ok_mask(
    space: IFNSpace, vals: np.ndarray, r: float, t: float, p_max: int
) -> np.ndarray:
    """ok[n-1] = the inequalities hold at (n, p) for every available
    p <= min(p_max, N - n).  Index n ranges over 1..N-1."""
    n_total = vals.shape[0]
    ok = np.ones(n_total - 1, dtype=bool)
    for p in range(1, p_max + 1):
        if p >= n_total:
            break
        ok[: n_total - p] &= space.within(vals[p:] - vals[:-p], r, t)
    return ok


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
    _check_rt(r, t)
    if p_max < 1:
        raise InvalidParameter("p_max must be >= 1")
    ns = np.arange(1, seq.budget + 1)
    vals = seq.values(ns)
    ok = _cauchy_ok_mask(space, vals, r, t, p_max)
    n0, status = _status_from_mask(ok)
    if status == STATUS_CERTIFIED and n0 + p_max > seq.budget:
        status = STATUS_INCONCLUSIVE

    margin_monotone = None
    if n0 is not None:
        # worst mu margin per n over the window actually used for the tail
        worst = None
        for p in range(1, min(p_max, seq.budget - 1) + 1):
            diffs = vals[p:] - vals[:-p]
            mu = space.mu_many(diffs, t)
            m = np.full(seq.budget - 1, -np.inf)
            m[: seq.budget - p] = 1.0 - mu
            worst = m if worst is None else np.maximum(worst, m)
        tail = worst[n0 - 1 : seq.budget - p_max]
        margin_monotone = bool(len(tail) < 2 or np.all(np.diff(tail) <= 1e-12))

    return ConvergenceCertificate(
        "cauchy", r, t, n0, status, None, seq.budget, p_max, margin_monotone
    )


def cauchy_escape_index(
    space: IFNSpace,
    seq: PointSequence,
    r: float,
    t: float,
    p_max: int = DEFAULT_P_MAX,
    budget: int | None = None,
) -> int:
    """Minimal n0 past which no violation is observable within `budget`,
    allowing the degenerate truncated tail.

    For a genuinely Cauchy sequence this stabilises as the budget grows; for
    a divergent one it tracks the budget itself (the violations never leave
    the window), which is the divergence evidence used by refutation
    ladders.
    """
    _check_rt(r, t)
    n = min(budget or seq.budget, seq.budget)
    vals = seq.values(np.arange(1, n + 1))
    return tail_index(_cauchy_ok_mask(space, vals, r, t, p_max))


@dataclass(frozen=True)
class EquivalenceRecord:
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
    if not space.is_standard:
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
