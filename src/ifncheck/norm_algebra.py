"""Triangular norms and conorms on [0, 1] with sampled axiom checking.

Three named families are built in per operation; anything else enters as a
tabulated grid with bilinear interpolation.  All values are immutable after
construction and every operation is pure, so everything here is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import InvalidParameter, NotFound
from .sampling import SamplingPlan

# Commutativity/associativity are compared within this tolerance (floating
# point re-association noise); identity and idempotency are compared exactly.
ASSOC_TOL = 1e-12

# Bisection searches stop once the bracket is narrower than this.
SEARCH_RESOLUTION = 1e-6

def _lukasiewicz_tnorm(a, b):
    # identity must hold exactly; a + 1 - 1 != a in floating point
    raw = np.maximum(0.0, a + b - 1.0)
    raw = np.where(b == 1.0, a, raw)
    return np.where(a == 1.0, b, raw)


TNORM_FAMILIES: dict[str, Callable] = {
    "minimum": np.minimum,
    "product": lambda a, b: a * b,
    "lukasiewicz": _lukasiewicz_tnorm,
}

TCONORM_FAMILIES: dict[str, Callable] = {
    "maximum": np.maximum,
    "probabilistic-sum": lambda a, b: a + b - a * b,
    "lukasiewicz": lambda a, b: np.minimum(1.0, a + b),
}


def check_unit(value: float, name: str = "value") -> float:
    """Validate membership of the unit interval; the only legal range for
    every operand in this module."""
    v = float(value)
    if not np.isfinite(v) or v < 0.0 or v > 1.0:
        raise InvalidParameter(f"{name} must lie in [0, 1], got {value!r}")
    return v


def _interp_table(table: np.ndarray, a, b):
    """Bilinear interpolation of a square table over [0,1]^2."""
    m = table.shape[0]
    a = np.clip(np.asarray(a, dtype=float), 0.0, 1.0) * (m - 1)
    b = np.clip(np.asarray(b, dtype=float), 0.0, 1.0) * (m - 1)
    i0 = np.clip(np.floor(a).astype(int), 0, m - 2)
    j0 = np.clip(np.floor(b).astype(int), 0, m - 2)
    fa = a - i0
    fb = b - j0
    v = (
        table[i0, j0] * (1 - fa) * (1 - fb)
        + table[i0 + 1, j0] * fa * (1 - fb)
        + table[i0, j0 + 1] * (1 - fa) * fb
        + table[i0 + 1, j0 + 1] * fa * fb
    )
    return v


@dataclass(frozen=True, eq=False)
class _BinaryOp:
    """Shared machinery for the two operation kinds."""

    family: str
    table: np.ndarray | None = None

    _KIND: ClassVar[str] = "op"
    _FAMILIES: ClassVar[dict[str, Callable]] = {}
    _IDEMPOTENT_FAMILY: ClassVar[str] = ""
    _IDENTITY: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.family == "tabulated":
            if self.table is None:
                raise InvalidParameter("tabulated operation needs a value table")
            t = np.asarray(self.table, dtype=float)
            if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 2:
                raise InvalidParameter("table must be square with size >= 2")
            if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails too
                raise InvalidParameter("table values must lie in [0, 1]")
            object.__setattr__(self, "table", t)
        elif self.family not in self._FAMILIES:
            raise InvalidParameter(
                f"unknown {self._KIND} family {self.family!r}; "
                f"expected one of {sorted(self._FAMILIES)} or 'tabulated'"
            )

    @property
    def idempotent(self) -> bool:
        if self.family == self._IDEMPOTENT_FAMILY:
            return True
        if self.family == "tabulated":
            # bilinear interpolation of an idempotent table is generally not
            # idempotent between nodes, so a sampled exact check is the
            # honest classification
            grid = np.linspace(0.0, 1.0, 21)
            return bool(np.all(self(grid, grid) == grid))
        return False

    @property
    def identity(self) -> float:
        return self._IDENTITY

    def __call__(self, a, b):
        if self.family == "tabulated":
            return _interp_table(self.table, a, b)
        return self._FAMILIES[self.family](np.asarray(a, dtype=float), np.asarray(b, dtype=float))

    def signature(self) -> tuple:
        if self.family == "tabulated":
            return (self._KIND, "tabulated", self.table.shape[0], float(self.table.sum()))
        return (self._KIND, self.family)


@dataclass(frozen=True, eq=False)
class TriangularNorm(_BinaryOp):
    """A continuous t-norm: commutative, associative, monotone, identity 1."""

    _KIND: ClassVar[str] = "tnorm"
    _FAMILIES: ClassVar[dict[str, Callable]] = TNORM_FAMILIES
    _IDEMPOTENT_FAMILY: ClassVar[str] = "minimum"
    _IDENTITY: ClassVar[float] = 1.0


@dataclass(frozen=True, eq=False)
class TriangularConorm(_BinaryOp):
    """A continuous t-conorm: commutative, associative, monotone, identity 0."""

    _KIND: ClassVar[str] = "tconorm"
    _FAMILIES: ClassVar[dict[str, Callable]] = TCONORM_FAMILIES
    _IDEMPOTENT_FAMILY: ClassVar[str] = "maximum"
    _IDENTITY: ClassVar[float] = 0.0


def tnorm(family: str) -> TriangularNorm:
    return TriangularNorm(family)


def tconorm(family: str) -> TriangularConorm:
    return TriangularConorm(family)


def tnorm_eval(op: _BinaryOp, a: float, b: float) -> float:
    """op(a, b) on operands checked to lie in [0, 1], for either kind."""
    return float(op(check_unit(a, "a"), check_unit(b, "b")))


tconorm_eval = tnorm_eval


# ---------------------------------------------------------------------------
# Sampled axiom checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    axiom: str
    point: tuple
    detail: str


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    roman: str
    checked: int
    violations: tuple[Violation, ...]
    total_violations: int

    @property
    def passed(self) -> bool:
        return self.total_violations == 0


@dataclass(frozen=True)
class ViolationReport:
    subject: str
    plan: dict
    results: tuple[AxiomResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def violated(self) -> tuple[str, ...]:
        return tuple(r.roman for r in self.results if not r.passed)

    def result(self, roman: str) -> AxiomResult:
        for r in self.results:
            if r.roman == roman:
                return r
        raise KeyError(roman)


class _Violations:
    """Gathers boolean violation masks for one axiom into an AxiomResult.

    `add` takes a mask over a sample grid, the number of cases it covers, and
    describe(*index) -> (point, detail) for a violating cell.  Witnesses are
    stored in the order added, row-major within a mask, up to `cap` of them;
    `total_violations` counts them all.
    """

    def __init__(self, axiom: str, roman: str, cap: int):
        self.axiom, self.roman, self.cap = axiom, roman, cap
        self.checked = 0
        self.total = 0
        self.witnesses: list[Violation] = []

    def add(self, bad: np.ndarray, checked: int, describe: Callable) -> _Violations:
        self.checked += checked
        count = int(np.count_nonzero(bad))
        self.total += count
        room = self.cap - len(self.witnesses)
        if count and room > 0:
            for index in np.argwhere(bad)[:room]:
                point, detail = describe(*index)
                self.witnesses.append(
                    Violation(self.axiom, tuple(float(v) for v in point), detail)
                )
        return self

    def result(self) -> AxiomResult:
        return AxiomResult(
            self.axiom, self.roman, self.checked, tuple(self.witnesses), self.total
        )


def check_norm_axioms(op: _BinaryOp, plan: SamplingPlan) -> ViolationReport:
    """Check commutativity, associativity, identity, monotonicity and (for
    operations flagged idempotent) idempotency on the plan's unit sample.

    Each law is one array expression over its sample grid.  Violations are
    data, not errors: every one is reported, in row-major grid order, with
    the tuple that witnessed it.
    """
    vals = plan.unit_values()
    e = op.identity
    col, row = vals[:, None], vals[None, :]
    coarse = vals[:: max(1, len(vals) // 12)]
    x, y, z = coarse[:, None, None], coarse[None, :, None], coarse[None, None, :]
    # monotonicity pairs the thinned ordered pairs (a, c), a <= c, with
    # themselves: quadruple (i, j) is (a, b, c, d) = (lo[i], lo[j], hi[i], hi[j])
    lo, hi = np.nonzero(col <= row)
    step = max(1, len(lo) // 60)
    lo, hi = vals[lo[::step]], vals[hi[::step]]

    # each law's operand arrays; a violation's detail indexes them
    ab, ba = op(col, row), op(row, col)
    left, right = op(op(x, y), z), op(x, op(y, z))
    ae = op(vals, e)
    low, high = op(lo[:, None], lo[None, :]), op(hi[:, None], hi[None, :])

    def comm(i, j):
        a, b = vals[i], vals[j]
        return (a, b), f"op({a},{b})={float(ab[i, j])} != op({b},{a})={float(ba[i, j])}"

    def assoc(i, j, k):
        lhs, rhs = float(left[i, j, k]), float(right[i, j, k])
        return (coarse[i], coarse[j], coarse[k]), f"op(op(a,b),c)={lhs} != op(a,op(b,c))={rhs}"

    def ident(i):
        a = vals[i]
        return (a,), f"op({a},{e})={float(ae[i])} != {a}"

    def mono(i, j):
        a, b, c, d = lo[i], lo[j], hi[i], hi[j]
        return (a, b, c, d), f"op({a},{b})={float(low[i, j])} > op({c},{d})={float(high[i, j])}"

    laws = [
        ("commutativity", "comm", ~(np.abs(ab - ba) <= ASSOC_TOL), comm),
        ("associativity", "assoc", ~(np.abs(left - right) <= ASSOC_TOL), assoc),
        ("identity", "ident", ~(ae == vals), ident),
        ("monotonicity", "mono", ~(low <= high), mono),
    ]
    if op.idempotent:
        aa = op(vals, vals)

        def idem(i):
            a = vals[i]
            return (a,), f"op({a},{a})={float(aa[i])} != {a}"

        laws.append(("idempotency", "idem", ~(aa == vals), idem))
    results = tuple(
        _Violations(name, roman, bad.size).add(bad, bad.size, describe).result()
        for name, roman, bad, describe in laws
    )
    return ViolationReport(subject=f"{op._KIND}:{op.family}", plan=plan.summary(), results=results)


# ---------------------------------------------------------------------------
# Interpolant constructions
# ---------------------------------------------------------------------------


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


# the ends of the searches: just below 1 downward, just above 0 upward
_FROM_ONE = (1.0 - 1e-12, 0.0)
_FROM_ZERO = (1e-12, 1.0)


def find_interpolants(
    op_pair: tuple[TriangularNorm, TriangularConorm], r1: float, r2: float
) -> tuple[float, float]:
    """Given 0 < r2 < r1 < 1, find r3 with r1 * r3 > r2 and r4 with
    r4 (+) r2 < r1.

    Existence holds for any continuous operation pair; the search is
    deterministic bisection (from 1 downward for r3, from 0 upward for r4)
    and the returned values are re-checked against both inequalities.
    """
    tn, tc = op_pair
    r1 = check_unit(r1, "r1")
    r2 = check_unit(r2, "r2")
    if not (0.0 < r2 < r1 < 1.0):
        raise InvalidParameter(f"need 0 < r2 < r1 < 1, got r1={r1}, r2={r2}")
    r3 = _bisect(lambda x: float(tn(r1, x)) > r2, *_FROM_ONE)
    r4 = _bisect(lambda x: float(tc(x, r2)) < r1, *_FROM_ZERO)
    if not (float(tn(r1, r3)) > r2 and float(tc(r4, r2)) < r1):
        raise NotFound("search returned a non-admissible interpolant")
    return r3, r4


def find_squaring_bounds(
    op_pair: tuple[TriangularNorm, TriangularConorm], r5: float
) -> tuple[float, float]:
    """Given r5 in (0,1), find r6 with r6 * r6 >= r5 and r7 with
    r7 (+) r7 <= r5, by the same bisection scheme."""
    tn, tc = op_pair
    r5 = check_unit(r5, "r5")
    if not (0.0 < r5 < 1.0):
        raise InvalidParameter(f"need 0 < r5 < 1, got {r5}")
    r6 = _bisect(lambda x: float(tn(x, x)) >= r5, *_FROM_ONE)
    r7 = _bisect(lambda x: float(tc(x, x)) <= r5, *_FROM_ZERO)
    if not (float(tn(r6, r6)) >= r5 and float(tc(r7, r7)) <= r5):
        raise NotFound("search returned a non-admissible squaring bound")
    return r6, r7
