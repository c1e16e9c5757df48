"""Triangular norms and conorms on [0, 1] with sampled axiom checking.

Three named families are built in per operation; anything else enters as a
tabulated grid with bilinear interpolation.  All values are immutable after
construction and every operation is pure, so everything here is safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .errors import InvalidParameter
from .sampling import SamplingPlan, _Frozen

# Commutativity/associativity are compared within this tolerance (floating
# point re-association noise); identity and idempotency are compared exactly.
ASSOC_TOL = 1e-12

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


class _BinaryOp(_Frozen):
    """Shared machinery for the two operation kinds."""

    __slots__ = ("family", "table")

    _KIND: ClassVar[str] = "op"
    _FAMILIES: ClassVar[dict[str, Callable]] = {}
    _IDEMPOTENT_FAMILY: ClassVar[str] = ""
    _IDENTITY: ClassVar[float] = 1.0

    def __init__(self, family: str, table: np.ndarray | None = None):
        if family == "tabulated":
            if table is None:
                raise InvalidParameter("tabulated operation needs a value table")
            table = np.asarray(table, dtype=float)
            if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] < 2:
                raise InvalidParameter("table must be square with size >= 2")
            if not np.all((table >= 0.0) & (table <= 1.0)):  # NaN fails too
                raise InvalidParameter("table values must lie in [0, 1]")
        elif family not in self._FAMILIES:
            raise InvalidParameter(
                f"unknown {self._KIND} family {family!r}; "
                f"expected one of {sorted(self._FAMILIES)} or 'tabulated'"
            )
        self._set(family=family, table=table)

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
            # the exact table: its size and value bytes
            return (self._KIND, "tabulated", self.table.shape[0], self.table.tobytes())
        return (self._KIND, self.family)


class TriangularNorm(_BinaryOp):
    """A continuous t-norm: commutative, associative, monotone, identity 1."""

    __slots__ = ()
    _KIND: ClassVar[str] = "tnorm"
    _FAMILIES: ClassVar[dict[str, Callable]] = TNORM_FAMILIES
    _IDEMPOTENT_FAMILY: ClassVar[str] = "minimum"
    _IDENTITY: ClassVar[float] = 1.0


class TriangularConorm(_BinaryOp):
    """A continuous t-conorm: commutative, associative, monotone, identity 0."""

    __slots__ = ()
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


class Violation(NamedTuple):
    axiom: str
    point: tuple
    detail: str


class AxiomResult(NamedTuple):
    axiom: str
    roman: str
    checked: int
    violations: tuple[Violation, ...]
    total_violations: int

    @property
    def passed(self) -> bool:
        return self.total_violations == 0


class ViolationReport(NamedTuple):
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
    kept in the order of (*at, *index), up to `cap` of them, where the mask's
    columns start at `col`: a column block of a larger mask merges into its
    row-major order.  `total_violations` counts them all.
    """

    def __init__(self, axiom: str, roman: str, cap: int):
        self.axiom, self.roman, self.cap = axiom, roman, cap
        self.checked = self.total = 0
        self.witnesses: list[tuple[tuple, Violation]] = []  # (order key, witness)

    def add(self, bad: np.ndarray, checked: int, describe: Callable, at=(), col=0) -> _Violations:
        self.checked += checked
        count = int(np.count_nonzero(bad))
        self.total += count
        if not count or len(self.witnesses) == self.cap and at > self.witnesses[-1][0][: len(at)]:
            return self  # no cell of this mask can enter
        for index in np.argwhere(bad)[: self.cap].tolist():
            key = (*at, *index[:-1], index[-1] + col)
            if len(self.witnesses) == self.cap and key >= self.witnesses[-1][0]:
                break  # nor can any later cell of this mask
            point, detail = describe(*index)
            witness = Violation(self.axiom, tuple(float(v) for v in point), detail)
            bisect.insort(self.witnesses, (key, witness), key=itemgetter(0))
            del self.witnesses[self.cap :]
        return self

    def result(self) -> AxiomResult:
        return AxiomResult(
            self.axiom, self.roman, self.checked, tuple(w for _, w in self.witnesses), self.total
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
