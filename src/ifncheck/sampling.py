"""Deterministic sampling plans, intervals, and vector helpers.

Every universally quantified statement this package verifies is checked over
a finite, seeded sample.  The plan object records exactly what was sampled,
so a verdict is always the pair (statement, plan) and two runs with the same
seed produce identical reports.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidParameter

# Hard cap on materialised grid size; higher-dimensional product grids are
# subsampled (seeded) down to this many points.
MAX_GRID_POINTS = 20_000

DEFAULT_GRID_POINTS = 21  # per axis of the default plan's grid
DEFAULT_T_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
DEFAULT_T_LADDER = (1e3, 1e6, 1e9, 1e12)
DEFAULT_RANDOM_COUNT = 200  # seeded uniform points in [-w, w]^d, w = DEFAULT_HALFWIDTH
DEFAULT_HALFWIDTH = 5.0

# Points per block of a staged ladder search, fixed so memory grows with
# neither the number of items nor the ladder's length
_BLOCK_POINTS = 2**16


def as_point(x, dimension: int) -> np.ndarray:
    """Coerce a scalar/sequence into a (dimension,) float vector."""
    arr = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if arr.size != dimension:
        raise DomainError(
            f"expected a vector of dimension {dimension}, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("vector coordinates must be finite")
    return arr


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending: bit for bit `np.unique`
    (the same default sort, then the first of each run of equal values, so
    -0.0 and 0.0 keep the sort's order), without its import of `numpy.ma`."""
    s = np.sort(values)
    keep = np.ones(s.shape, dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) & ~np.isnan(s[:-1])  # NaNs sort last: keep the first
    return s[keep]


def product_grid(axis_values: np.ndarray, dimension: int, seed: int = 0) -> np.ndarray:
    """Cartesian product grid, seeded-subsampled above MAX_GRID_POINTS."""
    axis_values = np.asarray(axis_values, dtype=float)
    total = len(axis_values) ** dimension
    if total <= MAX_GRID_POINTS:
        mesh = np.meshgrid(*([axis_values] * dimension), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, dimension)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(axis_values), size=(MAX_GRID_POINTS, dimension))
    return axis_values[idx]


class _Frozen:
    """Base of the record classes whose constructor validates its fields.
    Each names its fields in `__slots__` and sets them once, with `_set`;
    after that no field can be assigned or deleted.  Equality and hashing
    stay those of `object` (identity) unless a class defines its own."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for c in reversed(cls.__mro__) for f in vars(c).get("__slots__", ()))

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class SamplingPlan(_Frozen):
    """A finite, reproducible sample of V x R+.

    vector_grid       -- (M, d) materialised sample vectors
    t_grid            -- finite positive reals used for per-point checks
    random_count      -- number of extra seeded uniform points in [-5, 5]^d
    seed              -- single source of all randomness in the plan
    t_infinity_ladder -- strictly increasing finite reals approximating t -> oo
    """

    __slots__ = ("vector_grid", "t_grid", "random_count", "seed", "t_infinity_ladder", "random_halfwidth")

    def __init__(
        self, vector_grid: np.ndarray, t_grid: tuple[float, ...] = DEFAULT_T_GRID,
        random_count: int = DEFAULT_RANDOM_COUNT, seed: int = 0,
        t_infinity_ladder: tuple[float, ...] = DEFAULT_T_LADDER, random_halfwidth: float = DEFAULT_HALFWIDTH,
    ):
        grid = np.asarray(vector_grid, dtype=float)
        if grid.ndim != 2 or grid.shape[0] == 0:
            raise InvalidParameter("vector_grid must be a nonempty (M, d) array")
        # NaN fails both comparisons
        if len(t_grid) == 0 or not all(0 < t < np.inf for t in t_grid):
            raise InvalidParameter("t_grid must be nonempty, finite and positive")
        ladder = tuple(float(t) for t in t_infinity_ladder)
        if any(b <= a for a, b in zip(ladder, ladder[1:])) or not ladder:
            raise InvalidParameter("t_infinity_ladder must be strictly increasing")
        if not all(0 < t < np.inf for t in ladder):
            raise InvalidParameter("t_infinity_ladder must be finite and positive")
        if random_count < 0:
            raise InvalidParameter("random_count must be >= 0")
        if not np.isfinite(2.0 * random_halfwidth):
            raise InvalidParameter(f"random range 2 x {random_halfwidth} is not finite")
        self._set(
            vector_grid=grid, t_grid=t_grid, random_count=random_count, seed=seed,
            t_infinity_ladder=t_infinity_ladder, random_halfwidth=random_halfwidth,
        )

    @property
    def dimension(self) -> int:
        return self.vector_grid.shape[1]

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, salt))

    def random_points(self) -> np.ndarray:
        if self.random_count == 0:
            return np.empty((0, self.dimension))
        w = self.random_halfwidth
        return self.rng(1).uniform(-w, w, size=(self.random_count, self.dimension))

    def points(self) -> np.ndarray:
        """Grid plus seeded random points, in deterministic order."""
        return np.vstack([self.vector_grid, self.random_points()])

    def all_t(self) -> np.ndarray:
        return np.asarray(sorted(set(self.t_grid) | set(self.t_infinity_ladder)))

    def unit_values(self, grid_count: int = 21, random_extra: int = 20) -> np.ndarray:
        """Deterministic sample of [0, 1], for unit-interval operations."""
        base = np.linspace(0.0, 1.0, grid_count)
        extra = self.rng(2).uniform(0.0, 1.0, size=random_extra)
        return sorted_unique(np.concatenate([base, extra]))

    def summary(self) -> dict:
        return {
            "grid_points": int(self.vector_grid.shape[0]),
            "dimension": self.dimension,
            "t_grid": [float(t) for t in self.t_grid],
            "random_count": int(self.random_count),
            "seed": int(self.seed),
            "t_infinity_ladder": [float(t) for t in self.t_infinity_ladder],
        }


def _staged_ladder(n_items: int, n_rungs: int, points: int, decide) -> list[int | None]:
    """Per item, the first rung that `decide` says fits, or None; `decide`
    says whether each of a list of (item, rung) pairs fits, each on its own.
    Rungs run in doubling stages {0}, {1}, {2, 3}, {4..7}, ... over the open
    items, in blocks of at most _BLOCK_POINTS points (`points` per pair).  A
    stage may decide rungs a rung-by-rung loop never reaches, so if a block
    raises, or would warn, the search replays one pair at a time in the
    loop's order, and an error is the loop's own."""
    per_block = max(1, _BLOCK_POINTS // max(points, 1))
    first: list[int | None] = [None] * n_items
    cuts = [0, *(1 << k for k in range(n_rungs.bit_length())), n_rungs]
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for lo, hi in zip(cuts, cuts[1:]):
                pending = [(i, j) for i in range(n_items) if first[i] is None for j in range(lo, hi)]
                while pending:
                    block, pending = pending[:per_block], pending[per_block:]
                    for (i, j), fits in zip(block, decide(block)):
                        if fits and first[i] is None:
                            first[i] = j
                    pending = [(i, j) for i, j in pending if first[i] is None]
    except Exception:
        first = [None] * n_items
        for i, j in np.ndindex(n_items, n_rungs):
            if first[i] is None and decide([(i, j)])[0]:
                first[i] = j
    return first


def default_plan(dimension: int = 1, seed: int = 0) -> SamplingPlan:
    """The default verification plan: 21-point coordinate grid in [-5, 5]
    per axis, the standard t grid, 200 seeded random points, and a
    t -> oo ladder reaching 1e12."""
    axis = np.linspace(-5.0, 5.0, DEFAULT_GRID_POINTS)
    return SamplingPlan(product_grid(axis, dimension, seed), seed=seed)


def construction_plan(dimension: int = 1, seed: int = 0) -> SamplingPlan:
    """Lighter plan used for construction-time verification of spaces."""
    axis = np.linspace(-5.0, 5.0, 9)
    return SamplingPlan(
        product_grid(axis, dimension, seed), random_count=50, seed=seed
    )


class Interval(_Frozen):
    """A 1-d interval with independently open/closed endpoints; intervals
    with equal fields are equal."""

    __slots__ = ("lo", "hi", "open_lo", "open_hi")

    def __init__(self, lo: float, hi: float, open_lo: bool = False, open_hi: bool = False):
        if not np.isfinite(hi - lo) or lo >= hi:
            raise InvalidParameter(f"bad interval [{lo}, {hi}]: width not a positive real")
        self._set(lo=lo, hi=hi, open_lo=open_lo, open_hi=open_hi)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        lo_ok = xs > self.lo if self.open_lo else xs >= self.lo
        hi_ok = xs < self.hi if self.open_hi else xs <= self.hi
        return lo_ok & hi_ok

    def grid(self, n: int = 41) -> np.ndarray:
        """Evenly spaced sample; open endpoints are excluded."""
        pts = np.linspace(self.lo, self.hi, n)
        mask = self.contains(pts)
        return pts[mask]

    def approach(self, side: str, depth: int = 20) -> np.ndarray:
        """Geometric approach to one endpoint from inside: e +/- w * 2^-j."""
        w = self.width
        js = np.arange(1, depth + 1)
        if side == "lo":
            pts = self.lo + w * 2.0 ** (-js)
        elif side == "hi":
            pts = self.hi - w * 2.0 ** (-js)
        else:
            raise InvalidParameter("side must be 'lo' or 'hi'")
        return pts[self.contains(pts)]

    def random(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)


def intersect(a: Interval, b: Interval) -> Interval:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    open_lo = (a.open_lo if a.lo >= b.lo else False) or (b.open_lo if b.lo >= a.lo else False)
    open_hi = (a.open_hi if a.hi <= b.hi else False) or (b.open_hi if b.hi <= a.hi else False)
    if lo >= hi:
        raise InvalidParameter("intervals do not overlap")
    return Interval(lo, hi, open_lo, open_hi)
