"""Deterministic sampling plans, intervals, and vector helpers.

Every universally quantified statement this package verifies is checked over
a finite, seeded sample.  The plan object records exactly what was sampled,
so a verdict is always the pair (statement, plan) and two runs with the same
seed produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameter

# Hard cap on materialised grid size; higher-dimensional product grids are
# subsampled (seeded) down to this many points.
MAX_GRID_POINTS = 20_000

DEFAULT_T_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
DEFAULT_T_LADDER = (1e3, 1e6, 1e9, 1e12)


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


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """A finite, reproducible sample of V x R+.

    vector_grid       -- (M, d) materialised sample vectors
    t_grid            -- finite positive reals used for per-point checks
    random_count      -- number of extra seeded uniform points in [-5, 5]^d
    seed              -- single source of all randomness in the plan
    t_infinity_ladder -- strictly increasing reals approximating t -> oo
    """

    vector_grid: np.ndarray
    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    random_count: int = 200
    seed: int = 0
    t_infinity_ladder: tuple[float, ...] = DEFAULT_T_LADDER
    random_halfwidth: float = 5.0

    def __post_init__(self):
        grid = np.asarray(self.vector_grid, dtype=float)
        if grid.ndim != 2 or grid.shape[0] == 0:
            raise InvalidParameter("vector_grid must be a nonempty (M, d) array")
        object.__setattr__(self, "vector_grid", grid)
        if len(self.t_grid) == 0 or any(t <= 0 for t in self.t_grid):
            raise InvalidParameter("t_grid must be nonempty and positive")
        ladder = tuple(float(t) for t in self.t_infinity_ladder)
        if any(b <= a for a, b in zip(ladder, ladder[1:])) or not ladder:
            raise InvalidParameter("t_infinity_ladder must be strictly increasing")
        if any(t <= 0 for t in ladder):
            raise InvalidParameter("t_infinity_ladder must be positive")
        if self.random_count < 0:
            raise InvalidParameter("random_count must be >= 0")

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
        return np.unique(np.concatenate([base, extra]))

    def summary(self) -> dict:
        return {
            "grid_points": int(self.vector_grid.shape[0]),
            "dimension": self.dimension,
            "t_grid": [float(t) for t in self.t_grid],
            "random_count": int(self.random_count),
            "seed": int(self.seed),
            "t_infinity_ladder": [float(t) for t in self.t_infinity_ladder],
        }


def default_plan(dimension: int = 1, seed: int = 0) -> SamplingPlan:
    """The default verification plan: 21-point coordinate grid in [-5, 5]
    per axis, the standard t grid, 200 seeded random points, and a
    t -> oo ladder reaching 1e12."""
    axis = np.linspace(-5.0, 5.0, 21)
    return SamplingPlan(product_grid(axis, dimension, seed), seed=seed)


def construction_plan(dimension: int = 1, seed: int = 0) -> SamplingPlan:
    """Lighter plan used for construction-time verification of spaces."""
    axis = np.linspace(-5.0, 5.0, 9)
    return SamplingPlan(
        product_grid(axis, dimension, seed), random_count=50, seed=seed
    )


@dataclass(frozen=True)
class Interval:
    """A 1-d interval with independently open/closed endpoints."""

    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.lo >= self.hi:
            raise InvalidParameter(f"bad interval [{self.lo}, {self.hi}]")

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

    def summary(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "open_lo": self.open_lo,
            "open_hi": self.open_hi,
        }


def intersect(a: Interval, b: Interval) -> Interval:
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    open_lo = (a.open_lo if a.lo >= b.lo else False) or (b.open_lo if b.lo >= a.lo else False)
    open_hi = (a.open_hi if a.hi <= b.hi else False) or (b.open_hi if b.hi <= a.hi else False)
    if lo >= hi:
        raise InvalidParameter("intervals do not overlap")
    return Interval(lo, hi, open_lo, open_hi)
