"""Intuitionistic fuzzy normed spaces and sampled verification of their
axiom system.

A space carries a membership pair (mu, nu) on V x R+, a t-norm, a t-conorm
and a declared axiom tier.  Universal statements over V x R+ are undecidable
numerically, so the checking contract here is always "no violation on the
declared sampling plan", and every report records that plan.

Axiom tiers
-----------
core        conditions i-xi (boundedness, positivity, boundary values at the
            origin, scaling, the two triangle conditions, monotonicity and
            limits in t)
idempotent  adds xii (a*a = a, a(+)a = a) and, only on explicit request,
            the literal forcing conditions xiii/xiv
strict      adds xv/xvi (strict monotonicity of mu(x,.) and nu(x,.) on the
            sampled subset where values lie strictly inside (0,1))

The forcing conditions xiii ("mu(x,t) > 0 for all t implies x = theta") and
xiv, taken literally, contradict conditions ii/vii for any space containing
a nonzero vector: they would force V = {theta}.  They are therefore exposed
behind `include_forcing_conditions` (off by default) and reported verbatim
when requested.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    AxiomFailure,
    DomainError,
    InvalidParameter,
    UnknownTag,
    UnsupportedFamily,
)
from .norm_algebra import (
    TriangularConorm,
    TriangularNorm,
    ViolationReport,
    _Violations,
)
from .sampling import SamplingPlan, _Frozen, construction_plan, default_plan

# Ladder convergence tolerance for the limit conditions (vi)/(xi).
LIMIT_TOL = 1e-6

# Non-strict inequality axioms are allowed this absolute slack: it absorbs
# round-off on equality-tight sample points (e.g. the triangle condition at
# x = y, s = t for the standard family).  Strict inequalities are compared
# exactly.
INEQ_SLACK = 1e-12

# Closed-form equality axioms (scaling) are compared within this tolerance;
# genuine violations differ by orders of magnitude more.
EQUALITY_TOL = 1e-12

# Standard memberships at more than 8 blocks of this many points are
# evaluated block by block (`MembershipFunction._standard`), so that a
# block's temporaries stay in cache; fewer run as one block.
_BLOCK_POINTS = 2**14

# Scalars sampled for the scaling conditions iv/ix.
SCALING_SCALARS = (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)

TIER_ORDER = {"core": 0, "idempotent": 1, "strict": 2}

NORM_FAMILIES = ("absolute-value", "euclidean", "max-coordinate")  # absolute-value: d = 1

AXIOMS = (
    ("i", "mu-plus-nu-bounded", "core"),
    ("ii", "mu-positive", "core"),
    ("iii", "mu-one-iff-origin", "core"),
    ("iv", "mu-scaling", "core"),
    ("v", "mu-triangle", "core"),
    ("vi", "mu-monotone-limit", "core"),
    ("vii", "nu-below-one", "core"),
    ("viii", "nu-zero-iff-origin", "core"),
    ("ix", "nu-scaling", "core"),
    ("x", "nu-triangle", "core"),
    ("xi", "nu-monotone-limit", "core"),
    ("xii", "ops-idempotent", "idempotent"),
    ("xiii", "mu-positivity-forces-origin", "idempotent"),
    ("xiv", "nu-subunity-forces-origin", "idempotent"),
    ("xv", "mu-strictly-increasing", "strict"),
    ("xvi", "nu-strictly-decreasing", "strict"),
)


class ClassicalNorm(_Frozen):
    """One of the classical norms used to seed the standard family."""

    __slots__ = ("family",)

    def __init__(self, family: str):  # one of NORM_FAMILIES
        if family not in NORM_FAMILIES:
            raise InvalidParameter(f"unknown norm family {family!r}")
        self._set(family=family)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if self.family == "absolute-value" and pts.shape[1] != 1:
            raise DomainError("absolute-value norm is one-dimensional")
        # Column by column, as numpy reduces short rows slowly.
        if self.family != "euclidean":
            out = np.abs(pts[:, 0])
            for col in pts.T[1:]:
                np.maximum(out, np.abs(col), out=out)
            return out
        # numpy adds a reduced axis shorter than 8 in sequence, so for d <= 7
        # the running sum is np.sum(pts * pts, axis=1) bit for bit; from 8 on
        # it adds in pairwise blocks, so np.sum stays there.
        if pts.shape[1] >= 8:
            return np.sqrt(np.sum(pts * pts, axis=1))
        out = pts[:, 0] * pts[:, 0]
        for col in pts.T[1:]:
            out += col * col
        return np.sqrt(out, out=out)


class MembershipFunction(_Frozen):
    """An evaluable degree function on V x R+ with values in [0, 1].

    Closed-form families are exact; user-supplied functions enter as
    vectorised callables.  `radial` declares that the value depends
    on x only through ||x||, monotonically along rays; several searches use
    this to invert level sets.  `broadcasts` declares that `eval` at an
    (N, d) block and a (T, 1) column of times returns the (T, N) block, each
    element as `eval` at its own time gives it.
    """

    __slots__ = ("tag", "k", "norm", "fn", "radial", "broadcasts")  # tag: standard-mu | standard-nu | custom

    def __init__(
        self, tag: str, k: float | None = None, norm: ClassicalNorm | None = None, fn: Callable | None = None,
        radial: bool = False, broadcasts: bool = False,
    ):
        self._set(tag=tag, k=k, norm=norm, fn=fn, radial=radial, broadcasts=broadcasts)

    def eval(self, pts: np.ndarray, t) -> np.ndarray:
        """Evaluate at an (N, d) block of points and scalar or (N,) times."""
        if self.tag in ("standard-mu", "standard-nu"):
            return self._standard(pts, t, (self.tag,))[0]
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        return np.asarray(self.fn(pts, np.asarray(t, dtype=float)), dtype=float)

    def _standard(self, pts: np.ndarray, t, tags: tuple[str, ...], out=None) -> tuple[np.ndarray, ...]:
        """The standard family's values named by `tags` (standard-mu and/or
        standard-nu, in that order) with this k and norm, from one k||x|| and
        t + k||x||, written into `out` (one array per tag) where given.

        More than 8 * _BLOCK_POINTS points run in blocks of _BLOCK_POINTS, each
        dividing into its slice of the outputs while its temporaries are in
        cache; per-point times are sliced with the points.  Every operation is
        per point, so the values, and the first point named on an overflow,
        are those of one block.
        """
        pts = np.reshape(pts, (-1, 1)) if np.ndim(pts) == 1 else pts
        n = len(pts)
        if n <= 8 * _BLOCK_POINTS:
            ts, kn, den = self._closed_form(pts, t, out and out[0])
            if len(tags) == 2:  # nu first, as mu overwrites den
                nus = np.divide(kn, den, out=out[1] if out else kn if kn.shape == den.shape else None)
                return np.divide(ts, den, out=den), nus
            return (np.divide(ts if tags == ("standard-mu",) else kn, den, out=den),)
        ts = np.asarray(t, dtype=float)
        per_point = ts.shape[-1:] == (n,)
        outs = out or tuple(np.empty(np.broadcast_shapes(ts.shape, (n,))) for _ in tags)
        for lo in range(0, n, _BLOCK_POINTS):
            at = slice(lo, lo + _BLOCK_POINTS)
            ts_at, kn, den = self._closed_form(pts[at], ts[..., at] if per_point else ts)
            for tag, out in zip(tags, outs):
                np.divide(ts_at if tag == "standard-mu" else kn, den, out=out[..., at])
        return outs

    def _closed_form(self, pts: np.ndarray, t, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """t, k||x|| and t + k||x|| (into `out` where given): the standard
        family's terms to divide, at an (N, d) block.

        Where k||x|| or t + k||x|| overflows binary64, mu and nu would read 0
        and inf / inf = NaN, so an overflow raises DomainError naming the point.
        """
        ts = np.asarray(t, dtype=float)
        try:
            with np.errstate(over="raise"):
                kn = self.norm(pts)
                kn *= self.k
                return ts, kn, np.add(ts, kn, out=out)
        except FloatingPointError:
            with np.errstate(over="ignore"):
                past = np.isinf(self.norm(pts) * self.k + ts).reshape(-1, len(pts)).any(axis=0)
            x = np.asarray(pts, dtype=float)[np.argmax(past)].tolist()
            raise DomainError(
                f"standard memberships overflow binary64 at x={x}: t + k||x|| (k={self.k}) is not finite"
            ) from None

    def signature(self) -> tuple:
        if self.tag in ("standard-mu", "standard-nu"):
            return (self.tag, float(self.k), self.norm.family)
        return (self.tag, id(self.fn))


def standard_mu(k: float, norm: ClassicalNorm) -> MembershipFunction:
    return MembershipFunction(
        tag="standard-mu", k=float(k), norm=norm, radial=True, broadcasts=True
    )


def standard_nu(k: float, norm: ClassicalNorm) -> MembershipFunction:
    return MembershipFunction(
        tag="standard-nu", k=float(k), norm=norm, radial=True, broadcasts=True
    )


def custom_membership(
    fn: Callable, radial: bool = False, broadcasts: bool = False
) -> MembershipFunction:
    return MembershipFunction(tag="custom", fn=fn, radial=radial, broadcasts=broadcasts)


class IFNSpace(_Frozen):
    """A vector space R^d with membership pair (mu, nu), the operations
    housing the two triangle conditions, and a declared axiom tier.

    Instances are immutable and every evaluation is pure, so a space may be
    shared freely across threads.  Use the `make_*` factories to get
    construction-time verification; direct construction performs none.
    """

    __slots__ = ("dimension", "mu", "nu", "tnorm", "tconorm", "axiom_tier")

    def __init__(
        self, dimension: int, mu: MembershipFunction, nu: MembershipFunction, tnorm: TriangularNorm,
        tconorm: TriangularConorm, axiom_tier: str = "strict",
    ):
        if dimension < 1:
            raise InvalidParameter("dimension must be >= 1")
        if axiom_tier not in TIER_ORDER:
            raise InvalidParameter(f"unknown axiom tier {axiom_tier!r}")
        self._set(dimension=dimension, mu=mu, nu=nu, tnorm=tnorm, tconorm=tconorm, axiom_tier=axiom_tier)

    @property
    def standard_pair(self) -> bool:
        """mu and nu are the standard pair with one k and one norm family,
        which `memberships` evaluates on its fused path."""
        mu, nu = self.mu, self.nu
        return (mu.tag, nu.tag, mu.k) == ("standard-mu", "standard-nu", nu.k) and (
            mu.norm.family == nu.norm.family
        )

    # The family and the standard pair's k and norm, read from the pair
    @property
    def family(self) -> str:
        return "standard" if self.standard_pair else "custom"

    @property
    def k(self) -> float | None:
        return self.mu.k if self.standard_pair else None

    @property
    def norm(self) -> ClassicalNorm | None:
        return self.mu.norm if self.standard_pair else None

    @property
    def theta(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def mu_many(self, pts: np.ndarray, t) -> np.ndarray:
        return self.mu.eval(pts, t)

    def memberships(self, pts: np.ndarray, t, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(mu, nu) at an (N, d) block and scalar, (N,) or (T, 1) times, the
        last as (T, N) blocks: the one place where both are evaluated, on a
        path chosen by the pair's tags.  The standard pair (one k, one norm)
        shares k||x|| and t + k||x|| and broadcasts over a time column, bit
        for bit as `eval` at each time; any other pair makes one `eval` each,
        also for a (T, 1) column when both sides declare `broadcasts`, and
        else one per time, as a custom callable need not broadcast.  The
        standard pair writes into `out`, two arrays of the values' shape,
        where given; any other pair returns new arrays."""
        mu, nu = self.mu, self.nu
        if self.standard_pair:
            return mu._standard(pts, t, ("standard-mu", "standard-nu"), out)
        if np.ndim(t) == 2 and not (mu.broadcasts and nu.broadcasts):
            return tuple(np.stack([f.eval(pts, s) for s in np.ravel(t)]) for f in (mu, nu))
        return mu.eval(pts, t), nu.eval(pts, t)

    @staticmethod
    def meets(mu: np.ndarray, nu: np.ndarray, r: float) -> np.ndarray:
        """The demand mu > 1 - r and nu < r (strict; NaN fails) on values."""
        return (mu > 1.0 - r) & (nu < r)

    def within(self, diffs: np.ndarray, r: float, t) -> np.ndarray:
        """Mask over an (N, d) block of differences z of the membership
        demand mu(z, t) > 1 - r and nu(z, t) < r, both strict.

        The one definition behind open balls (`topology.OpenBall`),
        convergence and Cauchy indices and uniform continuity.  The standard
        pair shares one k||z|| (`memberships`); both strict comparisons still
        run, as the closed-form radius shortcut can flip near-ties.  NaN fails.
        """
        return self.meets(*self.memberships(diffs, t), r)

    def near_radius(self, size: np.ndarray, r: float, t) -> np.ndarray:
        """Flat positions of the magnitudes |z| on the real line that `within`
        must still decide at (r, t); every other |z| meets the demand.  On a
        one-dimensional standard pair they are those not below `safe_radius`,
        NaN among them; on any other space, all of them."""
        if self.standard_pair and self.dimension == 1:
            return np.flatnonzero(~(size < safe_radius(self, r, t)))
        return np.arange(np.size(size))

    def signature(self) -> tuple:
        return (
            self.dimension,
            self.mu.signature(),
            self.nu.signature(),
            self.tnorm.signature(),
            self.tconorm.signature(),
            self.axiom_tier,
        )

    def summary(self) -> dict:
        out = {
            "family": self.family,
            "dimension": self.dimension,
            "tnorm": self.tnorm.family,
            "tconorm": self.tconorm.family,
            "tier": self.axiom_tier,
        }
        if self.standard_pair:
            out |= {"k": self.k, "norm": self.norm.family}
        return out


def _resolve_ops(ops) -> tuple[TriangularNorm, TriangularConorm]:
    tn, tc = ops
    if isinstance(tn, str):
        tn = TriangularNorm(tn)
    if isinstance(tc, str):
        tc = TriangularConorm(tc)
    return tn, tc


# The signatures of the spaces whose construction-time check passed.  The
# signature is exact for a standard pair and for tabulated operations, and
# the check's plan is fixed by the dimension, so a space in the set would
# pass again.  Custom pairs never enter: their signature is id(fn), which
# Python may reuse once the function is freed.  Two threads building one new
# space at once may both check it, which is harmless.
_VERIFIED: set[tuple] = set()


def make_standard_space(
    k: float,
    norm: ClassicalNorm | str | None = None,
    dimension: int = 1,
    ops=("minimum", "maximum"),
    tier: str = "strict",
    verify: bool = True,
) -> IFNSpace:
    """The closed-form family mu = t/(t + k||x||), nu = k||x||/(t + k||x||).

    With min/max operations this family satisfies every tier; construction
    verifies the declared tier on a (light) construction plan and raises
    AxiomFailure if that ever fails, which signals an internal fault rather
    than a user error.  A check that passed is remembered for the process
    (`_VERIFIED`), so each space is checked once; a failure is not.
    """
    if not np.isfinite(k) or k <= 0:
        raise InvalidParameter(f"k must be a positive real, got {k!r}")
    if norm is None:
        norm = ClassicalNorm("absolute-value" if dimension == 1 else "euclidean")
    elif isinstance(norm, str):
        norm = ClassicalNorm(norm)
    if norm.family == "absolute-value" and dimension != 1:
        raise InvalidParameter("absolute-value norm requires dimension 1")
    tn, tc = _resolve_ops(ops)
    space = IFNSpace(
        dimension=dimension,
        mu=standard_mu(k, norm),
        nu=standard_nu(k, norm),
        tnorm=tn,
        tconorm=tc,
        axiom_tier=tier,
    )
    if verify and space.signature() not in _VERIFIED:
        report = check_ifn_axioms(space, tier=tier, plan=construction_plan(dimension))
        if not report.passed:
            raise AxiomFailure(
                f"standard space failed construction-time check: {report.violated()}"
            )
        _VERIFIED.add(space.signature())
    return space


# The named spaces of the scenario catalog, tag -> k: each is the standard
# family on the real line with min/max operations, and the tag records which
# worked scenario it belongs to.
EXAMPLE_SPACES = {"example-3.15-A": 1.0, "example-3.15-B(k=3)": 3.0, "example-4.x": 1.0}


def make_example_family(tag: str) -> IFNSpace:
    """The named space `tag` of EXAMPLE_SPACES."""
    if tag not in EXAMPLE_SPACES:
        raise UnknownTag(f"unknown example space tag {tag!r}")
    return make_standard_space(k=EXAMPLE_SPACES[tag], dimension=1)


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


AXIOM_CODE = {roman: code for roman, code, _ in AXIOMS}

# Witnessing tuples stored per axiom; every violation is still counted.
_MAX_WITNESSES = 32

# The axiom checker evaluates the plan's points in blocks of this many
_AXIOM_POINTS = 2**14

# The comparisons of the mirrored conditions, by symbol
_ORDER = {"<": np.less, ">": np.greater, "<=": np.less_equal, ">=": np.greater_equal}


def check_ifn_axioms(
    space: IFNSpace,
    tier: str | None = None,
    plan: SamplingPlan | None = None,
    include_forcing_conditions: bool = False,
) -> ViolationReport:
    """Check the axiom system of `space` at the given tier over `plan`.

    Per-point conditions run over the full plan; the pair conditions v/x run
    over a seeded subsample of point pairs (including diagonal pairs, which
    carry the equality-tight cases); scaling runs over SCALING_SCALARS; the
    limit conditions use the plan's t-infinity ladder with tolerance
    LIMIT_TOL.  The report is deterministic given plan.seed, lists every
    axiom with its violation count, and stores up to _MAX_WITNESSES
    witnessing tuples per axiom.

    Points run in blocks of _AXIOM_POINTS that write into one set of work
    rows, and witnesses merge into the order of one block over all points.
    The per-point pass runs first, then the pairs, then scaling, so an
    overflow raises the error that one block over all points would raise.
    """
    tier = tier or space.axiom_tier
    if tier not in TIER_ORDER:
        raise InvalidParameter(f"unknown axiom tier {tier!r}")
    plan = plan or default_plan(space.dimension)
    if plan.dimension != space.dimension:
        raise DomainError("plan dimension does not match space dimension")

    P = plan.points()
    n_pts = P.shape[0]
    all_t = plan.all_t()
    tg = np.asarray(sorted(plan.t_grid))
    n_all, n_t = len(all_t), len(tg)
    tg_idx = np.searchsorted(all_t, tg)
    ladder_idx = np.searchsorted(all_t, plan.t_infinity_ladder)
    nonzero = np.any(P != 0.0, axis=1)
    blocks = [slice(lo, min(lo + _AXIOM_POINTS, n_pts)) for lo in range(0, n_pts, _AXIOM_POINTS)]
    # One block's work rows, written by every block in turn, so that no block
    # allocates a large array: mu and nu at all_t, scratch rows, and both
    # sides at (c x, t) and at (x, t/|c|)
    work = np.split(np.empty((3 * n_all + 4 * n_t, blocks[0].stop)), np.cumsum([n_all] * 3 + [n_t] * 3))

    # The triangle conditions v/x run over a seeded pair sample.  Diagonal
    # pairs (x, x) are included deliberately: superadditive deformations
    # violate the conditions there first.  Masks are (s, t, pair) blocks.
    # The first pass copies each pair's ends (x, then y) from its t grid rows.
    rng = plan.rng(3)
    diag = np.arange(min(64, n_pts))
    n_rand = min(512, n_pts * n_pts)
    ia = np.concatenate([diag, rng.integers(0, n_pts, size=n_rand)])
    ib = np.concatenate([diag, rng.integers(0, n_pts, size=n_rand)])
    n_pairs, ends_at = len(ia), np.concatenate([ia, ib])
    ends_pair = (np.empty((n_t, 2 * n_pairs)), np.empty((n_t, 2 * n_pairs)))
    found = {roman: _Violations(code, roman, _MAX_WITNESSES) for roman, code, _ in AXIOMS}

    # per side: its conditions, its value at theta, how it reads mu's "<" and
    # ">", its operation and the way it must not move in t
    sides = (
        ("mu", "ii iii v vi xiii xv", 1.0, "<>", space.tnorm, "tnorm", "decreasing"),
        ("nu", "vii viii x xi xiv xvi", 0.0, "><", space.tconorm, "tconorm", "increasing"),
    )

    def mirrored(name, romans, one, order, op, op_name, falling, V=None, at=None, scratch=None, pairs=None):
        """One side's mirrored conditions, each written once, for mu: the nu
        side is the same comparison with the order reversed and 0 and 1
        swapped.  The per-point conditions at the values V of the point
        block `at`, or with `pairs` the conditions at theta and point pairs."""
        ii, iii, v, vi, xiii, xv = (found[roman] for roman in romans.split())
        lt, gt = order
        greater, less_equal = _ORDER[gt], _ORDER[lt + "="]
        zero = 1.0 - one
        sign = one - zero  # the side of a slack: +1 for mu, -1 for nu

        if pairs:
            # (iii) mu = 1 at theta; (v) tnorm(mu(x, s), mu(y, t)) <= mu(x + y, s + t)
            at_theta, ends, at_sums = pairs
            bad = at_theta != one
            iii.add(bad, bad.size, lambda t: (
                (*origin, tg[t]), f"{name}(theta,t)={at_theta[t]:.17g} != {one:g}"
            ), at=(0,))
            lhs = op(ends[:, None, :n_pairs], ends[None, :, n_pairs:])
            bad = greater(lhs, at_sums + sign * INEQ_SLACK)
            v.add(bad, bad.size, lambda s, t, k: (
                pair(s, t, k),
                f"{op_name}({name},{name})={lhs[s, t, k]:.17g} {gt} "
                f"{name}(x+y,s+t)={at_sums[s, t, k]:.17g}",
            ))
            return
        Pb, nz, lo = P[at], nonzero[at], at.start
        nz_pts, nz_lo = Pb[nz], int(np.count_nonzero(nonzero[:lo]))

        def t_step(t, p):
            return (*Pb[p], all_t[t], all_t[t + 1])

        # (ii) mu > 0 on the bounded t grid; (iii) mu < 1 off theta
        on_grid = np.take(V, tg_idx, axis=0, out=scratch[:n_t])
        bad = less_equal(on_grid, zero)
        ii.add(bad, bad.size, lambda t, p: (
            (*Pb[p], tg[t]), f"{name}={on_grid[t, p]:.17g} {lt}= {zero:g}"
        ), col=lo)
        bad = less_equal(one, on_grid)[:, nz]
        iii.add(bad, bad.size, lambda t, p: (
            (*nz_pts[p], tg[t]), f"{name}={one:g} for x != theta"
        ), at=(1,), col=nz_lo)

        # (vi) mu non-decreasing in t, with ladder limit 1
        bad = greater(np.subtract(V[:-1], sign * INEQ_SLACK, out=scratch[:-1]), V[1:])
        vi.add(bad, bad.size, lambda t, p: (t_step(t, p), f"{name} not non-{falling} in t"), at=(0,), col=lo)
        last = V[ladder_idx[-2:]]  # the ladder's last two rows of all_t
        bad = (np.abs(last[1] - last[0]) >= LIMIT_TOL) | less_equal(last[1], one - sign * LIMIT_TOL)
        vi.add(bad, bad.size, lambda p: (
            Pb[p], f"{name} ladder limit {last[1][p]:.17g} != {one:g}"
        ), at=(1,), col=lo)

        # (xiii) literal forcing condition, on request only
        if TIER_ORDER[tier] >= 1 and include_forcing_conditions:
            bad = np.all(greater(V, zero)[:, nz], axis=0)
            xiii.add(bad, bad.size, lambda p: (
                nz_pts[p],
                f"{name}(x,t) {gt} {zero:g} at every sampled t yet x != theta "
                "(condition as written)",
            ), col=nz_lo)

        # (xv) mu strictly increasing where values lie strictly inside (0,1)
        if TIER_ORDER[tier] >= 2:
            in01 = (V > 0.0) & (V < 1.0)
            pairmask = in01[:-1] & in01[1:] & nz[None, :]
            xv.add(pairmask & less_equal(V[1:], V[:-1]), int(pairmask.sum()), lambda t, p: (
                t_step(t, p),
                f"{name}({all_t[t]})={V[t, p]:.17g} !{lt} "
                f"{name}({all_t[t + 1]})={V[t + 1, p]:.17g}",
            ), col=lo)

    def scaling(at, size, scratch, lhs_out, rhs_pair):
        """(iv)/(ix) on the point block `at` at the scalars c with |c| = size:
        the value at (c x, t) equals the value at (x, t/|c|), `rhs_pair`."""
        Pb = P[at]
        for i, c in enumerate(SCALING_SCALARS):
            if abs(c) != size:
                continue
            lhs_pair = space.memberships(c * Pb, tg.reshape(-1, 1), out=lhs_out)
            for roman, name, lhs, rhs in zip(("iv", "ix"), ("mu", "nu"), lhs_pair, rhs_pair):
                gap = np.subtract(lhs, rhs, out=scratch[:n_t])
                bad = np.abs(gap, out=gap) > EQUALITY_TOL
                found[roman].add(bad, bad.size, lambda t, p: (
                    (*Pb[p], c, tg[t]),
                    f"{name}(cx,t)={lhs[t, p]:.17g} != {name}(x,t/|c|)={rhs[t, p]:.17g}",
                ), at=(i,), col=at.start)

    # The first pass: (i) mu + nu <= 1 on every sampled (x, t), the mirrored
    # per-point conditions, and scaling at |c| = 1, read from the t grid rows
    for at in blocks:
        MU, NU, scratch, lhs_mu, lhs_nu, rhs_mu, rhs_nu = (r[:, : at.stop - at.start] for r in work)
        MU, NU = space.memberships(P[at], all_t.reshape(-1, 1), out=(MU, NU))  # (T, block)
        bad = np.add(MU, NU, out=scratch) > 1.0 + INEQ_SLACK
        found["i"].add(bad, bad.size, lambda t, p: (
            (*P[at][p], all_t[t]), f"mu+nu={MU[t, p] + NU[t, p]:.17g} > 1"
        ), col=at.start)
        for side, V in zip(sides, (MU, NU)):
            mirrored(*side, V, at, scratch)
        rhs_pair = tuple(np.take(V, tg_idx, axis=0, out=r) for V, r in zip((MU, NU), (rhs_mu, rhs_nu)))
        # the pair ends in this block; `take` clips the others, which `where` skips
        inside = (ends_at >= at.start) & (ends_at < at.stop)
        for ends, rows in zip(ends_pair, rhs_pair):
            np.copyto(ends, np.take(rows, ends_at - at.start, axis=1, mode="clip"), where=inside)
        scaling(at, 1.0, scratch, (lhs_mu, lhs_nu), rhs_pair)

    origin = (0.0,) * space.dimension

    def pair(s, t, k):
        return (*P[ia[k]], *P[ib[k]], tg[s], tg[t])

    theta_pair = space.memberships(space.theta.reshape(1, -1), tg.reshape(-1, 1))
    sums_pair = space.memberships(P[ia] + P[ib], (tg[:, None] + tg[None, :]).reshape(-1, 1))
    for side, at_theta, ends, at_sums in zip(sides, theta_pair, ends_pair, sums_pair):
        mirrored(*side, pairs=(at_theta[:, 0], ends, at_sums.reshape(n_t, n_t, -1)))

    # The second pass: scaling at every other |c|, one (x, t/|c|) per block
    for at in blocks:
        _, _, scratch, lhs_mu, lhs_nu, rhs_mu, rhs_nu = (r[:, : at.stop - at.start] for r in work)
        for size in dict.fromkeys(abs(c) for c in SCALING_SCALARS if abs(c) != 1.0):
            rhs_pair = space.memberships(P[at], (tg / size).reshape(-1, 1), out=(rhs_mu, rhs_nu))
            scaling(at, size, scratch, (lhs_mu, lhs_nu), rhs_pair)

    # (xii) idempotency of the operations, exact
    if TIER_ORDER[tier] >= 1:
        a = plan.unit_values()
        for j, (op, op_name) in enumerate(((space.tnorm, "*"), (space.tconorm, "(+)"))):
            bad = op(a, a) != a
            found["xii"].add(bad, bad.size, lambda i: (
                (a[i],), f"a{op_name}a={float(op(a[i], a[i])):.17g} != a"
            ), at=(j,))

    results = tuple(
        found[roman].result()
        for roman, _, tier_req in AXIOMS
        if TIER_ORDER[tier_req] <= TIER_ORDER[tier]
        and (include_forcing_conditions or roman not in ("xiii", "xiv"))
    )
    return ViolationReport(
        subject=f"ifn-space:{space.family}", plan=plan.summary(), results=results
    )


def membership_radius(space: IFNSpace, r: float, t: float) -> float:
    """Radius rho such that mu(z, t) > 1 - r and nu(z, t) < r exactly for
    ||z|| < rho.

    Closed form for the standard family, elementwise for arrays r and t;
    bisection along the first coordinate axis for other radial memberships.
    """
    if space.standard_pair:
        return r * t / (space.k * (1.0 - r))
    if not (space.mu.radial and space.nu.radial):
        raise UnsupportedFamily("membership_radius needs a radial membership pair")
    e = np.zeros((1, space.dimension))

    def inside(u: float) -> bool:
        e[0, 0] = u
        return bool(space.within(e, r, t)[0])

    lo, hi = 0.0, 1.0
    while inside(hi):
        hi *= 2.0
        if hi > 1e12:
            return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


# the factors 1 - 2^-j, j = 1..53, of the closed-form radius that
# `safe_radius` tries (the last is the float below 1)
_RADIUS_LADDER = 1.0 - np.ldexp(1.0, -np.arange(1, 54))


def safe_radius(space: IFNSpace, r: float, t: float) -> float:
    """A float X such that every z of the real line with |z| < X meets the
    demand as `within` decides it in binary64, for a standard pair (0 < r < 1,
    finite t > 0).

    The float demand is not monotone in |z| near the radius, so X is a
    proven bound: the largest rung fl(R (1 - 2^-j)), R = fl(r t / (k (1 - r))),
    at which a condition monotone in |z| holds, else 0.0.  With
    a = fl(k ||z||), mu = fl(t / fl(t + a)) falls as |z| grows, so the mu half
    is checked in floats.  For nu = fl(a / fl(t + a)): fl(t + a) >=
    (t + a)(1 - u), as a sum below the normal range is exact, and
    fl(q) <= max(q (1 + u), 2^-1022), so nu < r whenever
    a < r t (1 - u) / (1 + u - r (1 - u)), which is compared exactly.  (Where
    r <= 2^-1022, fl(1 - r) = 1 and mu fails already at z = 0.)  A rung past
    binary64 reads inf and fails.  X lies below the condition's cut by at
    most about the cut's own distance below R (up to 2^-53 / r or
    2^-52 / (1 - r) relative), and is 0.0 where R under- or overflows.
    Memoised on mu's signature, which fixes k and the norm, and (r, t).
    """
    return _safe_radius(space.mu.signature(), float(r), float(t))


@lru_cache(maxsize=1024)
def _safe_radius(mu_signature: tuple, r: float, t: float) -> float:
    from fractions import Fraction  # imported here: only this cap is exact

    mu = standard_mu(mu_signature[1], ClassicalNorm(mu_signature[2]))
    rf, u = Fraction(r), Fraction(1, 2**53)  # u: binary64's unit roundoff
    cap = min(rf * Fraction(t) * (1 - u) / (1 + u - rf * (1 - u)), Fraction(sys.float_info.max))
    a_max = float(cap)  # made the largest float below the cap
    if Fraction(a_max) >= cap:
        a_max = float(np.nextafter(a_max, 0.0))
    with np.errstate(over="ignore"):  # a rung, k||z|| or t + k||z|| past binary64 reads inf
        rungs = r * t / (mu.k * (1.0 - r)) * _RADIUS_LADDER
        kn = mu.norm(rungs.reshape(-1, 1)) * mu.k
        holds = (t / (t + kn) > 1.0 - r) & (kn <= a_max)
    return float(rungs[holds].max(initial=0.0))
