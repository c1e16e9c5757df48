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

import re
from dataclasses import dataclass
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
    AxiomResult,
    TriangularConorm,
    TriangularNorm,
    Violation,
    ViolationReport,
)
from .sampling import SamplingPlan, as_point, construction_plan, default_plan

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

# Scalars sampled for the scaling conditions iv/ix.
SCALING_SCALARS = (-2.0, -1.0, -0.5, 0.5, 2.0, 3.0)

TIER_ORDER = {"core": 0, "idempotent": 1, "strict": 2}

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


@dataclass(frozen=True, eq=False)
class ClassicalNorm:
    """One of the classical norms used to seed the standard family."""

    family: str  # absolute-value (d=1) | euclidean | max-coordinate

    def __post_init__(self):
        if self.family not in ("absolute-value", "euclidean", "max-coordinate"):
            raise InvalidParameter(f"unknown norm family {self.family!r}")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if self.family == "absolute-value":
            if pts.shape[1] != 1:
                raise DomainError("absolute-value norm is one-dimensional")
            return np.abs(pts[:, 0])
        if self.family == "euclidean":
            return np.sqrt(np.sum(pts * pts, axis=1))
        return np.max(np.abs(pts), axis=1)


@dataclass(frozen=True, eq=False)
class MembershipFunction:
    """An evaluable degree function on V x R+ with values in [0, 1].

    Closed-form families are exact; user-supplied functions enter either as
    vectorised callables or as tabulated grids with bilinear interpolation
    (one-dimensional spaces only).  `radial` declares that the value depends
    on x only through ||x||, monotonically along rays; several searches use
    this to invert level sets.
    """

    tag: str  # standard-mu | standard-nu | tabulated | custom
    k: float | None = None
    norm: ClassicalNorm | None = None
    x_nodes: np.ndarray | None = None
    t_nodes: np.ndarray | None = None
    values: np.ndarray | None = None
    fn: Callable | None = None
    radial: bool = False

    def eval(self, pts: np.ndarray, t) -> np.ndarray:
        """Evaluate at an (N, d) block of points and scalar or (N,) times."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        ts = np.asarray(t, dtype=float)
        if self.tag == "standard-mu":
            kn = self.k * self.norm(pts)
            return ts / (ts + kn)
        if self.tag == "standard-nu":
            kn = self.k * self.norm(pts)
            return kn / (ts + kn)
        if self.tag == "tabulated":
            return self._interp(pts[:, 0], np.broadcast_to(ts, (pts.shape[0],)))
        return np.asarray(self.fn(pts, ts), dtype=float)

    def _interp(self, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        xn, tn, vv = self.x_nodes, self.t_nodes, self.values
        xi = np.clip(np.searchsorted(xn, xs) - 1, 0, len(xn) - 2)
        ti = np.clip(np.searchsorted(tn, ts) - 1, 0, len(tn) - 2)
        fx = np.clip((xs - xn[xi]) / (xn[xi + 1] - xn[xi]), 0.0, 1.0)
        ft = np.clip((ts - tn[ti]) / (tn[ti + 1] - tn[ti]), 0.0, 1.0)
        return (
            vv[xi, ti] * (1 - fx) * (1 - ft)
            + vv[xi + 1, ti] * fx * (1 - ft)
            + vv[xi, ti + 1] * (1 - fx) * ft
            + vv[xi + 1, ti + 1] * fx * ft
        )

    def signature(self) -> tuple:
        if self.tag in ("standard-mu", "standard-nu"):
            return (self.tag, float(self.k), self.norm.family)
        if self.tag == "tabulated":
            return (self.tag, len(self.x_nodes), len(self.t_nodes), float(self.values.sum()))
        return (self.tag, id(self.fn))


def standard_mu(k: float, norm: ClassicalNorm) -> MembershipFunction:
    return MembershipFunction(tag="standard-mu", k=float(k), norm=norm, radial=True)


def standard_nu(k: float, norm: ClassicalNorm) -> MembershipFunction:
    return MembershipFunction(tag="standard-nu", k=float(k), norm=norm, radial=True)


def tabulated_membership(x_nodes, t_nodes, values, radial: bool = False) -> MembershipFunction:
    x_nodes = np.asarray(x_nodes, dtype=float)
    t_nodes = np.asarray(t_nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (len(x_nodes), len(t_nodes)):
        raise InvalidParameter("table shape must be (len(x_nodes), len(t_nodes))")
    if values.min() < 0.0 or values.max() > 1.0:
        raise InvalidParameter("table values must lie in [0, 1]")
    return MembershipFunction(
        tag="tabulated", x_nodes=x_nodes, t_nodes=t_nodes, values=values, radial=radial
    )


def custom_membership(fn: Callable, radial: bool = False) -> MembershipFunction:
    return MembershipFunction(tag="custom", fn=fn, radial=radial)


@dataclass(frozen=True, eq=False)
class IFNSpace:
    """A vector space R^d with membership pair (mu, nu), the operations
    housing the two triangle conditions, and a declared axiom tier.

    Instances are immutable and every evaluation is pure, so a space may be
    shared freely across threads.  Use the `make_*` factories to get
    construction-time verification; direct construction performs none.
    """

    dimension: int
    mu: MembershipFunction
    nu: MembershipFunction
    tnorm: TriangularNorm
    tconorm: TriangularConorm
    axiom_tier: str = "strict"
    family: str = "custom"
    k: float | None = None
    norm: ClassicalNorm | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidParameter("dimension must be >= 1")
        if self.axiom_tier not in TIER_ORDER:
            raise InvalidParameter(f"unknown axiom tier {self.axiom_tier!r}")

    @property
    def is_standard(self) -> bool:
        return self.family == "standard"

    @property
    def theta(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def _check_t(self, t: float) -> float:
        t = float(t)
        if not np.isfinite(t) or t <= 0.0:
            raise DomainError(f"t must be a positive real, got {t!r}")
        return t

    def mu_eval(self, x, t) -> float:
        t = self._check_t(t)
        pt = as_point(x, self.dimension)
        return float(self.mu.eval(pt.reshape(1, -1), t)[0])

    def nu_eval(self, x, t) -> float:
        t = self._check_t(t)
        pt = as_point(x, self.dimension)
        return float(self.nu.eval(pt.reshape(1, -1), t)[0])

    def mu_many(self, pts: np.ndarray, t) -> np.ndarray:
        return self.mu.eval(pts, t)

    def nu_many(self, pts: np.ndarray, t) -> np.ndarray:
        return self.nu.eval(pts, t)

    def within(self, diffs: np.ndarray, r: float, t) -> np.ndarray:
        """Mask over an (N, d) block of differences z of the membership
        demand mu(z, t) > 1 - r and nu(z, t) < r, both strict.

        The one definition behind open balls (`topology.OpenBall`),
        convergence and Cauchy indices and uniform continuity.  Both
        memberships are always evaluated: the closed-form radius shortcut
        can flip near-ties.  A NaN difference fails the demand.
        """
        return (self.mu_many(diffs, t) > 1.0 - r) & (self.nu_many(diffs, t) < r)

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
        if self.k is not None:
            out["k"] = float(self.k)
        if self.norm is not None:
            out["norm"] = self.norm.family
        return out


def _resolve_ops(ops) -> tuple[TriangularNorm, TriangularConorm]:
    tn, tc = ops
    if isinstance(tn, str):
        tn = TriangularNorm(tn)
    if isinstance(tc, str):
        tc = TriangularConorm(tc)
    return tn, tc


def make_standard_space(
    k: float,
    norm: ClassicalNorm | str | None = None,
    dimension: int = 1,
    ops=("minimum", "maximum"),
    tier: str = "strict",
    plan: SamplingPlan | None = None,
    verify: bool = True,
) -> IFNSpace:
    """The closed-form family mu = t/(t + k||x||), nu = k||x||/(t + k||x||).

    With min/max operations this family satisfies every tier; construction
    verifies the declared tier on a (light) construction plan and raises
    AxiomFailure if that ever fails, which signals an internal fault rather
    than a user error.
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
        family="standard",
        k=float(k),
        norm=norm,
    )
    if verify:
        report = check_ifn_axioms(
            space, tier=tier, plan=plan or construction_plan(dimension)
        )
        if not report.passed:
            raise AxiomFailure(
                f"standard space failed construction-time check: {report.violated()}"
            )
    return space


_EXAMPLE_B = re.compile(r"^example-3\.15-B(?:\(k=([0-9.eE+-]+)\))?$")


def make_example_family(tag: str) -> IFNSpace:
    """Named spaces used by the scenario catalog.

    All of them are specialisations of the standard family on the real line
    with min/max operations; the tag records which worked scenario they
    belong to.
    """
    if tag == "example-3.15-A":
        return make_standard_space(k=1.0, dimension=1)
    match = _EXAMPLE_B.match(tag)
    if match:
        k = float(match.group(1)) if match.group(1) else 3.0
        return make_standard_space(k=k, dimension=1)
    if tag == "example-4.x":
        return make_standard_space(k=1.0, dimension=1)
    raise UnknownTag(f"unknown example space tag {tag!r}")


def mu_eval(space: IFNSpace, x, t) -> float:
    return space.mu_eval(x, t)


def nu_eval(space: IFNSpace, x, t) -> float:
    return space.nu_eval(x, t)


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


AXIOM_CODE = {roman: code for roman, code, _ in AXIOMS}


class _Acc:
    """Accumulates violations for one axiom, capping stored witnesses."""

    def __init__(self, cap: int):
        self.cap = cap
        self.checked = 0
        self.total = 0
        self.witnesses: list[Violation] = []


def _fmt_vec(x: np.ndarray) -> tuple:
    return tuple(float(v) for v in np.atleast_1d(x))


def check_ifn_axioms(
    space: IFNSpace,
    tier: str | None = None,
    plan: SamplingPlan | None = None,
    include_forcing_conditions: bool = False,
    max_witnesses: int = 32,
) -> ViolationReport:
    """Check the axiom system of `space` at the given tier over `plan`.

    Per-point conditions run over the full plan; the pair conditions v/x run
    over a seeded subsample of point pairs (including diagonal pairs, which
    carry the equality-tight cases); scaling runs over SCALING_SCALARS; the
    limit conditions use the plan's t-infinity ladder with tolerance
    LIMIT_TOL.  The report is deterministic given plan.seed, lists every
    axiom with its violation count, and stores up to `max_witnesses`
    witnessing tuples per axiom.
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
    tg_idx = np.searchsorted(all_t, tg)
    ladder = np.asarray(plan.t_infinity_ladder)

    MU = np.stack([space.mu_many(P, t) for t in all_t])  # (T, N)
    NU = np.stack([space.nu_many(P, t) for t in all_t])
    nonzero = np.any(P != 0.0, axis=1)

    rng = plan.rng(3)
    accs: dict[str, _Acc] = {r: _Acc(max_witnesses) for r, _, _ in AXIOMS}

    def collect(roman: str, bad2d: np.ndarray, maker, checked: int):
        acc = accs[roman]
        acc.checked += checked
        total = int(bad2d.sum())
        acc.total += total
        room = acc.cap - len(acc.witnesses)
        if total and room > 0:
            for index in np.argwhere(bad2d)[:room]:
                pt, detail = maker(tuple(index))
                acc.witnesses.append(Violation(AXIOM_CODE[roman], pt, detail))

    # (i) mu + nu <= 1 on every sampled (x, t)
    bad = (MU + NU) > 1.0 + INEQ_SLACK
    collect(
        "i",
        bad,
        lambda ix: (
            _fmt_vec(P[ix[1]]) + (float(all_t[ix[0]]),),
            f"mu+nu={MU[ix]+NU[ix]:.17g} > 1",
        ),
        bad.size,
    )

    # (ii) mu > 0  /  (vii) nu < 1 (strict, on the bounded t grid)
    bad = MU[tg_idx] <= 0.0
    collect(
        "ii",
        bad,
        lambda ix: (_fmt_vec(P[ix[1]]) + (float(tg[ix[0]]),), f"mu={MU[tg_idx][ix]:.17g} <= 0"),
        bad.size,
    )
    bad = NU[tg_idx] >= 1.0
    collect(
        "vii",
        bad,
        lambda ix: (_fmt_vec(P[ix[1]]) + (float(tg[ix[0]]),), f"nu={NU[tg_idx][ix]:.17g} >= 1"),
        bad.size,
    )

    # (iii)/(viii) boundary values at theta, both directions
    theta = space.theta.reshape(1, -1)
    mu_theta = np.array([space.mu_many(theta, t)[0] for t in tg])
    nu_theta = np.array([space.nu_many(theta, t)[0] for t in tg])
    bad = (mu_theta != 1.0).reshape(-1, 1)
    collect("iii", bad, lambda ix: ((0.0,) * space.dimension + (float(tg[ix[0]]),), f"mu(theta,t)={mu_theta[ix[0]]:.17g} != 1"), bad.size)
    badr = MU[tg_idx][:, nonzero] >= 1.0
    nz_pts = P[nonzero]
    collect("iii", badr, lambda ix: (_fmt_vec(nz_pts[ix[1]]) + (float(tg[ix[0]]),), "mu=1 for x != theta"), badr.size)
    bad = (nu_theta != 0.0).reshape(-1, 1)
    collect("viii", bad, lambda ix: ((0.0,) * space.dimension + (float(tg[ix[0]]),), f"nu(theta,t)={nu_theta[ix[0]]:.17g} != 0"), bad.size)
    badr = NU[tg_idx][:, nonzero] <= 0.0
    collect("viii", badr, lambda ix: (_fmt_vec(nz_pts[ix[1]]) + (float(tg[ix[0]]),), "nu=0 for x != theta"), badr.size)

    # (iv)/(ix) scaling: value at (c x, t) equals value at (x, t/|c|)
    for c in SCALING_SCALARS:
        for t in tg:
            lhs = space.mu_many(c * P, t)
            rhs = space.mu_many(P, t / abs(c))
            bad = np.abs(lhs - rhs) > EQUALITY_TOL
            collect(
                "iv",
                bad.reshape(1, -1),
                lambda ix, c=c, t=t, lhs=lhs, rhs=rhs: (
                    _fmt_vec(P[ix[1]]) + (float(c), float(t)),
                    f"mu(cx,t)={lhs[ix[1]]:.17g} != mu(x,t/|c|)={rhs[ix[1]]:.17g}",
                ),
                bad.size,
            )
            lhs = space.nu_many(c * P, t)
            rhs = space.nu_many(P, t / abs(c))
            bad = np.abs(lhs - rhs) > EQUALITY_TOL
            collect(
                "ix",
                bad.reshape(1, -1),
                lambda ix, c=c, t=t, lhs=lhs, rhs=rhs: (
                    _fmt_vec(P[ix[1]]) + (float(c), float(t)),
                    f"nu(cx,t)={lhs[ix[1]]:.17g} != nu(x,t/|c|)={rhs[ix[1]]:.17g}",
                ),
                bad.size,
            )

    # (v)/(x) triangle conditions over a seeded pair sample.  Diagonal pairs
    # (x, x) are included deliberately: superadditive deformations violate
    # the conditions there first.
    n_diag = min(64, n_pts)
    diag = np.arange(n_diag)
    n_rand = min(512, n_pts * n_pts)
    ia = np.concatenate([diag, rng.integers(0, n_pts, size=n_rand)])
    ib = np.concatenate([diag, rng.integers(0, n_pts, size=n_rand)])
    sums = P[ia] + P[ib]
    for si, s in enumerate(tg):
        for ti, t in enumerate(tg):
            lhs = space.tnorm(MU[tg_idx[si], ia], MU[tg_idx[ti], ib])
            rhs = space.mu_many(sums, s + t)
            bad = lhs > rhs + INEQ_SLACK
            collect(
                "v",
                bad.reshape(1, -1),
                lambda ix, s=s, t=t, lhs=lhs, rhs=rhs: (
                    _fmt_vec(P[ia[ix[1]]]) + _fmt_vec(P[ib[ix[1]]]) + (float(s), float(t)),
                    f"tnorm(mu,mu)={lhs[ix[1]]:.17g} > mu(x+y,s+t)={rhs[ix[1]]:.17g}",
                ),
                bad.size,
            )
            lhs = space.tconorm(NU[tg_idx[si], ia], NU[tg_idx[ti], ib])
            rhs = space.nu_many(sums, s + t)
            bad = lhs < rhs - INEQ_SLACK
            collect(
                "x",
                bad.reshape(1, -1),
                lambda ix, s=s, t=t, lhs=lhs, rhs=rhs: (
                    _fmt_vec(P[ia[ix[1]]]) + _fmt_vec(P[ib[ix[1]]]) + (float(s), float(t)),
                    f"tconorm(nu,nu)={lhs[ix[1]]:.17g} < nu(x+y,s+t)={rhs[ix[1]]:.17g}",
                ),
                bad.size,
            )

    # (vi)/(xi) monotonicity in t plus the ladder limits
    bad = MU[1:] < MU[:-1] - INEQ_SLACK
    collect(
        "vi",
        bad,
        lambda ix: (
            _fmt_vec(P[ix[1]]) + (float(all_t[ix[0]]), float(all_t[ix[0] + 1])),
            "mu not non-decreasing in t",
        ),
        bad.size,
    )
    lm = np.stack([space.mu_many(P, t) for t in ladder])
    bad = ((np.abs(lm[-1] - lm[-2]) >= LIMIT_TOL) | (lm[-1] <= 1.0 - LIMIT_TOL)).reshape(1, -1)
    collect(
        "vi",
        bad,
        lambda ix: (_fmt_vec(P[ix[1]]), f"mu ladder limit {lm[-1][ix[1]]:.17g} != 1"),
        bad.size,
    )
    bad = NU[1:] > NU[:-1] + INEQ_SLACK
    collect(
        "xi",
        bad,
        lambda ix: (
            _fmt_vec(P[ix[1]]) + (float(all_t[ix[0]]), float(all_t[ix[0] + 1])),
            "nu not non-increasing in t",
        ),
        bad.size,
    )
    ln = np.stack([space.nu_many(P, t) for t in ladder])
    bad = ((np.abs(ln[-1] - ln[-2]) >= LIMIT_TOL) | (ln[-1] >= LIMIT_TOL)).reshape(1, -1)
    collect(
        "xi",
        bad,
        lambda ix: (_fmt_vec(P[ix[1]]), f"nu ladder limit {ln[-1][ix[1]]:.17g} != 0"),
        bad.size,
    )

    # (xii) idempotency of the operations, exact
    if TIER_ORDER[tier] >= 1:
        a = plan.unit_values()
        bad = (space.tnorm(a, a) != a).reshape(1, -1)
        collect("xii", bad, lambda ix: ((float(a[ix[1]]),), f"a*a={float(space.tnorm(a[ix[1]], a[ix[1]])):.17g} != a"), bad.size)
        bad = (space.tconorm(a, a) != a).reshape(1, -1)
        collect("xii", bad, lambda ix: ((float(a[ix[1]]),), f"a(+)a={float(space.tconorm(a[ix[1]], a[ix[1]])):.17g} != a"), bad.size)

    # (xiii)/(xiv) literal forcing conditions, on request only
    if TIER_ORDER[tier] >= 1 and include_forcing_conditions:
        all_pos = np.all(MU[:, nonzero] > 0.0, axis=0).reshape(1, -1)
        collect(
            "xiii",
            all_pos,
            lambda ix: (
                _fmt_vec(nz_pts[ix[1]]),
                "mu(x,t) > 0 at every sampled t yet x != theta (condition as written)",
            ),
            all_pos.size,
        )
        all_sub = np.all(NU[:, nonzero] < 1.0, axis=0).reshape(1, -1)
        collect(
            "xiv",
            all_sub,
            lambda ix: (
                _fmt_vec(nz_pts[ix[1]]),
                "nu(x,t) < 1 at every sampled t yet x != theta (condition as written)",
            ),
            all_sub.size,
        )

    # (xv)/(xvi) strict monotonicity where values lie strictly inside (0,1)
    if TIER_ORDER[tier] >= 2:
        in01 = (MU > 0.0) & (MU < 1.0)
        pairmask = in01[:-1] & in01[1:] & nonzero[None, :]
        bad = pairmask & (MU[1:] <= MU[:-1])
        collect(
            "xv",
            bad,
            lambda ix: (
                _fmt_vec(P[ix[1]]) + (float(all_t[ix[0]]), float(all_t[ix[0] + 1])),
                f"mu({all_t[ix[0]]})={MU[ix]:.17g} !< mu({all_t[ix[0]+1]})={MU[ix[0]+1, ix[1]]:.17g}",
            ),
            int(pairmask.sum()),
        )
        in01 = (NU > 0.0) & (NU < 1.0)
        pairmask = in01[:-1] & in01[1:] & nonzero[None, :]
        bad = pairmask & (NU[1:] >= NU[:-1])
        collect(
            "xvi",
            bad,
            lambda ix: (
                _fmt_vec(P[ix[1]]) + (float(all_t[ix[0]]), float(all_t[ix[0] + 1])),
                f"nu({all_t[ix[0]]})={NU[ix]:.17g} !> nu({all_t[ix[0]+1]})={NU[ix[0]+1, ix[1]]:.17g}",
            ),
            int(pairmask.sum()),
        )

    results = []
    for roman, code, tier_req in AXIOMS:
        if TIER_ORDER[tier_req] > TIER_ORDER[tier]:
            continue
        if roman in ("xiii", "xiv") and not include_forcing_conditions:
            continue
        acc = accs[roman]
        results.append(
            AxiomResult(code, roman, acc.checked, tuple(acc.witnesses), acc.total)
        )
    return ViolationReport(
        subject=f"ifn-space:{space.family}", plan=plan.summary(), results=tuple(results)
    )


@dataclass(frozen=True)
class LimitRecord:
    mu_limit: float
    nu_limit: float
    converged: bool
    ladder: tuple[float, ...]
    mu_values: tuple[float, ...]
    nu_values: tuple[float, ...]


def limit_at_infinity(space: IFNSpace, x, plan: SamplingPlan | None = None) -> LimitRecord:
    """Approximate lim_{t->oo} (mu, nu) along the plan's ladder.

    `converged` requires the last two ladder values of mu to agree within
    LIMIT_TOL with final mu > 1 - LIMIT_TOL, and dually for nu.
    """
    plan = plan or default_plan(space.dimension)
    pt = as_point(x, space.dimension).reshape(1, -1)
    ladder = plan.t_infinity_ladder
    mus = tuple(float(space.mu_many(pt, t)[0]) for t in ladder)
    nus = tuple(float(space.nu_many(pt, t)[0]) for t in ladder)
    converged = (
        abs(mus[-1] - mus[-2]) < LIMIT_TOL
        and mus[-1] > 1.0 - LIMIT_TOL
        and abs(nus[-1] - nus[-2]) < LIMIT_TOL
        and nus[-1] < LIMIT_TOL
    )
    return LimitRecord(mus[-1], nus[-1], converged, tuple(ladder), mus, nus)


def membership_radius(space: IFNSpace, r: float, t: float) -> float:
    """Radius rho such that mu(z, t) > 1 - r and nu(z, t) < r exactly for
    ||z|| < rho.

    Closed form for the standard family; bisection along the first
    coordinate axis for other radial memberships.
    """
    if space.is_standard:
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
