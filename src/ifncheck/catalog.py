"""Named scenario catalog: each entry reproduces one worked example or
theorem statement at desk scale and reports pass/fail records.

Every scenario name maps to exactly one statement; the anchor string in
each record names that statement.  All randomness flows from the single
seed argument.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .config_schema import CHECK_FIELDS, fields_of
from .continuity import (
    combine,
    continuity_witness_searches,
    make_map,
    recheck_witness,
    rule,
    uniform_continuity_search,
)
from .errors import UnknownTag, WitnessNotFound
from .function_sequences import (
    VERDICT_NOT_UNIFORM,
    VERDICT_UNIFORM,
    FunctionSequence,
    classical_uniform_probe,
    closed_form_index_power,
    criterion_pair,
    sample_domain,
    uniform_index_search,
    uniform_index_sweep,
)
from .ifn_core import (
    IFNSpace,
    check_ifn_axioms,
    custom_membership,
    make_example_family,
    make_standard_space,
    membership_radius,
)
from .norm_algebra import TriangularConorm, TriangularNorm
from .point_convergence import (
    classical_equivalence_probe,
    reciprocal_sequence,
    shifted_reciprocal_sequence,
)
from .report import FAIL, INFO, PASS, CheckRecord
from .sampling import Interval, default_plan
from .scenarios import (
    cauchy_preservation_record,
    equivalence_record,
    pass_if,
    pointwise_record,
    preimage_open_record,
    sup_oracle_record,
    sweep_csv_row,
    uniform_limit_record,
    uniform_witness_record,
    witness_record,
)
from .topology import OpenBall, ball_classical_radius, inner_ball_witnesses
from .vocabulary import DESCRIPTIONS, paired

# ---------------------------------------------------------------------------
# Deliberately broken spaces, one per axiom group
# ---------------------------------------------------------------------------


def broken_spaces(k: float = 1.0) -> dict[str, tuple[IFNSpace, str]]:
    """Six spaces, each violating one target axiom group (i, iv, v, vi, x,
    xv) on the default plan; used to exercise mutation detection."""
    tn, tc = TriangularNorm("minimum"), TriangularConorm("maximum")
    base = make_standard_space(k, dimension=1, verify=False)
    mu_std, nu_std = base.mu, base.nu

    def absx(p):
        return np.abs(np.asarray(p, dtype=float)[:, 0])

    def space(mu, nu):
        return IFNSpace(1, mu, nu, tn, tc, axiom_tier="strict")

    def radial_pair(m, warp=lambda t: t):
        # the standard pair's shape t/(t + m), m/(t + m) for a profile m(p)
        fns = (lambda p, t: warp(t) / (warp(t) + m(p)), lambda p, t: m(p) / (warp(t) + m(p)))
        return tuple(custom_membership(fn, radial=True, broadcasts=True) for fn in fns)

    def plateau(t):
        return np.where(t < 1.0, t, np.where(t <= 2.0, 1.0, t - 1.0))

    def mu_halved(p, t):
        a = absx(p)
        return np.where(a == 0.0, 1.0, t / (2.0 * t + k * a))

    nu_doubled = custom_membership(
        lambda p, t: np.minimum(1.0, 2.0 * nu_std.eval(p, t)), broadcasts=True
    )
    kinked = radial_pair(lambda p: k * absx(p) + 0.5 * np.minimum(absx(p), 1.0))
    mu_sq, nu_sq = radial_pair(lambda p: k * absx(p) * absx(p))
    time_plateau = radial_pair(lambda p: k * absx(p), plateau)

    return {
        "i": (space(mu_std, nu_doubled), "nu doubled: mu + nu exceeds 1"),
        "iv": (space(*kinked), "kinked radial profile breaks scaling"),
        "v": (space(mu_sq, nu_sq), "squared radius is superadditive: mu triangle fails"),
        "vi": (
            space(custom_membership(mu_halved, radial=True, broadcasts=True), nu_std),
            "mu plateaus at 1/2: limit in t is not 1",
        ),
        "x": (space(mu_std, nu_sq), "squared-radius nu: nu triangle fails"),
        "xv": (space(*time_plateau), "time plateau: mu(x,.) not strictly increasing"),
    }


# ---------------------------------------------------------------------------
# Catalog function sequences (used by the criterion-agreement scenario)
# ---------------------------------------------------------------------------


def catalog_function_sequences() -> dict[str, tuple[FunctionSequence, str | None]]:
    """The six function sequences exercised by the uniform-convergence
    scenarios, with the refinement side (if any) of their domain sample."""
    return {
        "power-closed-half": (FunctionSequence("power", Interval(0.0, 0.5)), None),
        "power-open-unit": (
            FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True)),
            "hi",
        ),
        "power-closed-09": (FunctionSequence("power", Interval(0.0, 0.9)), None),
        "quotient-closed-ten": (FunctionSequence("quotient", Interval(0.0, 10.0)), None),
        "scaled-unit": (FunctionSequence("scaled", Interval(0.0, 1.0)), None),
        "constant-identity": (
            FunctionSequence("constant", Interval(0.0, 1.0), params=("identity",)),
            None,
        ),
    }


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------


def _fields(kind: str, **fields) -> dict:
    """The fields of a config check of `kind`: `fields`, and the defaults
    of its `CHECK_FIELDS` entry for the rest."""
    (table,) = [table for table in CHECK_FIELDS.values() if kind in table]
    return fields_of(table, {"kind": kind, **fields})


def _as_expected(rec: CheckRecord, verdict: str = PASS, **details) -> bool:
    return rec.verdict == verdict and all(rec.details[k] == v for k, v in details.items())


def _expect(rec: CheckRecord, name: str, anchor: str, verdict=PASS, **details) -> CheckRecord:
    """A check kind's record under a catalog name and anchor: it passes
    only if its verdict is `verdict` and each named detail has the given
    value."""
    ok = _as_expected(rec, verdict, **details)
    return rec._replace(name=name, anchor=anchor, verdict=pass_if(ok))


def _combine(name: str, anchor: str, ok: bool, seed: int, **parts: CheckRecord) -> CheckRecord:
    """One record of several check kinds' records: details per part, and
    the sum of their work."""
    return CheckRecord(
        name=name, anchor=anchor, verdict=pass_if(ok),
        details={part: rec.details for part, rec in parts.items()},
        seed=seed, work=sum(rec.work for rec in parts.values()),
    )


def _axioms_record(
    name: str, anchor: str, seed: int, plan, space: IFNSpace, target: str | None = None, **details
) -> CheckRecord:
    """A strict-tier `check_ifn_axioms` run as one record.  Without a
    `target` condition it passes when no condition is violated and records
    its grid size as a budget; with one, it passes when that condition is
    violated and keeps its first witness."""
    rep = check_ifn_axioms(space, tier="strict", plan=plan)
    violated = rep.violated()
    ok = target in violated if target else not violated
    first = rep.result(target).violations[:1] if target and ok else ()
    return CheckRecord(
        name=name, anchor=anchor, verdict=pass_if(ok),
        details=details | {"violated": list(violated)},
        witnesses=[{"point": list(v.point), "detail": v.detail} for v in first],
        budgets={} if target else {"grid": plan.vector_grid.shape[0]},
        plan=plan.summary(), seed=seed, work=sum(r.checked for r in rep.results),
    )


def _run_note_3_3(seed: int) -> list[CheckRecord]:
    anchor = (
        "standard construction: mu = t/(t + k||x||), nu = k||x||/(t + k||x||) "
        "is an intuitionistic fuzzy norm; convergence agrees with the classical norm"
    )
    records = [
        _axioms_record(f"axioms/standard-k{k}-d{d}", anchor, seed, default_plan(d, seed),
                       make_standard_space(k, dimension=d, verify=False))
        for k in (0.5, 1.0, 2.0)
        for d in (1, 3)
    ]
    space = make_standard_space(1.0)
    for seq, limit, name in (
        (reciprocal_sequence(), 0.0, "reciprocal"),
        (shifted_reciprocal_sequence(2.0, 5.0), 2.0, "shifted-reciprocal"),
    ):
        rec = classical_equivalence_probe(space, seq, limit)
        records.append(
            CheckRecord(
                name=f"classical-equivalence/{name}",
                anchor=anchor,
                verdict=pass_if(rec.agree),
                details={
                    "ifn_converged": rec.ifn_converged,
                    "classical_converged": rec.classical_converged,
                },
                budgets={"N": seq.budget},
                seed=seed,
                work=seq.budget * len(rec.ifn_certificates),
            )
        )
    return records


def _example_315_map():
    A = make_example_family("example-3.15-A")
    B = make_example_family("example-3.15-B(k=3)")
    dom = Interval(0.0, 1.0, open_lo=True, open_hi=True)
    return make_map(A, B, rule("reciprocal"), dom)


def _run_example_3_15(seed: int) -> list[CheckRecord]:
    anchor = "f(x) = 1/x on (0,1): intuitionistic fuzzy continuous, not uniformly so"
    f = _example_315_map()
    records = [
        _expect(witness_record(f, x0, _fields("witness"), seed),
                f"continuity/reciprocal-at-{x0}", anchor)
        for x0 in (0.1, 0.25, 0.5, 0.9)
    ]
    u = uniform_witness_record(f, _fields("uniform-witness"), seed)
    c = cauchy_preservation_record(f, _fields("cauchy-preservation"), seed)
    return records + [
        _expect(u, "uniform-continuity/reciprocal", anchor, FAIL),
        _expect(c, "cauchy-preservation/reciprocal", anchor, FAIL),
    ]


def _run_theorem_2_10(seed: int) -> list[CheckRecord]:
    anchor = "continuity and sequential continuity are equivalent"
    f = _example_315_map()
    U = make_standard_space(1.0)
    idm = make_map(U, U, rule("identity"), Interval(-1.0, 1.0))
    cases = ((f, 0.25, "reciprocal-at-0.25", 10.0), (f, 0.5, "reciprocal-at-0.5", 10.0),
             (idm, 0.0, "identity", 5.0))
    return [
        _expect(equivalence_record(g, x0, _fields("equivalence", sequence_offset=offset), seed),
                f"equivalence/{name}", anchor)
        for g, x0, name, offset in cases
    ]


def closure_pair():
    """The catalog (f, g) pair on [0.1, 0.9]: f = x^2 and g = x + 0.5."""
    U = make_standard_space(1.0)
    dom = Interval(0.1, 0.9)
    f = make_map(U, U, rule("power", 2.0), dom)
    g = make_map(U, U, rule("affine", 1.0, 0.5), dom)
    return f, g


def _run_closure(seed: int) -> list[CheckRecord]:
    anchor = (
        "sums, scalar multiples, products and quotients of continuous maps "
        "are continuous (operations satisfying idempotency)"
    )
    f, g = closure_pair()
    combos = {
        "f": f,
        "g": g,
        "f+g": combine("sum", f, g),
        "3f": combine("scalar", f, k=3.0),
        "fg": combine("product", f, g),
        "f/g": combine("product", f, combine("reciprocal", g)),
    }
    points = [round(0.1 * i, 1) for i in range(1, 10)]
    records = []
    for name, h in combos.items():
        ws = continuity_witness_searches(h, points, 0.5, 0.25, seed=seed)
        ok = all(w.witnessed for w in ws)
        records.append(
            CheckRecord(
                name=f"closure/{name}",
                anchor=anchor,
                verdict=pass_if(ok),
                details={
                    "rule": h.rule.describe(),
                    "witnessed_at": [w.x0 for w in ws if w.witnessed],
                    "rungs": [w.rung for w in ws],
                },
                seed=seed,
                work=sum(w.probes_checked for w in ws),
            )
        )
    return records


def catalog_balls() -> list[tuple[IFNSpace, OpenBall]]:
    """Twenty (space, ball) pairs spanning k, d, r, t."""
    out = []
    for k, d in ((1.0, 1), (2.0, 1), (1.0, 3)):
        space = make_standard_space(k, dimension=d, verify=False)
        for r in (0.3, 0.5, 0.7, 0.9):
            for t in (0.5, 2.0):
                center = np.zeros(d)
                center[0] = 0.5
                out.append((space, OpenBall(center, r, t)))
    return out[:20]


# theorem-3.7: sampled members per ball, and sample points per inner ball
_MEMBERS_PER_BALL = 50
_VERIFY_POINTS = 1000


def _run_theorem_3_7(seed: int) -> list[CheckRecord]:
    anchor = "every open ball is an open set (inner ball construction)"
    records = []
    rng = np.random.default_rng((seed, 41))
    for i, (space, ball) in enumerate(catalog_balls()):
        rho = ball_classical_radius(space, ball)
        d = space.dimension
        dirs = rng.normal(size=(_MEMBERS_PER_BALL, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rho * rng.uniform(0.0, 0.98, size=(_MEMBERS_PER_BALL, 1))
        members = ball.center.reshape(1, -1) + dirs * radii
        # each witness post-verifies containment on _VERIFY_POINTS samples
        witnesses = inner_ball_witnesses(space, ball, members, _VERIFY_POINTS, seed)
        failures = sum(isinstance(w, WitnessNotFound) for w in witnesses)
        records.append(
            CheckRecord(
                name=f"inner-ball/ball-{i}",
                anchor=anchor,
                verdict=pass_if(failures == 0),
                details={"ball": ball.summary(), "members": _MEMBERS_PER_BALL, "failures": failures},
                budgets={"verify_points": _VERIFY_POINTS},
                seed=seed,
                work=_MEMBERS_PER_BALL * _VERIFY_POINTS,
            )
        )
    return records


def _run_theorem_3_11(seed: int) -> list[CheckRecord]:
    anchor = "a map is continuous iff preimages of open sets are open"
    U = make_standard_space(1.0)
    plan = default_plan(1, seed)
    ball = {"center": 0.0, "r": 0.5, "t": 1.0}
    wide = {"lo": -2.0, "hi": 2.0}
    cases = {
        "identity": ({"rule": "identity", "domain": wide}, ball, PASS),
        "doubling": ({"rule": "affine", "params": [2.0, 0.0], "domain": wide}, ball, PASS),
        "step-boundary": (
            {"rule": "step", "params": [0.0], "domain": {"lo": -1.0, "hi": 1.0}},
            {"center": 1.0, "r": 0.3, "t": 0.5},
            FAIL,
        ),
    }
    return [
        _expect(preimage_open_record(U, plan, _fields("preimage-open", map=m, ball=b), seed),
                f"preimage-open/{name}", anchor, verdict)
        for name, (m, b, verdict) in cases.items()
    ]


def _run_theorem_3_13(seed: int) -> list[CheckRecord]:
    anchor = "a uniformly continuous map sends Cauchy sequences to Cauchy sequences"
    U = make_standard_space(1.0)
    f = make_map(U, U, rule("affine", 2.0, 0.0), Interval(0.0, 1.0, open_lo=True, open_hi=True))
    u = uniform_witness_record(f, _fields("uniform-witness"), seed)
    c = cauchy_preservation_record(f, _fields("cauchy-preservation"), seed)
    ok = _as_expected(u) and _as_expected(c)
    return [_combine("cauchy-preservation/doubling", anchor, ok, seed, uniform=u, preservation=c)]


def _run_theorem_3_14(seed: int) -> list[CheckRecord]:
    anchor = "uniform continuity implies continuity; the converse fails"
    records = []
    U = make_standard_space(1.0)
    f = make_map(U, U, rule("affine", 2.0, 0.0), Interval(0.0, 1.0))
    u = uniform_continuity_search(f, 1.0, 0.5, seed=seed)
    contained = u.witnessed and all(
        w.witnessed and recheck_witness(f, w, delta=u.delta, beta=u.beta, seed=seed)
        for w in continuity_witness_searches(f, (0.1, 0.5, 0.9), 1.0, 0.5, seed=seed)
    )
    records.append(
        CheckRecord(
            name="containment/doubling",
            anchor=anchor,
            verdict=pass_if(contained),
            details={"uniform": u.summary()},
            seed=seed,
            work=u.pairs_checked,
        )
    )
    g = _example_315_map()
    w = witness_record(g, 0.5, _fields("witness"), seed)
    ug = uniform_witness_record(g, _fields("uniform-witness"), seed)
    ok = _as_expected(w) and _as_expected(ug, FAIL)
    records.append(_combine("converse/reciprocal", anchor, ok, seed, pointwise=w, uniform=ug))
    return records


def _funcseq_spaces():
    space = make_example_family("example-4.x")
    return (space, space)


def _run_example_4_power(seed: int) -> list[CheckRecord]:
    anchor = (
        "f_n(x) = x^n: pointwise convergent to the zero map on (0,1), "
        "uniformly convergent on [0,a], not uniformly on (0,1)"
    )
    spaces = _funcseq_spaces()
    open_unit = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
    refined = sample_domain(open_unit.domain, 17, refine_side="hi", refine_depth=10)
    records = [
        _expect(
            pointwise_record(spaces, open_unit, refined, 0.1, 0.1, _fields("pointwise", x=x), seed),
            f"pointwise/power-at-{x}", anchor, limit=0.0,
        )
        for x in (0.25, 0.5, 0.75)
    ]
    half = FunctionSequence("power", Interval(0.0, 0.5))
    # index sweep table over (r, t); its first pair is the uniform-index record's
    rts = [(round(0.1 * i, 1), t) for i in range(1, 10) for t in (0.1, 1.0, 10.0)]
    sweep = uniform_index_sweep(spaces, half, sample_domain(half.domain, 17), rts)

    def index_record(name, ok, cert, **fields):
        return CheckRecord(
            name=f"uniform-index/{name}", anchor=anchor, verdict=pass_if(ok),
            details=cert.summary() | {"per_point_index": [list(pi) for pi in cert.per_point_index]},
            seed=seed, work=cert.budget * len(cert.per_point_index), **fields,
        )

    cert, cert_open = sweep[0], uniform_index_search(spaces, open_unit, refined, 0.1, 0.1)
    records += [
        index_record("power-closed-half", cert.uniform and cert.n0 == 7, cert),
        index_record("power-open-unit", cert_open.verdict == VERDICT_NOT_UNIFORM, cert_open,
                     witnesses=[{"ladder_indices": list(cert_open.ladder_indices)}]),
    ]
    records.extend(
        CheckRecord(
            name=f"sweep/power-r{c.r}-t{c.t}",
            anchor=anchor,
            verdict=INFO,
            details={},
            seed=seed,
            work=c.budget,
            csv_row=sweep_csv_row(half, c, spaces[1]),
        )
        for c in sweep
    )
    return records


def _run_example_4_quotient(seed: int) -> list[CheckRecord]:
    anchor = "g_n(x) = n/(x+n) converges to 1 pointwise and uniformly on [0, 10]"
    spaces = _funcseq_spaces()
    seq = FunctionSequence("quotient", Interval(0.0, 10.0))
    sample = sample_domain(seq.domain, 11)
    pointwise = pointwise_record(spaces, seq, sample, 0.1, 0.5, _fields("pointwise", x=1.0), seed)
    records = [_expect(pointwise, "pointwise/quotient-at-1", anchor, limit=1.0)]
    probe = classical_uniform_probe(spaces, seq, sample, 0.1, 0.1)
    ucert = probe.ifn_certificate
    records.append(
        CheckRecord(
            name="uniform-index/quotient",
            anchor=anchor,
            verdict=pass_if(ucert.uniform and probe.agree),
            details={"certificate": ucert.summary(), "classical": probe.summary()},
            seed=seed,
            work=ucert.budget * len(ucert.per_point_index),
        )
    )
    return records


def _run_cauchy_criterion(seed: int) -> list[CheckRecord]:
    anchor = (
        "uniform convergence is equivalent to the uniform Cauchy tail "
        "condition mu(f_{n+p}(x) - f_n(x), t) > 1 - r"
    )
    spaces = _funcseq_spaces()
    records = []
    for name, (seq, refine) in catalog_function_sequences().items():
        sample = sample_domain(seq.domain, 9, refine_side=refine, refine_depth=10)
        p_max = _fields("cauchy-criterion")["p_max"]
        direct, criterion = criterion_pair(spaces, seq, sample, 0.1, 0.1, p_max)
        records.append(
            CheckRecord(
                name=f"criterion-agreement/{name}", anchor=anchor,
                verdict=pass_if(direct.verdict == criterion.verdict),
                details={"direct": direct.summary(), "criterion": criterion.summary()},
                seed=seed, work=2 * seq.budget * len(sample.all_points()),  # both read every point
            )
        )
    return records


def _run_example_4_verification(seed: int) -> list[CheckRecord]:
    anchor = (
        "tail-difference verification on [0, a]: the deviation sup |x^n - x^m| "
        "is bounded by a^m; the doubled bound 2 a^m is conservative"
    )
    c = _fields("sup-oracle", a=0.5, m=2, n=4)
    rec = sup_oracle_record(FunctionSequence("power", Interval(0.0, 0.5)), c, seed)
    sup, bound, doubled = (rec.details[k] for k in ("sup", "analytic_bound", "doubled_bound"))
    a = c["a"]
    conservative = math.floor(math.log(2.0 * (1.0 - 0.1) / (0.1 * 0.1)) / math.log(1.0 / a)) + 1
    radius = membership_radius(make_standard_space(1.0, verify=False), 0.1, 0.1)  # k = 1, as 4.x
    details = rec.details | {
        "discrepancy": doubled - sup,
        "tight_index": closed_form_index_power(a, radius),
        "conservative_index": conservative,
    }
    ok = abs(sup - 0.1875) <= 1e-6 and sup < doubled and sup <= bound
    return [
        rec._replace(name="sup-deviation/power", anchor=anchor, verdict=pass_if(ok), details=details)
    ]


def _run_uniform_limit(seed: int) -> list[CheckRecord]:
    anchor = (
        "a uniformly convergent sequence of continuous maps has a continuous "
        "limit; the converse fails"
    )
    spaces = _funcseq_spaces()
    half = FunctionSequence("power", Interval(0.0, 0.5))
    open_unit = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
    cases = (
        ("power-closed-half", half, sample_domain(half.domain, 9), VERDICT_UNIFORM),
        (
            "power-open-unit-converse",
            open_unit,
            sample_domain(open_unit.domain, 9, refine_side="hi", refine_depth=10),
            VERDICT_NOT_UNIFORM,
        ),
    )
    return [
        _expect(uniform_limit_record(spaces, seq, sample, 0.1, 0.1, _fields("uniform-limit"), seed),
                f"uniform-limit/{name}", anchor, uniform_verdict=uniform)
        for name, seq, sample, uniform in cases
    ]


def _run_mutation_detection(seed: int) -> list[CheckRecord]:
    anchor = "axiom checker sensitivity: each broken space is flagged on its target axiom"
    plan = default_plan(1, seed)
    return [
        _axioms_record(f"mutation/{target}", anchor, seed, plan, space, target,
                       description=description)
        for target, (space, description) in broken_spaces().items()
    ]


_RUNNERS = paired(DESCRIPTIONS, {
    "note-3.3": _run_note_3_3,
    "example-3.15": _run_example_3_15,
    "theorem-2.10": _run_theorem_2_10,
    "theorem-3.1-3.2": _run_closure,
    "theorem-3.7": _run_theorem_3_7,
    "theorem-3.11": _run_theorem_3_11,
    "theorem-3.13": _run_theorem_3_13,
    "theorem-3.14": _run_theorem_3_14,
    "example-4-power": _run_example_4_power,
    "example-4-quotient": _run_example_4_quotient,
    "theorem-4-cauchy-criterion": _run_cauchy_criterion,
    "example-4-verification": _run_example_4_verification,
    "uniform-limit-theorem": _run_uniform_limit,
    "definition-2.4-mutations": _run_mutation_detection,
})
CATALOG: dict[str, tuple[str, Callable[[int], list[CheckRecord]]]] = {
    name: (description, _RUNNERS[name]) for name, description in DESCRIPTIONS.items()
}


def run_catalog(name: str, seed: int = 0) -> list[CheckRecord]:
    if name not in CATALOG:
        raise UnknownTag(f"unknown catalog scenario {name!r}; see list-catalog")
    return CATALOG[name][1](seed)
