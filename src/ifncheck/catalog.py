"""Named scenario catalog: each entry reproduces one worked example or
theorem statement at desk scale and reports pass/fail records.

Every scenario name maps to exactly one statement; the anchor string in
each record names that statement.  All randomness flows from the single
seed argument.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .continuity import (
    cauchy_preservation_check,
    combine,
    continuity_witness_search,
    equivalence_probe,
    make_map,
    recheck_witness,
    rule,
    uniform_continuity_search,
)
from .errors import UnknownTag, WitnessNotFound
from .function_sequences import (
    _ORACLE_GRID,
    FunctionSequence,
    classical_uniform_probe,
    closed_form_index_power,
    pointwise_limit_estimate,
    sample_domain,
    sup_deviation_oracle,
    uniform_cauchy_check,
    uniform_index_search,
    uniform_index_sweep,
    uniform_limit_scenario,
)
from .ifn_core import (
    IFNSpace,
    check_ifn_axioms,
    custom_membership,
    make_example_family,
    make_standard_space,
)
from .norm_algebra import TriangularConorm, TriangularNorm
from .point_convergence import (
    classical_equivalence_probe,
    reciprocal_sequence,
    shifted_reciprocal_sequence,
)
from .report import FAIL, INFO, PASS, CheckRecord
from .sampling import Interval, default_plan
from .topology import (
    OpenBall,
    ball_classical_radius,
    inner_ball_witness,
    preimage_open_check,
)

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

    nu_doubled = custom_membership(lambda p, t: np.minimum(1.0, 2.0 * nu_std.eval(p, t)))

    def m_kinked(p):
        a = absx(p)
        return k * a + 0.5 * np.minimum(a, 1.0)

    mu_kinked = custom_membership(lambda p, t: t / (t + m_kinked(p)), radial=True)
    nu_kinked = custom_membership(lambda p, t: m_kinked(p) / (t + m_kinked(p)), radial=True)

    def m_sq(p):
        a = absx(p)
        return k * a * a

    mu_sq = custom_membership(lambda p, t: t / (t + m_sq(p)), radial=True)
    nu_sq = custom_membership(lambda p, t: m_sq(p) / (t + m_sq(p)), radial=True)

    def mu_halved(p, t):
        a = absx(p)
        return np.where(a == 0.0, 1.0, t / (2.0 * t + k * a))

    def warp(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 1.0, t, np.where(t <= 2.0, 1.0, t - 1.0))

    mu_plateau = custom_membership(lambda p, t: warp(t) / (warp(t) + k * absx(p)), radial=True)
    nu_plateau = custom_membership(lambda p, t: k * absx(p) / (warp(t) + k * absx(p)), radial=True)

    return {
        "i": (space(mu_std, nu_doubled), "nu doubled: mu + nu exceeds 1"),
        "iv": (space(mu_kinked, nu_kinked), "kinked radial profile breaks scaling"),
        "v": (space(mu_sq, nu_sq), "squared radius is superadditive: mu triangle fails"),
        "vi": (space(custom_membership(mu_halved, radial=True), nu_std), "mu plateaus at 1/2: limit in t is not 1"),
        "x": (space(mu_std, nu_sq), "squared-radius nu: nu triangle fails"),
        "xv": (space(mu_plateau, nu_plateau), "time plateau: mu(x,.) not strictly increasing"),
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


def _verdict(ok: bool) -> str:
    return PASS if ok else FAIL


def _run_note_3_3(seed: int) -> list[CheckRecord]:
    anchor = (
        "standard construction: mu = t/(t + k||x||), nu = k||x||/(t + k||x||) "
        "is an intuitionistic fuzzy norm; convergence agrees with the classical norm"
    )
    records = []
    for k in (0.5, 1.0, 2.0):
        for d in (1, 3):
            plan = default_plan(d, seed)
            space = make_standard_space(k, dimension=d, verify=False)
            rep = check_ifn_axioms(space, tier="strict", plan=plan)
            records.append(
                CheckRecord(
                    name=f"axioms/standard-k{k}-d{d}",
                    anchor=anchor,
                    verdict=_verdict(rep.passed),
                    details={"violated": list(rep.violated())},
                    budgets={"grid": plan.vector_grid.shape[0]},
                    plan=plan.summary(),
                    seed=seed,
                    work=sum(r.checked for r in rep.results),
                )
            )
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
                verdict=_verdict(rec.agree),
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
    records = []
    for x0 in (0.1, 0.25, 0.5, 0.9):
        w = continuity_witness_search(f, x0, epsilon=1.0, alpha=0.5, seed=seed)
        records.append(
            CheckRecord(
                name=f"continuity/reciprocal-at-{x0}",
                anchor=anchor,
                verdict=_verdict(w.witnessed and recheck_witness(f, w, seed=seed)),
                details=w.summary(),
                witnesses=[{"delta": w.delta, "beta": w.beta}] if w.witnessed else [],
                seed=seed,
                work=w.probes_checked,
            )
        )
    u = uniform_continuity_search(f, epsilon=1.0, alpha=0.5, seed=seed)
    records.append(
        CheckRecord(
            name="uniform-continuity/reciprocal",
            anchor=anchor,
            verdict=_verdict(u.verdict == "refuted"),
            details=u.summary(),
            counterexamples=[u.counterexample] if u.counterexample else [],
            seed=seed,
            work=u.pairs_checked,
        )
    )
    rec = cauchy_preservation_check(f, reciprocal_sequence(budget=8000), r=0.5, t=1.0)
    records.append(
        CheckRecord(
            name="cauchy-preservation/reciprocal",
            anchor=anchor,
            verdict=_verdict(rec.verdict == "refutes-uniform-continuity"),
            details=rec.summary(),
            budgets={"budgets": list(rec.budgets)},
            seed=seed,
            work=sum(rec.budgets) * 100,
        )
    )
    return records


def _run_theorem_2_10(seed: int) -> list[CheckRecord]:
    anchor = "continuity and sequential continuity are equivalent"
    records = []
    f = _example_315_map()
    for x0 in (0.25, 0.5):
        probe = equivalence_probe(
            f, x0, epsilon=1.0, alpha=0.5,
            sequences=[shifted_reciprocal_sequence(x0, 10.0, budget=20000)],
            r=0.2, t=0.5, seed=seed,
        )
        records.append(
            CheckRecord(
                name=f"equivalence/reciprocal-at-{x0}",
                anchor=anchor,
                verdict=_verdict(probe.agree and not probe.disagreement_is_bug),
                details=probe.summary(),
                seed=seed,
                work=probe.witness.probes_checked,
            )
        )
    U = make_standard_space(1.0)
    idm = make_map(U, U, rule("identity"), Interval(-1.0, 1.0))
    probe = equivalence_probe(
        idm, 0.0, 1.0, 0.5, [shifted_reciprocal_sequence(0.0, 5.0, budget=20000)],
        r=0.2, t=0.5, seed=seed,
    )
    records.append(
        CheckRecord(
            name="equivalence/identity",
            anchor=anchor,
            verdict=_verdict(probe.agree),
            details=probe.summary(),
            seed=seed,
            work=probe.witness.probes_checked,
        )
    )
    return records


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
        ws = [continuity_witness_search(h, x0, 0.5, 0.25, seed=seed) for x0 in points]
        ok = all(w.witnessed for w in ws)
        records.append(
            CheckRecord(
                name=f"closure/{name}",
                anchor=anchor,
                verdict=_verdict(ok),
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
        failures = 0
        for m in members:
            # the witness post-verifies containment on _VERIFY_POINTS samples
            try:
                inner_ball_witness(space, ball, m, verify_points=_VERIFY_POINTS, seed=seed)
            except WitnessNotFound:
                failures += 1
        records.append(
            CheckRecord(
                name=f"inner-ball/ball-{i}",
                anchor=anchor,
                verdict=_verdict(failures == 0),
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
    target = OpenBall(np.array([0.0]), 0.5, 1.0)
    cases = {
        "identity": make_map(U, U, rule("identity"), Interval(-2.0, 2.0)),
        "doubling": make_map(U, U, rule("affine", 2.0, 0.0), Interval(-2.0, 2.0)),
    }
    records = []
    for name, f in cases.items():
        pre = preimage_open_check(f, target, plan)
        records.append(
            CheckRecord(
                name=f"preimage-open/{name}",
                anchor=anchor,
                verdict=_verdict(pre.open_verdict),
                details=pre.summary(),
                plan=plan.summary(),
                seed=seed,
                work=pre.witnesses * 200,
            )
        )
    step = make_map(U, U, rule("step", 0.0), Interval(-1.0, 1.0))
    pre = preimage_open_check(step, OpenBall(np.array([1.0]), 0.3, 0.5), plan)
    records.append(
        CheckRecord(
            name="preimage-open/step-boundary",
            anchor=anchor,
            verdict=_verdict(not pre.open_verdict),
            details=pre.summary(),
            plan=plan.summary(),
            seed=seed,
            work=pre.witnesses * 200,
        )
    )
    return records


def _run_theorem_3_13(seed: int) -> list[CheckRecord]:
    anchor = "a uniformly continuous map sends Cauchy sequences to Cauchy sequences"
    U = make_standard_space(1.0)
    f = make_map(U, U, rule("affine", 2.0, 0.0), Interval(0.0, 1.0, open_lo=True, open_hi=True))
    u = uniform_continuity_search(f, 1.0, 0.5, seed=seed)
    rec = cauchy_preservation_check(f, reciprocal_sequence(budget=8000), r=0.5, t=1.0)
    return [
        CheckRecord(
            name="cauchy-preservation/doubling",
            anchor=anchor,
            verdict=_verdict(u.witnessed and rec.verdict == "preserved"),
            details={"uniform": u.summary(), "preservation": rec.summary()},
            seed=seed,
            work=u.pairs_checked + 8000 * 100,
        )
    ]


def _run_theorem_3_14(seed: int) -> list[CheckRecord]:
    anchor = "uniform continuity implies continuity; the converse fails"
    records = []
    U = make_standard_space(1.0)
    f = make_map(U, U, rule("affine", 2.0, 0.0), Interval(0.0, 1.0))
    u = uniform_continuity_search(f, 1.0, 0.5, seed=seed)
    contained = u.witnessed
    if u.witnessed:
        for x0 in (0.1, 0.5, 0.9):
            w = continuity_witness_search(f, x0, 1.0, 0.5, seed=seed)
            contained &= w.witnessed and recheck_witness(
                f, w, delta=u.delta, beta=u.beta, seed=seed
            )
    records.append(
        CheckRecord(
            name="containment/doubling",
            anchor=anchor,
            verdict=_verdict(contained),
            details={"uniform": u.summary()},
            seed=seed,
            work=u.pairs_checked,
        )
    )
    g = _example_315_map()
    w = continuity_witness_search(g, 0.5, 1.0, 0.5, seed=seed)
    ug = uniform_continuity_search(g, 1.0, 0.5, seed=seed)
    records.append(
        CheckRecord(
            name="converse/reciprocal",
            anchor=anchor,
            verdict=_verdict(w.witnessed and ug.verdict == "refuted"),
            details={"pointwise": w.summary(), "uniform": ug.summary()},
            seed=seed,
            work=w.probes_checked + ug.pairs_checked,
        )
    )
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
    records = []
    open_unit = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
    for x in (0.25, 0.5, 0.75):
        limit, cert = pointwise_limit_estimate(spaces, open_unit, x, 0.1, 0.1)
        records.append(
            CheckRecord(
                name=f"pointwise/power-at-{x}",
                anchor=anchor,
                verdict=_verdict(limit == 0.0 and cert.certified),
                details={"limit": limit, "certificate": cert.summary()},
                seed=seed,
                work=cert.budget_n,
            )
        )
    half = FunctionSequence("power", Interval(0.0, 0.5))
    sample = sample_domain(half.domain, 17)
    cert = uniform_index_search(spaces, half, None, sample, 0.1, 0.1)
    records.append(
        CheckRecord(
            name="uniform-index/power-closed-half",
            anchor=anchor,
            verdict=_verdict(cert.uniform and cert.n0 == 7),
            details=cert.summary()
            | {"per_point_index": [[x, i] for x, i in cert.per_point_index]},
            seed=seed,
            work=cert.budget * len(cert.per_point_index),
        )
    )
    refined = sample_domain(open_unit.domain, 17, refine_side="hi", refine_depth=10)
    cert_open = uniform_index_search(spaces, open_unit, None, refined, 0.1, 0.1)
    records.append(
        CheckRecord(
            name="uniform-index/power-open-unit",
            anchor=anchor,
            verdict=_verdict(cert_open.verdict == "not-uniform-on-sample"),
            details=cert_open.summary()
            | {"per_point_index": [[x, i] for x, i in cert_open.per_point_index]},
            witnesses=[{"ladder_indices": list(cert_open.ladder_indices)}],
            seed=seed,
            work=cert_open.budget * len(cert_open.per_point_index),
        )
    )
    # index sweep table over (r, t); the closed-form column applies to the
    # power family only
    rts = [(round(0.1 * i, 1), t) for i in range(1, 10) for t in (0.1, 1.0, 10.0)]
    for (r, t), c in zip(rts, uniform_index_sweep(spaces, half, None, sample, rts)):
        records.append(
            CheckRecord(
                name=f"sweep/power-r{r}-t{t}",
                anchor=anchor,
                verdict=INFO,
                details={},
                seed=seed,
                work=c.budget,
                csv_row={
                    "family": "power",
                    "domain_lo": 0.0,
                    "domain_hi": 0.5,
                    "r": r,
                    "t": t,
                    "n0": c.n0,
                    "verdict": c.verdict,
                    "paper_k": closed_form_index_power(0.5, r, t),
                },
            )
        )
    return records


def _run_example_4_quotient(seed: int) -> list[CheckRecord]:
    anchor = "g_n(x) = n/(x+n) converges to 1 pointwise and uniformly on [0, 10]"
    spaces = _funcseq_spaces()
    seq = FunctionSequence("quotient", Interval(0.0, 10.0))
    sample = sample_domain(seq.domain, 11)
    records = []
    limit, cert = pointwise_limit_estimate(spaces, seq, 1.0, 0.1, 0.5)
    records.append(
        CheckRecord(
            name="pointwise/quotient-at-1",
            anchor=anchor,
            verdict=_verdict(limit == 1.0 and cert.certified),
            details={"limit": limit, "certificate": cert.summary()},
            seed=seed,
            work=cert.budget_n,
        )
    )
    ucert = uniform_index_search(spaces, seq, None, sample, 0.1, 0.1)
    probe = classical_uniform_probe(spaces, seq, None, sample, 0.1, 0.1)
    records.append(
        CheckRecord(
            name="uniform-index/quotient",
            anchor=anchor,
            verdict=_verdict(ucert.uniform and probe.agree),
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
        direct = uniform_index_search(spaces, seq, None, sample, 0.1, 0.1)
        criterion = uniform_cauchy_check(spaces, seq, sample, 0.1, 0.1)
        agree = direct.verdict == criterion.verdict
        records.append(
            CheckRecord(
                name=f"criterion-agreement/{name}",
                anchor=anchor,
                verdict=_verdict(agree),
                details={
                    "direct": direct.summary(),
                    "criterion": criterion.summary(),
                },
                seed=seed,
                work=seq.budget * len(direct.per_point_index) * 2,
            )
        )
    return records


def _run_example_4_verification(seed: int) -> list[CheckRecord]:
    anchor = (
        "tail-difference verification on [0, a]: the deviation sup |x^n - x^m| "
        "is bounded by a^m; the doubled bound 2 a^m is conservative"
    )
    seq = FunctionSequence("power", Interval(0.0, 0.5))
    a, m, n = 0.5, 2, 4
    sup = sup_deviation_oracle(seq, a, m, n)
    doubled = 2.0 * a ** m
    tight = closed_form_index_power(a, 0.1, 0.1)
    import math

    conservative = math.floor(math.log(2.0 * (1.0 - 0.1) / (0.1 * 0.1)) / math.log(1.0 / a)) + 1
    return [
        CheckRecord(
            name="sup-deviation/power",
            anchor=anchor,
            verdict=_verdict(abs(sup - 0.1875) <= 1e-6 and sup < doubled and sup <= a ** m),
            details={
                "sup": sup,
                "analytic_bound": a ** m,
                "doubled_bound": doubled,
                "discrepancy": doubled - sup,
                "tight_index": tight,
                "conservative_index": conservative,
            },
            seed=seed,
            work=_ORACLE_GRID,
        )
    ]


def _run_uniform_limit(seed: int) -> list[CheckRecord]:
    anchor = (
        "a uniformly convergent sequence of continuous maps has a continuous "
        "limit; the converse fails"
    )
    spaces = _funcseq_spaces()
    records = []
    half = FunctionSequence("power", Interval(0.0, 0.5))
    rec = uniform_limit_scenario(
        spaces, half, sample_domain(half.domain, 9), 0.1, 0.1, 0.5, 0.25, seed=seed
    )
    records.append(
        CheckRecord(
            name="uniform-limit/power-closed-half",
            anchor=anchor,
            verdict=_verdict(
                rec.certificate.uniform and rec.limit_continuous_everywhere
            ),
            details=rec.summary(),
            seed=seed,
            work=rec.certificate.budget,
        )
    )
    open_unit = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
    rec = uniform_limit_scenario(
        spaces,
        open_unit,
        sample_domain(open_unit.domain, 9, refine_side="hi", refine_depth=10),
        0.1,
        0.1,
        0.5,
        0.25,
        seed=seed,
    )
    records.append(
        CheckRecord(
            name="uniform-limit/power-open-unit-converse",
            anchor=anchor,
            verdict=_verdict(
                rec.certificate.verdict == "not-uniform-on-sample"
                and rec.limit_continuous_everywhere
            ),
            details=rec.summary(),
            seed=seed,
            work=rec.certificate.budget,
        )
    )
    return records


def _run_mutation_detection(seed: int) -> list[CheckRecord]:
    anchor = "axiom checker sensitivity: each broken space is flagged on its target axiom"
    plan = default_plan(1, seed)
    records = []
    for target, (space, description) in broken_spaces().items():
        rep = check_ifn_axioms(space, tier="strict", plan=plan)
        flagged = target in rep.violated()
        witness = None
        if flagged:
            v = rep.result(target).violations[0]
            witness = {"point": list(v.point), "detail": v.detail}
        records.append(
            CheckRecord(
                name=f"mutation/{target}",
                anchor=anchor,
                verdict=_verdict(flagged),
                details={"description": description, "violated": list(rep.violated())},
                witnesses=[witness] if witness else [],
                plan=plan.summary(),
                seed=seed,
                work=sum(r.checked for r in rep.results),
            )
        )
    return records


CATALOG: dict[str, tuple[str, Callable[[int], list[CheckRecord]]]] = {
    "note-3.3": ("standard family axioms and classical equivalence", _run_note_3_3),
    "example-3.15": ("1/x continuity versus uniform continuity on (0,1)", _run_example_3_15),
    "theorem-2.10": ("continuity equals sequential continuity", _run_theorem_2_10),
    "theorem-3.1-3.2": ("algebra of continuous maps", _run_closure),
    "theorem-3.7": ("open balls are open sets", _run_theorem_3_7),
    "theorem-3.11": ("preimage characterisation of continuity", _run_theorem_3_11),
    "theorem-3.13": ("uniform continuity preserves Cauchy sequences", _run_theorem_3_13),
    "theorem-3.14": ("uniform continuity implies continuity, converse fails", _run_theorem_3_14),
    "example-4-power": ("power sequence: pointwise versus uniform convergence", _run_example_4_power),
    "example-4-quotient": ("quotient sequence converges uniformly", _run_example_4_quotient),
    "theorem-4-cauchy-criterion": ("uniform Cauchy criterion agreement", _run_cauchy_criterion),
    "example-4-verification": ("tail-difference sup oracle", _run_example_4_verification),
    "uniform-limit-theorem": ("uniform limit theorem and its converse", _run_uniform_limit),
    "definition-2.4-mutations": ("axiom mutation detection", _run_mutation_detection),
}


def run_catalog(name: str, seed: int = 0) -> list[CheckRecord]:
    if name not in CATALOG:
        raise UnknownTag(f"unknown catalog scenario {name!r}; see list-catalog")
    return CATALOG[name][1](seed)
