"""Scenario dispatch: a validated configuration in, a verification report
out.  Exit-status semantics live in the CLI; this module only computes.

The check kinds the catalog shares each have one record function here: it
takes built objects (a function-sequence kind also one (r, t) demand) and
the kind's fields, `fields_of` its `CHECK_FIELDS` entry, and returns the
kind's `CheckRecord`, so the runners and the catalog build it the same way.

A function imports the runner module it calls (`point_convergence`,
`continuity`, `topology`, `function_sequences`, `catalog`) when it runs, so
a command loads only the modules of its own scenario.
"""

from __future__ import annotations

import numpy as np

from .config_schema import (
    CHECK_FIELDS,
    SCHEMAS,
    SET_FIELDS,
    _config_errors,
    _integers,
    as_list,
    build_funcseq,
    build_map,
    build_plan,
    build_sample,
    build_sequence,
    build_space,
    fields_of,
    validate_config,
)
from .errors import (
    CertificationError,
    ConfigError,
    DomainError,
    IFNError,
    InvalidParameter,
    NoLimit,
    UnsupportedFamily,
    WitnessNotFound,
)
from .ifn_core import check_ifn_axioms, membership_radius
from .report import FAIL, INCONCLUSIVE, INFO, PASS, CheckRecord, VerificationReport
from .sampling import as_point

_STATUS_VERDICT = {
    "certified-up-to-budget": PASS,
    "failed": FAIL,
    "inconclusive": INCONCLUSIVE,
    "witnessed": PASS,
    "refuted": FAIL,
    "uniform-up-to-budget": PASS,
    "not-uniform-on-sample": FAIL,
    "preserved": PASS,
    "refutes-uniform-continuity": FAIL,
}


def _verdict_of(status: str) -> str:
    return _STATUS_VERDICT.get(status, INCONCLUSIVE)


def pass_if(ok: bool) -> str:
    return PASS if ok else FAIL


def _rt_grid(c: dict) -> list:
    """The (r, t) demands of a check's fields, r by r."""
    return [(r, t) for r in as_list(c["r"]) for t in as_list(c["t"])]


def run_scenario(config: dict, kind: str | None = None, seed: int | None = None) -> VerificationReport:
    """Validate and execute one scenario configuration.

    The resolved seed overrides any seed inside the config; all randomness
    downstream flows from it.
    """
    scenario = validate_config(config, kind)
    config = _integers(SCHEMAS[scenario], config)
    resolved_seed = seed if seed is not None else config.get("seed", 0)
    if resolved_seed < 0:
        # numpy's SeedSequence takes non-negative integers only
        raise ConfigError(f"seed must be a non-negative integer, got {resolved_seed}")
    runner = _RUNNERS[scenario]
    try:
        # overflow, NaN and division by zero raise, save where a layer keeps
        # IEEE values in an errstate of its own
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            records = runner(config, resolved_seed)
    except FloatingPointError as exc:
        # a value past binary64 or NaN that no layer names comes from the config
        raise ConfigError(f"non-finite arithmetic: {exc}") from exc
    except DomainError as exc:
        # a point, parameter or map image outside its domain comes from the config
        raise ConfigError(str(exc)) from exc
    except CertificationError as exc:
        # an input sequence that fails a check's precondition comes from the config
        raise ConfigError(f"precondition: {exc}") from exc
    return VerificationReport(scenario, config, resolved_seed, tuple(records))


def _run_axioms(config: dict, seed: int) -> list[CheckRecord]:
    # the check is this command's verdict, not its precondition
    space = build_space(config["space"], verify=False)
    plan = build_plan(config.get("plan"), space.dimension, seed)
    tier = config.get("tier", space.axiom_tier)
    rep = check_ifn_axioms(
        space,
        tier=tier,
        plan=plan,
        include_forcing_conditions=config.get("include_forcing_conditions", False),
    )
    records = []
    for res in rep.results:
        records.append(
            CheckRecord(
                name=f"axiom/{res.roman}",
                anchor=f"membership axiom ({res.roman}): {res.axiom}",
                verdict=PASS if res.passed else FAIL,
                details={"checked": res.checked, "violations": res.total_violations},
                witnesses=[
                    {"point": list(v.point), "detail": v.detail} for v in res.violations[:4]
                ],
                plan=rep.plan,
                seed=seed,
                work=res.checked,
            )
        )
    return records


def _converge_check(kind, space, seq, limit, r, t, c: dict) -> tuple[dict, str]:
    """The details and the verdict of one converge kind at one (r, t) demand."""
    from .point_convergence import cauchy_index, classical_equivalence_probe, convergence_index

    if kind == "classical-probe":
        rec = classical_equivalence_probe(space, seq, limit)
        details = {
            "ifn_converged": rec.ifn_converged,
            "classical_converged": rec.classical_converged,
            "agree": rec.agree,
        }
        return details, PASS if rec.agree else FAIL
    if kind == "convergence":
        cert = convergence_index(space, seq, limit, r, t)
    else:
        cert = cauchy_index(space, seq, r, t, c["p_max"])
    return cert.summary(), _verdict_of(cert.status)


def _run_converge(config: dict, seed: int) -> list[CheckRecord]:
    space = build_space(config["space"])
    seq = build_sequence(config["sequence"])
    with _config_errors("limit"):
        limit = as_point(config["limit"], space.dimension)
    anchor = f"membership convergence of {seq.family} sequence"
    records = []
    for check in config["checks"]:
        kind, c = check["kind"], fields_of(CHECK_FIELDS["converge"], check)
        # the probe runs its own fixed grid, named after the default demand
        rts = [(0.5, 1.0)] if kind == "classical-probe" else _rt_grid(c)
        for r, t in rts:
            details, verdict = _converge_check(kind, space, seq, limit, r, t, c)
            records.append(_demand(
                kind, r, t, anchor, verdict, details, seed, seq.budget, budgets={"N": seq.budget}
            ))
    return records


def _at(kind, f, x0, verdict, details, seed, work, counterexamples=()) -> CheckRecord:
    return CheckRecord(
        name=f"{kind}/x0-{x0}", anchor=f"continuity of {f.rule.describe()} at {x0}",
        verdict=verdict, details=details, counterexamples=list(counterexamples),
        seed=seed, work=work,
    )


def witness_record(f, x0, c: dict, seed: int) -> CheckRecord:
    """A found witness passes only if it also holds on a fresh, denser
    sample; one that does not is inconclusive."""
    from .continuity import continuity_witness_search, recheck_witness

    w = continuity_witness_search(f, x0, c["epsilon"], c["alpha"], seed=seed)
    verdict = _verdict_of(w.verdict)
    if w.witnessed and not recheck_witness(f, w, seed=seed):
        verdict = INCONCLUSIVE
    counterexamples = [w.counterexample] if w.counterexample else []
    return _at("witness", f, x0, verdict, w.summary(), seed, w.probes_checked, counterexamples)


def _approach(x0, c: dict) -> list:
    from .point_convergence import shifted_reciprocal_sequence

    return [shifted_reciprocal_sequence(x0, c["sequence_offset"], budget=c["budget"])]


def sequential_record(f, x0, c: dict, seed: int) -> CheckRecord:
    from .continuity import sequential_continuity_check

    s = sequential_continuity_check(f, x0, _approach(x0, c), c["r"], c["t"])
    return _at("sequential", f, x0, pass_if(s.continuous), s.summary(), seed, c["budget"])


def equivalence_record(f, x0, c: dict, seed: int) -> CheckRecord:
    from .continuity import equivalence_probe

    s = equivalence_probe(
        f, x0, c["epsilon"], c["alpha"], _approach(x0, c), c["r"], c["t"], seed=seed
    )
    work = s.witness.probes_checked + c["budget"]
    return _at("equivalence", f, x0, pass_if(s.agree), s.summary(), seed, work)


_CONTINUITY_KINDS = {
    "witness": witness_record,
    "sequential": sequential_record,
    "equivalence": equivalence_record,
}


def _run_continuity(config: dict, seed: int) -> list[CheckRecord]:
    U = build_space(config["domain_space"])
    V = build_space(config["codomain_space"])
    f = build_map(config["map"], U, V)
    return [
        _CONTINUITY_KINDS[check["kind"]](f, x0, fields_of(CHECK_FIELDS["continuity"], check), seed)
        for check in config["checks"]
        for x0 in config["points"]
    ]


def uniform_witness_record(f, c: dict, seed: int) -> CheckRecord:
    from .continuity import uniform_continuity_search

    u = uniform_continuity_search(f, c["epsilon"], c["alpha"], seed=seed)
    return CheckRecord(
        name="uniform-witness", anchor=f"uniform continuity of {f.rule.describe()}",
        verdict=_verdict_of(u.verdict), details=u.summary(),
        counterexamples=[u.counterexample] if u.counterexample else [],
        seed=seed, work=u.pairs_checked,
    )


def cauchy_preservation_record(f, c: dict, seed: int) -> CheckRecord:
    from .continuity import cauchy_preservation_check

    u = cauchy_preservation_check(
        f, build_sequence(c["sequence"]),
        r=c["r"], t=c["t"], p_max=c["p_max"], budgets=tuple(c["budgets"]),
    )
    return CheckRecord(
        name="cauchy-preservation", anchor=f"Cauchy preservation under {f.rule.describe()}",
        verdict=_verdict_of(u.verdict), details=u.summary(),
        budgets={"budgets": list(u.budgets)}, seed=seed, work=sum(u.budgets),
    )


_UNIFORM_KINDS = {
    "uniform-witness": uniform_witness_record,
    "cauchy-preservation": cauchy_preservation_record,
}


def _run_uniform(config: dict, seed: int) -> list[CheckRecord]:
    U = build_space(config["domain_space"])
    V = build_space(config["codomain_space"])
    f = build_map(config["map"], U, V)
    return [
        _UNIFORM_KINDS[check["kind"]](f, fields_of(CHECK_FIELDS["uniform-continuity"], check), seed)
        for check in config["checks"]
    ]


def _build_set(cfg: dict, space):
    from .topology import SampledSet

    kind, s = cfg["kind"], fields_of(SET_FIELDS, cfg)
    if kind == "norm-ball":
        radius = s["params"][0] if s["params"] else 1.0
        pred = lambda pts: space.norm(pts) < radius if space.norm else np.linalg.norm(pts, axis=1) < radius
        default_members = np.linspace(-0.9, 0.9, 5) * radius
        desc = f"norm ball of radius {radius}"
    elif kind == "interval":
        lo, hi = s["params"]
        pred = lambda pts: (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
        default_members = [lo, 0.5 * (lo + hi), hi]
        desc = f"closed interval [{lo}, {hi}]"
    else:
        pred = lambda pts: np.ones(len(pts), dtype=bool)
        default_members = [0.0]
        desc = "whole space"
    members = s["members"]
    if members is not None:
        arr = np.asarray([as_point(m, space.dimension) for m in members])
    else:
        # default members lie on the first axis of the space
        arr = np.zeros((len(default_members), space.dimension))
        arr[:, 0] = default_members
    try:
        return SampledSet(pred, arr, desc)
    except InvalidParameter as exc:
        field = "members" if members is not None else "params"
        raise ConfigError(f"set {field}: {exc} ({desc})") from exc


def preimage_open_record(space, plan, c: dict, seed: int) -> CheckRecord:
    from .topology import OpenBall, preimage_open_check

    b = c["ball"]
    target = OpenBall(as_point(b["center"], 1), b["r"], b["t"])
    pre = preimage_open_check(build_map(c["map"], space, space), target, plan)
    return CheckRecord(
        name="preimage-open", anchor="preimages of open balls under continuous maps are open",
        verdict=pass_if(pre.open_verdict), details=pre.summary(), plan=plan.summary(),
        seed=seed, work=pre.witnesses * 200,
    )


def _run_topology(config: dict, seed: int) -> list[CheckRecord]:
    from .topology import (
        OpenBall, ball_classical_radius, ball_contains, inner_ball_witnesses, set_is_open_sampled
    )

    space = build_space(config["space"])
    plan = build_plan(config.get("plan"), space.dimension, seed)
    records = []
    for i, check in enumerate(config["checks"]):
        kind, c = check["kind"], fields_of(CHECK_FIELDS["topology"], check)
        if kind == "preimage-open":
            records.append(preimage_open_record(space, plan, c, seed)._replace(name=f"{kind}/{i}"))
            continue
        plan_summary, work = None, 1
        if kind in ("ball-contains", "classical-radius", "inner-ball"):
            b = c["ball"]
            ball = OpenBall(as_point(b["center"], space.dimension), b["r"], b["t"])
        if kind == "ball-contains":
            y = as_point(c["point"], space.dimension)
            anchor, verdict = "open ball membership (strict inequalities)", INFO
            inside = ball_contains(space, ball, y)
            details = {"ball": ball.summary(), "point": list(y), "contained": inside}
        elif kind == "classical-radius":
            anchor, verdict = "classical radius of a standard-family ball", INFO
            details = {"ball": ball.summary(), "rho": ball_classical_radius(space, ball)}
        elif kind == "inner-ball":
            anchor = "every open ball is an open set"
            y = as_point(c["point"], space.dimension)
            # a returned ball passed containment on all 1000 of its sampled points
            (inner,) = inner_ball_witnesses(space, ball, [y], 1000, seed)
            if isinstance(inner, WitnessNotFound):
                verdict, details = FAIL, {"error": str(inner)}
            else:
                verdict, work = PASS, 1000
                details = {"outer": ball.summary(), "inner": inner.summary(), "containment": 1.0}
        else:
            rec = set_is_open_sampled(space, _build_set(c["set"], space), plan)
            anchor, verdict = "sampled openness of a set", PASS if rec.all_open else FAIL
            details, plan_summary, work = rec.summary(), plan.summary(), len(rec.per_point) * 200
        records.append(
            CheckRecord(
                name=f"{kind}/{i}", anchor=anchor, verdict=verdict, details=details,
                plan=plan_summary, seed=seed, work=work,
            )
        )
    return records


def sweep_csv_row(seq, cert, codomain) -> dict:
    """The CSV row of one (r, t) point of a uniform index sweep; the paper's
    closed-form index applies to the power family on [lo, hi] with hi < 1,
    at the codomain's membership radius."""
    from .function_sequences import closed_form_index_power

    hi = seq.domain.hi
    closed_form = seq.family == "power" and 0 < hi < 1
    return {
        "family": seq.family,
        "domain_lo": seq.domain.lo,
        "domain_hi": hi,
        "r": cert.r,
        "t": cert.t,
        "n0": cert.n0,
        "verdict": cert.verdict,
        "paper_k": (
            closed_form_index_power(hi, membership_radius(codomain, cert.r, cert.t))
            if closed_form
            else None
        ),
    }


def _demand(kind, r, t, anchor, verdict, details, seed, work, at="", **more) -> CheckRecord:
    """The record of one (r, t) demand, named after it; `more` sets other fields."""
    return CheckRecord(
        name=f"{kind}/{at}r{r}-t{t}", anchor=anchor, verdict=verdict,
        details=details, seed=seed, work=work, **more,
    )


def _uniform(kind, r, t, anchor, seq, cert, seed, csv_row=None) -> CheckRecord:
    verdict, work = _verdict_of(cert.verdict), seq.budget * len(cert.per_point_index)
    return _demand(kind, r, t, anchor, verdict, cert.summary(), seed, work, csv_row=csv_row)


def uniform_index_records(spaces, seq, sample, rts: list, seed: int) -> list[CheckRecord]:
    """One record per (r, t) of `rts`; one values matrix serves them all."""
    from .function_sequences import uniform_index_sweep

    anchor = f"uniform convergence index of the {seq.family} sequence"
    return [
        _uniform("uniform-index", r, t, anchor, seq, cert, seed, sweep_csv_row(seq, cert, spaces[1]))
        for (r, t), cert in zip(rts, uniform_index_sweep(spaces, seq, sample, rts))
    ]


def pointwise_record(spaces, seq, sample, r, t, c: dict, seed: int) -> CheckRecord:
    from .function_sequences import pointwise_limit_estimate

    x = c["x"] if c["x"] is not None else sample.points[len(sample.points) // 2]
    limit, cert = pointwise_limit_estimate(spaces, seq, x, r, t)
    anchor = f"pointwise convergence of the {seq.family} sequence"
    verdict, details = _verdict_of(cert.status), {"limit": limit, "certificate": cert.summary()}
    return _demand("pointwise", r, t, anchor, verdict, details, seed, seq.budget, at=f"x{x}-")


def cauchy_criterion_record(spaces, seq, sample, r, t, c: dict, seed: int) -> CheckRecord:
    from .function_sequences import uniform_cauchy_check

    cert = uniform_cauchy_check(spaces, seq, sample, r, t, c["p_max"])
    return _uniform("cauchy-criterion", r, t, "uniform Cauchy tail criterion", seq, cert, seed)


def classical_probe_record(spaces, seq, sample, r, t, c: dict, seed: int) -> CheckRecord:
    from .function_sequences import classical_uniform_probe

    rec = classical_uniform_probe(spaces, seq, sample, r, t)
    anchor = "membership versus classical sup-norm uniform convergence"
    work = seq.budget * len(sample.all_points())
    return _demand("classical-probe", r, t, anchor, pass_if(rec.agree), rec.summary(), seed, work)


def uniform_limit_record(spaces, seq, sample, r, t, c: dict, seed: int) -> CheckRecord:
    from .function_sequences import uniform_limit_scenario

    rec = uniform_limit_scenario(spaces, seq, sample, r, t, c["epsilon"], c["alpha"], seed=seed)
    anchor = "continuity of the limit under uniform convergence"
    verdict = pass_if(rec.limit_continuous_everywhere)
    return _demand("uniform-limit", r, t, anchor, verdict, rec.summary(), seed, seq.budget)


def sup_oracle_record(seq, c: dict, seed: int) -> CheckRecord:
    from .function_sequences import _ORACLE_GRID, sup_deviation_oracle

    a, m, n = c["a"], c["m"], c["n"]
    details = {
        "sup": sup_deviation_oracle(seq, a, m, n),
        "analytic_bound": a ** m,
        "doubled_bound": 2 * a ** m,
    }
    return CheckRecord(
        name=f"sup-oracle/a{a}-m{m}-n{n}", anchor="brute-force tail-deviation supremum on [0, a]",
        verdict=INFO, details=details, seed=seed, work=_ORACLE_GRID,
    )


# the kinds that take one (r, t) demand of their fields' grid at a time
_FUNCSEQ_KINDS = {
    "pointwise": pointwise_record,
    "cauchy-criterion": cauchy_criterion_record,
    "classical-probe": classical_probe_record,
    "uniform-limit": uniform_limit_record,
}


def _run_funcseq(config: dict, seed: int) -> list[CheckRecord]:
    U = build_space(config["domain_space"])
    V = build_space(config["codomain_space"])
    if (U.dimension, V.dimension) != (1, 1):
        raise ConfigError(
            f"function sequences are univariate: domain dimension {U.dimension}, "
            f"codomain dimension {V.dimension}"
        )
    spaces = (U, V)
    records = []
    for seq in build_funcseq(config["funcseq"]):
        try:
            records.extend(_funcseq_checks(config, spaces, seq, seed))
        except (NoLimit, UnsupportedFamily) as exc:
            raise ConfigError(
                f"funcseq: family {seq.family!r} on [{seq.domain.lo}, {seq.domain.hi}]: {exc}"
            ) from exc
    return records


def _funcseq_checks(config: dict, spaces, seq, seed: int) -> list[CheckRecord]:
    sample = build_sample(config.get("sample"), seq.domain)
    records = []
    for check in config["checks"]:
        kind, c = check["kind"], fields_of(CHECK_FIELDS["funcseq"], check)
        if kind == "sup-oracle":
            records.append(sup_oracle_record(seq, c, seed))
            continue
        rts = _rt_grid(c)
        if kind == "uniform-index":
            records.extend(uniform_index_records(spaces, seq, sample, rts, seed))
        else:
            records.extend(_FUNCSEQ_KINDS[kind](spaces, seq, sample, r, t, c, seed) for r, t in rts)
    if len(config["funcseq"].get("hi_sweep", ())) > 1:
        # each swept upper endpoint names its records
        suffix = f"-hi{seq.domain.hi}/"
        records = [rec._replace(name=rec.name.replace("/", suffix, 1)) for rec in records]
    return records


def _run_catalog(config: dict, seed: int) -> list[CheckRecord]:
    # imported on use: the catalog itself imports this module's record functions
    from .catalog import run_catalog

    try:
        return run_catalog(config["name"], seed)
    except IFNError as exc:
        raise ConfigError(str(exc)) from exc


_RUNNERS = {
    "axioms": _run_axioms,
    "converge": _run_converge,
    "continuity": _run_continuity,
    "uniform-continuity": _run_uniform,
    "topology": _run_topology,
    "funcseq": _run_funcseq,
    "catalog": _run_catalog,
}
