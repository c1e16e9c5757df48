"""Scenario dispatch: a validated configuration in, a verification report
out.  Exit-status semantics live in the CLI; this module only computes."""

from __future__ import annotations

import numpy as np

from . import catalog as _catalog
from .config_schema import (
    CHECK_FIELDS,
    SET_FIELDS,
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
from .continuity import (
    cauchy_preservation_check,
    continuity_witness_search,
    equivalence_probe,
    sequential_continuity_check,
    uniform_continuity_search,
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
from .function_sequences import (
    _ORACLE_GRID,
    classical_uniform_probe,
    pointwise_limit_estimate,
    sup_deviation_oracle,
    uniform_cauchy_check,
    uniform_index_sweep,
    uniform_limit_scenario,
)
from .ifn_core import check_ifn_axioms
from .point_convergence import (
    cauchy_index,
    classical_equivalence_probe,
    convergence_index,
    shifted_reciprocal_sequence,
)
from .report import FAIL, INCONCLUSIVE, INFO, PASS, CheckRecord, VerificationReport
from .sampling import as_point
from .topology import (
    OpenBall,
    SampledSet,
    ball_classical_radius,
    ball_contains,
    inner_ball_witnesses,
    preimage_open_check,
    set_is_open_sampled,
)

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


def run_scenario(config: dict, kind: str | None = None, seed: int | None = None) -> VerificationReport:
    """Validate and execute one scenario configuration.

    The resolved seed overrides any seed inside the config; all randomness
    downstream flows from it.
    """
    scenario = validate_config(config, kind)
    resolved_seed = seed if seed is not None else int(config.get("seed", 0))
    runner = _RUNNERS[scenario]
    try:
        records = runner(config, resolved_seed)
    except DomainError as exc:
        # a point, parameter or map image outside its domain comes from the config
        raise ConfigError(str(exc)) from exc
    return VerificationReport(scenario, config, resolved_seed, tuple(records))


def _run_axioms(config: dict, seed: int) -> list[CheckRecord]:
    space = build_space(config["space"])
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


def _run_converge(config: dict, seed: int) -> list[CheckRecord]:
    space = build_space(config["space"])
    seq = build_sequence(config["sequence"])
    try:
        limit = as_point(config["limit"], space.dimension)
    except IFNError as exc:
        raise ConfigError(f"limit: {exc}") from exc
    records = []
    for check in config["checks"]:
        kind, c = check["kind"], fields_of(CHECK_FIELDS["converge"], check)
        if kind == "classical-probe":
            # the probe runs its own fixed grid; its record keeps the name
            # of the default demand
            rts = [(0.5, 1.0)]
        else:
            rts = [(r, t) for r in as_list(c["r"]) for t in as_list(c["t"])]
        for r, t in rts:
            if kind == "classical-probe":
                rec = classical_equivalence_probe(space, seq, limit)
                summary = {
                    "ifn_converged": rec.ifn_converged,
                    "classical_converged": rec.classical_converged,
                    "agree": rec.agree,
                }
                verdict = PASS if rec.agree else FAIL
            else:
                if kind == "convergence":
                    cert = convergence_index(space, seq, limit, r, t)
                else:
                    cert = cauchy_index(space, seq, r, t, c["p_max"])
                summary, verdict = cert.summary(), _verdict_of(cert.status)
            records.append(
                CheckRecord(
                    name=f"{kind}/r{r}-t{t}",
                    anchor=f"membership convergence of {seq.family} sequence",
                    verdict=verdict,
                    details=summary,
                    budgets={"N": seq.budget},
                    seed=seed,
                    work=seq.budget,
                )
            )
    return records


def _run_continuity(config: dict, seed: int) -> list[CheckRecord]:
    U = build_space(config["domain_space"])
    V = build_space(config["codomain_space"])
    f = build_map(config["map"], U, V)
    points = config["points"]
    records = []
    for check in config["checks"]:
        kind, c = check["kind"], fields_of(CHECK_FIELDS["continuity"], check)
        for x0 in points:
            counterexamples = []
            if kind == "witness":
                w = continuity_witness_search(f, x0, c["epsilon"], c["alpha"], seed=seed)
                verdict, details, work = _verdict_of(w.verdict), w.summary(), w.probes_checked
                counterexamples = [w.counterexample] if w.counterexample else []
            else:
                seqs = [shifted_reciprocal_sequence(x0, c["sequence_offset"], budget=c["budget"])]
                try:
                    if kind == "sequential":
                        s = sequential_continuity_check(f, x0, seqs, c["r"], c["t"])
                        verdict, work = PASS if s.continuous else FAIL, c["budget"]
                    else:
                        s = equivalence_probe(
                            f, x0, c["epsilon"], c["alpha"], seqs, c["r"], c["t"], seed=seed
                        )
                        verdict, work = PASS if s.agree else FAIL, s.witness.probes_checked + c["budget"]
                except CertificationError as exc:
                    raise ConfigError(f"precondition: {exc}") from exc
                details = s.summary()
            records.append(
                CheckRecord(
                    name=f"{kind}/x0-{x0}", anchor=f"continuity of {f.rule.describe()} at {x0}",
                    verdict=verdict, details=details, counterexamples=counterexamples,
                    seed=seed, work=work,
                )
            )
    return records


def _run_uniform(config: dict, seed: int) -> list[CheckRecord]:
    U = build_space(config["domain_space"])
    V = build_space(config["codomain_space"])
    f = build_map(config["map"], U, V)
    records = []
    for check in config["checks"]:
        kind, c = check["kind"], fields_of(CHECK_FIELDS["uniform-continuity"], check)
        counterexamples, budgets = [], {}
        if kind == "uniform-witness":
            u = uniform_continuity_search(f, c["epsilon"], c["alpha"], seed=seed)
            anchor, work = "uniform continuity of", u.pairs_checked
            counterexamples = [u.counterexample] if u.counterexample else []
        else:
            try:
                u = cauchy_preservation_check(
                    f, build_sequence(c["sequence"]),
                    r=c["r"], t=c["t"], p_max=c["p_max"], budgets=tuple(c["budgets"]),
                )
            except CertificationError as exc:
                raise ConfigError(f"precondition: {exc}") from exc
            anchor, work = "Cauchy preservation under", sum(u.budgets)
            budgets = {"budgets": list(u.budgets)}
        records.append(
            CheckRecord(
                name=kind, anchor=f"{anchor} {f.rule.describe()}", verdict=_verdict_of(u.verdict),
                details=u.summary(), counterexamples=counterexamples, budgets=budgets,
                seed=seed, work=work,
            )
        )
    return records


def _build_set(cfg: dict, space):
    kind, s = cfg["kind"], fields_of(SET_FIELDS, cfg)
    if kind == "norm-ball":
        radius = s["params"][0] if s["params"] else 1.0
        pred = lambda pts: space.norm(pts) < radius if space.norm else np.linalg.norm(pts, axis=1) < radius
        default_members = np.linspace(-0.9, 0.9, 5).reshape(-1, 1) * radius
        desc = f"norm ball of radius {radius}"
    elif kind == "interval":
        lo, hi = s["params"]
        pred = lambda pts: (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
        default_members = np.array([[lo], [0.5 * (lo + hi)], [hi]])
        desc = f"closed interval [{lo}, {hi}]"
    else:
        pred = lambda pts: np.ones(len(pts), dtype=bool)
        default_members = np.zeros((1, space.dimension))
        desc = "whole space"
    members = s["members"]
    if members is not None:
        arr = np.asarray([as_point(m, space.dimension) for m in members])
    else:
        arr = default_members
    try:
        return SampledSet(pred, arr, desc)
    except InvalidParameter as exc:
        field = "members" if members is not None else "params"
        raise ConfigError(f"set {field}: {exc} ({desc})") from exc


def _run_topology(config: dict, seed: int) -> list[CheckRecord]:
    space = build_space(config["space"])
    plan = build_plan(config.get("plan"), space.dimension, seed)
    records = []
    for i, check in enumerate(config["checks"]):
        kind, c = check["kind"], fields_of(CHECK_FIELDS["topology"], check)
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
        elif kind == "set-open":
            rec = set_is_open_sampled(space, _build_set(c["set"], space), plan)
            anchor, verdict = "sampled openness of a set", PASS if rec.all_open else FAIL
            details, plan_summary, work = rec.summary(), plan.summary(), len(rec.per_point) * 200
        else:
            b = c["ball"]
            target = OpenBall(as_point(b["center"], 1), b["r"], b["t"])
            pre = preimage_open_check(build_map(c["map"], space, space), target, plan)
            anchor = "preimages of open balls under continuous maps are open"
            verdict = PASS if pre.open_verdict else FAIL
            details, plan_summary, work = pre.summary(), plan.summary(), pre.witnesses * 200
        records.append(
            CheckRecord(
                name=f"{kind}/{i}", anchor=anchor, verdict=verdict, details=details,
                plan=plan_summary, seed=seed, work=work,
            )
        )
    return records


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
    swept = len(config["funcseq"].get("hi_sweep", ())) > 1
    suffix = f"-hi{seq.domain.hi}" if swept else ""
    records = []
    for check in config["checks"]:
        kind, c = check["kind"], fields_of(CHECK_FIELDS["funcseq"], check)
        if kind == "sup-oracle":
            a, m, n = c["a"], c["m"], c["n"]
            sup = sup_deviation_oracle(seq, a, m, n)
            records.append(
                CheckRecord(
                    name=f"sup-oracle{suffix}/a{a}-m{m}-n{n}",
                    anchor="brute-force tail-deviation supremum on [0, a]",
                    verdict=INFO,
                    details={
                        "sup": sup,
                        "analytic_bound": a ** m,
                        "doubled_bound": 2 * a ** m,
                    },
                    seed=seed, work=_ORACLE_GRID,
                )
            )
            continue
        rs, ts = as_list(c["r"]), as_list(c["t"])
        if kind == "uniform-index":
            # one values matrix serves the grid, in the loop's r-major order
            sweep = iter(
                uniform_index_sweep(spaces, seq, sample, [(r, t) for r in rs for t in ts])
            )
        for r in rs:
            for t in ts:
                name, row = f"{kind}{suffix}/r{r}-t{t}", None
                if kind == "pointwise":
                    x = c["x"] if c["x"] is not None else sample.points[len(sample.points) // 2]
                    limit, cert = pointwise_limit_estimate(spaces, seq, x, r, t)
                    name = f"{kind}{suffix}/x{x}-r{r}-t{t}"
                    anchor = f"pointwise convergence of the {seq.family} sequence"
                    verdict = _verdict_of(cert.status)
                    details, work = {"limit": limit, "certificate": cert.summary()}, seq.budget
                elif kind in ("uniform-index", "cauchy-criterion"):
                    if kind == "uniform-index":
                        cert = next(sweep)
                        anchor = f"uniform convergence index of the {seq.family} sequence"
                        row = _catalog.sweep_csv_row(seq, cert)
                    else:
                        cert = uniform_cauchy_check(spaces, seq, sample, r, t, c["p_max"])
                        anchor = "uniform Cauchy tail criterion"
                    verdict, details = _verdict_of(cert.verdict), cert.summary()
                    work = seq.budget * len(cert.per_point_index)
                elif kind == "classical-probe":
                    rec = classical_uniform_probe(spaces, seq, sample, r, t)
                    anchor = "membership versus classical sup-norm uniform convergence"
                    verdict, details = PASS if rec.agree else FAIL, rec.summary()
                    work = seq.budget * len(sample.all_points())
                else:
                    rec = uniform_limit_scenario(
                        spaces, seq, sample, r, t,
                        c["epsilon"], c["alpha"], seed=seed,
                    )
                    anchor = "continuity of the limit under uniform convergence"
                    verdict = PASS if rec.limit_continuous_everywhere else FAIL
                    details, work = rec.summary(), seq.budget
                records.append(
                    CheckRecord(
                        name=name, anchor=anchor, verdict=verdict, details=details,
                        seed=seed, work=work, csv_row=row,
                    )
                )
    return records


def _run_catalog(config: dict, seed: int) -> list[CheckRecord]:
    try:
        return _catalog.run_catalog(config["name"], seed)
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
