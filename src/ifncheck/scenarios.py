"""Scenario dispatch: a validated configuration in, a verification report
out.  Exit-status semantics live in the CLI; this module only computes."""

from __future__ import annotations

import numpy as np

from . import catalog as _catalog
from .config_schema import (
    as_list,
    build_funcseq,
    build_map,
    build_plan,
    build_sample,
    build_sequence,
    build_space,
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
    inner_ball_witness,
    preimage_open_check,
    set_is_open_sampled,
    verify_containment,
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
        kind = check["kind"]
        for r in as_list(check.get("r", 0.5)):
            for t in as_list(check.get("t", 1.0)):
                if kind == "convergence":
                    cert = convergence_index(space, seq, limit, r, t)
                    summary = cert.summary()
                    verdict = _verdict_of(cert.status)
                elif kind == "cauchy":
                    cert = cauchy_index(space, seq, r, t, check.get("p_max", 100))
                    summary = cert.summary()
                    verdict = _verdict_of(cert.status)
                else:
                    rec = classical_equivalence_probe(space, seq, limit)
                    summary = {
                        "ifn_converged": rec.ifn_converged,
                        "classical_converged": rec.classical_converged,
                        "agree": rec.agree,
                    }
                    verdict = PASS if rec.agree else FAIL
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
        kind = check["kind"]
        eps = check.get("epsilon", 1.0)
        alpha = check.get("alpha", 0.5)
        r = check.get("r", 0.2)
        t = check.get("t", 0.5)
        offset = check.get("sequence_offset", 10.0)
        budget = check.get("budget", 20_000)
        for x0 in points:
            name = f"{kind}/x0-{x0}"
            anchor = f"continuity of {f.rule.describe()} at {x0}"
            if kind == "witness":
                w = continuity_witness_search(f, x0, eps, alpha, seed=seed)
                records.append(
                    CheckRecord(
                        name=name, anchor=anchor, verdict=_verdict_of(w.verdict),
                        details=w.summary(),
                        counterexamples=[w.counterexample] if w.counterexample else [],
                        seed=seed, work=w.probes_checked,
                    )
                )
            elif kind == "sequential":
                try:
                    s = sequential_continuity_check(
                        f, x0, [shifted_reciprocal_sequence(x0, offset, budget=budget)], r, t
                    )
                except CertificationError as exc:
                    raise ConfigError(f"precondition: {exc}") from exc
                records.append(
                    CheckRecord(
                        name=name, anchor=anchor,
                        verdict=PASS if s.continuous else FAIL,
                        details=s.summary(), seed=seed, work=budget,
                    )
                )
            else:
                try:
                    p = equivalence_probe(
                        f, x0, eps, alpha,
                        [shifted_reciprocal_sequence(x0, offset, budget=budget)],
                        r, t, seed=seed,
                    )
                except CertificationError as exc:
                    raise ConfigError(f"precondition: {exc}") from exc
                records.append(
                    CheckRecord(
                        name=name, anchor=anchor,
                        verdict=PASS if p.agree else FAIL,
                        details=p.summary(), seed=seed,
                        work=p.witness.probes_checked + budget,
                    )
                )
    return records


def _run_uniform(config: dict, seed: int) -> list[CheckRecord]:
    U = build_space(config["domain_space"])
    V = build_space(config["codomain_space"])
    f = build_map(config["map"], U, V)
    records = []
    for check in config["checks"]:
        kind = check["kind"]
        if kind == "uniform-witness":
            u = uniform_continuity_search(
                f, check.get("epsilon", 1.0), check.get("alpha", 0.5), seed=seed
            )
            records.append(
                CheckRecord(
                    name="uniform-witness",
                    anchor=f"uniform continuity of {f.rule.describe()}",
                    verdict=_verdict_of(u.verdict),
                    details=u.summary(),
                    counterexamples=[u.counterexample] if u.counterexample else [],
                    seed=seed, work=u.pairs_checked,
                )
            )
        else:
            seq = build_sequence(check.get("sequence", {"family": "reciprocal", "budget": 8000}))
            try:
                rec = cauchy_preservation_check(
                    f, seq,
                    r=check.get("r", 0.5), t=check.get("t", 1.0),
                    p_max=check.get("p_max", 100),
                    budgets=tuple(check.get("budgets", (1000, 2000, 4000, 8000))),
                )
            except CertificationError as exc:
                raise ConfigError(f"precondition: {exc}") from exc
            records.append(
                CheckRecord(
                    name="cauchy-preservation",
                    anchor=f"Cauchy preservation under {f.rule.describe()}",
                    verdict=_verdict_of(rec.verdict),
                    details=rec.summary(),
                    budgets={"budgets": list(rec.budgets)},
                    seed=seed, work=sum(rec.budgets),
                )
            )
    return records


def _build_set(cfg: dict, space):
    kind = cfg["kind"]
    params = cfg.get("params", [])
    if kind == "norm-ball":
        radius = params[0] if params else 1.0
        pred = lambda pts: space.norm(pts) < radius if space.norm else np.linalg.norm(pts, axis=1) < radius
        default_members = np.linspace(-0.9, 0.9, 5).reshape(-1, 1) * radius
        desc = f"norm ball of radius {radius}"
    elif kind == "interval":
        lo, hi = params[0], params[1]
        pred = lambda pts: (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
        default_members = np.array([[lo], [0.5 * (lo + hi)], [hi]])
        desc = f"closed interval [{lo}, {hi}]"
    else:
        pred = lambda pts: np.ones(len(pts), dtype=bool)
        default_members = np.zeros((1, space.dimension))
        desc = "whole space"
    members = cfg.get("members")
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
        kind = check["kind"]
        name = f"{kind}/{i}"
        if kind in ("ball-contains", "classical-radius", "inner-ball"):
            b = check["ball"]
            ball = OpenBall(as_point(b["center"], space.dimension), b["r"], b["t"])
        if kind == "ball-contains":
            y = as_point(check["point"], space.dimension)
            inside = ball_contains(space, ball, y)
            records.append(
                CheckRecord(
                    name=name, anchor="open ball membership (strict inequalities)",
                    verdict=INFO,
                    details={"ball": ball.summary(), "point": list(y), "contained": inside},
                    seed=seed, work=1,
                )
            )
        elif kind == "classical-radius":
            rho = ball_classical_radius(space, ball)
            records.append(
                CheckRecord(
                    name=name, anchor="classical radius of a standard-family ball",
                    verdict=INFO,
                    details={"ball": ball.summary(), "rho": rho},
                    seed=seed, work=1,
                )
            )
        elif kind == "inner-ball":
            y = as_point(check["point"], space.dimension)
            try:
                inner = inner_ball_witness(space, ball, y, seed=seed)
                frac = verify_containment(space, inner, ball, 1000, seed)
                records.append(
                    CheckRecord(
                        name=name, anchor="every open ball is an open set",
                        verdict=PASS if frac == 1.0 else FAIL,
                        details={"outer": ball.summary(), "inner": inner.summary(), "containment": frac},
                        seed=seed, work=1000,
                    )
                )
            except IFNError as exc:
                records.append(
                    CheckRecord(
                        name=name, anchor="every open ball is an open set",
                        verdict=FAIL, details={"error": str(exc)}, seed=seed, work=1,
                    )
                )
        elif kind == "set-open":
            sset = _build_set(check["set"], space)
            rec = set_is_open_sampled(space, sset, plan)
            records.append(
                CheckRecord(
                    name=name, anchor="sampled openness of a set",
                    verdict=PASS if rec.all_open else FAIL,
                    details=rec.summary(), plan=plan.summary(),
                    seed=seed, work=len(rec.per_point) * 200,
                )
            )
        else:
            b = check["ball"]
            target = OpenBall(as_point(b["center"], 1), b["r"], b["t"])
            f = build_map(check["map"], space, space)
            pre = preimage_open_check(f, target, plan)
            records.append(
                CheckRecord(
                    name=name, anchor="preimages of open balls under continuous maps are open",
                    verdict=PASS if pre.open_verdict else FAIL,
                    details=pre.summary(), plan=plan.summary(),
                    seed=seed, work=pre.witnesses * 200,
                )
            )
    return records


def _run_funcseq(config: dict, seed: int) -> list[CheckRecord]:
    U = build_space(config["domain_space"])
    V = build_space(config["codomain_space"])
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
        kind = check["kind"]
        if kind == "sup-oracle":
            # the oracle is (r, t)-independent
            a = check.get("a", 0.5)
            m = check.get("m", 2)
            n = check.get("n", 4)
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
        rs = as_list(check.get("r", 0.1))
        ts = as_list(check.get("t", 0.1))
        if kind == "uniform-index":
            # one values matrix serves the grid, in the loop's r-major order
            sweep = iter(
                uniform_index_sweep(spaces, seq, sample, [(r, t) for r in rs for t in ts])
            )
        for r in rs:
            for t in ts:
                name, row = f"{kind}{suffix}/r{r}-t{t}", None
                if kind == "pointwise":
                    x = check.get("x", sample.points[len(sample.points) // 2])
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
                        p_max = check.get("p_max", 100)
                        cert = uniform_cauchy_check(spaces, seq, sample, r, t, p_max)
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
                        check.get("epsilon", 0.5), check.get("alpha", 0.25), seed=seed,
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
