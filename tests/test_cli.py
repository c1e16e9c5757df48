import contextlib
import functools
import io
import json
import math
import operator
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifncheck.catalog import CATALOG
from ifncheck.cli import main
from ifncheck.config_schema import CHECK_FIELDS, SCHEMAS, best_error, fields_of, validate_config
from ifncheck.continuity import MAP_RULES
from ifncheck.errors import ConfigError
from ifncheck.ifn_core import EXAMPLE_SPACES
from ifncheck.point_convergence import SEQUENCE_FAMILIES
from ifncheck.report import to_csv, to_jsonl, to_text
from ifncheck.sampling import Interval
from ifncheck.scenarios import run_scenario


EXAMPLES = pathlib.Path(__file__).parents[1] / "docs" / "examples"
# The documented examples with a failing record: the reciprocal map genuinely
# fails uniform continuity, and no inner ball fits around a point a relative
# 1e-13 inside its ball under product/probabilistic-sum; every other example
# passes outright
FAILING_EXAMPLES = ("uniform-reciprocal.json", "topology-product-ops.json")


def _python(*args) -> str:
    """The stdout of a fresh interpreter that runs `args` (a -c snippet by
    default) with this checkout's `src` first on its path."""
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, *(args if args[0] == "-m" else ("-c", *args))]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _cli_process(tmp_path, command, cfg) -> subprocess.CompletedProcess:
    """`command` on `cfg` in a fresh interpreter with numpy's warnings at
    their defaults, so that a warning would reach its stderr."""
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "ifncheck.cli", command, "--config",
            write_config(tmp_path, cfg), "--out", str(tmp_path)]
    return subprocess.run(argv, env=env, capture_output=True, text=True)


AXIOMS_CFG = {"scenario": "axioms", "space": {"family": "standard", "k": 1.0}}

CONVERGE_CFG = {
    "scenario": "converge",
    "space": {"family": "standard"},
    "sequence": {"family": "reciprocal", "budget": 2000},
    "limit": 0.0,
    "checks": [{"kind": "convergence", "r": 0.5, "t": 1.0}],
}


def _example_with(example, path, value) -> dict:
    """The docs/examples config `example` with the field at `path` set to `value`."""
    cfg = json.loads((EXAMPLES / f"{example}.json").read_text())
    node = cfg
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = value
    return cfg


# Integer fields that the runners size, slice or index with, and a value each.
_INTEGER_FIELDS = [
    ("axioms-standard", ("plan", "grid_points_per_axis"), 21),
    ("axioms-standard", ("plan", "random_count"), 200),
    ("axioms-standard", ("space", "dimension"), 2),
    ("converge-reciprocal", ("checks", 1, "p_max"), 100),
    ("converge-reciprocal", ("sequence", "budget"), 2000),
    ("funcseq-power-sweep", ("sample", "points"), 5),
    ("funcseq-power-sweep", ("funcseq", "budget"), 1000),
    ("funcseq-power-sweep", ("checks", 2, "m"), 2),
    ("uniform-reciprocal", ("checks", 1, "budgets", 0), 1000),
]


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            validate_config(AXIOMS_CFG | {"bogus": 1})

    def test_unknown_nested_key_with_path(self):
        cfg = {
            "scenario": "axioms",
            "space": {"family": "standard", "kk": 2.0},
        }
        with pytest.raises(ConfigError, match="space"):
            validate_config(cfg)

    def test_kind_mismatch(self):
        with pytest.raises(ConfigError, match="requested"):
            validate_config(CONVERGE_CFG, kind="axioms")

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            validate_config({"scenario": "converge", "space": {"family": "standard"}})

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            validate_config({"scenario": "frobnicate"})

    @pytest.mark.parametrize("scenario", [["axioms"], {"kind": "axioms"}], ids=["list", "object"])
    def test_non_string_scenario_is_an_unknown_kind(self, scenario):
        # the kind is looked up only once it is a string, so neither shape
        # is hashed
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            validate_config(AXIOMS_CFG | {"scenario": scenario})

    def test_json_schema_number_semantics(self, tmp_path, capsys):
        # a bool is not a number, and 2.0 is an integer
        with pytest.raises(ConfigError, match="space/k: True is not of type 'number'"):
            validate_config(AXIOMS_CFG | {"space": {"family": "standard", "k": True}})
        validate_config(AXIOMS_CFG | {"space": {"family": "standard", "dimension": 2.0}})
        # which runs as 2: the same exit code, stderr and report bytes
        for example, path, value in _INTEGER_FIELDS:
            runs = []
            for v in (value, float(value)):
                cfg = _example_with(example, path, v)
                out = tmp_path / str(v)
                command = _COMMAND_OF_KIND.get(cfg["scenario"], cfg["scenario"])
                rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
                report = out / "report.jsonl"
                runs.append((rc, capsys.readouterr().err, report.read_bytes() if report.exists() else None))
            assert runs[0] == runs[1], (example, path)


class TestRunScenario:
    def test_empty_checks_give_empty_report(self):
        cfg = dict(CONVERGE_CFG, checks=[])
        report = run_scenario(cfg)
        assert report.records == ()
        assert not report.failed()

    def test_axioms_scenario(self):
        report = run_scenario(AXIOMS_CFG, seed=1)
        assert not report.failed()
        names = [r.name for r in report.records]
        assert "axiom/i" in names and "axiom/xv" in names

    def test_sweep_cross_product(self):
        cfg = dict(
            CONVERGE_CFG,
            checks=[{"kind": "convergence", "r": [0.2, 0.5], "t": [0.5, 1.0, 2.0]}],
        )
        report = run_scenario(cfg)
        assert len(report.records) == 6

    def test_failing_check_reported(self):
        cfg = dict(
            CONVERGE_CFG,
            sequence={"family": "linear", "budget": 2000},
        )
        report = run_scenario(cfg)
        assert report.failed()

    def test_catalog_names_resolve(self):
        report = run_scenario({"scenario": "catalog", "name": "example-4-quotient"})
        assert len(report.records) > 0 and not report.failed()

    def test_unknown_catalog_name(self):
        with pytest.raises(ConfigError):
            run_scenario({"scenario": "catalog", "name": "example-0"})


class TestEmission:
    def _report(self):
        return run_scenario(CONVERGE_CFG, seed=3)

    def test_jsonl_structure(self):
        lines = to_jsonl(self._report()).splitlines()
        head = json.loads(lines[0])
        assert head["kind"] == "scenario" and head["seed"] == 3
        record = json.loads(lines[1])
        assert record["kind"] == "record"
        assert record["verdict"] == "pass"
        tail = json.loads(lines[-1])
        assert tail["kind"] == "summary" and tail["fail"] == 0

    def test_jsonl_real_formatting(self):
        text = to_jsonl(self._report())
        # reals carry 17 significant digits
        assert '"t":1,' in text or '"t":1}' in text
        assert "0.5" in text

    def test_text_has_anchor(self):
        text = to_text(self._report())
        assert "membership convergence" in text
        assert text.endswith("\n")

    def test_csv_generic(self):
        lines = to_csv(self._report()).splitlines()
        assert lines[0] == "name,anchor,verdict,work"
        assert len(lines) == 2

    def test_index_sweep_csv_27_rows(self):
        cfg = {
            "scenario": "funcseq",
            "domain_space": {"family": "example", "tag": "example-4.x"},
            "codomain_space": {"family": "example", "tag": "example-4.x"},
            "funcseq": {"family": "power", "domain": {"lo": 0.0, "hi": 0.5}, "budget": 2000},
            "checks": [
                {
                    "kind": "uniform-index",
                    "r": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
                    "t": [0.1, 1.0, 10.0],
                }
            ],
        }
        lines = to_csv(run_scenario(cfg)).splitlines()
        assert lines[0] == "family,domain_lo,domain_hi,r,t,n0,verdict,paper_k"
        assert len(lines) == 28  # header + 9 x 3 data rows
        # the closed-form column is filled for the power family
        assert all(line.split(",")[-1] != "" for line in lines[1:])

    def test_domain_endpoint_sweep(self):
        cfg = {
            "scenario": "funcseq",
            "domain_space": {"family": "example", "tag": "example-4.x"},
            "codomain_space": {"family": "example", "tag": "example-4.x"},
            "funcseq": {
                "family": "power",
                "domain": {"lo": 0.0, "hi": 0.5},
                "budget": 2000,
                "hi_sweep": [0.3, 0.5, 0.7],
            },
            "checks": [{"kind": "uniform-index", "r": 0.1, "t": 0.1}],
        }
        report = run_scenario(cfg)
        rows = [r.csv_row for r in report.records]
        assert [row["domain_hi"] for row in rows] == [0.3, 0.5, 0.7]
        assert [row["n0"] for row in rows] == sorted(row["n0"] for row in rows)

    @pytest.mark.parametrize("k", [0.5, 3.0])
    def test_paper_index_reads_the_codomain_k(self, k):
        # the closed-form column takes the codomain's membership radius
        # r t / (k (1 - r)), so it is the searched index at every k
        cfg = json.loads((EXAMPLES / "funcseq-power-sweep.json").read_text())
        cfg["codomain_space"] = {"family": "standard", "k": k}
        rows = [rec.csv_row for rec in run_scenario(cfg).records if rec.csv_row]
        assert len(rows) == 27
        assert [row["paper_k"] for row in rows] == [row["n0"] for row in rows]


# Upper bounds for the integer fields that set how much a run computes.
_SMALL = {
    "budget": 200, "budgets": 200, "dimension": 3, "grid_points_per_axis": 5,
    "random_count": 20, "points": 9, "refine_depth": 6, "p_max": 30, "m": 6, "n": 6, "seed": 3,
}
_COMMAND_OF_KIND = {"uniform-continuity": "uniform"}
_POSITIVE_FLOOR = 1e-6
# floats that a number field also draws where its bounds allow: the signed
# zeros, a subnormal, and magnitudes whose sums and products overflow
_EDGE_FLOATS = (0.0, -0.0, 2.2e-308, -2.2e-308, 1e300, -1e300, 1.7e308, -1.7e308)


def _from_schema(schema, name=None):
    """Values that match one of the scenario schemas in `config_schema`."""
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        # half the draws take the first value: the standard family, min/max, ...
        return st.one_of(st.just(schema["enum"][0]), st.sampled_from(schema["enum"]))
    if "anyOf" in schema:
        return st.one_of([_from_schema(s, name) for s in schema["anyOf"]])
    kind = schema["type"]
    if kind == "object":
        return _objects(schema)
    if kind == "array":
        lo = schema.get("minItems", 0)
        hi = schema.get("maxItems", lo + 3)
        return st.lists(_from_schema(schema["items"], name), min_size=lo, max_size=hi)
    if kind == "integer":
        # half the draws take the smallest value, which most often runs; a
        # field with no minimum (only the seed) takes 0 there and may go as
        # far below 0 as above.  Half of all draws are whole-number floats,
        # which the schema counts as integers.
        lo = schema.get("minimum", 0)
        hi = max(lo, _SMALL.get(name, lo + 5))
        ints = st.one_of(st.just(lo), st.integers(schema.get("minimum", -hi), hi))
        return st.one_of(ints, ints.map(float))
    if kind == "number":
        lo = schema.get("minimum", schema.get("exclusiveMinimum", -math.inf))
        hi = schema.get("maximum", schema.get("exclusiveMaximum", math.inf))
        # a third of the draws from a few plain values, which pass most
        # domain checks, a third from the edge floats, a third from [-10, 10]
        bounds = (schema.get("exclusiveMinimum"), schema.get("exclusiveMaximum"))
        plain = [v for v in (0.0, 0.1, 0.5, 1.0, 2.0, -1.0) if lo <= v <= hi and v not in bounds]
        if bounds[0] == 0:
            # a positive field from a floor: a subnormal epsilon underflows its
            # ladder, a config error that test_exit_two_on_config_error covers
            lo, bounds = _POSITIVE_FLOOR, (None, bounds[1])
        edges = [v for v in _EDGE_FLOATS if lo <= v <= hi and v not in bounds]
        anywhere = st.floats(
            max(lo, -10.0), min(hi, 10.0), exclude_min=bounds[0] is not None, exclude_max=bounds[1] is not None
        )
        return st.one_of(st.sampled_from(plain), anywhere, *[st.sampled_from(edges)] * bool(edges))
    if kind == "boolean":
        return st.booleans()
    # the one string field names a catalog scenario, so that the config
    # reaches a runner instead of an unknown-name error
    return st.sampled_from(list(CATALOG))


@st.composite
def _objects(draw, schema):
    """An object with its required fields and a random subset of the rest;
    the discriminator (`kind` or `family`) is drawn first, so that the
    `_when` clause it selects can add required fields, narrow a field and
    name the only fields allowed."""
    props, required = dict(schema["properties"]), set(schema.get("required", ()))
    obj = {}
    for clause in schema.get("allOf", ()):
        (key,) = clause["if"]["required"]
        if key not in obj:
            obj[key] = draw(_from_schema(props[key]))
        if clause["if"]["properties"][key]["const"] == obj[key]:
            then = clause["then"]
            required |= set(then.get("required", ()))
            for name, narrowed in then.get("properties", {}).items():
                props[name] = props[name] | narrowed
            props = {name: props[name] for name in then["propertyNames"]["enum"]}
    for key, sub in props.items():
        # fields that bound a run's size are always set, to keep runs small
        if key not in obj and (key in required or key in _SMALL or draw(st.integers(0, 3)) == 0):
            obj[key] = draw(_from_schema(sub, key))
    return obj


def _fit_params(obj, arity):
    """Cut or pad `params` to the arity its rule or family takes."""
    params = (obj.get("params", []) + [1.0] * arity)[:arity]
    if params or "params" in obj:
        obj["params"] = params


def _fit(scenario, cfg):
    """Adjust a schema-valid config to the checks the builders make after
    the schema, so that the draw reaches a runner: each space's norm fits
    its dimension (1 wherever a map or sequence lives on the real line),
    its tier its operations and its k the axiom check; intervals and
    sweeps have positive width, a `reciprocal` map's domain leaves out 0,
    `power` sequences live on (-1, 1] (where x^n has a limit), continuity
    points in the map's restriction, a sequential approach x0 + 1/(n + offset)
    starts inside the domain's (r, t) radius (so it is certified to converge
    within any budget), `params` match their arity, the
    t -> oo ladder increases, and topology balls, points and set members
    lie in the space's dimension.  Edge floats stay where they are drawn,
    unless a fit needs a finite width or length that they would overflow.
    The config stays valid for the schema."""
    on_line = scenario not in ("axioms", "topology") or any(
        c["kind"] == "preimage-open" for c in cfg.get("checks", ())
    )
    spaces = [cfg[k] for k in ("space", "domain_space", "codomain_space") if k in cfg]
    for space in (s for s in spaces if s["family"] == "standard"):
        if on_line:
            space["dimension"] = 1
        if space.get("dimension", 1) > 1 and space.get("norm") == "absolute-value":
            space["norm"] = "euclidean"
        if (space.get("tnorm", "minimum"), space.get("tconorm", "maximum")) != (
            "minimum", "maximum"
        ):
            space["tier"] = "core"  # only min/max are idempotent (axiom xii)
        # a k so small that k||x|| vanishes beside t makes mu(x, t) = 1 off the origin
        space["k"] = max(space.get("k", 1.0), 0.01)
    dim = next((int(s.get("dimension", 1)) for s in spaces if s["family"] == "standard"), 1)
    ladder = cfg.get("plan", {}).get("t_infinity_ladder")
    if ladder:
        ladder[:] = sorted(set(ladder))
        if len(ladder) < 2:
            ladder.insert(0, ladder[0] / 2.0)
    # objects of a kind at the top level and in the checks
    checks = cfg.get("checks", [])
    maps, seqs, funcseqs = (
        [o[key] for o in [cfg, *checks] if key in o] for key in ("map", "sequence", "funcseq")
    )
    for m in maps:
        _fit_params(m, MAP_RULES[m["rule"]].arity)
    for seq in seqs:
        _fit_params(seq, SEQUENCE_FAMILIES[seq["family"]].arity)
    for box in [o["domain"] for o in maps + funcseqs]:
        lo, hi = sorted((box["lo"], box["hi"]))
        if lo == hi:  # split by halving, as adding 1.0 is absorbed past 2^53
            lo, hi = (hi / 2.0, hi) if hi > 0 else (lo, lo / 2.0) if lo < 0 else (0.0, 1.0)
        if not math.isfinite(hi - lo):
            lo, hi = lo / 2.0, hi / 2.0
        box["lo"], box["hi"] = lo, hi
    for box in [m["domain"] for m in maps if m["rule"] == "reciprocal"]:
        if _interval(box).contains(0.0):
            # off the pole of 1/x, which test_exit_two_on_config_error covers
            box["lo"], box["hi"] = 0.5, box["hi"] + 0.5 - box["lo"]
    for f in funcseqs:
        box, top = f["domain"], math.inf
        if f["family"] == "power":
            box["lo"], top = min(max(box["lo"], -0.9), 0.5), 1.0
            box["hi"] = min(max(box["hi"], box["lo"] + 0.25), top)
        if "hi_sweep" in f:
            f["hi_sweep"] = [min(max(hi, box["lo"] + 0.5), top) for hi in f["hi_sweep"]]
    if scenario == "continuity":
        box = cfg["map"]["domain"]
        inside = _interval(box)
        mid = 0.5 * box["lo"] + 0.5 * box["hi"]
        cfg["points"] = [x if inside.contains(x) else mid for x in cfg["points"]]
        dom = cfg["domain_space"]
        k = dom.get("k", 1.0) if dom["family"] == "standard" else EXAMPLE_SPACES[dom["tag"]]
        for c in checks:
            if c["kind"] in ("sequential", "equivalence"):
                f = fields_of(CHECK_FIELDS["continuity"], c)
                offset = min(2.0 * k / (f["r"] * f["t"]), sys.float_info.max)
                c["sequence_offset"] = max(f["sequence_offset"], offset)
    if "limit" in cfg:
        cfg["limit"] = _fit_point(cfg["limit"], 1)
    for c in checks if scenario == "topology" else ():
        if "ball" in c:
            c["ball"]["center"] = _fit_point(c["ball"]["center"], dim)
        if "point" in c:
            c["point"] = _fit_point(c["point"], dim)
        if c.get("set", {}).get("members"):
            c["set"]["members"] = [_fit_point(m, dim) for m in c["set"]["members"]]
    return cfg


def _interval(box):
    return Interval(box["lo"], box["hi"], box.get("open_lo", False), box.get("open_hi", False))


def _fit_point(value, dim):
    """A number or list of numbers as a point of R^dim (a number when dim = 1)."""
    coords = (value if isinstance(value, list) else [value]) * dim
    return coords[0] if dim == 1 else coords[:dim]


def _configs():
    return st.sampled_from(sorted(SCHEMAS)).flatmap(
        lambda scenario: _from_schema(SCHEMAS[scenario]).map(
            lambda cfg: (scenario, _fit(scenario, cfg))
        )
    )


_DROP = object()


def _positions(doc, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _positions(value, (*path, key))


def _changes(value, droppable):
    """`value` itself, or a single-field change of it: dropped, a wrong type,
    an unknown field, an empty list, a bool for a number, 2.0 for an
    integer, or a number at or past a bound of the schema."""
    options = [value, "x", None, {}, [0.5]] + [_DROP] * droppable
    if isinstance(value, dict):
        options.append(value | {"bogus": 1})
    if isinstance(value, list):
        options.append([])
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        options += [True, False, 0, 0.0, 1, 1.0, -1, 2, 1e-9, 1e9]
    if type(value) is int:
        options.append(float(value))
    return options


@st.composite
def _mutants(draw):
    """A config of the walker with at most one field changed."""
    scenario, cfg = draw(_configs())
    path = draw(st.sampled_from(list(_positions(cfg))))
    if not path:
        return scenario, draw(st.sampled_from(_changes(cfg, False)))
    parent = functools.reduce(operator.getitem, path[:-1], cfg)
    new = draw(st.sampled_from(_changes(parent[path[-1]], True)))
    if new is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return scenario, cfg


class TestValidatorAgainstJsonschema:
    @given(case=_mutants())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_decision_field_and_message(self, case):
        # jsonschema is the oracle: the same accept/reject, and on reject
        # the error its best_match picks
        scenario, cfg = case
        validator = jsonschema.Draft202012Validator(SCHEMAS[scenario])
        oracle = jsonschema.exceptions.best_match(validator.iter_errors(cfg))
        error = best_error(SCHEMAS[scenario], cfg)
        assert (error is None) == validator.is_valid(cfg) == (oracle is None)
        if oracle is not None:
            assert error.path == tuple(oracle.absolute_path)
            assert error.message == oracle.message


class TestCliProcess:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        rc = main(
            ["converge", "--config", write_config(tmp_path, CONVERGE_CFG), "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "report.jsonl").exists()

    def test_exit_one_on_failure(self, tmp_path):
        cfg = dict(CONVERGE_CFG, sequence={"family": "linear", "budget": 2000})
        rc = main(
            ["converge", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]
        )
        assert rc == 1

    def test_a_space_that_fails_its_tier_is_the_axioms_verdict(self, tmp_path, capsys):
        # product/probabilistic-sum is not idempotent, so (xii) fails at the
        # strict tier: `axioms` reports that as a FAIL record and exits 1,
        # while a command that relies on the declared tier rejects the space
        space = {"family": "standard", "tnorm": "product", "tconorm": "probabilistic-sum",
                 "tier": "strict"}
        argv = ["--config", write_config(tmp_path, dict(AXIOMS_CFG, space=space)), "--out", str(tmp_path)]
        assert main(["axioms", *argv]) == 1
        lines = [json.loads(line) for line in (tmp_path / "report.jsonl").read_text().splitlines()]
        failed = [r["name"] for r in lines if r["kind"] == "record" and r["verdict"] == "fail"]
        assert failed == ["axiom/xii"]
        capsys.readouterr()
        argv = ["--config", write_config(tmp_path, dict(CONVERGE_CFG, space=space)), "--out", str(tmp_path)]
        assert main(["converge", *argv]) == 2
        assert "failed construction-time check: ('xii',)" in capsys.readouterr().err

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        examples = pathlib.Path(__file__).parent.parent / "docs" / "examples"
        continuity = json.loads((examples / "continuity-reciprocal.json").read_text())
        funcseq = json.loads((examples / "funcseq-power-sweep.json").read_text())
        uniform = json.loads((examples / "uniform-reciprocal.json").read_text())
        converge = json.loads((examples / "converge-reciprocal.json").read_text())
        topology = json.loads((examples / "topology-balls.json").read_text())
        ball = {"center": 0.0, "r": 0.5, "t": 1.0}
        rejected = [
            ("converge", {"scenario": "converge"}, "config error"),
            # a family or rule missing its params
            ("converge", dict(CONVERGE_CFG, sequence={"family": "constant"}), "'constant'"),
            ("continuity", dict(continuity, map=dict(continuity["map"], rule="power")), "'power'"),
            # the power sequence has no limit at x > 1
            (
                "funcseq",
                dict(funcseq, funcseq={"family": "power", "domain": {"lo": 0.0, "hi": 2.0}}),
                "'power'",
            ),
            # a map that is not finite on its domain: NaN images, then a pole
            (
                "uniform",
                dict(
                    uniform,
                    map={"rule": "power", "params": [0.5], "domain": {"lo": -1.0, "hi": 1.0}},
                    checks=uniform["checks"][:1],
                ),
                "x^0.5",
            ),
            (
                "continuity",
                dict(continuity, map={"rule": "reciprocal", "domain": {"lo": 0.0, "hi": 1.0}},
                     points=[0.0]),
                "x=0.0",
            ),
            # a point or a parameter outside its domain
            ("continuity", dict(continuity, points=[5.0]), "x0=5.0"),
            # an (r, t) demand outside r in (0, 1), t > 0, which the schema rejects
            ("converge", dict(converge, checks=[{"kind": "convergence", "r": 1.5, "t": 1.0}]), "checks/0/r"),
            ("funcseq", dict(funcseq, checks=[{"kind": "cauchy-criterion", "r": 0.1, "t": -1}]), "checks/0/t"),
            ("funcseq", dict(funcseq, checks=[{"kind": "classical-probe", "r": 0.0, "t": 0.1}]), "checks/0/r"),
            (
                "funcseq",
                dict(
                    funcseq,
                    funcseq={"family": "scaled", "domain": {"lo": 0.0, "hi": 1.0}},
                    checks=[{"kind": "uniform-index", "r": 1.5, "t": 0.1}],
                ),
                "checks/0/r",
            ),
            # a check that does not apply to the family or its limit
            (
                "funcseq",
                dict(
                    funcseq,
                    funcseq={"family": "quotient", "domain": {"lo": 0.0, "hi": 10.0}},
                    checks=[{"kind": "sup-oracle"}],
                ),
                "'quotient'",
            ),
            (
                "funcseq",
                dict(
                    funcseq,
                    funcseq={"family": "power", "domain": {"lo": 0.0, "hi": 1.0}, "budget": 100},
                    checks=[{"kind": "uniform-limit"}],
                ),
                "closed-form limit",
            ),
            # a topology check missing a field its kind reads, or a set that is not
            ("topology", dict(topology, checks=[{"kind": "inner-ball", "ball": ball}]), "'point'"),
            ("topology", dict(topology, checks=[{"kind": "preimage-open", "ball": ball}]), "'map'"),
            (
                "topology",
                dict(topology, checks=[{"kind": "set-open", "set": {"kind": "interval", "params": [0.0]}}]),
                "set/params",
            ),
            (
                "topology",
                dict(
                    topology,
                    checks=[
                        {
                            "kind": "set-open",
                            "set": {"kind": "norm-ball", "params": [1.0], "members": [5.0]},
                        }
                    ],
                ),
                "members",
            ),
            # a check on terms the sequence does not have
            (
                "uniform",
                dict(
                    uniform,
                    checks=[
                        dict(uniform["checks"][1], budgets=[1000, 2000, 4000, 8000, 16000, 32000])
                    ],
                ),
                "[16000, 32000]",
            ),
            # a sequence or a map whose dimension differs from its space's
            (
                "converge",
                dict(converge, space={"family": "standard", "dimension": 3}, limit=[0, 0, 0]),
                "dimension 3",
            ),
            (
                "funcseq",
                dict(
                    funcseq,
                    codomain_space={"family": "standard", "dimension": 3},
                    checks=[{"kind": "uniform-index", "r": 0.1, "t": 0.1}],
                ),
                "dimension 3",
            ),
            (
                "funcseq",
                dict(
                    funcseq,
                    codomain_space={"family": "standard", "dimension": 3},
                    checks=[{"kind": "uniform-limit"}],
                ),
                "dimension 3",
            ),
            # a target ball no sampled point maps into, an inner-ball point outside its ball
            (
                "topology",
                dict(
                    topology,
                    checks=[
                        {
                            "kind": "preimage-open",
                            "ball": {"center": -0.5, "r": 0.1, "t": 5},
                            "map": {"rule": "constant", "params": [2.0], "domain": {"lo": -1, "hi": 1}},
                        }
                    ],
                ),
                "target ball",
            ),
            ("topology", dict(topology, checks=[{"kind": "inner-ball", "ball": ball, "point": 5.0}]), "outer ball"),
            # a field the check kind, space family or set kind does not read
            (
                "converge",
                dict(converge, checks=[{"kind": "classical-probe", "r": [0.1, 0.2, 0.3], "t": [0.1, 1.0]}]),
                "'r'",
            ),
            ("converge", dict(CONVERGE_CFG, checks=[{"kind": "convergence", "p_max": 5}]), "'p_max'"),
            (
                "continuity",
                dict(continuity, checks=[{"kind": "witness", "epsilon": 1.0, "alpha": 0.5, "budget": 100}]),
                "'budget'",
            ),
            (
                "uniform",
                {
                    "scenario": "uniform-continuity",
                    "domain_space": {"family": "standard"},
                    "codomain_space": {"family": "standard"},
                    "map": {"rule": "affine", "params": [2.0, 0.0], "domain": {"lo": 0.0, "hi": 1.0}},
                    "checks": [{"kind": "uniform-witness", "budgets": [1000, 2000]}],
                },
                "'budgets'",
            ),
            ("topology", dict(topology, checks=[{"kind": "classical-radius", "ball": ball, "point": 0.5}]), "'point'"),
            ("funcseq", dict(funcseq, checks=[{"kind": "sup-oracle", "r": 0.1}]), "'r'"),
            ("funcseq", dict(funcseq, domain_space={"family": "example", "tag": "example-4.x", "k": 100}), "'k'"),
            (
                "topology",
                dict(topology, checks=[{"kind": "set-open", "set": {"kind": "whole", "params": [1.0]}}]),
                "'params'",
            ),
            # a NaN or Infinity token, which JSON does not have (json.dumps writes them)
            ("axioms", dict(AXIOMS_CFG, plan={"t_grid": [float("inf")]}), "Infinity"),
            ("axioms", dict(AXIOMS_CFG, plan={"t_infinity_ladder": [float("nan"), 1000]}), "NaN"),
            ("converge", dict(CONVERGE_CFG, sequence={"family": "constant", "params": [float("nan")]}), "NaN"),
            # an epsilon so small that the witness ladder's t underflows to 0
            ("continuity", dict(continuity, checks=[{"kind": "witness", "epsilon": 5e-324}]), "epsilon"),
            # a range whose width overflows
            ("axioms", dict(AXIOMS_CFG, plan={"grid_halfwidth": 1e308}), "grid_halfwidth"),
            (
                "continuity",
                dict(continuity, map=dict(continuity["map"], domain={"lo": -1e308, "hi": 1e308})),
                "interval",
            ),
        ]
        # a numpy warning would reach stderr ahead of the config error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for command, cfg, named in rejected:
                rc = main(
                    [command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]
                )
                assert rc == 2, cfg
                err = capsys.readouterr().err
                assert "config error" in err and named in err, err

    def test_pointwise_limit_at_an_overflowing_term_names_it(self, tmp_path):
        # 1.5^n overflows from n = 1751 on: the closed form has no finite
        # limit there, so the config error names x, and no numpy warning is
        # printed
        cfg = {
            "scenario": "funcseq",
            "domain_space": {"family": "example", "tag": "example-4.x"},
            "codomain_space": {"family": "example", "tag": "example-4.x"},
            "funcseq": {"family": "power", "domain": {"lo": 0.0, "hi": 2.0}, "budget": 2000},
            "checks": [{"kind": "pointwise", "x": 1.5, "r": 0.5, "t": 1.0}],
        }
        run = _cli_process(tmp_path, "funcseq", cfg)
        assert run.returncode == 2
        assert run.stderr == "config error: funcseq: family 'power' on [0.0, 2.0]: f_n(1.5) has no finite limit\n"

    @pytest.mark.parametrize("x", [1.00000000001, -1.0, 1.5])
    def test_pointwise_check_without_a_finite_limit_names_x(self, tmp_path, x):
        # x^n diverges at x = 1.00000000001, yet its last terms differ by
        # less than 1e-9, so a limit guessed from them passed; at x = -1 it
        # oscillates, and at x = 1.5 it overflows.  No PASS rests on a value
        # that the closed form says does not exist
        cfg = {
            "scenario": "funcseq",
            "domain_space": {"family": "example", "tag": "example-4.x"},
            "codomain_space": {"family": "example", "tag": "example-4.x"},
            "funcseq": {"family": "power", "domain": {"lo": -2.0, "hi": 2.0}, "budget": 2000},
            "checks": [{"kind": "pointwise", "x": x, "r": 0.1, "t": 0.1}],
        }
        run = _cli_process(tmp_path, "funcseq", cfg)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == f"config error: funcseq: family 'power' on [-2.0, 2.0]: f_n({x!r}) has no finite limit\n"

    @pytest.mark.parametrize("command", ["axioms", "continuity"])
    def test_standard_memberships_past_binary64_are_config_errors(self, tmp_path, command):
        # k||x|| past binary64 at a finite x made nu = inf / inf: axiom (i)
        # passed on NaN values, the witness search refuted on an infinite
        # k||f(x) - f(x0)||, and numpy warned on stderr
        if command == "axioms":
            cfg = json.loads((EXAMPLES / "axioms-standard.json").read_text())
            cfg["space"]["k"] = 3.0
            cfg["plan"]["grid_halfwidth"] = 8e307
            x = "-8e+307"
        else:
            cfg = json.loads((EXAMPLES / "continuity-reciprocal.json").read_text())
            cfg["map"]["domain"] = {"lo": -1.1125369292536007e-308, "hi": 2.6671861924185207, "open_hi": True}
            cfg["points"] = [9.327454598064106e-302]
            cfg["checks"] = [{"kind": "witness", "epsilon": 4.5387, "alpha": 0.518}]
            x = "-8.98846674641543e+307"  # f(lo) - f(x0)
        run = _cli_process(tmp_path, command, cfg)
        assert (run.returncode, run.stderr) == (
            2,
            f"config error: standard memberships overflow binary64 at x=[{x}]: t + k||x|| (k=3.0) is not finite\n",
        )

    @pytest.mark.parametrize(
        "command, message",
        [
            # 3 x 8e307 overflows in the scaled points of (iv)/(ix), whose NaN
            # gaps passed (ix)
            ("axioms", "overflow encountered in multiply"),
            # 2^2000 is inf, and the criterion's window extent was inf - inf
            ("funcseq", "invalid value encountered in subtract"),
            # the centre minus the point overflows, and the verdict came from
            # mu = 0 and nu = NaN
            ("topology", "overflow encountered in subtract"),
        ],
        ids=["axioms", "funcseq", "topology"],
    )
    def test_arithmetic_past_binary64_is_a_config_error(self, tmp_path, command, message):
        # each config passes the schema; its runner once reached a verdict
        # from inf or NaN and printed two numpy warnings on stderr
        axioms = json.loads((EXAMPLES / "axioms-standard.json").read_text())
        axioms["plan"]["grid_halfwidth"] = 8e307
        cfg = {
            "axioms": axioms,
            "funcseq": {
                "scenario": "funcseq",
                "domain_space": {"family": "example", "tag": "example-4.x"},
                "codomain_space": {"family": "example", "tag": "example-4.x"},
                "funcseq": {"family": "power", "domain": {"lo": 0.0, "hi": 2.0}, "budget": 2000},
                "checks": [{"kind": "cauchy-criterion", "r": 0.1, "t": 0.1}],
            },
            "topology": {
                "scenario": "topology",
                "space": {"family": "standard", "k": 1.0},
                "checks": [
                    {"kind": "ball-contains", "ball": {"center": 1.7e308, "r": 0.5, "t": 1.0}, "point": -1.7e308}
                ],
            },
        }[command]
        run = _cli_process(tmp_path, command, cfg)
        assert (run.returncode, run.stderr) == (2, f"config error: non-finite arithmetic: {message}\n")

    def test_classical_radius_past_binary64_is_a_config_error(self, tmp_path):
        # r t / (k (1 - r)) is 3e308 on Python floats, which no errstate
        # sees: the inf radius reached the report writer, an internal fault
        cfg = {
            "scenario": "topology",
            "space": {"family": "standard", "k": 1.0},
            "checks": [{"kind": "classical-radius", "ball": {"center": 0.0, "r": 0.75, "t": 1e308}}],
        }
        run = _cli_process(tmp_path, "topology", cfg)
        assert (run.returncode, run.stderr) == (
            2,
            "config error: classical radius r t / (k (1 - r)) of the ball "
            "{'center': [0.0], 'r': 0.75, 't': 1e+308} overflows binary64\n",
        )

    def test_overflowing_literals_are_config_errors(self, tmp_path, capsys):
        # 1e999 parses to inf although the schema accepts it as a number
        rejected = [
            ("axioms", '{"scenario": "axioms", "space": {"family": "standard"}, "plan": {"t_grid": [1e999, 1.0]}}'),
            (
                "topology",
                '{"scenario": "topology", "space": {"family": "standard"}, "plan": {"t_grid": [1e999, 1.0]},'
                ' "checks": [{"kind": "set-open", "set": {"kind": "norm-ball"}}]}',
            ),
            (
                "topology",
                '{"scenario": "topology", "space": {"family": "standard"}, "checks": [{"kind": "ball-contains",'
                ' "ball": {"center": 0.0, "r": 0.5, "t": 1e999}, "point": 0.5}]}',
            ),
            (
                "converge",
                '{"scenario": "converge", "space": {"family": "standard"}, "limit": 0.0,'
                ' "sequence": {"family": "constant", "params": [1e999]}, "checks": [{"kind": "convergence"}]}',
            ),
            ("axioms", '{"scenario": "axioms", "space": {"family": "standard"}, "plan": {"t_infinity_ladder": [10.0, 1e999]}}'),
        ]
        path = tmp_path / "config.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for command, text in rejected:
                path.write_text(text)
                assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2, text
                assert capsys.readouterr().err == "config error: config holds 1e999, which overflows binary64\n"

    def test_integers_past_binary64_are_config_errors_in_number_fields(self, tmp_path, capsys):
        # a number field cannot hold 10**400; the integer seed can
        wide = "1" + "0" * 399
        ball = '"ball": {"center": 0.0, "r": 0.5, "t": 1.0}'
        path = tmp_path / "config.json"
        path.write_text(
            '{"scenario": "topology", "space": {"family": "standard"}, "checks": [{"kind": "ball-contains", '
            f'{ball}, "point": {wide}}}]}}'
        )
        assert main(["topology", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: config field checks/0/point: integer overflows binary64\n"
        path.write_text(
            f'{{"scenario": "topology", "seed": {wide}, "space": {{"family": "standard"}}, '
            f'"checks": [{{"kind": "ball-contains", {ball}, "point": 0.25}}]}}'
        )
        assert main(["topology", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "example, path, value, cap",
        [
            ("converge-reciprocal", ("sequence", "budget"), 10**400, 1_000_000),
            ("converge-reciprocal", ("sequence", "budget"), 1_000_001, 1_000_000),
            ("converge-reciprocal", ("checks", 1, "p_max"), 1001, 1000),
            ("axioms-standard", ("space", "dimension"), 1001, 1000),
            ("axioms-standard", ("plan", "grid_points_per_axis"), 211, 210),
            ("axioms-standard", ("plan", "random_count"), 2001, 2000),
            ("axioms-standard", ("plan", "t_grid"), [float(i) for i in range(1, 72)], 70),
            ("axioms-standard", ("plan", "t_infinity_ladder"), [10.0**i for i in range(1, 42)], 40),
            ("funcseq-power-sweep", ("funcseq", "budget"), 1_000_001, 1_000_000),
            ("funcseq-power-sweep", ("sample", "points"), 171, 170),
            ("funcseq-power-sweep", ("sample", "refine_depth"), 1001, 1000),
            ("funcseq-power-sweep", ("checks", 2, "n"), 1001, 1000),
            ("uniform-reciprocal", ("checks", 1, "budgets", 0), 1_000_001, 1_000_000),
            ("uniform-reciprocal", ("checks", 1, "sequence", "budget"), 1_000_001, 1_000_000),
        ],
    )
    def test_size_fields_past_their_maximum_exit_two_before_running(
        self, tmp_path, monkeypatch, capsys, example, path, value, cap
    ):
        # no runner is reached: with none registered, a config that passed
        # the schema would be an internal fault (exit 3)
        import ifncheck.scenarios as scenarios

        monkeypatch.setattr(scenarios, "_RUNNERS", {})
        cfg = _example_with(example, path, value)
        command = _COMMAND_OF_KIND.get(cfg["scenario"], cfg["scenario"])
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        field = "/".join(map(str, path))
        if isinstance(value, list):
            assert len(value) == cap + 1
            found = f"{value!r} is too long"
        else:
            found = f"{value!r} is greater than the maximum of {cap!r}"
        assert capsys.readouterr().err == f"config error: config field {field}: {found}\n"

    @given(case=_configs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_schema_valid_configs_exit_0_1_or_2(self, case):
        # every config the schema accepts ends in a verdict or a config error
        scenario, cfg = case
        validate_config(cfg, scenario)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
            if scenario == "catalog":
                argv = ["catalog", cfg["name"]]
            else:
                # beside the report, so the directory's cleanup removes both
                path = pathlib.Path(out) / "config.json"
                path.write_text(json.dumps(cfg))
                argv = [_COMMAND_OF_KIND.get(scenario, scenario), "--config", str(path)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rc = main(argv + ["--out", out])
        assert rc in (0, 1, 2), (cfg, err.getvalue())

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_exit_three_when_report_cannot_be_written(self, tmp_path, monkeypatch, capsys, fmt):
        import ifncheck.scenarios as scenarios
        from ifncheck.report import PASS, CheckRecord, VerificationReport

        record = CheckRecord("unbounded", "a detail that is not finite", PASS, {"value": float("inf")})
        report = VerificationReport("converge", CONVERGE_CFG, 0, (record,))
        # the CLI imports run_scenario when a command runs, not at its own import
        monkeypatch.setattr(scenarios, "run_scenario", lambda *args, **kwargs: report)
        rc = main(
            ["converge", "--config", write_config(tmp_path, CONVERGE_CFG),
             "--out", str(tmp_path), "--format", fmt]
        )
        assert rc == 3
        assert "internal fault" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["record", "array"])
    def test_exit_three_when_a_report_holds_an_object(self, tmp_path, monkeypatch, capsys, kind):
        # a record or an array in the details is neither written as its repr
        # nor as a bare list: the report is refused
        import numpy as np

        import ifncheck.scenarios as scenarios
        from ifncheck.norm_algebra import Violation
        from ifncheck.report import PASS, CheckRecord, VerificationReport

        value = Violation("comm", (0.5, 0.25), "detail") if kind == "record" else np.array([0.5, 1.0])
        record = CheckRecord("object", "a detail that is not plain data", PASS, {"value": value})
        report = VerificationReport("converge", CONVERGE_CFG, 0, (record,))
        for render in (to_jsonl, to_text):
            with pytest.raises(TypeError, match="^a report holds plain data only"):
                render(report)
        monkeypatch.setattr(scenarios, "run_scenario", lambda *args, **kwargs: report)
        rc = main(["converge", "--config", write_config(tmp_path, CONVERGE_CFG), "--out", str(tmp_path)])
        assert rc == 3
        assert "cannot write report: TypeError: a report holds plain data only" in capsys.readouterr().err

    def test_numpy_scalars_and_subclasses_write_as_their_plain_values(self):
        # values off the exact-type table take the isinstance chain, and a
        # numpy scalar writes the bytes of its plain value
        import collections
        import enum

        import numpy as np

        from ifncheck.report import _to_json

        class Tag(str, enum.Enum):
            A = "a"

        class Count(enum.IntEnum):
            ONE = 1

        plain = [True, 2, 0.5, 0.1, "a", {"k": [1, None]}]
        other = [np.bool_(True), np.int64(2), np.float32(0.5), np.float64(0.1), Tag.A,
                 collections.OrderedDict(k=(Count.ONE, None))]
        assert _to_json(other) == _to_json(plain) == '[true,2,0.5,0.10000000000000001,"a",{"k":[1,null]}]'

    def test_exit_two_on_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["converge", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_strict_inconclusive_flag(self, tmp_path):
        # an oscillating sequence that happens to pass at the window's end
        cfg = {
            "scenario": "converge",
            "space": {"family": "standard"},
            "sequence": {"family": "alternating", "budget": 2000},
            "limit": 0.0,
            "checks": [{"kind": "convergence", "r": 0.5, "t": 1.0}],
        }
        # |(-1)^n| = 1, mu = 0.5: fails outright, so exercise the flag with
        # cauchy on a slowly improving tail instead; keep it simple: the
        # flag flips nothing on a clean pass
        rc = main(
            ["converge", "--config", write_config(tmp_path, CONVERGE_CFG),
             "--out", str(tmp_path), "--strict-inconclusive"]
        )
        assert rc == 0

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("IFNCHECK_SEED", "123")
        rc = main(
            ["converge", "--config", write_config(tmp_path, CONVERGE_CFG), "--out", str(tmp_path)]
        )
        assert rc == 0
        assert "seed 123" in capsys.readouterr().out

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("IFNCHECK_SEED", "123")
        rc = main(
            ["converge", "--config", write_config(tmp_path, CONVERGE_CFG),
             "--out", str(tmp_path), "--seed", "7"]
        )
        assert rc == 0
        assert "seed 7" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, env, seed",
        [
            (["catalog", "theorem-3.7", "--seed", "-1"], None, -1),
            (["catalog", "theorem-3.7"], "-1", -1),
            (["topology", "--config", {"scenario": "topology", "seed": -5, "space": {"family": "standard"},
              "checks": [{"kind": "set-open", "set": {"kind": "norm-ball"}}]}], None, -5),
        ],
        ids=["flag", "environment", "config"],
    )
    def test_negative_seeds_are_config_errors(self, tmp_path, monkeypatch, capsys, argv, env, seed):
        # the schema types a seed as any integer; numpy seeds only with one >= 0
        if env is None:
            monkeypatch.delenv("IFNCHECK_SEED", raising=False)
        else:
            monkeypatch.setenv("IFNCHECK_SEED", env)
        argv = [write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: seed must be a non-negative integer, got {seed}\n"

    def test_config_seed_of_another_type_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # the config's seed is read after validation, not cast before it
        monkeypatch.delenv("IFNCHECK_SEED", raising=False)
        cfg = dict(CONVERGE_CFG, seed="x")
        assert main(["converge", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: config field seed: 'x' is not of type 'integer'\n"

    def test_unknown_catalog_name_is_one_plain_line(self, tmp_path, capsys):
        assert main(["catalog", "nope", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: unknown catalog scenario 'nope'; see list-catalog\n"

    def test_list_catalog(self, capsys):
        assert main(["list-catalog"]) == 0
        out = capsys.readouterr().out
        assert "example-3.15" in out and "uniform-limit-theorem" in out

    @pytest.mark.parametrize("module", ["ifncheck.catalog", "ifncheck.cli"])
    def test_catalog_path_leaves_jsonschema_unloaded(self, module):
        # nothing imports jsonschema at run time, and list-catalog loads no numpy
        assert _python(f"import sys, {module}; print('jsonschema' in sys.modules)") == "False\n"
        if module == "ifncheck.cli":
            # the listing is the one the CLI printed from CATALOG
            listing = "".join(f"{name}: {description}\n" for name, (description, _) in CATALOG.items())
            assert _python("-m", "ifncheck.cli", "list-catalog") == listing
            code = "import sys, ifncheck.cli as c; c.main(['list-catalog']); print('numpy' in sys.modules)"
            assert _python(code) == listing + "False\n"

    def test_package_exports_resolve(self):
        import ifncheck

        namespace = {}
        exec("from ifncheck import *", namespace)
        for name in ifncheck.__all__:
            assert name in dir(ifncheck) and namespace[name] is getattr(ifncheck, name)

    # the ifncheck modules that each command leaves unloaded
    UNLOADED = {
        "axioms": ("point_convergence", "continuity", "topology", "function_sequences", "catalog"),
        "converge": ("continuity", "topology", "function_sequences", "catalog"),
        "continuity": ("topology", "function_sequences", "catalog"),
        "uniform": ("topology", "function_sequences", "catalog"),
        "topology": ("function_sequences", "catalog"),
        "funcseq": ("topology", "catalog"),
    }

    @pytest.mark.parametrize("name", [p.name for p in sorted(EXAMPLES.glob("*.json"))])
    def test_examples_run_without_jsonschema_or_numpy_ma(self, name, tmp_path):
        # validation is built in, no call on the config path loads numpy.ma,
        # and a command loads no runner module of another command
        command = name.split("-")[0]
        argv = [command, "--config", str(EXAMPLES / name), "--out", str(tmp_path)]
        code = (
            "import sys; sys.modules['jsonschema'] = None; import ifncheck.cli as c; "
            f"rc = c.main({argv!r}); "
            "print(rc, 'numpy.ma' in sys.modules, "
            f"sorted(m for m in {list(self.UNLOADED[command])!r} if 'ifncheck.' + m in sys.modules))"
        )
        assert _python(code).splitlines()[-1] == f"{int(name in FAILING_EXAMPLES)} False []"

    def test_catalog_run_writes_report(self, tmp_path, capsys):
        rc = main(["catalog", "example-4-quotient", "--out", str(tmp_path), "--format", "text"])
        assert rc == 0
        assert (tmp_path / "report.txt").exists()

    def test_catalog_text_report_carries_anchors(self, tmp_path):
        main(["catalog", "example-3.15", "--out", str(tmp_path), "--format", "text"])
        text = (tmp_path / "report.txt").read_text()
        assert "1/x" in text and "::" in text


RECIPROCAL_MAP_CFG = {
    "domain_space": {"family": "example", "tag": "example-3.15-A"},
    "codomain_space": {"family": "example", "tag": "example-3.15-B(k=3)"},
    "map": {
        "rule": "reciprocal",
        "domain": {"lo": 0.0, "hi": 1.0, "open_lo": True, "open_hi": True},
    },
}


class TestEveryScenarioKind:
    def test_continuity_kind(self):
        cfg = dict(
            RECIPROCAL_MAP_CFG,
            scenario="continuity",
            points=[0.25, 0.5],
            checks=[
                {"kind": "witness", "epsilon": 1.0, "alpha": 0.5},
                {"kind": "sequential", "r": 0.2, "t": 0.5, "budget": 20000},
                {"kind": "equivalence", "epsilon": 1.0, "alpha": 0.5, "r": 0.2, "t": 0.5, "budget": 20000},
            ],
        )
        report = run_scenario(cfg)
        assert len(report.records) == 6
        assert not report.failed()

    def test_uniform_kind_reports_genuine_failure(self):
        # a generic scenario answers the property question: the reciprocal
        # map is not uniformly continuous, so both checks fail (exit 1)
        cfg = dict(
            RECIPROCAL_MAP_CFG,
            scenario="uniform-continuity",
            checks=[
                {"kind": "uniform-witness", "epsilon": 1.0, "alpha": 0.5},
                {"kind": "cauchy-preservation", "r": 0.5, "t": 1.0,
                 "sequence": {"family": "reciprocal", "budget": 8000}},
            ],
        )
        report = run_scenario(cfg)
        assert report.failed()
        assert [r.verdict for r in report.records] == ["fail", "fail"]

    def test_uniform_kind_passes_for_uniform_map(self):
        cfg = {
            "scenario": "uniform-continuity",
            "domain_space": {"family": "standard", "k": 1.0},
            "codomain_space": {"family": "standard", "k": 1.0},
            "map": {"rule": "affine", "params": [2.0, 0.0], "domain": {"lo": 0.0, "hi": 1.0}},
            "checks": [{"kind": "uniform-witness", "epsilon": 1.0, "alpha": 0.5}],
        }
        assert not run_scenario(cfg).failed()

    def test_topology_kind(self):
        cfg = {
            "scenario": "topology",
            "space": {"family": "standard", "k": 1.0},
            "checks": [
                {"kind": "ball-contains", "ball": {"center": 0.0, "r": 0.5, "t": 1.0}, "point": 0.5},
                {"kind": "classical-radius", "ball": {"center": 0.0, "r": 0.5, "t": 1.0}},
                {"kind": "inner-ball", "ball": {"center": 0.0, "r": 0.5, "t": 1.0}, "point": 0.2},
                {"kind": "set-open", "set": {"kind": "norm-ball", "params": [1.0]}},
                {"kind": "preimage-open", "ball": {"center": 0.0, "r": 0.5, "t": 1.0},
                 "map": {"rule": "affine", "params": [2.0, 0.0], "domain": {"lo": -2.0, "hi": 2.0}}},
            ],
        }
        report = run_scenario(cfg)
        assert not report.failed()
        by_name = {r.name: r for r in report.records}
        assert by_name["ball-contains/0"].details["contained"] is True
        assert by_name["classical-radius/1"].details["rho"] == 1.0
        assert by_name["inner-ball/2"].verdict == "pass"
        assert by_name["set-open/3"].verdict == "pass"
        assert by_name["preimage-open/4"].verdict == "pass"

    def test_default_set_members_lie_in_the_space(self, tmp_path):
        # without members, a set samples its own on the first axis of a 2-d space
        cfg = {
            "scenario": "topology",
            "space": {"family": "standard", "dimension": 2},
            "checks": [{"kind": "set-open", "set": {"kind": "norm-ball"}}],
        }
        assert main(["topology", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 0
        (ball,) = run_scenario(cfg).records
        assert (ball.details["witnesses"], ball.details["open_at"]) == (5, 5)
        # of a closed slab's three default members only the midpoint is interior
        cfg["checks"] = [{"kind": "set-open", "set": {"kind": "interval", "params": [-1.0, 1.0]}}]
        (slab,) = run_scenario(cfg).records
        assert (slab.details["witnesses"], slab.details["open_at"]) == (3, 1)

    def test_cauchy_preservation_precondition_is_config_error(self):
        cfg = dict(
            RECIPROCAL_MAP_CFG,
            scenario="uniform-continuity",
            checks=[{"kind": "cauchy-preservation", "r": 0.5, "t": 1.0,
                     "sequence": {"family": "linear", "budget": 2000}}],
        )
        with pytest.raises(ConfigError, match="precondition"):
            run_scenario(cfg)


class TestExampleConfigs:
    def test_published_schema_is_current(self):
        import pathlib

        from ifncheck.config_schema import schema_document

        published = json.loads(
            pathlib.Path(__file__).parent.parent.joinpath("docs/config-schema.json").read_text()
        )
        assert published == json.loads(json.dumps(schema_document(), sort_keys=True))

    def test_documented_examples_validate_and_run(self):
        import pathlib

        examples = sorted(pathlib.Path(__file__).parent.parent.glob("docs/examples/*.json"))
        assert len(examples) >= 6
        for path in examples:
            cfg = json.loads(path.read_text())
            validate_config(cfg)
            report = run_scenario(cfg, seed=0)
            assert len(report.records) > 0, path.name
            assert report.failed() == (path.name in FAILING_EXAMPLES), path.name


    def test_benchmark_configs_are_the_examples(self):
        # the cli-cold benchmark workload runs copies of the documented examples
        root = pathlib.Path(__file__).parent.parent
        copies = sorted(root.glob("perfbench/configs/*.json"))
        assert len(copies) >= 6
        for path in copies:
            assert path.read_bytes() == (root / "docs" / "examples" / path.name).read_bytes(), path.name
            validate_config(json.loads(path.read_text()))

    def test_schemas_are_valid_json_schemas(self):
        # validate_config does not re-check its constant schemas on every call
        for schema in SCHEMAS.values():
            jsonschema.Draft202012Validator.check_schema(schema)


class _Reads(dict):
    """A dict that records the keys read from it."""

    def __init__(self, fields, log):
        super().__init__(fields)
        self.log = log

    def __getitem__(self, key):
        self.log.add(key)
        return super().__getitem__(key)


_BALL = {"center": 0.0, "r": 0.5, "t": 1.0}

# one small config per scenario, together covering every check kind, space
# family and set kind
_READ_SET_CONFIGS = [
    dict(
        CONVERGE_CFG,
        checks=[{"kind": "convergence"}, {"kind": "cauchy", "p_max": 10}, {"kind": "classical-probe"}],
    ),
    dict(
        RECIPROCAL_MAP_CFG,
        scenario="continuity",
        points=[0.5],
        checks=[
            {"kind": "witness"},
            {"kind": "sequential", "budget": 2000},
            {"kind": "equivalence", "budget": 2000},
        ],
    ),
    dict(
        RECIPROCAL_MAP_CFG,
        scenario="uniform-continuity",
        checks=[
            {"kind": "uniform-witness"},
            {"kind": "cauchy-preservation", "sequence": {"family": "reciprocal", "budget": 200},
             "budgets": [100, 200]},
        ],
    ),
    {
        "scenario": "topology",
        "space": {"family": "standard"},
        "plan": {"grid_points_per_axis": 5, "random_count": 5},
        "checks": [
            {"kind": "ball-contains", "ball": _BALL, "point": 0.5},
            {"kind": "classical-radius", "ball": _BALL},
            {"kind": "inner-ball", "ball": _BALL, "point": 0.2},
            {"kind": "set-open", "set": {"kind": "norm-ball"}},
            {"kind": "set-open", "set": {"kind": "interval", "params": [-1.0, 1.0]}},
            {"kind": "set-open", "set": {"kind": "whole"}},
            {"kind": "preimage-open", "ball": _BALL,
             "map": {"rule": "affine", "params": [2.0, 0.0], "domain": {"lo": -2.0, "hi": 2.0}}},
        ],
    },
    {
        "scenario": "funcseq",
        "domain_space": {"family": "example", "tag": "example-4.x"},
        "codomain_space": {"family": "example", "tag": "example-4.x"},
        "funcseq": {"family": "power", "domain": {"lo": 0.0, "hi": 0.5}, "budget": 200},
        "sample": {"points": 5},
        "checks": [
            {"kind": "pointwise"},
            {"kind": "uniform-index"},
            {"kind": "cauchy-criterion", "p_max": 10},
            {"kind": "classical-probe"},
            {"kind": "sup-oracle"},
            {"kind": "uniform-limit"},
        ],
    },
]


def test_readers_read_exactly_the_declared_fields(monkeypatch):
    import ifncheck.config_schema as config_schema
    import ifncheck.scenarios as scenarios
    from ifncheck.config_schema import CHECK_FIELDS, SET_FIELDS, SPACE_FIELDS, fields_of

    reads = {}

    def recording(table, obj, key="kind"):
        return _Reads(fields_of(table, obj, key), reads.setdefault((id(table), obj[key]), set()))

    monkeypatch.setattr(scenarios, "fields_of", recording)
    monkeypatch.setattr(config_schema, "fields_of", recording)
    for cfg in _READ_SET_CONFIGS:
        run_scenario(cfg)
    for table in [*CHECK_FIELDS.values(), SPACE_FIELDS, SET_FIELDS]:
        for value, fields in table.items():
            assert reads.get((id(table), value)) == set(fields), value


class TestCatalogSerialization:
    def test_every_catalog_scenario_serialises_and_passes(self):
        from ifncheck.catalog import CATALOG

        for name in CATALOG:
            report = run_scenario({"scenario": "catalog", "name": name}, seed=0)
            assert not report.failed(), name
            for line in to_jsonl(report).splitlines():
                parsed = json.loads(line)  # every line is valid JSON
                assert parsed["kind"] in ("scenario", "record", "summary")


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["catalog", "theorem-2.10", "--out", str(d), "--seed", "5"]) == 0
        assert (d1 / "report.jsonl").read_bytes() == (d2 / "report.jsonl").read_bytes()

    def test_different_seeds_still_pass(self, tmp_path):
        assert main(["catalog", "theorem-2.10", "--out", str(tmp_path), "--seed", "99"]) == 0
