"""Scenario configuration: JSON schema, validation, and object builders.

A configuration is a single JSON document validated against the schema for
its scenario kind before any computation runs.  Each object whose fields
depend on a discriminator (a check's `kind`, a space's `family`, a set's
`kind`) has one table below naming the fields each value reads, with their
defaults.  The schema is generated from these tables and the readers fill
defaults from them, so a field that nothing reads is an error: a misspelled
parameter is never silently ignored.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from contextlib import contextmanager
from numbers import Number
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from . import __version__
from .errors import ConfigError, IFNError
from .ifn_core import (
    EXAMPLE_SPACES, NORM_FAMILIES, TIER_ORDER, IFNSpace, make_example_family, make_standard_space
)
from .norm_algebra import TCONORM_FAMILIES, TNORM_FAMILIES
from .sampling import (
    DEFAULT_GRID_POINTS, DEFAULT_HALFWIDTH, DEFAULT_RANDOM_COUNT, DEFAULT_T_GRID, DEFAULT_T_LADDER, Interval,
    SamplingPlan, product_grid,
)
from .vocabulary import DEFAULT_P_MAX, FUNCSEQ_FAMILY_NAMES, MAP_RULE_NAMES, SEQUENCE_FAMILY_NAMES

if TYPE_CHECKING:  # each builder imports its runner module's classes when called
    from .continuity import MapBetweenSpaces
    from .function_sequences import DomainSample, FunctionSequence
    from .point_convergence import PointSequence

# A field without a default, which the schema requires.  A default of None
# is computed by the reader (say, from the dimension or the sample).
REQUIRED = object()

_WITNESS = {"epsilon": 1.0, "alpha": 0.5}
_SEQUENTIAL = {"r": 0.2, "t": 0.5, "sequence_offset": 10.0, "budget": 20_000}
_DEMAND = {"r": 0.1, "t": 0.1}

CHECK_FIELDS: dict[str, dict[str, dict]] = {
    "converge": {
        "convergence": {"r": 0.5, "t": 1.0},
        "cauchy": {"r": 0.5, "t": 1.0, "p_max": DEFAULT_P_MAX},
        # the probe runs its own fixed (r, t) grid
        "classical-probe": {},
    },
    "continuity": {
        "witness": _WITNESS,
        "sequential": _SEQUENTIAL,
        "equivalence": _WITNESS | _SEQUENTIAL,
    },
    "uniform-continuity": {
        "uniform-witness": _WITNESS,
        "cauchy-preservation": {
            "sequence": {"family": "reciprocal", "budget": 8000},
            "r": 0.5,
            "t": 1.0,
            "p_max": DEFAULT_P_MAX,
            "budgets": [1000, 2000, 4000, 8000],
        },
    },
    "topology": {
        "ball-contains": {"ball": REQUIRED, "point": REQUIRED},
        "classical-radius": {"ball": REQUIRED},
        "inner-ball": {"ball": REQUIRED, "point": REQUIRED},
        "set-open": {"set": REQUIRED},
        "preimage-open": {"ball": REQUIRED, "map": REQUIRED},
    },
    "funcseq": {
        # x defaults to the middle sample point
        "pointwise": _DEMAND | {"x": None},
        "uniform-index": _DEMAND,
        "cauchy-criterion": _DEMAND | {"p_max": DEFAULT_P_MAX},
        "classical-probe": _DEMAND,
        # the oracle is (r, t)-independent
        "sup-oracle": {"a": 0.5, "m": 2, "n": 4},
        "uniform-limit": _DEMAND | {"epsilon": 0.5, "alpha": 0.25},
    },
}

SPACE_FIELDS = {
    "standard": {
        "k": 1.0,
        "dimension": 1,
        "norm": None,  # absolute-value in dimension 1, else euclidean
        "tnorm": "minimum",
        "tconorm": "maximum",
        "tier": "strict",
    },
    "example": {"tag": REQUIRED},
}

# a norm ball without params has radius 1; without members, each kind
# samples its own
SET_FIELDS = {
    "norm-ball": {"params": None, "members": None},
    "interval": {"params": REQUIRED, "members": None},
    "whole": {"members": None},
}


def fields_of(table: dict, obj: dict, key: str = "kind") -> dict:
    """The fields `table` declares for `obj[key]`, with defaults filled in."""
    return {f: obj[f] if d is REQUIRED else obj.get(f, d) for f, d in table[obj[key]].items()}


def _when(key: str, value: str, then: dict) -> dict:
    """Schema clause: an object whose `key` is `value` must also match `then`."""
    return {"if": {"properties": {key: {"const": value}}, "required": [key]}, "then": then}


def _closed(properties: dict, *required: str) -> dict:
    """Object schema that allows exactly `properties` and requires `required`."""
    schema = {"type": "object", "properties": properties}
    if required:
        schema["required"] = list(required)
    return schema | {"additionalProperties": False}


def _keyed(key: str, table: dict, types: dict, narrow: dict | None = None) -> dict:
    """Object schema on which `obj[key]` allows exactly the fields `table`
    declares for it: those without a default are required, the others carry
    their default as an annotation.  `narrow` adds per-value constraints."""
    clauses = []
    for value, fields in table.items():
        then = {"propertyNames": {"enum": [key, *fields]}}
        required = [f for f, d in fields.items() if d is REQUIRED]
        props = {f: {"default": d} for f, d in fields.items() if d is not REQUIRED and d is not None}
        for f, schema in (narrow or {}).get(value, {}).items():
            props[f] = props.get(f, {}) | schema
        if required:
            then["required"] = required
        if props:
            then["properties"] = props
        clauses.append(_when(key, value, then))
    used = dict.fromkeys(f for fields in table.values() for f in fields)
    return _closed({key: {"enum": list(table)}} | {f: types[f] for f in used}, key) | {"allOf": clauses}


def _or_list(item: dict) -> dict:
    """One `item` or a nonempty list of them."""
    return {"anyOf": [item, {"type": "array", "items": item, "minItems": 1}]}


_NUMBER = {"type": "number"}
_NUMBER_OR_LIST = _or_list(_NUMBER)
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_UNIT = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
# A size field's maximum is this factor times the largest value that an
# example, benchmark or catalog config uses (README, "Exit codes").
_ENVELOPE = 10
_COUNT = {"type": "integer", "minimum": 1, "maximum": 100 * _ENVELOPE}
_BUDGET = {"type": "integer", "minimum": 10, "maximum": 100_000 * _ENVELOPE}

INTERVAL_SCHEMA = _closed(
    {
        "lo": _NUMBER,
        "hi": _NUMBER,
        "open_lo": {"type": "boolean"},
        "open_hi": {"type": "boolean"},
    },
    "lo",
    "hi",
)

SPACE_SCHEMA = _keyed(
    "family",
    SPACE_FIELDS,
    {
        "tag": {"enum": list(EXAMPLE_SPACES)},
        "k": _POSITIVE,
        "dimension": _COUNT,
        "norm": {"enum": list(NORM_FAMILIES)},
        "tnorm": {"enum": list(TNORM_FAMILIES)},
        "tconorm": {"enum": list(TCONORM_FAMILIES)},
        "tier": {"enum": list(TIER_ORDER)},
    },
)

PLAN_SCHEMA = _closed(
    {
        "grid_points_per_axis": {"type": "integer", "minimum": 2, "maximum": 21 * _ENVELOPE},
        "grid_halfwidth": _POSITIVE,
        "t_grid": {"type": "array", "items": _POSITIVE, "minItems": 1, "maxItems": 7 * _ENVELOPE},
        "random_count": {"type": "integer", "minimum": 0, "maximum": 200 * _ENVELOPE},
        "t_infinity_ladder": {"type": "array", "items": _POSITIVE, "minItems": 2, "maxItems": 4 * _ENVELOPE},
    }
)

SEQUENCE_SCHEMA = _closed(
    {
        "family": {"enum": list(SEQUENCE_FAMILY_NAMES)},
        "params": {"type": "array", "items": _NUMBER},
        "budget": _BUDGET,
    },
    "family",
)

MAP_SCHEMA = _closed(
    {
        "rule": {"enum": list(MAP_RULE_NAMES)},
        "params": {"type": "array", "items": _NUMBER},
        "domain": INTERVAL_SCHEMA,
    },
    "rule",
    "domain",
)

FUNCSEQ_SCHEMA = _closed(
    {
        "family": {"enum": list(FUNCSEQ_FAMILY_NAMES)},
        "domain": INTERVAL_SCHEMA,
        "budget": _BUDGET,
        # sweep of upper endpoints: index searches run once per value,
        # each over [lo, hi_i], to build index surfaces over the domain
        "hi_sweep": {"type": "array", "items": _NUMBER, "minItems": 1},
    },
    "family",
    "domain",
)

SAMPLE_SCHEMA = _closed(
    {
        "points": {"type": "integer", "minimum": 2, "maximum": 17 * _ENVELOPE},
        "refine_side": {"enum": ["lo", "hi"]},
        "refine_depth": _COUNT,
    }
)

SET_SCHEMA = _keyed(
    "kind",
    SET_FIELDS,
    {
        "params": {"type": "array", "items": _NUMBER},
        "members": {"type": "array", "items": _NUMBER_OR_LIST, "minItems": 1},
    },
    # a norm ball reads its radius, an interval its two endpoints
    narrow={"norm-ball": {"params": {"maxItems": 1}}, "interval": {"params": {"minItems": 2, "maxItems": 2}}},
)

# The type of every check field.  Every (r, t) demand has r in (0, 1) and
# t > 0; continuity and uniform continuity take a single one.
_CHECK_TYPES = {
    "r": _or_list(_UNIT),
    "t": _or_list(_POSITIVE),
    "p_max": _COUNT,
    "epsilon": _POSITIVE,
    "alpha": _UNIT,
    "sequence_offset": _POSITIVE,
    "budget": _BUDGET,
    "sequence": SEQUENCE_SCHEMA,
    "budgets": {"type": "array", "items": _BUDGET, "minItems": 2},
    "ball": _closed({"center": _NUMBER_OR_LIST, "r": _UNIT, "t": _POSITIVE}, "center", "r", "t"),
    "point": _NUMBER_OR_LIST,
    "set": SET_SCHEMA,
    "map": MAP_SCHEMA,
    "x": _NUMBER,
    "a": _UNIT,
    "m": _COUNT,
    "n": _COUNT,
}
_SINGLE_DEMAND = _CHECK_TYPES | {"r": _UNIT, "t": _POSITIVE}


def _checks(scenario: str, types: dict = _CHECK_TYPES) -> dict:
    return {"type": "array", "items": _keyed("kind", CHECK_FIELDS[scenario], types)}


# The fields of each scenario's config besides `scenario` and `seed`; each
# is required unless `_OPTIONAL` names it.
_SCENARIO_FIELDS = {
    "axioms": {
        "space": SPACE_SCHEMA,
        "plan": PLAN_SCHEMA,
        "tier": {"enum": list(TIER_ORDER)},
        "include_forcing_conditions": {"type": "boolean"},
    },
    "converge": {
        "space": SPACE_SCHEMA,
        "sequence": SEQUENCE_SCHEMA,
        "limit": _NUMBER_OR_LIST,
        "checks": _checks("converge"),
    },
    "continuity": {
        "domain_space": SPACE_SCHEMA,
        "codomain_space": SPACE_SCHEMA,
        "map": MAP_SCHEMA,
        "points": {"type": "array", "items": _NUMBER, "minItems": 1},
        "checks": _checks("continuity", _SINGLE_DEMAND),
    },
    "uniform-continuity": {
        "domain_space": SPACE_SCHEMA,
        "codomain_space": SPACE_SCHEMA,
        "map": MAP_SCHEMA,
        "checks": _checks("uniform-continuity", _SINGLE_DEMAND),
    },
    "topology": {"space": SPACE_SCHEMA, "plan": PLAN_SCHEMA, "checks": _checks("topology")},
    "funcseq": {
        "domain_space": SPACE_SCHEMA,
        "codomain_space": SPACE_SCHEMA,
        "funcseq": FUNCSEQ_SCHEMA,
        "sample": SAMPLE_SCHEMA,
        "checks": _checks("funcseq"),
    },
    "catalog": {"name": {"type": "string"}},
}
_OPTIONAL = ("plan", "tier", "include_forcing_conditions", "sample")

SCHEMAS: dict[str, dict] = {
    kind: _closed(
        {"scenario": {"const": kind}, "seed": {"type": "integer"}} | fields,
        *(f for f in fields if f not in _OPTIONAL),
    )
    for kind, fields in _SCENARIO_FIELDS.items()
}


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc


def _reject_constant(token: str):
    raise ConfigError(f"config holds {token}, which is not a JSON number")


def _finite(token: str) -> float:
    """A float literal, which must not round to an infinity (1e999 does)."""
    if math.isinf(value := float(token)):
        raise ConfigError(f"config holds {token}, which overflows binary64")
    return value


def validate_config(config: dict, kind: str | None = None) -> str:
    """Validate against the scenario schema; returns the scenario kind."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    scenario = kind or config.get("scenario")
    if scenario is None:
        raise ConfigError("config needs a 'scenario' field (or pass the kind explicitly)")
    if not isinstance(scenario, str) or scenario not in SCHEMAS:
        raise ConfigError(f"unknown scenario kind {scenario!r}; expected one of {sorted(SCHEMAS)}")
    if "scenario" in config and config["scenario"] != scenario:
        raise ConfigError(
            f"config says scenario={config['scenario']!r} but {scenario!r} was requested"
        )
    # then, as the schema accepts 10**400 as a number, once more for binary64
    for binary64 in (False, True):
        if (error := best_error(SCHEMAS[scenario], config, binary64)) is not None:
            message = "integer overflows binary64" if binary64 else error.message
            raise ConfigError(f"config field {'/'.join(map(str, error.path)) or '<root>'}: {message}")
    return scenario


def _integers(schema: dict, value):
    """A validated `value` with each float in an `integer` field made an int:
    the schema counts 2.0 as an integer, and the runners size and index
    with it.  Every integer field sits under `properties` or `items`."""
    if schema.get("type") == "integer" and isinstance(value, float):
        return int(value)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return {f: _integers(props[f], v) if f in props else v for f, v in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_integers(schema["items"], v) for v in value]
    return value


# untyped: no "type" in the keyword's schema matches the value; context: an anyOf's errors
SchemaError = namedtuple("SchemaError", "path keyword message untyped context")


def _is(value, kind: str, binary64: bool = False) -> bool:
    """JSON Schema types: a bool is not a number, and 2.0 is an integer; with
    `binary64`, a number is also one that float() converts."""
    if isinstance(value, bool) and kind in ("number", "integer"):
        return False
    if kind == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if binary64 and kind == "number" and isinstance(value, int):
        return abs(value) < 2**1024 - 2**970  # float() rounds this up to 2**1024
    return isinstance(value, {"object": dict, "array": list, "string": str, "boolean": bool}.get(kind, Number))


def _errors(schema: dict, value, path: tuple = (), binary64: bool = False) -> Iterator[SchemaError]:
    """The errors of `value` under the keywords `SCHEMAS` uses, in the order
    a JSON Schema 2020-12 validator (jsonschema's) yields them."""
    for key, arg in schema.items():
        found, below, context = [], [], []
        # enum and const use JSON equality, where True is not 1
        if key in ("enum", "const") and not any(
            isinstance(v, bool) == isinstance(value, bool) and v == value
            for v in (arg if key == "enum" else [arg])
        ):
            found = [f"{value!r} is not one of {arg!r}" if key == "enum" else f"{arg!r} was expected"]
        elif key == "type" and not _is(value, arg, binary64):
            found = [f"{value!r} is not of type {arg!r}"]
        elif key == "anyOf" and all(branches := [list(_errors(sub, value, path, binary64)) for sub in arg]):
            context = [error for errors in branches for error in errors]
            found = [f"{value!r} is not valid under any of the given schemas"]
        elif key == "allOf":
            below = [(sub, value, path) for sub in arg]
        elif key == "if" and "then" in schema and next(_errors(arg, value, path, binary64), None) is None:
            below = [(schema["then"], value, path)]
        elif key == "properties" and isinstance(value, dict):
            below = [(sub, value[f], (*path, f)) for f, sub in arg.items() if f in value]
        elif key == "required" and isinstance(value, dict):
            found = [f"{f!r} is a required property" for f in arg if f not in value]
        elif key == "additionalProperties" and arg is False and isinstance(value, dict):
            extra = [repr(f) for f in sorted(value, key=str) if f not in schema.get("properties", {})]
            if extra:
                verb = "was" if len(extra) == 1 else "were"
                found = [f"Additional properties are not allowed ({', '.join(extra)} {verb} unexpected)"]
        elif key == "propertyNames" and isinstance(value, dict):
            below = [(arg, f, path) for f in value]
        elif key == "items" and isinstance(value, list):
            below = [(arg, v, (*path, i)) for i, v in enumerate(value)]
        elif key == "minItems" and isinstance(value, list) and len(value) < arg:
            found = [f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"]
        elif key == "maxItems" and isinstance(value, list) and len(value) > arg:
            found = [f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"]
        elif key == "minimum" and _is(value, "number") and value < arg:
            found = [f"{value!r} is less than the minimum of {arg!r}"]
        elif key == "maximum" and _is(value, "number") and value > arg:
            found = [f"{value!r} is greater than the maximum of {arg!r}"]
        elif key == "exclusiveMinimum" and _is(value, "number") and value <= arg:
            found = [f"{value!r} is less than or equal to the minimum of {arg!r}"]
        elif key == "exclusiveMaximum" and _is(value, "number") and value >= arg:
            found = [f"{value!r} is greater than or equal to the maximum of {arg!r}"]
        untyped = "type" not in schema or not _is(value, schema["type"])
        yield from (SchemaError(path, key, message, untyped, context) for message in found)
        for sub, v, p in below:
            yield from _errors(sub, v, p, binary64)


def _relevance(error: SchemaError) -> tuple:
    return (-len(error.path), error.path, error.keyword != "anyOf", error.untyped)


def best_error(schema: dict, value, binary64: bool = False) -> SchemaError | None:
    """The error jsonschema's `best_match` picks: the most relevant, then, in
    an anyOf, the deepest of its branches' errors unless the two deepest tie."""
    best = max(_errors(schema, value, (), binary64), key=_relevance, default=None)
    while best is not None and best.context:
        first, *second = sorted(best.context, key=_relevance)[:2]
        if second and _relevance(first) == _relevance(second[0]):
            break
        best = first
    return best


def schema_document() -> dict:
    """The published schema document (one entry per scenario kind)."""
    return {"version": __version__, "scenarios": SCHEMAS}


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


@contextmanager
def _config_errors(field: str):
    """Raise a package error in the block as a ConfigError whose message
    starts with `field`; a ConfigError (a nested builder's) passes as it is."""
    try:
        yield
    except ConfigError:
        raise
    except IFNError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def build_space(cfg: dict, verify: bool = True) -> IFNSpace:
    """The configured space; `verify` makes a standard space's construction
    check a precondition (a failure is a config error)."""
    f = fields_of(SPACE_FIELDS, cfg, "family")
    with _config_errors("space"):
        if cfg["family"] == "example":
            return make_example_family(f["tag"])
        return make_standard_space(
            k=f["k"],
            norm=f["norm"],
            dimension=f["dimension"],
            ops=(f["tnorm"], f["tconorm"]),
            tier=f["tier"],
            verify=verify,
        )


def build_plan(cfg: dict | None, dimension: int, seed: int) -> SamplingPlan:
    cfg = cfg or {}
    w = cfg.get("grid_halfwidth", DEFAULT_HALFWIDTH)
    n = cfg.get("grid_points_per_axis", DEFAULT_GRID_POINTS)
    with _config_errors("plan grid_halfwidth"):
        # the same points as np.linspace(-w, w, n), once the width 2w is known to be finite
        axis = Interval(-w, w).grid(n)
    with _config_errors("plan"):
        return SamplingPlan(
            product_grid(axis, dimension, seed),
            t_grid=tuple(cfg.get("t_grid", DEFAULT_T_GRID)),
            random_count=cfg.get("random_count", DEFAULT_RANDOM_COUNT),
            seed=seed,
            t_infinity_ladder=tuple(cfg.get("t_infinity_ladder", DEFAULT_T_LADDER)),
            random_halfwidth=w,
        )


def build_sequence(cfg: dict) -> PointSequence:
    from .point_convergence import DEFAULT_BUDGET, PointSequence

    with _config_errors("sequence"):
        return PointSequence(
            cfg["family"],
            tuple(cfg.get("params", ())),
            budget=cfg.get("budget", DEFAULT_BUDGET),
        )


def build_interval(cfg: dict) -> Interval:
    with _config_errors("interval"):
        return Interval(**cfg)


def build_map(cfg: dict, domain_space: IFNSpace, codomain_space: IFNSpace) -> MapBetweenSpaces:
    from .continuity import make_map, rule

    with _config_errors("map"):
        f = rule(cfg["rule"], *cfg.get("params", ()))
        return make_map(domain_space, codomain_space, f, build_interval(cfg["domain"]))


def build_funcseq(cfg: dict) -> list[FunctionSequence]:
    """One sequence per swept upper endpoint (a single-element list when no
    sweep is requested)."""
    from .function_sequences import DEFAULT_BUDGET, FunctionSequence

    with _config_errors("funcseq"):
        base = build_interval(cfg["domain"])
        return [
            FunctionSequence(
                cfg["family"],
                Interval(base.lo, float(hi), base.open_lo, base.open_hi),
                budget=cfg.get("budget", DEFAULT_BUDGET),
            )
            for hi in cfg.get("hi_sweep", [base.hi])
        ]


def build_sample(cfg: dict | None, interval: Interval) -> DomainSample:
    from .function_sequences import sample_domain

    # a field the config leaves out takes sample_domain's default
    args = {"points": "n", "refine_side": "refine_side", "refine_depth": "refine_depth"}
    return sample_domain(interval, **{args[f]: v for f, v in (cfg or {}).items()})


def as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]
