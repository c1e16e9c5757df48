"""Scenario configuration: JSON schema, validation, and object builders.

A configuration is a single JSON document validated against the schema for
its scenario kind before any computation runs; unknown keys are errors (a
misspelled parameter must never be silently ignored).
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np

from .continuity import MapBetweenSpaces, MapRule, make_map
from .errors import ConfigError, IFNError
from .function_sequences import DomainSample, FunctionSequence, sample_domain
from .ifn_core import IFNSpace, make_example_family, make_standard_space
from .point_convergence import PointSequence
from .sampling import Interval, SamplingPlan, product_grid

_NUMBER = {"type": "number"}
_NUMBER_OR_LIST = {
    "anyOf": [{"type": "number"}, {"type": "array", "items": {"type": "number"}, "minItems": 1}]
}

INTERVAL_SCHEMA = {
    "type": "object",
    "properties": {
        "lo": _NUMBER,
        "hi": _NUMBER,
        "open_lo": {"type": "boolean"},
        "open_hi": {"type": "boolean"},
    },
    "required": ["lo", "hi"],
    "additionalProperties": False,
}

SPACE_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {"enum": ["standard", "example"]},
        "tag": {"type": "string"},
        "k": {"type": "number", "exclusiveMinimum": 0},
        "dimension": {"type": "integer", "minimum": 1},
        "norm": {"enum": ["absolute-value", "euclidean", "max-coordinate"]},
        "tnorm": {"enum": ["minimum", "product", "lukasiewicz"]},
        "tconorm": {"enum": ["maximum", "probabilistic-sum", "lukasiewicz"]},
        "tier": {"enum": ["core", "idempotent", "strict"]},
    },
    "required": ["family"],
    "additionalProperties": False,
}

PLAN_SCHEMA = {
    "type": "object",
    "properties": {
        "grid_points_per_axis": {"type": "integer", "minimum": 2},
        "grid_halfwidth": {"type": "number", "exclusiveMinimum": 0},
        "t_grid": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
        "random_count": {"type": "integer", "minimum": 0},
        "t_infinity_ladder": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 2},
    },
    "additionalProperties": False,
}

SEQUENCE_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {
            "enum": ["reciprocal", "constant", "linear", "alternating", "shifted-reciprocal"]
        },
        "params": {"type": "array", "items": {"type": "number"}},
        "budget": {"type": "integer", "minimum": 10},
    },
    "required": ["family"],
    "additionalProperties": False,
}

MAP_SCHEMA = {
    "type": "object",
    "properties": {
        "rule": {
            "enum": ["identity", "affine", "power", "reciprocal", "quotient", "step", "constant"]
        },
        "params": {"type": "array", "items": {"type": "number"}},
        "domain": INTERVAL_SCHEMA,
    },
    "required": ["rule", "domain"],
    "additionalProperties": False,
}

FUNCSEQ_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {"enum": ["power", "quotient", "scaled", "constant"]},
        "domain": INTERVAL_SCHEMA,
        "budget": {"type": "integer", "minimum": 10},
        # sweep of upper endpoints: index searches run once per value,
        # each over [lo, hi_i], to build index surfaces over the domain
        "hi_sweep": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
    "required": ["family", "domain"],
    "additionalProperties": False,
}

SAMPLE_SCHEMA = {
    "type": "object",
    "properties": {
        "points": {"type": "integer", "minimum": 2},
        "refine_side": {"enum": ["lo", "hi"]},
        "refine_depth": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}

_SEED = {"type": "integer"}


def _when(kind: str, then: dict) -> dict:
    """Schema clause: an object whose kind is `kind` must also match `then`."""
    return {"if": {"properties": {"kind": {"const": kind}}}, "then": then}


def _scenario_schema(kind: str, extra_properties: dict, required: list[str]) -> dict:
    props = {"scenario": {"const": kind}, "seed": _SEED}
    props.update(extra_properties)
    return {
        "type": "object",
        "properties": props,
        "required": required,
        "additionalProperties": False,
    }


SCHEMAS: dict[str, dict] = {
    "axioms": _scenario_schema(
        "axioms",
        {
            "space": SPACE_SCHEMA,
            "plan": PLAN_SCHEMA,
            "tier": {"enum": ["core", "idempotent", "strict"]},
            "include_forcing_conditions": {"type": "boolean"},
        },
        ["space"],
    ),
    "converge": _scenario_schema(
        "converge",
        {
            "space": SPACE_SCHEMA,
            "sequence": SEQUENCE_SCHEMA,
            "limit": _NUMBER_OR_LIST,
            "checks": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": ["convergence", "cauchy", "classical-probe"]},
                        "r": _NUMBER_OR_LIST,
                        "t": _NUMBER_OR_LIST,
                        "p_max": {"type": "integer", "minimum": 1},
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                },
            },
        },
        ["space", "sequence", "limit", "checks"],
    ),
    "continuity": _scenario_schema(
        "continuity",
        {
            "domain_space": SPACE_SCHEMA,
            "codomain_space": SPACE_SCHEMA,
            "map": MAP_SCHEMA,
            "points": {"type": "array", "items": _NUMBER, "minItems": 1},
            "checks": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": ["witness", "sequential", "equivalence"]},
                        "epsilon": {"type": "number", "exclusiveMinimum": 0},
                        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                        "r": _NUMBER,
                        "t": _NUMBER,
                        "sequence_offset": {"type": "number", "exclusiveMinimum": 0},
                        "budget": {"type": "integer", "minimum": 10},
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                },
            },
        },
        ["domain_space", "codomain_space", "map", "points", "checks"],
    ),
    "uniform-continuity": _scenario_schema(
        "uniform-continuity",
        {
            "domain_space": SPACE_SCHEMA,
            "codomain_space": SPACE_SCHEMA,
            "map": MAP_SCHEMA,
            "checks": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "kind": {"enum": ["uniform-witness", "cauchy-preservation"]},
                        "epsilon": {"type": "number", "exclusiveMinimum": 0},
                        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                        "r": _NUMBER,
                        "t": _NUMBER,
                        "p_max": {"type": "integer", "minimum": 1},
                        "sequence": SEQUENCE_SCHEMA,
                        "budgets": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 10},
                            "minItems": 2,
                        },
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                },
            },
        },
        ["domain_space", "codomain_space", "map", "checks"],
    ),
    "topology": _scenario_schema(
        "topology",
        {
            "space": SPACE_SCHEMA,
            "plan": PLAN_SCHEMA,
            "checks": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "kind": {
                            "enum": [
                                "ball-contains",
                                "classical-radius",
                                "inner-ball",
                                "set-open",
                                "preimage-open",
                            ]
                        },
                        "ball": {
                            "type": "object",
                            "properties": {
                                "center": _NUMBER_OR_LIST,
                                "r": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                                "t": {"type": "number", "exclusiveMinimum": 0},
                            },
                            "required": ["center", "r", "t"],
                            "additionalProperties": False,
                        },
                        "point": _NUMBER_OR_LIST,
                        "set": {
                            "type": "object",
                            "properties": {
                                "kind": {"enum": ["norm-ball", "interval", "whole"]},
                                "params": {"type": "array", "items": _NUMBER},
                                "members": {"type": "array", "items": _NUMBER_OR_LIST, "minItems": 1},
                            },
                            "required": ["kind"],
                            "additionalProperties": False,
                            "allOf": [
                                _when(
                                    "interval",
                                    {
                                        "required": ["params"],
                                        "properties": {"params": {"minItems": 2, "maxItems": 2}},
                                    },
                                ),
                            ],
                        },
                        "map": MAP_SCHEMA,
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                    # the fields each check kind reads
                    "allOf": [
                        _when("ball-contains", {"required": ["ball", "point"]}),
                        _when("classical-radius", {"required": ["ball"]}),
                        _when("inner-ball", {"required": ["ball", "point"]}),
                        _when("set-open", {"required": ["set"]}),
                        _when("preimage-open", {"required": ["ball", "map"]}),
                    ],
                },
            },
        },
        ["space", "checks"],
    ),
    "funcseq": _scenario_schema(
        "funcseq",
        {
            "domain_space": SPACE_SCHEMA,
            "codomain_space": SPACE_SCHEMA,
            "funcseq": FUNCSEQ_SCHEMA,
            "sample": SAMPLE_SCHEMA,
            "checks": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "kind": {
                            "enum": [
                                "pointwise",
                                "uniform-index",
                                "cauchy-criterion",
                                "classical-probe",
                                "sup-oracle",
                                "uniform-limit",
                            ]
                        },
                        "r": _NUMBER_OR_LIST,
                        "t": _NUMBER_OR_LIST,
                        "x": _NUMBER,
                        "a": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                        "m": {"type": "integer", "minimum": 1},
                        "n": {"type": "integer", "minimum": 1},
                        "epsilon": {"type": "number", "exclusiveMinimum": 0},
                        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                        "p_max": {"type": "integer", "minimum": 1},
                    },
                    "required": ["kind"],
                    "additionalProperties": False,
                },
            },
        },
        ["domain_space", "codomain_space", "funcseq", "checks"],
    ),
    "catalog": _scenario_schema(
        "catalog", {"name": {"type": "string"}}, ["name"]
    ),
}


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc


def validate_config(config: dict, kind: str | None = None) -> str:
    """Validate against the scenario schema; returns the scenario kind."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    scenario = kind or config.get("scenario")
    if scenario is None:
        raise ConfigError("config needs a 'scenario' field (or pass the kind explicitly)")
    if scenario not in SCHEMAS:
        raise ConfigError(f"unknown scenario kind {scenario!r}; expected one of {sorted(SCHEMAS)}")
    if "scenario" in config and config["scenario"] != scenario:
        raise ConfigError(
            f"config says scenario={config['scenario']!r} but {scenario!r} was requested"
        )
    try:
        jsonschema.validate(config, SCHEMAS[scenario])
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {exc.message}") from exc
    return scenario


def schema_document() -> dict:
    """The published schema document (one entry per scenario kind)."""
    return {"version": "0.1.0", "scenarios": SCHEMAS}


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_space(cfg: dict) -> IFNSpace:
    try:
        if cfg["family"] == "example":
            if "tag" not in cfg:
                raise ConfigError("example space needs a 'tag'")
            return make_example_family(cfg["tag"])
        return make_standard_space(
            k=cfg.get("k", 1.0),
            norm=cfg.get("norm"),
            dimension=cfg.get("dimension", 1),
            ops=(cfg.get("tnorm", "minimum"), cfg.get("tconorm", "maximum")),
            tier=cfg.get("tier", "strict"),
        )
    except IFNError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"space: {exc}") from exc


def build_plan(cfg: dict | None, dimension: int, seed: int) -> SamplingPlan:
    cfg = cfg or {}
    try:
        n = cfg.get("grid_points_per_axis", 21)
        w = cfg.get("grid_halfwidth", 5.0)
        axis = np.linspace(-w, w, n)
        return SamplingPlan(
            product_grid(axis, dimension, seed),
            t_grid=tuple(cfg.get("t_grid", (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0))),
            random_count=cfg.get("random_count", 200),
            seed=seed,
            t_infinity_ladder=tuple(cfg.get("t_infinity_ladder", (1e3, 1e6, 1e9, 1e12))),
            random_halfwidth=w,
        )
    except IFNError as exc:
        raise ConfigError(f"plan: {exc}") from exc


def build_sequence(cfg: dict) -> PointSequence:
    try:
        return PointSequence(
            cfg["family"],
            tuple(cfg.get("params", ())),
            budget=cfg.get("budget", 100_000),
        )
    except IFNError as exc:
        raise ConfigError(f"sequence: {exc}") from exc


def build_interval(cfg: dict) -> Interval:
    try:
        return Interval(
            cfg["lo"], cfg["hi"], cfg.get("open_lo", False), cfg.get("open_hi", False)
        )
    except IFNError as exc:
        raise ConfigError(f"interval: {exc}") from exc


def build_map(cfg: dict, domain_space: IFNSpace, codomain_space: IFNSpace) -> MapBetweenSpaces:
    try:
        r = MapRule(cfg["rule"], tuple(float(p) for p in cfg.get("params", ())))
        return make_map(domain_space, codomain_space, r, build_interval(cfg["domain"]))
    except IFNError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"map: {exc}") from exc


def build_funcseq(cfg: dict) -> list[FunctionSequence]:
    """One sequence per swept upper endpoint (a single-element list when no
    sweep is requested)."""
    try:
        params = ("identity",) if cfg["family"] == "constant" else ()
        base = build_interval(cfg["domain"])
        his = cfg.get("hi_sweep", [base.hi])
        out = []
        for hi in his:
            dom = Interval(base.lo, float(hi), base.open_lo, base.open_hi)
            out.append(
                FunctionSequence(
                    cfg["family"], dom, params=params, budget=cfg.get("budget", 10_000)
                )
            )
        return out
    except IFNError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"funcseq: {exc}") from exc


def build_sample(cfg: dict | None, interval: Interval) -> DomainSample:
    cfg = cfg or {}
    return sample_domain(
        interval,
        n=cfg.get("points", 17),
        refine_side=cfg.get("refine_side"),
        refine_depth=cfg.get("refine_depth", 10),
    )


def as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]
