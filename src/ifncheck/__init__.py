"""Numerical verification toolkit for intuitionistic fuzzy normed linear
spaces: membership-pair norms built from closed-form families, sampled
axiom checking, convergence and continuity certificates with explicit
indices and witnesses, open-ball topology, and uniform convergence of
function sequences."""

from .errors import (
    AxiomFailure,
    CertificationError,
    ConfigError,
    DomainError,
    IFNError,
    InvalidParameter,
    NoLimit,
    NotFound,
    UnknownTag,
    UnsupportedFamily,
    WitnessNotFound,
    ZeroDivisor,
)
from .ifn_core import (
    ClassicalNorm,
    IFNSpace,
    MembershipFunction,
    check_ifn_axioms,
    limit_at_infinity,
    make_example_family,
    make_standard_space,
)
from .norm_algebra import (
    TriangularConorm,
    TriangularNorm,
    check_norm_axioms,
    find_interpolants,
    find_squaring_bounds,
    tconorm,
    tconorm_eval,
    tnorm,
    tnorm_eval,
)
from .sampling import Interval, SamplingPlan, default_plan

__version__ = "0.1.0"

__all__ = [
    "AxiomFailure",
    "CertificationError",
    "ClassicalNorm",
    "ConfigError",
    "DomainError",
    "IFNError",
    "IFNSpace",
    "Interval",
    "InvalidParameter",
    "MembershipFunction",
    "NoLimit",
    "NotFound",
    "SamplingPlan",
    "TriangularConorm",
    "TriangularNorm",
    "UnknownTag",
    "UnsupportedFamily",
    "WitnessNotFound",
    "ZeroDivisor",
    "check_ifn_axioms",
    "check_norm_axioms",
    "default_plan",
    "find_interpolants",
    "find_squaring_bounds",
    "limit_at_infinity",
    "make_example_family",
    "make_standard_space",
    "tconorm",
    "tconorm_eval",
    "tnorm",
    "tnorm_eval",
]
