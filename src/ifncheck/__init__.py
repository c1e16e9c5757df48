"""Numerical verification toolkit for intuitionistic fuzzy normed linear
spaces: membership-pair norms built from closed-form families, sampled
axiom checking, convergence and continuity certificates with explicit
indices and witnesses, open-ball topology, and uniform convergence of
function sequences.

The names below are exported lazily (PEP 562): each is imported from its
module on first use, so `import ifncheck` alone, or a command such as
`ifncheck list-catalog`, loads no numpy."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AxiomFailure", "CertificationError", "ConfigError", "DomainError", "IFNError",
        "InvalidParameter", "NoLimit", "NotFound", "UnknownTag", "UnsupportedFamily",
        "WitnessNotFound", "ZeroDivisor",
    ),
    "ifn_core": (
        "ClassicalNorm", "IFNSpace", "MembershipFunction", "check_ifn_axioms",
        "make_example_family", "make_standard_space",
    ),
    "norm_algebra": (
        "TriangularConorm", "TriangularNorm", "check_norm_axioms", "tconorm", "tconorm_eval",
        "tnorm", "tnorm_eval",
    ),
    "sampling": ("Interval", "SamplingPlan", "default_plan"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
