"""Semantic exception hierarchy for the package.

Verdicts ("this axiom is violated at this sampled point") are data, never
exceptions.  Exceptions are reserved for contract violations: bad parameters,
evaluation outside a declared domain, or searches that a well-formed space
guarantees cannot fail.
"""


class IFNError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(IFNError, ValueError):
    """A constructor argument violates its declared precondition."""


class DomainError(IFNError, ValueError):
    """Evaluation requested outside the declared domain (t <= 0, wrong
    dimension, point outside a map's restriction, ...)."""


class UnknownTag(IFNError, KeyError):
    """A named catalog/family tag is not recognised.  Its message prints as
    it is, not quoted as a KeyError's key."""

    __str__ = Exception.__str__


class NotFound(IFNError):
    """A bisection search exhausted its resolution without an admissible
    value.  Cannot occur for the continuous built-in operation families;
    signals a broken user-supplied operation."""


class WitnessNotFound(IFNError):
    """No ladder rung produced a verifiable witness; signals a space that
    does not satisfy the axioms it declares."""


class ZeroDivisor(IFNError):
    """A reciprocal combination was requested for a map whose sampled zero
    set is nonempty."""


class NoLimit(IFNError):
    """Tail averaging found oscillation beyond tolerance, so no pointwise
    limit estimate exists at the requested budget."""


class AxiomFailure(IFNError):
    """Construction-time axiom verification failed for a space that was
    declared to satisfy a given tier."""


class UnsupportedFamily(IFNError):
    """An operation requiring a specific closed-form family (e.g. the
    classical-radius shortcut) was called on a space of another family."""


class CertificationError(IFNError):
    """A precondition certificate (convergence/Cauchy of an input sequence)
    could not be established, so the dependent check cannot run."""


class ConfigError(IFNError):
    """A scenario configuration document failed schema validation."""
