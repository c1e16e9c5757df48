"""Test-side stand-ins for inputs that the package builds only from named
families: an operation given by its formula, and a point sequence and a
function sequence given by a callable."""

import numpy as np

from ifncheck.errors import UnsupportedFamily
from ifncheck.function_sequences import DEFAULT_BUDGET, FunctionSequence
from ifncheck.sampling import Interval


class FormulaOp:
    """A binary operation on [0, 1] given by its formula, for an operation no
    named family covers (one that breaks a law, or the constant zero), with
    the interface that `check_norm_axioms`, the spaces and the inner-ball
    search read from a t-norm or a t-conorm."""

    def __init__(self, kind: str, family: str, formula, identity: float, idempotent: bool = False):
        self.kind, self.family, self.formula = kind, family, formula
        self.identity, self.idempotent = identity, idempotent

    def __call__(self, a, b):
        return self.formula(np.asarray(a, dtype=float), np.asarray(b, dtype=float))

    def signature(self) -> tuple:
        return (self.kind, self.family)


def zero_tnorm() -> FormulaOp:
    """The constant-zero "t-norm": no r3 admits r1 * r3 > r2 > 0."""
    return FormulaOp("tnorm", "zero", lambda a, b: np.zeros(np.broadcast_shapes(a.shape, b.shape)), 1.0)


class TabulatedPointSequence:
    """A sequence n -> R^d, total on 1..budget, whose terms come from
    fn(integer indices ns (N,)) -> (N, d), or (N,) on the real line, with
    the interface that the convergence and Cauchy scans read from a
    `PointSequence`.  Its family, `custom`, names no closed form."""

    family = "custom"

    def __init__(self, fn, budget: int):
        self.fn, self.budget = fn, budget

    def values(self, ns):
        ns = np.asarray(ns, dtype=int)
        return np.asarray(self.fn(ns), dtype=float).reshape(len(ns), -1)


def column_sequence(seq: FunctionSequence, x: float) -> TabulatedPointSequence:
    """The image sequence n -> f_n(x) of a function sequence at a fixed point."""
    return TabulatedPointSequence(lambda ns: seq.values(ns, np.array([x])), seq.budget)


class TabulatedSequence(FunctionSequence):
    """A function sequence whose f_n(x) come from fn(ns (K,), xs (M,)) ->
    (K, M), which the checks call on column blocks.  Its family, `custom`,
    has no closed-form limit (NaN everywhere) or member maps."""

    __slots__ = ("fn",)

    def __init__(self, fn, domain: Interval = Interval(0.0, 1.0), budget: int = DEFAULT_BUDGET):
        # set directly: the constructor rejects a family it has no closed form for
        self._set(family="custom", domain=domain, params=(), budget=budget, fn=fn)

    def values(self, ns, xs):
        ns = np.asarray(ns, dtype=float).ravel().astype(int)
        return np.asarray(self.fn(ns, np.asarray(xs, dtype=float).ravel()), dtype=float)

    def exact_limit(self, xs):
        return np.full(np.shape(xs), np.nan)

    def map_at(self, n, domain_space, codomain_space):
        raise UnsupportedFamily("custom sequences have no closed-form member maps")
