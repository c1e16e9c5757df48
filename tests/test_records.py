"""The package's record types behave as documented, whatever builds them.

Every record type gets one instance here, with its repr pinned as a literal
(the kernels benchmark digests the repr of `Violation` and
`ConvergenceCertificate`).  Value records compare and hash by their fields,
in declaration order.  Spaces, operations, plans, sequences, maps, balls and
sets compare by identity and stay hashable.  No field of any record can be
assigned or deleted, and each constructor's validation raises its own error.
"""

import ast
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from ifncheck.continuity import (
    CauchyPreservationRecord,
    ContinuityWitness,
    EquivalenceProbe,
    MapBetweenSpaces,
    MapRule,
    SequentialRecord,
    UniformWitness,
)
from ifncheck.errors import InvalidParameter, UnsupportedFamily
from ifncheck.function_sequences import (
    ClassicalUniformRecord,
    DomainSample,
    FunctionSequence,
    UniformCertificate,
    UniformLimitRecord,
)
from ifncheck.ifn_core import ClassicalNorm, IFNSpace, MembershipFunction, standard_mu, standard_nu
from ifncheck.norm_algebra import (
    AxiomResult,
    TriangularConorm,
    TriangularNorm,
    Violation,
    ViolationReport,
    _BinaryOp,
)
from ifncheck.point_convergence import ConvergenceCertificate, EquivalenceRecord, PointSequence
from ifncheck.report import CheckRecord, VerificationReport
from ifncheck.sampling import Interval, SamplingPlan
from ifncheck.topology import OpenBall, OpennessRecord, PointOpenness, PreimageRecord, SampledSet


def _space(dimension=1):
    norm = ClassicalNorm("euclidean")
    return IFNSpace(
        dimension, standard_mu(2.0, norm), standard_nu(2.0, norm), TriangularNorm("minimum"),
        TriangularConorm("maximum"), "core",
    )


def _cert():
    return ConvergenceCertificate("convergence", 0.1, 0.25, 90, "certified-up-to-budget", (0.0,), 100)


def _witness():
    return ContinuityWitness(0.5, 0.1, 0.25, 0.05, 0.125, "witnessed", 1, None, 10, {"seed": 0})


def _uniform_cert():
    return UniformCertificate(0.1, 0.25, 5, ((0.0, 1), (0.5, 5)), "uniform-up-to-budget", 10)


def _openness():
    return OpennessRecord("reals", (PointOpenness((0.5,), None),), {"seed": 0})


# the reprs of the shared parts above
_SPACE = (
    "IFNSpace(dimension=1, "
    "mu=MembershipFunction(tag='standard-mu', k=2.0, norm=ClassicalNorm(family='euclidean'), fn=None), "
    "nu=MembershipFunction(tag='standard-nu', k=2.0, norm=ClassicalNorm(family='euclidean'), fn=None), "
    "tnorm=TriangularNorm(family='minimum'), tconorm=TriangularConorm(family='maximum'), axiom_tier='core')"
)
_CERT = (
    "ConvergenceCertificate(kind='convergence', r=0.1, t=0.25, n0=90, status='certified-up-to-budget', "
    "limit=(0.0,), budget_n=100, budget_p=None, margin_monotone=None)"
)
_WITNESS = (
    "ContinuityWitness(x0=0.5, epsilon=0.1, alpha=0.25, delta=0.05, beta=0.125, verdict='witnessed', "
    "rung=1, counterexample=None, probes_checked=10, plan={'seed': 0})"
)
_UNIFORM_CERT = (
    "UniformCertificate(r=0.1, t=0.25, n0=5, per_point_index=((0.0, 1), (0.5, 5)), "
    "verdict='uniform-up-to-budget', budget=10, ladder_indices=(), kind='direct')"
)
_OPENNESS = (
    "OpennessRecord(description='reals', per_point=(PointOpenness(point=(0.5,), ball=None),), plan={'seed': 0})"
)

# name -> (a fresh instance, the fields in declaration order, its repr)
RECORDS = {
    "SamplingPlan": (
        lambda: SamplingPlan(np.array([[0.0, 1.0]]), t_grid=(0.5, 1.0), random_count=2, seed=3),
        ("vector_grid", "t_grid", "random_count", "seed", "t_infinity_ladder", "random_halfwidth"),
        "SamplingPlan(vector_grid=array([[0., 1.]]), t_grid=(0.5, 1.0), random_count=2, seed=3, "
        "t_infinity_ladder=(1000.0, 1000000.0, 1000000000.0, 1000000000000.0), random_halfwidth=5.0)",
    ),
    "Interval": (
        lambda: Interval(0.0, 1.0, open_lo=True),
        ("lo", "hi", "open_lo", "open_hi"),
        "Interval(lo=0.0, hi=1.0, open_lo=True, open_hi=False)",
    ),
    "TriangularNorm": (lambda: TriangularNorm("minimum"), ("family",), "TriangularNorm(family='minimum')"),
    "TriangularConorm": (
        lambda: TriangularConorm("probabilistic-sum"),
        ("family",),
        "TriangularConorm(family='probabilistic-sum')",
    ),
    "Violation": (
        lambda: Violation("comm", (0.5, 0.25), "op(0.5,0.25) differs"),
        ("axiom", "point", "detail"),
        "Violation(axiom='comm', point=(0.5, 0.25), detail='op(0.5,0.25) differs')",
    ),
    "AxiomResult": (
        lambda: AxiomResult("commutativity", "comm", 4, (Violation("comm", (0.5,), "d"),), 1),
        ("axiom", "roman", "checked", "violations", "total_violations"),
        "AxiomResult(axiom='commutativity', roman='comm', checked=4, "
        "violations=(Violation(axiom='comm', point=(0.5,), detail='d'),), total_violations=1)",
    ),
    "ViolationReport": (
        lambda: ViolationReport("tnorm:minimum", {"seed": 0}, (AxiomResult("identity", "ident", 2, (), 0),)),
        ("subject", "plan", "results"),
        "ViolationReport(subject='tnorm:minimum', plan={'seed': 0}, "
        "results=(AxiomResult(axiom='identity', roman='ident', checked=2, violations=(), total_violations=0),))",
    ),
    "ClassicalNorm": (
        lambda: ClassicalNorm("max-coordinate"),
        ("family",),
        "ClassicalNorm(family='max-coordinate')",
    ),
    "MembershipFunction": (
        lambda: MembershipFunction("standard-nu", 2.0, ClassicalNorm("euclidean"), None),
        ("tag", "k", "norm", "fn"),
        "MembershipFunction(tag='standard-nu', k=2.0, norm=ClassicalNorm(family='euclidean'), fn=None)",
    ),
    "IFNSpace": (_space, ("dimension", "mu", "nu", "tnorm", "tconorm", "axiom_tier"), _SPACE),
    "PointSequence": (
        lambda: PointSequence("shifted-reciprocal", (1.0, 10.0), budget=10),
        ("family", "params", "budget"),
        "PointSequence(family='shifted-reciprocal', params=(1.0, 10.0), budget=10)",
    ),
    "ConvergenceCertificate": (
        _cert,
        ("kind", "r", "t", "n0", "status", "limit", "budget_n", "budget_p", "margin_monotone"),
        _CERT,
    ),
    "EquivalenceRecord": (
        lambda: EquivalenceRecord((_cert(),), True, (0.1,), (5,), True),
        ("ifn_certificates", "ifn_converged", "classical_thresholds", "classical_indices", "classical_converged"),
        f"EquivalenceRecord(ifn_certificates=({_CERT},), ifn_converged=True, classical_thresholds=(0.1,), "
        "classical_indices=(5,), classical_converged=True)",
    ),
    "MapRule": (
        lambda: MapRule("scalar", (2.0,), (MapRule("identity"),)),
        ("tag", "params", "children"),
        "MapRule(tag='scalar', params=(2.0,), children=(MapRule(tag='identity', params=(), children=()),))",
    ),
    "MapBetweenSpaces": (
        lambda: MapBetweenSpaces(_space(), _space(), MapRule("reciprocal"), Interval(0.5, 1.0)),
        ("domain", "codomain", "rule", "restriction"),
        f"MapBetweenSpaces(domain={_SPACE}, codomain={_SPACE}, rule=MapRule(tag='reciprocal', params=(), "
        "children=()), restriction=Interval(lo=0.5, hi=1.0, open_lo=False, open_hi=False))",
    ),
    "ContinuityWitness": (
        _witness,
        ("x0", "epsilon", "alpha", "delta", "beta", "verdict", "rung", "counterexample", "probes_checked", "plan"),
        _WITNESS,
    ),
    "SequentialRecord": (
        lambda: SequentialRecord(0.5, 0.1, 0.25, (_cert(),), (_cert(),), True),
        ("x0", "r", "t", "input_certificates", "image_certificates", "continuous"),
        f"SequentialRecord(x0=0.5, r=0.1, t=0.25, input_certificates=({_CERT},), "
        f"image_certificates=({_CERT},), continuous=True)",
    ),
    "EquivalenceProbe": (
        lambda: EquivalenceProbe(_witness(), SequentialRecord(0.5, 0.1, 0.25, (), (), True), True, False),
        ("witness", "sequential", "agree", "disagreement_is_bug"),
        f"EquivalenceProbe(witness={_WITNESS}, sequential=SequentialRecord(x0=0.5, r=0.1, t=0.25, "
        "input_certificates=(), image_certificates=(), continuous=True), agree=True, disagreement_is_bug=False)",
    ),
    "UniformWitness": (
        lambda: UniformWitness(0.1, 0.25, None, None, "inconclusive", None, {"x1": 0.5}, 12),
        ("epsilon", "alpha", "delta", "beta", "verdict", "rung", "counterexample", "pairs_checked"),
        "UniformWitness(epsilon=0.1, alpha=0.25, delta=None, beta=None, verdict='inconclusive', rung=None, "
        "counterexample={'x1': 0.5}, pairs_checked=12)",
    ),
    "CauchyPreservationRecord": (
        lambda: CauchyPreservationRecord(
            0.1, 0.25, _cert(), _cert(), (1000, 2000), (5, 10), (2.0,), True, "preserved"
        ),
        (
            "r", "t", "input_certificate", "image_certificate", "budgets", "image_escape_indices",
            "growth_factors", "image_diverges", "verdict",
        ),
        f"CauchyPreservationRecord(r=0.1, t=0.25, input_certificate={_CERT}, image_certificate={_CERT}, "
        "budgets=(1000, 2000), image_escape_indices=(5, 10), growth_factors=(2.0,), image_diverges=True, "
        "verdict='preserved')",
    ),
    "FunctionSequence": (
        lambda: FunctionSequence("power", Interval(0.0, 0.5), budget=10),
        ("family", "domain", "params", "budget"),
        "FunctionSequence(family='power', domain=Interval(lo=0.0, hi=0.5, open_lo=False, open_hi=False), "
        "params=(), budget=10)",
    ),
    "DomainSample": (
        lambda: DomainSample((0.0, 0.5), (0.25,)),
        ("points", "ladder"),
        "DomainSample(points=(0.0, 0.5), ladder=(0.25,))",
    ),
    "UniformCertificate": (
        _uniform_cert,
        ("r", "t", "n0", "per_point_index", "verdict", "budget", "ladder_indices", "kind"),
        _UNIFORM_CERT,
    ),
    "UniformLimitRecord": (
        lambda: UniformLimitRecord(((1, "witnessed"),), _uniform_cert(), (_witness(),)),
        ("member_witnesses", "certificate", "limit_witnesses"),
        f"UniformLimitRecord(member_witnesses=((1, 'witnessed'),), certificate={_UNIFORM_CERT}, "
        f"limit_witnesses=({_WITNESS},))",
    ),
    "ClassicalUniformRecord": (
        lambda: ClassicalUniformRecord((0.1,), (5,), True, _uniform_cert()),
        ("thresholds", "classical_indices", "classical_uniform", "ifn_certificate"),
        "ClassicalUniformRecord(thresholds=(0.1,), classical_indices=(5,), classical_uniform=True, "
        f"ifn_certificate={_UNIFORM_CERT})",
    ),
    "OpenBall": (
        lambda: OpenBall(0.5, 0.5, 1.0),
        ("center", "r", "t"),
        "OpenBall(center=array([0.5]), r=0.5, t=1.0)",
    ),
    "SampledSet": (
        lambda: SampledSet(np.isfinite, [0.0, 1.0], "reals"),
        ("predicate", "witnesses", "description"),
        "SampledSet(predicate=<ufunc 'isfinite'>, witnesses=array([[0.],\n       [1.]]), description='reals')",
    ),
    "PointOpenness": (
        lambda: PointOpenness((0.5,), None),
        ("point", "ball"),
        "PointOpenness(point=(0.5,), ball=None)",
    ),
    "OpennessRecord": (_openness, ("description", "per_point", "plan"), _OPENNESS),
    "PreimageRecord": (
        lambda: PreimageRecord(OpenBall([0.5], 0.5, 1.0), 2, _openness(), ("witnessed",)),
        ("target", "witnesses", "openness", "continuity_verdicts"),
        "PreimageRecord(target=OpenBall(center=array([0.5]), r=0.5, t=1.0), witnesses=2, "
        f"openness={_OPENNESS}, continuity_verdicts=('witnessed',))",
    ),
    "CheckRecord": (
        lambda: CheckRecord("theorem/x", "Theorem 3.1", "pass", details={"n0": 5}, work=3),
        (
            "name", "anchor", "verdict", "details", "witnesses", "counterexamples", "budgets", "plan",
            "seed", "work", "csv_row",
        ),
        "CheckRecord(name='theorem/x', anchor='Theorem 3.1', verdict='pass', details={'n0': 5}, witnesses=[], "
        "counterexamples=[], budgets={}, plan=None, seed=None, work=3, csv_row=None)",
    ),
    "VerificationReport": (
        lambda: VerificationReport("catalog", {"name": "x"}, 0, (CheckRecord("a", "b", "info"),)),
        ("scenario", "config", "seed", "records"),
        "VerificationReport(scenario='catalog', config={'name': 'x'}, seed=0, records=(CheckRecord(name='a', "
        "anchor='b', verdict='info', details={}, witnesses=[], counterexamples=[], budgets={}, plan=None, "
        "seed=None, work=0, csv_row=None),))",
    ),
}

IDENTITY = (
    "ClassicalNorm", "MembershipFunction", "IFNSpace", "TriangularNorm", "TriangularConorm",
    "SamplingPlan", "PointSequence", "MapRule", "MapBetweenSpaces", "FunctionSequence", "OpenBall",
    "SampledSet",
)
VALUE = tuple(name for name in RECORDS if name not in IDENTITY)


def _copy(name):
    """An instance and one built field for field from it."""
    make, fields, _ = RECORDS[name]
    x = make()
    return x, type(x)(**{f: getattr(x, f) for f in fields})


def test_the_table_covers_every_record_type():
    # _BinaryOp, the base of the two operation kinds, has no family of its own
    assert len(RECORDS) == 32 and len(IDENTITY) == 12 and len(VALUE) == 20  # 19 and Interval
    assert all(type(make()).__name__ == name for name, (make, _, _) in RECORDS.items())


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_pinned(name):
    make, _, want = RECORDS[name]
    assert repr(make()) == want


@pytest.mark.parametrize("name", VALUE)
def test_value_records_compare_and_hash_by_fields(name):
    x, y = _copy(name)
    assert x == y and not x != y
    fields = tuple(getattr(x, f) for f in RECORDS[name][1])
    try:
        want = hash(fields)
    except TypeError:  # a dict or list field: unhashable, like the record
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == want


def test_interval_equality_is_by_fields():
    assert Interval(0.0, 1.0) == Interval(0.0, 1.0) and hash(Interval(0.0, 1.0)) == hash(Interval(0.0, 1.0))
    assert Interval(0.0, 1.0) != Interval(0.0, 1.0, open_hi=True)
    assert Interval(0.0, 1.0) != Interval(0.0, 2.0)


@pytest.mark.parametrize("name", IDENTITY)
def test_identity_classes_compare_by_identity(name):
    x, y = _copy(name)
    assert x == x and x != y and not x == y
    assert hash(x) == hash(x) and len({x, y}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    x = RECORDS[name][0]()
    for f in RECORDS[name][1]:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("name", RECORDS)
def test_records_pickle_to_an_equal_record(name):
    x = RECORDS[name][0]()
    assert repr(pickle.loads(pickle.dumps(x))) == repr(x)


def test_check_record_containers_are_fresh_per_record():
    a, b = CheckRecord("a", "b", "pass"), CheckRecord("a", "b", "pass")
    for f in ("details", "witnesses", "counterexamples", "budgets"):
        assert getattr(a, f) == getattr(b, f) and getattr(a, f) is not getattr(b, f)
    assert (a.details, a.witnesses, a.counterexamples, a.budgets) == ({}, [], [], {})


def test_constructors_coerce_their_arrays():
    assert SamplingPlan([[0, 1]]).vector_grid.dtype == float
    assert OpenBall(0.5, 0.5, 1.0).center.shape == (1,)
    assert SampledSet(np.isfinite, [0.0, 1.0]).witnesses.shape == (2, 1)


_GRID = np.zeros((1, 1))
VALIDATION = [
    (lambda: SamplingPlan(np.zeros(3)), InvalidParameter, "vector_grid must be a nonempty (M, d) array"),
    (lambda: SamplingPlan(np.zeros((0, 1))), InvalidParameter, "vector_grid must be a nonempty (M, d) array"),
    (lambda: SamplingPlan(_GRID, t_grid=()), InvalidParameter, "t_grid must be nonempty, finite and positive"),
    (
        lambda: SamplingPlan(_GRID, t_grid=(np.nan,)),
        InvalidParameter, "t_grid must be nonempty, finite and positive",
    ),
    (
        lambda: SamplingPlan(_GRID, t_infinity_ladder=(2.0, 1.0)),
        InvalidParameter, "t_infinity_ladder must be strictly increasing",
    ),
    (
        lambda: SamplingPlan(_GRID, t_infinity_ladder=()),
        InvalidParameter, "t_infinity_ladder must be strictly increasing",
    ),
    (
        lambda: SamplingPlan(_GRID, t_infinity_ladder=(1.0, np.inf)),
        InvalidParameter, "t_infinity_ladder must be finite and positive",
    ),
    (lambda: SamplingPlan(_GRID, random_count=-1), InvalidParameter, "random_count must be >= 0"),
    (
        lambda: SamplingPlan(_GRID, random_halfwidth=1e308),
        InvalidParameter, "random range 2 x 1e+308 is not finite",
    ),
    (lambda: Interval(1.0, 0.0), InvalidParameter, "bad interval [1.0, 0.0]: width not a positive real"),
    (
        lambda: Interval(-1e308, 1e308),
        InvalidParameter, "bad interval [-1e+308, 1e+308]: width not a positive real",
    ),
    (
        lambda: TriangularNorm("maximum"),
        InvalidParameter,
        "unknown tnorm family 'maximum'; expected one of ['lukasiewicz', 'minimum', 'product']",
    ),
    (lambda: _BinaryOp("minimum"), InvalidParameter, "unknown op family 'minimum'; expected one of []"),
    (
        lambda: TriangularConorm("tabulated"),
        InvalidParameter,
        "unknown tconorm family 'tabulated'; expected one of ['lukasiewicz', 'maximum', 'probabilistic-sum']",
    ),
    (lambda: ClassicalNorm("taxicab"), InvalidParameter, "unknown norm family 'taxicab'"),
    (lambda: IFNSpace(0, None, None, None, None), InvalidParameter, "dimension must be >= 1"),
    (lambda: IFNSpace(1, None, None, None, None, "weak"), InvalidParameter, "unknown axiom tier 'weak'"),
    (lambda: PointSequence("geometric"), UnsupportedFamily, "unknown sequence family 'geometric'"),
    (lambda: PointSequence("constant"), InvalidParameter, "sequence family 'constant' takes 1 params, got 0"),
    (
        lambda: FunctionSequence("bogus", Interval(0.0, 1.0)),
        UnsupportedFamily, "unknown function-sequence family 'bogus'",
    ),
    (lambda: MapRule("sine"), UnsupportedFamily, "unknown map rule 'sine'"),
    (lambda: MapRule("affine", (1.0,)), InvalidParameter, "map rule 'affine' takes 2 params, got 1"),
    (
        lambda: MapBetweenSpaces(_space(2), _space(), MapRule("identity"), Interval(0.0, 1.0)),
        InvalidParameter, "map rules are univariate; spaces must have d=1",
    ),
    (lambda: OpenBall(0.0, 1.0, 1.0), InvalidParameter, "ball radius r must lie in (0,1), got 1.0"),
    (lambda: OpenBall(0.0, 0.5, np.inf), InvalidParameter, "ball parameter t must be positive, got inf"),
    (lambda: OpenBall(0.0, 0.5, 0.0), InvalidParameter, "ball parameter t must be positive, got 0.0"),
    (
        lambda: SampledSet(np.isfinite, [0.0, np.nan]),
        InvalidParameter, "every stored witness must satisfy the predicate",
    ),
]


@pytest.mark.parametrize("build, error, message", VALIDATION)
def test_constructors_validate_their_fields(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_no_module_imports_dataclasses():
    # a dataclass compiles its generated methods with exec at every import,
    # which the bytecode cache cannot keep, and each command pays for it
    found = []
    for path in sorted((Path(__file__).parents[1] / "src" / "ifncheck").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
                [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            )
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "dataclasses"]
    assert not found
