"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from ifncheck.catalog import (
    broken_spaces,
    catalog_balls,
    catalog_function_sequences,
    closure_pair,
)
from ifncheck.continuity import (
    cauchy_preservation_check,
    combine,
    continuity_witness_search,
    make_map,
    recheck_witness,
    rule,
)
from ifncheck.function_sequences import (
    FunctionSequence,
    closed_form_index_power,
    sample_domain,
    sup_deviation_oracle,
    uniform_cauchy_check,
    uniform_index_search,
    uniform_limit_scenario,
)
from ifncheck.ifn_core import (
    check_ifn_axioms,
    make_example_family,
    make_standard_space,
    membership_radius,
)
from ifncheck.point_convergence import convergence_index, reciprocal_sequence
from ifncheck.report import to_jsonl
from ifncheck.sampling import Interval, default_plan
from ifncheck.scenarios import run_scenario
from ifncheck.topology import inner_ball_witness, sample_in_ball, verify_containment


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


def test_criterion_1_standard_family_axiom_suite():
    with criterion(1, "standard family passes the strict tier with zero violations"):
        for k in (0.5, 1.0, 2.0):
            for d in (1, 3):
                plan = default_plan(d, seed=0)
                space = make_standard_space(
                    k, dimension=d, ops=("minimum", "maximum"), verify=False
                )
                report = check_ifn_axioms(space, tier="strict", plan=plan)
                assert report.passed, (k, d, report.violated())
                assert all(r.total_violations == 0 for r in report.results)


def test_criterion_2_mutation_detection():
    with criterion(2, "each broken space yields a witness naming its target axiom"):
        plan = default_plan(1, seed=0)
        targets = ("i", "iv", "v", "vi", "x", "xv")
        spaces = broken_spaces()
        assert set(spaces) == set(targets)
        for target in targets:
            space, _ = spaces[target]
            report = check_ifn_axioms(space, tier="strict", plan=plan)
            result = report.result(target)
            assert result.total_violations >= 1, target
            assert len(result.violations) >= 1 and result.violations[0].point, target


def test_criterion_3_convergence_indices():
    with criterion(3, "reciprocal sequence indices: n0(0.1,0.1) = 90, n0(0.5,1) = 1"):
        space = make_standard_space(1.0)
        seq = reciprocal_sequence()
        cert = convergence_index(space, seq, 0.0, 0.1, 0.1)
        assert cert.certified and cert.n0 == 90

        # independent brute-force oracle in exact rational arithmetic
        r, t = Fraction(1, 10), Fraction(1, 10)
        threshold = r * t / (1 - r)
        n = 1
        while not (Fraction(1, n + 1) < threshold):
            n += 1
        assert n == 90 == cert.n0

        cert = convergence_index(space, seq, 0.0, 0.5, 1.0)
        assert cert.certified and cert.n0 == 1


def test_criterion_4_example_315_reproduction():
    with criterion(4, "1/x witnessed continuous; Cauchy image refutes uniform continuity"):
        A = make_example_family("example-3.15-A")
        B = make_example_family("example-3.15-B(k=3)")
        f = make_map(A, B, rule("reciprocal"), Interval(0.0, 1.0, open_lo=True, open_hi=True))
        for x0 in (0.1, 0.25, 0.5, 0.9):
            w = continuity_witness_search(f, x0, epsilon=1.0, alpha=0.5)
            assert w.witnessed, x0
            assert recheck_witness(f, w), x0
        rec = cauchy_preservation_check(
            f, reciprocal_sequence(budget=8000), r=0.5, t=1.0,
            budgets=(1000, 2000, 4000, 8000),
        )
        assert rec.input_certificate.certified
        assert rec.image_certificate.status == "failed"
        assert len(rec.growth_factors) == 3
        assert all(g >= 2.0 for g in rec.growth_factors)
        assert rec.verdict == "refutes-uniform-continuity"


def test_criterion_5_closure_theorems():
    with criterion(5, "f+g, 3f, fg, f/g witnessed continuous at all 9 points"):
        f, g = closure_pair()
        combos = (
            combine("sum", f, g),
            combine("scalar", f, k=3.0),
            combine("product", f, g),
            combine("product", f, combine("reciprocal", g)),
        )
        points = [round(0.1 * i, 1) for i in range(1, 10)]
        failures = []
        for h in combos:
            for x0 in points:
                w = continuity_witness_search(h, x0, epsilon=0.5, alpha=0.25)
                if not w.witnessed:
                    failures.append((h.rule.describe(), x0))
        assert failures == []


def test_criterion_6_open_balls_are_open():
    with criterion(6, "inner ball witnesses with 100% containment on 1000 points each"):
        balls = catalog_balls()
        assert len(balls) == 20
        rng = np.random.default_rng(0)
        for space, ball in balls:
            members = sample_in_ball(space, ball, 64, seed=1)
            if len(members) < 50:
                dirs = rng.normal(size=(50, space.dimension))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
                from ifncheck.topology import ball_classical_radius

                rho = ball_classical_radius(space, ball)
                radii = rho * rng.uniform(0.0, 0.98, size=(50, 1))
                members = ball.center.reshape(1, -1) + dirs * radii
            members = members[:50]
            assert len(members) == 50
            for m in members:
                inner = inner_ball_witness(space, ball, m, verify_points=1000, seed=2)
                assert verify_containment(space, inner, ball, n=1000, seed=3) == 1.0


def test_criterion_7_uniform_index_exactness():
    with criterion(7, "power family on [0, 0.5] at (0.1, 0.1): n0 = 7 = closed form"):
        sp = make_example_family("example-4.x")
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        cert = uniform_index_search((sp, sp), seq, sample_domain(seq.domain, 17), 0.1, 0.1)
        assert cert.uniform and cert.n0 == 7
        radius = membership_radius(sp, 0.1, 0.1)
        assert closed_form_index_power(0.5, radius) == 7
        assert cert.n0 == closed_form_index_power(0.5, radius)


def test_criterion_8_non_uniformity_ladder():
    with criterion(8, "per-point index strictly increases and doubles from j=4 to j=7"):
        sp = make_example_family("example-4.x")
        seq = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
        sample = sample_domain(seq.domain, 9, refine_side="hi", refine_depth=10)
        ladder_points = np.asarray(sample.ladder)
        expected = 1.0 - 2.0 ** (-np.arange(1, 11, dtype=float))
        np.testing.assert_allclose(ladder_points, expected)
        cert = uniform_index_search((sp, sp), seq, sample, 0.1, 0.1)
        assert cert.verdict == "not-uniform-on-sample"
        idx = list(cert.ladder_indices)
        assert all(i is not None for i in idx)
        assert all(b > a for a, b in zip(idx, idx[1:]))
        assert idx[6] >= 2 * idx[3]  # j = 7 versus j = 4


def test_criterion_9_cauchy_criterion_equivalence():
    with criterion(9, "criterion and direct verdicts agree on all 6 sequences; power index within +2 of 7"):
        sp = make_example_family("example-4.x")
        spaces = (sp, sp)
        sequences = catalog_function_sequences()
        assert len(sequences) == 6
        for name, (seq, refine) in sequences.items():
            sample = sample_domain(seq.domain, 9, refine_side=refine, refine_depth=10)
            direct = uniform_index_search(spaces, seq, sample, 0.1, 0.1)
            crit = uniform_cauchy_check(spaces, seq, sample, 0.1, 0.1)
            assert direct.verdict == crit.verdict, name
            if name == "power-closed-half":
                assert 7 <= crit.n0 <= 9


def test_criterion_10_uniform_limit_theorem_and_converse():
    with criterion(10, "limit map witnessed continuous in both the uniform and non-uniform cases"):
        sp = make_example_family("example-4.x")
        spaces = (sp, sp)
        half = FunctionSequence("power", Interval(0.0, 0.5))
        rec = uniform_limit_scenario(
            spaces, half, sample_domain(half.domain, 9), 0.1, 0.1, 0.5, 0.25
        )
        assert rec.certificate.uniform
        assert rec.limit_continuous_everywhere

        open_unit = FunctionSequence("power", Interval(0.0, 1.0, open_lo=True, open_hi=True))
        rec = uniform_limit_scenario(
            spaces, open_unit,
            sample_domain(open_unit.domain, 9, refine_side="hi", refine_depth=10),
            0.1, 0.1, 0.5, 0.25,
        )
        assert rec.certificate.verdict == "not-uniform-on-sample"
        assert rec.limit_continuous_everywhere


def test_criterion_11_sup_oracle_vs_doubled_bound():
    with criterion(11, "sup oracle = 0.1875 +- 1e-6, strictly below the doubled bound 0.5"):
        seq = FunctionSequence("power", Interval(0.0, 0.5))
        sup = sup_deviation_oracle(seq, 0.5, 2, 4)
        assert abs(sup - 0.1875) <= 1e-6
        assert sup < 2.0 * 0.5 ** 2 == 0.5
        report = run_scenario({"scenario": "catalog", "name": "example-4-verification"})
        details = report.records[0].details
        assert details["doubled_bound"] == 0.5
        assert details["discrepancy"] == pytest.approx(0.5 - sup)
        assert not report.failed()


def test_criterion_12_determinism():
    with criterion(12, "identical seeds give byte-identical JSON-lines reports"):
        config = {"scenario": "catalog", "name": "example-3.15", "seed": 4}
        first = to_jsonl(run_scenario(config))
        second = to_jsonl(run_scenario(config))
        assert first.encode() == second.encode()
        assert first.endswith("\n")
