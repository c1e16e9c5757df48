"""Byte comparison of reports against the fixtures in tests/golden/.

The fixtures pin the observable behaviour of every catalog scenario and
every documented example config (the JSON-lines report, plus the CSV table
of a report with sweep rows); rewrite them only with
tests/golden/refresh.py.  The benchmark pins the verdict counts and key
detail values of the same reports in perfbench/expected.json, so a fixture
may change in names, anchors or `work` only while it keeps that fingerprint.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ifncheck
from ifncheck import function_sequences
from ifncheck.report import to_jsonl
from ifncheck.scenarios import run_scenario


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


refresh = _load("golden_refresh", Path(__file__).parent / "golden" / "refresh.py")
workloads = _load("perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")

CASES = refresh.cases()


def test_every_fixture_has_a_case():
    on_disk = {p.name for p in refresh.GOLDEN_DIR.glob("*.jsonl")}
    assert on_disk == {fname for fname, _, _ in CASES}
    csv_on_disk = {p.name for p in refresh.GOLDEN_DIR.glob("*.csv")}
    assert csv_on_disk <= {refresh.csv_name(fname) for fname, _, _ in CASES}


def test_one_version_everywhere():
    # a report is keyed on (config, seed, version): a refresh that changes
    # a fixture must bump the version, and every header must say so
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    (declared,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    headers = {
        p.name: json.loads(p.read_text(encoding="utf-8").splitlines()[0])["version"]
        for p in refresh.GOLDEN_DIR.glob("*.jsonl")
    }
    assert len(headers) == len(CASES)
    assert declared == ifncheck.__version__
    assert {name for name, version in headers.items() if version != declared} == set()


@pytest.mark.parametrize(
    "fname, config, seed", CASES, ids=[fname for fname, _, _ in CASES]
)
def test_report_matches_golden(fname, config, seed):
    jsonl, csv = refresh.render(config, seed)
    assert jsonl.encode("utf-8") == (refresh.GOLDEN_DIR / fname).read_bytes()
    csv_path = refresh.GOLDEN_DIR / refresh.csv_name(fname)
    if csv is None:
        assert not csv_path.exists()
    else:
        assert csv.encode("utf-8") == csv_path.read_bytes()


# The fixtures whose reports rest on function_sequences' column-block walk.
# Every one is a single block at the default block size, so here each runs
# one column per block.
FUNCSEQ_CASES = [
    case for case in CASES
    if case[0].split(".seed")[0] in {
        "catalog-example-4-power", "catalog-example-4-quotient",
        "catalog-theorem-4-cauchy-criterion", "catalog-uniform-limit-theorem",
        "example-funcseq-power-sweep",
    }
]


@pytest.mark.parametrize(
    "fname, config, seed", FUNCSEQ_CASES, ids=[fname for fname, _, _ in FUNCSEQ_CASES]
)
def test_report_matches_golden_in_one_column_blocks(fname, config, seed, monkeypatch):
    monkeypatch.setattr(function_sequences, "_BLOCK_CELLS", 1)
    test_report_matches_golden(fname, config, seed)


@pytest.mark.parametrize(
    "fname, config, seed", CASES, ids=[fname for fname, _, _ in CASES]
)
def test_fixture_keeps_the_benchmark_fingerprint(fname, config, seed):
    # catalog-<name> is the benchmark op catalog/<name>; example-<stem> is
    # cli/<stem>, whose pinned exit code a report does not hold
    source, _, name = fname.split(".seed")[0].partition("-")
    op = f"catalog/{name}" if source == "catalog" else f"cli/{name}"
    expected = dict(workloads.load_expected()["ops"][op]["seeds"][str(seed)])
    expected.pop("exit", None)
    text = (refresh.GOLDEN_DIR / fname).read_text(encoding="utf-8")
    assert workloads.fingerprint_jsonl(text) == expected


EXAMPLES = sorted((Path(__file__).parents[1] / "docs" / "examples").glob("*.json"))


SMALL_BUDGET = 2000


def _small(cfg):
    """The config with every `budget` cut to SMALL_BUDGET terms, and every
    escape `budgets` list cut to the budgets within that (a budget past the
    sequence's is a config error)."""
    if isinstance(cfg, dict):
        cut = {
            "budget": lambda v: min(v, SMALL_BUDGET),
            "budgets": lambda v: [b for b in v if b <= SMALL_BUDGET],
        }
        return {k: cut.get(k, _small)(v) for k, v in cfg.items()}
    return [_small(v) for v in cfg] if isinstance(cfg, list) else cfg


@given(seed=st.integers(2, 2**31 - 1), path=st.sampled_from(EXAMPLES))
# the one example with escape budgets, at a seed where the draw missed it
@example(seed=2, path=EXAMPLES[[p.name for p in EXAMPLES].index("uniform-reciprocal.json")])
@settings(max_examples=12, deadline=None, derandomize=True)
def test_rerun_at_any_seed_is_byte_identical(seed, path):
    # the fixtures pin seeds 0 and 1; a report is a function of (config,
    # seed) at every other seed too
    cfg = _small(json.loads(path.read_text(encoding="utf-8")))
    assert to_jsonl(run_scenario(cfg, seed=seed)) == to_jsonl(run_scenario(cfg, seed=seed))
