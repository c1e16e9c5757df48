"""Byte comparison of reports against the fixtures in tests/golden/.

The fixtures pin the observable behaviour of every catalog scenario and
every documented example config (the JSON-lines report, plus the CSV table
of a report with sweep rows); rewrite them only with
tests/golden/refresh.py.
"""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_refresh", Path(__file__).parent / "golden" / "refresh.py"
)
refresh = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refresh)

CASES = refresh.cases()


def test_every_fixture_has_a_case():
    on_disk = {p.name for p in refresh.GOLDEN_DIR.glob("*.jsonl")}
    assert on_disk == {fname for fname, _, _ in CASES}
    csv_on_disk = {p.name for p in refresh.GOLDEN_DIR.glob("*.csv")}
    assert csv_on_disk <= {refresh.csv_name(fname) for fname, _, _ in CASES}


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
