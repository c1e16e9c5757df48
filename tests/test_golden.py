"""Byte comparison of reports against the fixtures in tests/golden/.

The fixtures pin the observable behaviour of every catalog scenario and
every documented example config; rewrite them only with
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


@pytest.mark.parametrize(
    "fname, config, seed", CASES, ids=[fname for fname, _, _ in CASES]
)
def test_report_matches_golden(fname, config, seed):
    expected = (refresh.GOLDEN_DIR / fname).read_bytes()
    assert refresh.render(config, seed).encode("utf-8") == expected
