"""Rewrite the golden report fixtures in this directory.

Each fixture is the JSON-lines report (`to_jsonl`) of one catalog scenario
or one `docs/examples/*.json` config, run at one of the pinned seeds.  A
report with sweep rows also gets its CSV table (`to_csv`) under the same
name with the suffix `.csv`, because the JSON-lines report leaves those
rows out.  `tests/test_golden.py` compares the current code against them
byte for byte.  Run this script only when a report is meant to change, and record
every refresh and its reason in CHANGES.md:

    PYTHONPATH=src python tests/golden/refresh.py
"""

from __future__ import annotations

import json
from pathlib import Path

from ifncheck.catalog import CATALOG
from ifncheck.report import to_csv, to_jsonl
from ifncheck.scenarios import run_scenario

GOLDEN_DIR = Path(__file__).resolve().parent
EXAMPLES_DIR = GOLDEN_DIR.parent.parent / "docs" / "examples"
SEEDS = (0, 1)


def cases() -> list[tuple[str, dict, int]]:
    """(fixture file name, scenario config, seed) for every fixture."""
    configs = [(f"catalog-{name}", {"scenario": "catalog", "name": name}) for name in CATALOG]
    configs += [
        (f"example-{path.stem}", json.loads(path.read_text()))
        for path in sorted(EXAMPLES_DIR.glob("*.json"))
    ]
    return [
        (f"{stem}.seed{seed}.jsonl", config, seed)
        for stem, config in configs
        for seed in SEEDS
    ]


def csv_name(fname: str) -> str:
    return str(Path(fname).with_suffix(".csv"))


def render(config: dict, seed: int) -> tuple[str, str | None]:
    """The JSON-lines report of one run, and its CSV table when the report
    has sweep rows (None otherwise)."""
    report = run_scenario(config, seed=seed)
    has_sweep = any(r.csv_row is not None for r in report.records)
    return to_jsonl(report), to_csv(report) if has_sweep else None


def main() -> None:
    for fname, config, seed in cases():
        jsonl, csv = render(config, seed)
        (GOLDEN_DIR / fname).write_bytes(jsonl.encode("utf-8"))
        print(f"wrote {fname}")
        if csv is not None:
            (GOLDEN_DIR / csv_name(fname)).write_bytes(csv.encode("utf-8"))
            print(f"wrote {csv_name(fname)}")


if __name__ == "__main__":
    main()
