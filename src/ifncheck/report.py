"""Verification reports and byte-stable serialisation.

Report content is a pure function of (config, seed, version): field order is
fixed, reals are printed with 17 significant digits, every line is
newline-terminated, and nothing wall-clock-dependent is recorded (the
`work` field counts elementary inequality checks, which is deterministic).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
INFO = "info"

_SWEEP_COLUMNS = ("family", "domain_lo", "domain_hi", "r", "t", "n0", "verdict", "paper_k")
_RECORD_COLUMNS = ("name", "anchor", "verdict", "work")


def format_real(x: float) -> str:
    # JSON has no NaN/Inf; a non-finite value in a report is an internal
    # numerical fault and must fail loudly, not serialise quietly
    if not math.isfinite(x):
        raise ValueError(f"reports must contain finite reals only, got {x!r}")
    return "%.17g" % x


def _to_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_to_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in value) + "]"
    # numpy scalars and anything float-like
    try:
        return format_real(float(value))
    except (TypeError, ValueError):
        return json.dumps(str(value))


@dataclass(frozen=True)
class CheckRecord:
    """One verified statement: its verdict, witnesses, and enough context
    (plan, seed, budgets) to re-run it."""

    name: str
    anchor: str
    verdict: str
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    budgets: dict = field(default_factory=dict)
    plan: dict | None = None
    seed: int | None = None
    work: int = 0
    csv_row: dict | None = None

    def to_dict(self) -> dict:
        """Every field in declaration order but `csv_row`, after the kind."""
        return {"kind": "record", **{name: getattr(self, name) for name in _RECORD_KEYS}}


_RECORD_KEYS = tuple(f.name for f in fields(CheckRecord) if f.name != "csv_row")


@dataclass(frozen=True)
class VerificationReport:
    scenario: str
    config: dict
    seed: int
    records: tuple[CheckRecord, ...]

    def counts(self) -> dict:
        """Records per verdict, in the order the summaries print them."""
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0, INFO: 0}
        for r in self.records:
            out[r.verdict] = out.get(r.verdict, 0) + 1
        return out

    def failed(self, strict_inconclusive: bool = False) -> bool:
        c = self.counts()
        return c[FAIL] > 0 or (strict_inconclusive and c[INCONCLUSIVE] > 0)


def to_jsonl(report: VerificationReport) -> str:
    header = {
        "kind": "scenario",
        "name": report.scenario,
        "version": VERSION,
        "seed": report.seed,
        "config": report.config,
    }
    summary = {"kind": "summary", **report.counts()}
    lines = [header, *(r.to_dict() for r in report.records), summary]
    return "".join(f"{_to_json(line)}\n" for line in lines)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_real(v)
    return str(v)


def to_csv(report: VerificationReport) -> str:
    """The sweep table when a record carries a sweep row, else one row of
    `_RECORD_COLUMNS` per record."""
    rows = [r.csv_row for r in report.records if r.csv_row is not None]
    columns = _SWEEP_COLUMNS if rows else _RECORD_COLUMNS
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows or (r.to_dict() for r in report.records):
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def to_text(report: VerificationReport) -> str:
    lines = [f"scenario: {report.scenario} (version {VERSION}, seed {report.seed})"]
    for r in report.records:
        lines.append(f"[{r.verdict.upper():>12}] {r.name} :: {r.anchor}")
        for k, v in r.details.items():
            lines.append(f"{'':>15} {k} = {_to_json(v)}")
        for cx in r.counterexamples:
            lines.append(f"{'':>15} counterexample: {_to_json(cx)}")
    counts = ", ".join(f"{n} {verdict}" for verdict, n in report.counts().items())
    lines.append(f"summary: {counts}")
    return "\n".join(lines) + "\n"


_FORMATS = {
    "json": ("report.jsonl", to_jsonl),
    "csv": ("report.csv", to_csv),
    "text": ("report.txt", to_text),
}


def emit_report(report: VerificationReport, fmt: str, out_dir) -> str:
    """Write the report in the requested format; returns the file path."""
    from pathlib import Path

    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(_FORMATS)}")
    filename, renderer = _FORMATS[fmt]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / filename
    path.write_text(renderer(report), encoding="utf-8", newline="")
    return str(path)
