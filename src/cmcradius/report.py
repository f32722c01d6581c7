"""Deterministic machine-readable reports for sweeps and single cases."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field

FORMATS = ("table", "json", "csv")


def format_number(x) -> object:
    """Round floats to 12 significant digits; other values pass through."""
    return float(f"{x:.12g}") if isinstance(x, float) else x


@dataclass
class SweepReport:
    """Rows plus summary counts.

    Every row has the same keys in the same order, so the first row's keys
    are the report's columns.
    """

    kind: str
    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        counts = Counter(r.get("status") for r in self.rows)
        return {"pass": counts["pass"], "fail": counts["fail"], "not_applicable": counts["not-applicable"]}


def emit_report(report: SweepReport, fmt: str = "table") -> str:
    """Serialize deterministically; identical inputs give identical bytes."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "json":
        doc = {
            "kind": report.kind,
            "metadata": {k: format_number(v) for k, v in report.metadata.items()},
            "rows": [{k: format_number(v) for k, v in r.items()} for r in report.rows],
            "summary": report.summary,
        }
        return json.dumps(doc, indent=2) + "\n"
    cols = list(report.rows[0]) if report.rows else []
    cells = [["" if v is None else str(format_number(v)) for v in r.values()] for r in report.rows]
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows(cells)
        return out.getvalue()
    widths = [max(map(len, column)) for column in zip(cols, *cells)]
    lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in [cols, *cells]]
    s = report.summary
    lines += ["", f"pass={s['pass']} fail={s['fail']} not-applicable={s['not_applicable']}"]
    return "\n".join(lines) + "\n"
