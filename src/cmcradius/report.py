"""Deterministic machine-readable reports for sweeps and single cases."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

FORMATS = ("table", "json", "csv")


def format_number(x) -> object:
    """Round floats to 12 significant digits; other values pass through."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, float):
        return float(f"{x:.12g}")
    return x


@dataclass
class SweepReport:
    """Rows plus summary counts; rows are dicts with a stable key order."""

    kind: str
    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.rows if r.get("status") == "pass")
        failed = sum(1 for r in self.rows if r.get("status") == "fail")
        na = sum(1 for r in self.rows if r.get("status") == "not-applicable")
        return {"pass": passed, "fail": failed, "not_applicable": na}

    def columns(self) -> list[str]:
        """Every key of every row, in order of first appearance."""
        return list(dict.fromkeys(k for row in self.rows for k in row))


def emit_report(report: SweepReport, fmt: str = "table") -> str:
    """Serialize deterministically; identical inputs give identical bytes."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    cols = report.columns()
    rows = [{k: format_number(r.get(k)) for k in cols} for r in report.rows]
    if fmt == "json":
        doc = {
            "kind": report.kind,
            "metadata": {k: format_number(v) for k, v in report.metadata.items()},
            "rows": rows,
            "summary": report.summary,
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=cols, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in cols})
        return out.getvalue()
    # table
    cells = [[("" if r.get(c) is None else str(r.get(c))) for c in cols] for r in rows]
    widths = [max([len(c)] + [len(row[i]) for row in cells]) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    s = report.summary
    lines.append("")
    lines.append(f"pass={s['pass']} fail={s['fail']} not-applicable={s['not_applicable']}")
    return "\n".join(lines) + "\n"
