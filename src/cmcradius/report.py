"""Deterministic machine-readable reports for sweeps and single cases."""

from __future__ import annotations

import io
import json
from collections import Counter

FORMATS = ("table", "json", "csv")


#: `encode` of the flat dicts of a JSON report, one per depth.  The item
#: separator carries the newline and indent that `json.dumps(indent=2)` puts
#: between items, and with `indent=None` the C encoder runs.
_ENCODE_4 = json.JSONEncoder(separators=(",\n    ", ": ")).encode
_ENCODE_6 = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def format_number(x) -> object:
    """Round floats to 12 significant digits; other values pass through."""
    return float(f"{x:.12g}") if isinstance(x, float) else x


class SweepReport:
    """Rows plus summary counts.

    Every row has the same keys in the same order, so the first row's keys
    are the report's columns.  The metadata and every row are flat dicts of
    scalars (str, int, float, bool or None), so the JSON writer can encode
    each as one unit.
    """

    def __init__(self, kind: str, rows: list[dict] | None = None, metadata: dict | None = None) -> None:
        self.kind = kind
        self.rows = [] if rows is None else rows
        self.metadata = {} if metadata is None else metadata

    @property
    def summary(self) -> dict:
        counts = Counter(r.get("status") for r in self.rows)
        return {"pass": counts["pass"], "fail": counts["fail"], "not_applicable": counts["not-applicable"]}


def emit_report(report: SweepReport, fmt: str = "table") -> str:
    """Serialize deterministically; identical inputs give identical bytes."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "json":
        return _json(report)
    cols = list(report.rows[0]) if report.rows else []
    cells = [["" if v is None else str(format_number(v)) for v in r.values()] for r in report.rows]
    if fmt == "csv":
        import csv

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


def _flat(encode, d: dict, indent: str) -> str:
    """`d`, a dict of scalars, as `json.dumps(indent=2)` writes it with its closing brace at `indent`."""
    text = encode(d)
    return text if text == "{}" else f"{{\n{indent}  {text[1:-1]}\n{indent}}}"


def _json(report: SweepReport) -> str:
    """Exactly `json.dumps(doc, indent=2) + "\\n"`: the frame is written here, each flat dict by C."""
    metadata = _flat(_ENCODE_4, {k: format_number(v) for k, v in report.metadata.items()}, "  ")
    rows = ",\n".join("    " + _flat(_ENCODE_6, {k: format_number(v) for k, v in r.items()}, "    ")
                      for r in report.rows)
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    summary = _flat(_ENCODE_4, report.summary, "  ")
    return (f'{{\n  "kind": {_ENCODE_4(report.kind)},\n  "metadata": {metadata},\n'
            f'  "rows": {rows},\n  "summary": {summary}\n}}\n')
