"""Deterministic machine-readable reports for sweeps and single cases."""

from __future__ import annotations

import io
import itertools
import json
import math
from collections import Counter

FORMATS = ("table", "json", "csv")

#: `encode` of a list of scalars as one line per item.  With `ensure_ascii`
#: a newline inside a string is escaped, so the raw newlines split the items
#: apart; with `indent=None` the C encoder runs.
_ENCODE = json.JSONEncoder(separators=("\n", ": ")).encode


def format_number(x) -> object:
    """Round floats to 12 significant digits; other values pass through."""
    return float(f"{x:.12g}") if isinstance(x, float) else x


class SweepReport:
    """Rows plus summary counts.

    Every row has the same keys in the same order, so the first row's keys
    are the report's columns.  The metadata and every row are flat dicts of
    str keys and scalars (str, int, float, bool or None), so the writers can
    render each column's distinct values once.
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
    """Serialize deterministically; identical inputs give identical bytes.

    Every value is rounded by `format_number` and rendered once per distinct
    value of its column (see `_column`).
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "json":
        return _json(report)
    cols = list(report.rows[0]) if report.rows else []
    cells = []
    for keys, columns, count in _runs(report.rows, _text):
        cells += zip(*columns) if keys else [()] * count
    if fmt == "csv":
        import csv

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows(cells)
        return out.getvalue()
    widths = [max(map(len, column)) for column in zip(cols, *cells)]
    lines = ["  ".join(map(str.ljust, row, widths)).rstrip() for row in [cols, *cells]]
    s = report.summary
    lines += ["", f"pass={s['pass']} fail={s['fail']} not-applicable={s['not_applicable']}"]
    return "\n".join(lines) + "\n"


def _text(values: list) -> list[str]:
    return ["" if v is None else str(v) for v in values]


def _json_tokens(values) -> list[str]:
    return _ENCODE(values)[1:-1].split("\n")


def _runs(rows: list[dict], render):
    """(keys, columns, count) for each run of consecutive rows with one key
    order; column i holds `render`'s text of the rounded cells of key i."""
    for keys, run in itertools.groupby(rows, tuple):
        run = list(run)
        yield keys, [_column(values, render) for values in zip(*map(dict.values, run))], len(run)


def _column(values: tuple, render) -> list[str]:
    """`render` of `format_number` of each value, both once per distinct value.

    1, 1.0 and True are one dict key, so a column that mixes number types is
    rendered value by value.  So are the zeros of a float column, since 0.0
    and -0.0 are one key too but print apart.
    """
    if sum(issubclass(t, (int, float)) for t in set(map(type, values))) > 1:
        return render(list(map(format_number, values)))
    table = dict.fromkeys(values)
    table = dict(zip(table, render(list(map(format_number, table)))))
    if not any(isinstance(v, float) and not v for v in table):
        return list(map(table.__getitem__, values))
    zeros = dict(zip((1.0, -1.0), render([0.0, -0.0])))
    return [zeros[math.copysign(1.0, v)] if v == 0.0 else table[v] for v in values]


def _json(report: SweepReport) -> str:
    """Exactly `json.dumps(doc, indent=2) + "\\n"`, joined once from the frame
    around each run of rows and the cells' JSON text."""
    pieces = ['{\n  "kind": ', _ENCODE(report.kind), ",\n"]
    _json_dicts(pieces, [report.metadata], '  "metadata": ', "  ", ",\n")
    if report.rows:
        pieces.append('  "rows": [\n')
        _json_dicts(pieces, report.rows, "    ", "    ", ",\n")
        pieces[-1] = pieces[-1][:-2] + "\n"  # no comma after the last row
        pieces.append("  ],\n")
    else:
        pieces.append('  "rows": [],\n')
    _json_dicts(pieces, [report.summary], '  "summary": ', "  ", "\n")
    pieces.append("}\n")
    return "".join(pieces)


def _json_dicts(pieces: list[str], dicts: list[dict], lead: str, indent: str, trail: str) -> None:
    """Append each dict's text with its closing brace at `indent`, between `lead` and `trail`."""
    for keys, columns, count in _runs(dicts, _json_tokens):
        if not keys:
            pieces += itertools.repeat(lead + "{}" + trail, count)
            continue
        inner = "\n" + indent + "  "
        heads = [("," if i else lead + "{") + inner + key + ": " for i, key in enumerate(_json_tokens(keys))]
        parts = [*itertools.chain.from_iterable(zip(map(itertools.repeat, heads), columns)),
                 itertools.repeat("\n" + indent + "}" + trail)]
        pieces += itertools.chain.from_iterable(zip(*parts))  # row by row: head 1, cell 1, ..., tail
