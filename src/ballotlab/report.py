"""Tabular report documents and their renderings.

A :class:`Report` holds exact values; rounding happens only when a
table is rendered for humans.  Machine formats (``csv``,
``json-lines``) carry integers verbatim and non-integral rationals as
``numerator/denominator`` tokens, so every cell can be reconstructed
exactly.  Rendering is deterministic: identical reports produce
byte-identical output.  Footer notes (winner summaries, provenance)
appear in table mode only.  Columns and cells are immutable
:class:`~ballotlab.core.Record` values; a report is the one record
built up in place, and its ``rows`` and ``notes`` start as new lists.
"""

from __future__ import annotations

import io
from collections.abc import Sequence
from fractions import Fraction

from .core import Record
from .rational import decimal_string, fraction_token, percent_string

TABLE = "table"
CSV = "csv"
JSON_LINES = "json-lines"
FORMATS = (TABLE, CSV, JSON_LINES)

#: Column kinds drive table-mode rendering only.
#:   text       -- string as-is
#:   int        -- integer with no decoration
#:   percent    -- proportion shown as NN.NN%
#:   decimal<n> -- fixed-point with n places
_KINDS = ("text", "int", "percent", "decimal2", "decimal3", "decimal4")

Value = int | str | Fraction


class Column(Record):
    name: str
    kind: str = "text"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")


class Cell(Record):
    """A value with an optional per-cell kind override."""

    value: Value
    kind: str | None = None


class Report(Record):
    title: str
    columns: tuple[Column, ...]
    rows: list[tuple[Value | Cell, ...]] = None
    notes: list[str] = None

    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __post_init__(self) -> None:
        self.rows = [] if self.rows is None else self.rows
        self.notes = [] if self.notes is None else self.notes

    @classmethod
    def items(cls, title: str, rows, notes: Sequence[str] = ()) -> Report:
        """A two-column ``item``/``value`` report."""
        return cls(title, (Column("item"), Column("value")), list(rows), list(notes))

    def add(self, *values: Value | Cell) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells but the report has {len(self.columns)} columns"
            )
        self.rows.append(values)


def _cell_parts(cell: Value | Cell, column: Column) -> tuple[Value, str]:
    if isinstance(cell, Cell):
        return cell.value, cell.kind or column.kind
    return cell, column.kind


def _display(value: Value, kind: str) -> str:
    if isinstance(value, str):
        return value
    if kind == "percent":
        return percent_string(value)
    if kind.startswith("decimal"):
        return decimal_string(value, int(kind[len("decimal"):]))
    return fraction_token(value)


def _machine(value: Value) -> int | str:
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction) and value.denominator != 1:
        return fraction_token(value)
    return int(value)


def _machine_rows(report: Report) -> list[list[int | str]]:
    return [[_machine(_cell_parts(cell, col)[0]) for cell, col in zip(row, report.columns)]
            for row in report.rows]


def emit_table(report: Report, fmt: str = TABLE) -> bytes:
    """Render a report; see the module docstring for format guarantees."""
    if fmt == TABLE:
        return _emit_text_table(report)
    if fmt == CSV:
        return _emit_csv(report)
    if fmt == JSON_LINES:
        return _emit_json_lines(report)
    raise ValueError(f"unknown output format {fmt!r}")


def _emit_text_table(report: Report) -> bytes:
    headers = [col.name for col in report.columns]
    body = [
        [_display(*_cell_parts(cell, col)) for cell, col in zip(row, report.columns)]
        for row in report.rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
        for i in range(len(headers))
    ]
    numeric = [col.kind != "text" for col in report.columns]

    def line(cells: list[str]) -> str:
        return "  ".join(
            cells[i].rjust(widths[i]) if numeric[i] else cells[i].ljust(widths[i])
            for i in range(len(cells))
        ).rstrip()

    lines = [report.title, line(headers), line(["-" * w for w in widths])]
    lines.extend(line(r) for r in body)
    for note in report.notes:
        lines.append(note)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _emit_csv(report: Report) -> bytes:
    import csv  # each machine format imports its module only when used
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([col.name for col in report.columns])
    writer.writerows(_machine_rows(report))
    return out.getvalue().encode("utf-8")


def _emit_json_lines(report: Report) -> bytes:
    import json
    names = [col.name for col in report.columns]
    lines = [json.dumps(dict(zip(names, row)), separators=(",", ":"), ensure_ascii=False)
             for row in _machine_rows(report)]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def emit_range_plot_data(minimum: dict[str, int], profile, span: int) -> bytes:
    """Long-form CSV decomposing each candidate's score range for plotting.

    One ``base`` row per candidate (their guaranteed support) and one
    ``potential`` row per rival whose first-place voters could add ``span``
    each, the scale's cap less its floor (1 approval, or 3 of STAR's 1-4
    stars), so a candidate's rows always sum to their range maximum.
    """
    report = Report("", tuple(map(Column, ("candidate", "segment", "source", "value"))))
    sizes = profile.group_sizes()
    for c in profile.candidates:
        report.add(c, "base", "", minimum[c])
        for rival in profile.candidates:
            if rival != c:
                report.add(c, "potential", rival, span * sizes[rival, c])
    return _emit_csv(report)
