"""What every `mbl` command writes: tables, JSON payloads, exit codes.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error,
4 a resource (memory, recursion depth) ran out, 130 interrupted.
All output is deterministic for a given invocation: exact rationals are
rendered as "p/q", and every decimal preview beside them comes from
`mbl.capacity`; previews never feed back into any computation.  A table is
its JSON rows: `_emit_rows` reads its text and CSV cells off them, so no
format can disagree with another.  This module only writes output:
`mbl.cli.main` checks every flag value.
"""

from __future__ import annotations

import io
import sys
from collections.abc import Callable
from types import SimpleNamespace
try:  # the C quoter of json.encoder, without loading the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4
EXIT_INTERRUPT = 130


def _table(
    fmt: str, columns: list[str], rows: list[list[str]], notes: tuple[str, ...] = ()
) -> str:
    """The rows as CSV, or as aligned text columns followed by "# note" lines."""
    if fmt == "csv":
        import csv  # imported here: only CSV output needs it
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buffer.getvalue()
    widths = [max(map(len, column)) for column in zip(columns, *rows)]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in [columns, ["-" * w for w in widths], *rows]
    ]
    lines.extend(f"# {note}" for note in notes)
    return "\n".join(lines) + "\n"


def _emit(config: SimpleNamespace, data: str) -> None:
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(data)
    elif sys.stdout is None:  # Python's stdout when file descriptor 1 is closed
        raise OSError("stdout is closed")
    else:
        sys.stdout.write(data)


def _json_text(value, newline: str = "\n") -> str:
    """The bytes of json.dumps(value, indent=2, sort_keys=True), sooner.

    With indent set, json.dumps runs the pure-Python encoder.  This writer
    covers only what payloads hold (dicts with str keys, lists, tuples, str,
    int, bool, None: exactly these types, not subclasses) and raises
    TypeError on anything else, floats included.  Strings go through the C
    quoting json.encoder uses, most of them without a call of their own.  A
    value of any other class that defines `json_text(newline)` writes itself:
    that method returns the bytes this writer gives its JSON form at the
    indent `newline` opens.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            item = value[key]
            items.append(_quote(key) + ": "
                         + (_quote(item) if type(item) is str else _json_text(item, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_quote(item) if type(item) is str else _json_text(item, inner)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if hasattr(kind, "json_text"):
        return value.json_text(newline)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _report(
    config: SimpleNamespace, payload: dict, render: Callable[[], str],
    status: int = EXIT_OK,
) -> int:
    """Write the payload as JSON under --format json, else render(); return status."""
    _emit(config, _json_text(payload) + "\n" if config.fmt == "json" else render())
    return status


def _emit_rows(
    config: SimpleNamespace,
    columns: list[str],
    rows: list,
    cells: Callable[..., list[str]],
    payload: dict,
    notes: tuple[str, ...] = (),
    status: int = EXIT_OK,
) -> int:
    """Emit a table of the JSON `rows` and return status.

    The rows go under payload["rows"]; cells(row) reads the text and CSV
    strings of one row off it, so each value is converted once, in the row.
    """
    payload["rows"] = rows
    return _report(config, payload, lambda: _table(
        config.fmt, columns, [cells(row) for row in rows], notes), status)
