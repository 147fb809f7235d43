"""Command-line front end: tables, reports, figures and the verify runner.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
All output is deterministic for a given invocation: exact rationals are
rendered as "p/q" plus a 12-significant-digit decimal preview; previews
never feed back into any computation.
"""

from __future__ import annotations

import argparse
import decimal
import io
import json
import sys
from collections.abc import Callable
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # the C encoder

from . import oeis
from .capacity import QuadraticValue, capacity_to_json, lagrange_number, width
from .errors import VerificationError
from .lattice import LatticePolygon, central_point, lattice_width, vianna_triangle
from .markov import MarkovTriple, apex_for, enumerate_triples, tree_depth, wedge
from .ordering import (
    SWAP_PATTERNS,
    alternating_order,
    find_irregularities,
    ordered_prefix_complete_above,
    spectrum_rows,
    verify_swap_pattern,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

_PAPER_TABLE = ((2, 1, 1), (5, 2, 1), (13, 5, 1), (29, 5, 2), (433, 29, 5))


def _parse_triple(text: str) -> MarkovTriple:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--triple expects integers a,b,c, got {text!r}") from None
    if len(values) != 3:
        raise ValueError(f"--triple expects three entries, got {text!r}")
    return MarkovTriple.from_values(*values)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected an exact rational like 'p/q', got {text!r}") from None


def _preview(value, digits: int = 12) -> str:
    if isinstance(value, QuadraticValue):
        return value.decimal(digits)
    value = Fraction(value)
    ctx = decimal.Context(prec=digits)
    return str(
        ctx.divide(decimal.Decimal(value.numerator), decimal.Decimal(value.denominator))
    )


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


def _emit(config: argparse.Namespace, data: str) -> None:
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(data)
    else:
        sys.stdout.write(data)


def _json_text(value, newline: str = "\n") -> str:
    """The bytes of json.dumps(value, indent=2, sort_keys=True), sooner.

    With indent set, json.dumps runs the pure-Python encoder.  This writer
    covers only what payloads hold (dicts with str keys, lists, tuples, str,
    int, bool, None: exactly these types, not subclasses) and raises
    TypeError on anything else, floats included.  Strings go through the C
    quoting of json.encoder, most of them without a call of their own.
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
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _report(
    config: argparse.Namespace, payload: dict, render: Callable[[], str],
    status: int = EXIT_OK,
) -> int:
    """Write the payload as JSON under --format json, else render(); return status."""
    _emit(config, _json_text(payload) + "\n" if config.fmt == "json" else render())
    return status


def _emit_rows(
    config: argparse.Namespace,
    columns: list[str],
    records: list,
    cells: Callable[..., list[str]],
    json_row: Callable[..., dict],
    payload: dict,
    notes: tuple[str, ...] = (),
    status: int = EXIT_OK,
) -> int:
    """Emit one table row per record and return status.

    Only the format asked for is rendered: cells(*record) fills the text and
    CSV rows, json_row(*record) the JSON rows under payload["rows"].
    """
    if config.fmt == "json":
        payload["rows"] = [json_row(*record) for record in records]

    def render() -> str:
        return _table(config.fmt, columns, [cells(*record) for record in records], notes)

    return _report(config, payload, render, status)


def cmd_widths(config: argparse.Namespace) -> int:
    triples = (
        [config.triple]
        if config.triple is not None
        else [MarkovTriple(*t) for t in _PAPER_TABLE]
    )
    return _emit_rows(
        config, ["triple", "width", "decimal"], [(t, width(t)) for t in triples],
        lambda t, w: [str(t), str(w), _preview(w)],
        lambda t, w: {"triple": t.to_json(), "width": capacity_to_json(w),
                      "preview": _preview(w)},
        {"command": "widths"},
    )


def cmd_triples(config: argparse.Namespace) -> int:
    records = [(t, tree_depth(t), width(t)) for t in enumerate_triples(config.max_bound)]
    return _emit_rows(
        config, ["triple", "depth", "width"], records,
        lambda t, depth, w: [str(t), str(depth), str(w)],
        lambda t, depth, w: {"triple": t.to_json(), "depth": depth,
                             "width": capacity_to_json(w)},
        {"command": "triples", "max_bound": str(config.max_bound)},
    )


def cmd_subtree(config: argparse.Namespace) -> int:
    preserved = config.preserve if config.preserve is not None else config.triple.a
    apex = apex_for(preserved, config.triple)
    records = [(tree_depth(t), t, width(t)) for t in wedge(apex, config.depth)]
    payload = {
        "command": "subtree",
        "preserved": str(apex.a),
        "apex": apex.to_json(),
    }
    return _emit_rows(
        config, ["depth", "triple", "width", "decimal"], records,
        lambda depth, t, w: [str(depth), str(t), str(w), _preview(w)],
        lambda depth, t, w: {"depth": depth, "triple": t.to_json(),
                             "width": capacity_to_json(w)},
        payload,
    )


def cmd_order(config: argparse.Namespace) -> int:
    records = [(rank, t, w) for rank, (t, w)
               in enumerate(alternating_order(config.triple, config.depth), start=1)]
    return _emit_rows(
        config, ["rank", "triple", "width", "decimal"], records,
        lambda rank, t, w: [str(rank), str(t), str(w), _preview(w)],
        lambda rank, t, w: {"rank": rank, "triple": t.to_json(),
                            "width": capacity_to_json(w)},
        {"command": "order", "apex": config.triple.to_json()},
    )


def _fixture_match(records, n_max: int) -> bool:
    """Whether the records found up to n_max match the stored catalogue."""
    from importlib import resources

    blob = (resources.files("mbl") / "data" / "irregularities_450.json").read_text()
    fixture = json.loads(blob)
    if n_max != fixture["n_max"]:
        raise ValueError(
            f"--fixture catalogue covers n_max={fixture['n_max']}, "
            f"got --n-max {n_max}"
        )
    return all(
        [rec.n for rec in records if rec.span == span] == fixture[f"span_{span}"]
        for span in SWAP_PATTERNS
    )


def cmd_irregularities(config: argparse.Namespace) -> int:
    records = find_irregularities(config.n_max)
    checked = [(rec, verify_swap_pattern(rec)) for rec in records]
    payload = {"command": "irregularities", "n_max": config.n_max}
    notes = ("b values for rows 1 and 2 use the second-smallest-member "
             "convention; those rows never violate the inequality",)
    status = EXIT_OK if all(ok for _, ok in checked) else EXIT_VERIFICATION
    if config.fixture:
        match = _fixture_match(records, config.n_max)
        payload["fixture_match"] = match
        notes += (f"fixture match: {match}",)
        if not match:
            status = EXIT_VERIFICATION
    return _emit_rows(
        config, ["n", "span", "n_prime", "swap_verified", "kind"], checked,
        lambda rec, ok: [str(rec.n), str(rec.span), str(rec.n_prime),
                         "yes" if ok else "NO", rec.kind],
        lambda rec, ok: {**rec.to_json(), "swap_verified": ok},
        payload, notes, status,
    )


def cmd_triangle(config: argparse.Namespace) -> int:
    tri = vianna_triangle(config.triple)
    center = central_point(tri)
    value, xi = lattice_width(tri.polygon)
    payload = {
        "command": "triangle",
        "triple": config.triple.to_json(),
        "vertices": tri.polygon.to_json(),
        "ell": str(tri.ell),
        "h": str(tri.h),
        "t": str(tri.t),
        "lam": str(tri.lam),
        "u": tri.u,
        "edges": [
            {"direction": list(e.direction), "affine_length": str(e.length)}
            for e in tri.edge_data
        ],
        "central_point": [str(center.x), str(center.y)],
        "lattice_width": capacity_to_json(value),
        "minimizer": list(xi),
    }
    rows = [
        ["vertices", " ".join(f"({p.x},{p.y})" for p in tri.vertices)],
        ["ell", str(tri.ell)],
        ["h", str(tri.h)],
        ["apex abscissa t", str(tri.t)],
        ["lam", str(tri.lam)],
        ["edge lengths", " ".join(str(e.length) for e in tri.edge_data)],
        ["central point", str(center)],
        ["lattice width", f"{value} at xi={xi}"],
    ]
    columns = ["quantity", "value"]
    return _report(config, payload, lambda: _table(config.fmt, columns, rows))


def cmd_width(config: argparse.Namespace) -> int:
    if (config.triple is None) == (config.polygon is None):
        raise ValueError("width needs exactly one of --triple or --polygon")
    if config.triple is not None:
        polygon = vianna_triangle(config.triple).polygon
        source = {"triple": config.triple.to_json()}
    else:
        try:
            with open(config.polygon, "r") as handle:
                polygon = LatticePolygon.from_json(json.load(handle))
        except (json.JSONDecodeError, ZeroDivisionError) as exc:
            raise ValueError(f"bad polygon file {config.polygon}: {exc}") from None
        source = {"polygon_file": config.polygon}
    value, xi = lattice_width(polygon)
    payload = {
        "command": "width",
        **source,
        "vertices": polygon.to_json(),
        "lattice_width": capacity_to_json(value),
        "minimizer": list(xi),
        "preview": _preview(value),
    }
    rows = [[str(value), f"({xi[0]},{xi[1]})", _preview(value)]]
    columns = ["lattice_width", "minimizer", "decimal"]
    return _report(config, payload, lambda: _table(config.fmt, columns, rows))


def cmd_limits(config: argparse.Namespace) -> int:
    if config.k is not None and config.fmt != "json":
        raise ValueError("--k shows only in the JSON rows; use it with --format json")
    rows = spectrum_rows(config.n, k=4 if config.k is None else config.k)
    notes = ("* b for rows 1 and 2 follows the second-smallest-member "
             "convention (values 2 and 5)",)
    return _emit_rows(
        config, ["n", "m", "b", "lagrange", "limit", "decimal"],
        [(row,) for row in rows],
        lambda row: [str(row.n), str(row.m), str(row.b) + ("*" if row.degenerate else ""),
                     str(lagrange_number(row.m)), str(row.limit), _preview(row.limit)],
        lambda row: row.to_json(),
        {"command": "limits"}, notes,
    )


def cmd_plot(config: argparse.Namespace) -> int:
    from . import svg  # imported here: no other command draws
    if config.figure == "order5":
        triple = config.triple or MarkovTriple(5, 2, 1)
        data = svg.figure_subtree(triple, config.depth)
    elif config.figure == "numberline":
        data = svg.figure_numberline(config.n, k=config.k)
    elif config.triple is None:
        raise ValueError("plot --figure triangle needs --triple")
    else:
        data = svg.figure_triangle(config.triple, config.delta)
    _emit(config, data)
    return EXIT_OK


def cmd_ingest(config: argparse.Namespace) -> int:
    if config.bfile is not None and config.kind == "all":
        raise ValueError("--bfile holds one sequence; name it with --kind")
    kinds = list(oeis.SEQUENCE_IDS) if config.kind == "all" else [config.kind]
    if config.fetch:
        for kind in kinds:
            oeis.fetch_bfile(kind, cache_dir=config.cache_dir)
    reports = [
        oeis.cross_check(kind, config.n, oeis.load_bfile(kind, config.bfile, config.cache_dir))
        for kind in kinds
    ]
    status = EXIT_OK if all(report.ok for report in reports) else EXIT_VERIFICATION
    return _emit_rows(
        config, ["kind", "sequence", "n", "source", "status"],
        list(zip(kinds, reports)),
        lambda kind, report: [
            kind,
            report.sequence_id,
            str(report.n),
            report.source,
            "ok" if report.ok else f"MISMATCH at {report.first_mismatch[0]}",
        ],
        lambda kind, report: report.to_json(),
        {"command": "ingest"}, status=status,
    )


def cmd_verify(config: argparse.Namespace) -> int:
    from . import suites  # imported here: no other command runs the suites
    names = dict.fromkeys(config.suites or suites.SUITES)  # once each, first-given order
    if config.n_max < 1 or config.max_bound < 1:
        raise ValueError("verify needs --n-max and --max-bound >= 1")
    report = {"command": "verify", "suites": {}, "passed": True}
    lines = []
    for name in names:
        try:  # a suite that raises is replaced by one failed check
            results = list(suites.SUITES[name](config))
        except (ValueError, VerificationError) as exc:
            results = [("completed", False, f"{type(exc).__name__}: {exc}")]
        passed = all(ok for _, ok, _ in results)
        checks = [{"name": check, "passed": ok, "witness": witness}
                  for check, ok, witness in results]
        report["suites"][name] = {"passed": passed, "checks": checks}
        report["passed"] = report["passed"] and passed
        for check, ok, witness in results:
            suffix = f"  [{witness}]" if witness and not ok else ""
            lines.append(f"{'PASS' if ok else 'FAIL'}  {name}:{check}{suffix}")
    lines.append("all suites passed" if report["passed"] else "FAILURES above")
    status = EXIT_OK if report["passed"] else EXIT_VERIFICATION
    return _report(config, report, lambda: "\n".join(lines) + "\n", status)


def cmd_complete(config: argparse.Namespace) -> int:
    report = ordered_prefix_complete_above(config.threshold, config.n_max)
    spans = ", ".join(f"span-{span} at {[r.n for r in report.records if r.span == span]}"
                      for span in SWAP_PATTERNS)
    lines = [
        f"threshold = {report.threshold} (~{_preview(report.threshold, 6)})",
        f"n_max = {report.n_max}",
        f"records: {len(report.records)} ({spans})",
        f"sequences with limit above threshold: {report.active_sequences}",
        f"tail: {len(report.tail_exact)} exact leading-capacity checks, "
        f"monotone bound from index {report.tail_bound_index} "
        f"(m = {report.tail_bound_m})",
        f"certified: {report.certified}",
    ]
    lines.extend(f"condition: {c}" for c in report.conditions)
    lines.extend(f"FAILURE: {f}" for f in report.failures)
    status = EXIT_OK if report.certified else EXIT_VERIFICATION
    return _report(config, report.to_json(), lambda: "\n".join(lines) + "\n", status)


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The `mbl` parser, with -h and arguments on the `command` subparser only.

    Every subcommand keeps its name and help, so usage, help and error text
    are those of the full parser; argparse builds a help formatter for each
    argument it adds, and only the subparser that parses needs its own.
    """
    parser = argparse.ArgumentParser(
        prog="mbl",
        description="Exact computations on Markov triples, their capacities, "
        "and the associated base triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, handler: Callable[[argparse.Namespace], int],
            formats: tuple[str, ...] = ("text", "json", "csv"),
            ) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help_, add_help=name == command)
        if name != command:
            return None
        p.set_defaults(handler=handler)
        if formats:  # only the formats the command renders
            p.add_argument("--format", dest="fmt", default="text", choices=formats)
        p.add_argument("--out", default=None)
        return p

    if p := add("widths", "capacity table bc/a", cmd_widths):
        p.add_argument("--triple", default=None)

    if p := add("triples", "enumerate triples up to a bound", cmd_triples):
        p.add_argument("--max-bound", type=int, default=1000)

    if p := add("subtree", "bivalent subtree preserving one entry", cmd_subtree):
        p.add_argument("--triple", required=True)
        p.add_argument("--preserve", type=int, default=None)
        p.add_argument("--depth", type=int, default=3)

    if p := add("order", "alternating decreasing capacity order below an apex", cmd_order):
        p.add_argument("--triple", required=True)
        p.add_argument("--depth", type=int, default=3)

    if p := add("irregularities", "scan the juxtaposition inequality", cmd_irregularities):
        p.add_argument("--n-max", type=int, default=450)
        p.add_argument("--fixture", action="store_true")

    if p := add("triangle", "base triangle data for a triple", cmd_triangle):
        p.add_argument("--triple", required=True)

    if p := add("width", "lattice width of a triangle or polygon file", cmd_width):
        p.add_argument("--triple", default=None)
        p.add_argument("--polygon", default=None)

    if p := add("limits", "per-sequence limits and Lagrange values", cmd_limits):
        p.add_argument("--n", type=int, default=10)
        p.add_argument("--k", type=int, default=None)

    if p := add("complete", "certify the ordered prefix above a threshold", cmd_complete,
                ("text", "json")):
        p.add_argument("--threshold", required=True)
        p.add_argument("--n-max", type=int, default=450)

    if p := add("verify", "run invariant suites", cmd_verify, ("text", "json")):
        from . import suites  # imported here: only verify names the suites
        p.add_argument("--suite", action="append", default=None,
                       choices=tuple(suites.SUITES), dest="suites")
        p.add_argument("--max-bound", type=int, default=10_000)
        p.add_argument("--n-max", type=int, default=60)
        p.add_argument("--cache-dir", default=None)

    if p := add("plot", "deterministic SVG figures", cmd_plot, ()):
        p.add_argument("--figure", required=True,
                       choices=("order5", "numberline", "triangle"))
        p.add_argument("--triple", default=None)
        p.add_argument("--depth", type=int, default=3)
        p.add_argument("--n", type=int, default=33)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--delta", default="1/4")

    if p := add("ingest", "load and cross-check sequence b-files", cmd_ingest):
        p.add_argument("--kind", default="all",
                       choices=("all",) + tuple(oeis.SEQUENCE_IDS))
        p.add_argument("--n", type=int, default=500)
        p.add_argument("--bfile", default=None)
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--fetch", action="store_true")
    return parser


def main(argv=None) -> int:
    if argv is None:  # the process itself: `python -m mbl.cli` or `mbl`
        import gc  # imported here: only the process itself needs it
        # the objects loaded so far live until exit: keep every collection,
        # the one at exit included, from walking them again
        gc.freeze()
        argv = sys.argv[1:]
    # argparse takes the first argument not starting with "-" as the command
    # (the top-level parser has no option with a value); an argument it
    # takes as positional although it starts with "-" names no command
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        if getattr(args, "triple", None) is not None:
            args.triple = _parse_triple(args.triple)
        if getattr(args, "threshold", None) is not None:
            args.threshold = _parse_rational(args.threshold)
        if getattr(args, "delta", None) is not None:
            args.delta = _parse_rational(args.delta)
        return args.handler(args)
    except ValueError as exc:
        print(f"mbl: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"mbl: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"mbl: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
