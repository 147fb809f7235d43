"""Command-line front end: the parser, `main`, and the ordering commands.

`irregularities`, `limits` and `complete` run here.  `build_parser(command)`
imports the module holding any other command's handler only when that
command runs: `mbl.commands` (the other table commands), `mbl.suites`
(`verify`) or `mbl.svg` (`plot`).  Exit codes and output helpers live in
`mbl.report`.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import lattice, oeis
from .capacity import closed_forms, limit_decimal, surd_text
from .errors import VerificationError
from .markov import MarkovTriple
from .ordering import (
    SWAP_PATTERNS,
    find_irregularities,
    ordered_prefix_complete_above,
    spectrum_rows,
    verify_swap_pattern,
)
from .report import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    _at_least,
    _emit_rows,
    _preview,
    _report,
)

#: Loaded with the parser although only handler modules call them: the bench
#: tracer (perfbench/tracer.py) re-binds its traced functions only in modules
#: loaded before it installs.
_TRACED_OWNERS = (lattice, oeis)


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


def _fixture_match(records, n_max: int) -> bool:
    """Whether the records found up to n_max match the stored catalogue."""
    import json
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
    _at_least(config, 1, "--n-max")
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


def cmd_limits(config: argparse.Namespace) -> int:
    if config.k is not None and config.fmt != "json":
        raise ValueError("--k shows only in the JSON rows; use it with --format json")
    _at_least(config, 1, "--n", "--k")
    rows = spectrum_rows(config.n, k=4 if config.k is None else config.k)
    notes = ("* b for rows 1 and 2 follows the second-smallest-member "
             "convention (values 2 and 5)",)

    def cells(row):
        limit, lagrange = closed_forms(row.m)
        return [str(row.n), str(row.m), str(row.b) + ("*" if row.degenerate else ""),
                surd_text(lagrange), surd_text(limit), limit_decimal(row.m)]

    return _emit_rows(
        config, ["n", "m", "b", "lagrange", "limit", "decimal"],
        [(row,) for row in rows], cells,
        lambda row: row,  # a row writes its own JSON text
        {"command": "limits"}, notes,
    )


def cmd_complete(config: argparse.Namespace) -> int:
    _at_least(config, 1, "--n-max")
    report = ordered_prefix_complete_above(config.threshold, config.n_max)
    records = report["records"]
    spans = ", ".join(f"span-{span} at {[r['n'] for r in records if r['span'] == span]}"
                      for span in SWAP_PATTERNS)
    lines = [
        f"threshold = {config.threshold} (~{_preview(config.threshold, 6)})",
        f"n_max = {config.n_max}",
        f"records: {len(records)} ({spans})",
        f"sequences with limit above threshold: {report['active_sequences']}",
        f"tail: {len(report['tail_exact'])} exact leading-capacity checks, "
        f"monotone bound from index {report['tail_bound_index']} "
        f"(m = {report['tail_bound_m']})",
        f"certified: {report['certified']}",
        *(f"condition: {c}" for c in report["conditions"]),
        *(f"FAILURE: {f}" for f in report["failures"]),
    ]
    status = EXIT_OK if report["certified"] else EXIT_VERIFICATION
    return _report(config, report, lambda: "\n".join(lines) + "\n", status)


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

    def add(name: str, help_: str, formats: tuple[str, ...] = ("text", "json", "csv"),
            ) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help_, add_help=name == command)
        if name != command:
            return None
        if formats:  # only the formats the command renders
            p.add_argument("--format", dest="fmt", default="text", choices=formats)
        p.add_argument("--out", default=None)
        return p

    # a handler outside this module is imported only for the command that runs
    if p := add("widths", "capacity table bc/a"):
        from . import commands
        p.set_defaults(handler=commands.cmd_widths)
        p.add_argument("--triple", default=None)

    if p := add("triples", "enumerate triples up to a bound"):
        from . import commands
        p.set_defaults(handler=commands.cmd_triples)
        p.add_argument("--max-bound", type=int, default=1000)

    if p := add("subtree", "bivalent subtree preserving one entry"):
        from . import commands
        p.set_defaults(handler=commands.cmd_subtree)
        p.add_argument("--triple", required=True)
        p.add_argument("--preserve", type=int, default=None)
        p.add_argument("--depth", type=int, default=3)

    if p := add("order", "alternating decreasing capacity order below an apex"):
        from . import commands
        p.set_defaults(handler=commands.cmd_order)
        p.add_argument("--triple", required=True)
        p.add_argument("--depth", type=int, default=3)

    if p := add("irregularities", "scan the juxtaposition inequality"):
        p.set_defaults(handler=cmd_irregularities)
        p.add_argument("--n-max", type=int, default=450)
        p.add_argument("--fixture", action="store_true")

    if p := add("triangle", "base triangle data for a triple"):
        from . import commands
        p.set_defaults(handler=commands.cmd_triangle)
        p.add_argument("--triple", required=True)

    if p := add("width", "lattice width of a triangle or polygon file"):
        from . import commands
        p.set_defaults(handler=commands.cmd_width)
        p.add_argument("--triple", default=None)
        p.add_argument("--polygon", default=None)

    if p := add("limits", "per-sequence limits and Lagrange values"):
        p.set_defaults(handler=cmd_limits)
        p.add_argument("--n", type=int, default=10)
        p.add_argument("--k", type=int, default=None)

    if p := add("complete", "certify the ordered prefix above a threshold", ("text", "json")):
        p.set_defaults(handler=cmd_complete)
        p.add_argument("--threshold", required=True)
        p.add_argument("--n-max", type=int, default=450)

    if p := add("verify", "run invariant suites", ("text", "json")):
        from . import suites
        p.set_defaults(handler=suites.cmd_verify)
        p.add_argument("--suite", action="append", default=None,
                       choices=tuple(suites.SUITES), dest="suites")
        p.add_argument("--max-bound", type=int, default=10_000)
        p.add_argument("--n-max", type=int, default=60)
        p.add_argument("--cache-dir", default=None)

    if p := add("plot", "deterministic SVG figures", ()):
        from . import svg
        p.set_defaults(handler=svg.cmd_plot)
        p.add_argument("--figure", required=True,
                       choices=("order5", "numberline", "triangle"))
        p.add_argument("--triple", default=None)
        p.add_argument("--depth", type=int, default=3)
        p.add_argument("--n", type=int, default=33)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--delta", default="1/4")

    if p := add("ingest", "load and cross-check sequence b-files"):
        from . import commands
        p.set_defaults(handler=commands.cmd_ingest)
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


def run() -> None:
    """The `mbl` process: main(), a flush, then exit without interpreter teardown.

    A flush that fails (stdout closed) is an i/o error; a stream whose file
    descriptor was closed at start-up is None and is not flushed; a
    SystemExit or an uncaught exception from main takes Python's own exit path.
    """
    status = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        print(f"mbl: i/o error: {exc}", file=sys.stderr, flush=True)
        status = EXIT_IO
    os._exit(status)


if __name__ == "__main__":
    run()
