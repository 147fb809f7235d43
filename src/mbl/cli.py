"""Command-line front end: the command table, the parser, `main`, and the
ordering commands.

`irregularities`, `limits` and `complete` run here.  `_COMMANDS` declares
every command's flags once.  `main` parses an argv of the plain shape
`<command> (--flag value | --switch)*` from it directly; argparse (with
gettext and locale) loads only for help, usage errors and the argv that
parse declines, through `build_parser`, which builds the same parser from
the same table.  Either way `main` finishes each value `_VALUES` names,
counts included (a triple or a rational is parsed, a count's bound is
checked), then looks the handler up in the table, so no handler checks a
bound, and the module holding one outside this one is imported only when
its command runs with values that pass: `mbl.commands` (the other table
commands), `mbl.suites` (`verify`) or `mbl.svg` (`plot`).  No ordering
command calls `mbl.lattice` or `mbl.oeis`: `_deferred` puts both in
`sys.modules` unrun, and the first read of one of their names runs it.
The bench tracer (perfbench/tracer.py) reads the namespace of every loaded
`mbl` module before it re-binds its traced functions, which runs both
first, so its counts stay exact.  `fractions` and `decimal` load where a
`Fraction` or a printed decimal is first built.  The Markov walk behind the
ordering commands hands out int triples, and `json` loads only for
`--fixture` and `width --polygon`.  Exit codes and output helpers live in
`mbl.report`.
"""

from __future__ import annotations

import importlib.machinery
import os
import sys
from types import ModuleType, SimpleNamespace

from . import _package_data
from .capacity import _preview, closed_forms, limit_decimal, surd_text
from .errors import VerificationError
from .markov import MarkovTriple
from .ordering import (
    SWAP_PATTERNS,
    find_irregularities,
    ordered_prefix_complete_above,
    spectrum_rows,
)
from .report import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    _emit_rows,
    _report,
)


class _Deferred(ModuleType):
    """A module not yet run: its first attribute read, `__dict__` included,
    compiles and runs it in place, so every holder sees the same module."""

    def __getattribute__(self, name):
        self.__class__ = ModuleType  # every later read is a plain one
        self.__spec__.loader.exec_module(self)
        return getattr(self, name)


def _deferred(name: str) -> ModuleType:
    """The module `mbl.<name>`: the one imported already, or else an unrun
    one put in sys.modules and on the package, as an import would put it.

    An import from it (`from .lattice import ...`) reads its `__spec__` and
    so runs it; `from . import oeis` binds it unrun, to run at its first
    use.  The bench tracer (perfbench/tracer.py) reads `vars()` of every
    loaded `mbl` module before it re-binds, so it runs both before it wraps
    their functions.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    package = sys.modules[__package__]
    spec = importlib.machinery.PathFinder.find_spec(fullname, package.__path__)
    module = ModuleType(fullname)
    module.__spec__, module.__loader__ = spec, spec.loader
    module.__file__, module.__package__ = spec.origin, __package__
    module.__class__ = _Deferred
    sys.modules[fullname] = module
    setattr(package, name, module)
    return module


# Registered unrun: no ordering command calls either (see _deferred).
_deferred("lattice")
_deferred("oeis")


def _parse_triple(flag: str, text: str) -> MarkovTriple:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects integers a,b,c, got {text!r}") from None
    if len(values) != 3:
        raise ValueError(f"{flag} expects three entries, got {text!r}")
    return MarkovTriple.from_values(*values)


def _parse_rational(flag: str, text: str) -> Fraction:
    from fractions import Fraction  # only --threshold and --delta build one

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} expects an exact rational like 'p/q', got {text!r}") from None


def _at_least(least: int):
    """The check of a count flag: its int value, or the refusal of one below `least`."""
    def check(flag: str, value: int) -> int:
        if value < least:
            raise ValueError(f"{flag} must be >= {least}")
        return value
    return check


#: The flag values `main` finishes before it loads a handler: each dest, in
#: this order, and the parser of its flag's text or the check of its count.
_VALUES = {"triple": _parse_triple, "threshold": _parse_rational, "delta": _parse_rational,
           "max_bound": _at_least(1), "n_max": _at_least(1), "n": _at_least(1),
           "k": _at_least(1), "depth": _at_least(0)}


def _fixture(n_max: int) -> dict:
    """The stored catalogue of records, which covers n_max = 450 only."""
    import json

    fixture = json.loads(_package_data("irregularities_450.json"))
    if n_max != fixture["n_max"]:
        raise ValueError(
            f"--fixture catalogue covers n_max={fixture['n_max']}, "
            f"got --n-max {n_max}"
        )
    return fixture


def cmd_irregularities(config: SimpleNamespace) -> int:
    fixture = _fixture(config.n_max) if config.fixture else None  # before the scan
    checked = find_irregularities(config.n_max)
    payload = {"command": "irregularities", "n_max": config.n_max}
    notes = ("b values for rows 1 and 2 use the second-smallest-member "
             "convention; those rows never violate the inequality",)
    status = EXIT_OK if all(ok for _, ok in checked) else EXIT_VERIFICATION
    if fixture is not None:
        match = all([rec.n for rec, _ in checked if rec.span == span] == fixture[f"span_{span}"]
                    for span in SWAP_PATTERNS)
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


def cmd_limits(config: SimpleNamespace) -> int:
    if config.k is not None and config.fmt != "json":
        raise ValueError("--k shows only in the JSON rows; use it with --format json")
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


def cmd_complete(config: SimpleNamespace) -> int:
    report = ordered_prefix_complete_above(config.threshold, config.n_max)

    def render() -> str:
        records = report["records"]
        spans = ", ".join(f"span-{span} at {[r['n'] for r in records if r['span'] == span]}"
                          for span in SWAP_PATTERNS)
        return "\n".join([
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
        ]) + "\n"

    status = EXIT_OK if report["certified"] else EXIT_VERIFICATION
    return _report(config, report, render, status)


def _module(name: str):
    """The `mbl` module `name`, imported on first use; `-X importtime` logs `__import__`."""
    return __import__(f"{__package__}.{name}", fromlist=[name])


_FORMATS = ("text", "json", "csv")
#: Every command, in the order `mbl -h` lists them: its help, the formats it
#: renders (the choices of its `--format`, which `plot` lacks), its handler
#: (a function that imports the module holding it) and its flags.  A flag is
#: its name and the keywords of argparse's `add_argument`: dest, type,
#: default, choices, action, required.
_COMMANDS = {
    "widths": ("capacity table bc/a", _FORMATS,
               lambda: _module("commands").cmd_widths, (
                   ("--triple", {}),)),
    "triples": ("enumerate triples up to a bound", _FORMATS,
                lambda: _module("commands").cmd_triples, (
                    ("--max-bound", {"type": int, "default": 1000}),)),
    "subtree": ("bivalent subtree preserving one entry", _FORMATS,
                lambda: _module("commands").cmd_subtree, (
                    ("--triple", {"required": True}),
                    ("--preserve", {"type": int}),
                    ("--depth", {"type": int, "default": 3}))),
    "order": ("alternating decreasing capacity order below an apex", _FORMATS,
              lambda: _module("commands").cmd_order, (
                  ("--triple", {"required": True}),
                  ("--depth", {"type": int, "default": 3}))),
    "irregularities": ("scan the juxtaposition inequality", _FORMATS,
                       lambda: cmd_irregularities, (
                           ("--n-max", {"type": int, "default": 450}),
                           ("--fixture", {"action": "store_true"}))),
    "triangle": ("base triangle data for a triple", _FORMATS,
                 lambda: _module("commands").cmd_triangle, (
                     ("--triple", {"required": True}),)),
    "width": ("lattice width of a triangle or polygon file", _FORMATS,
              lambda: _module("commands").cmd_width, (
                  ("--triple", {}),
                  ("--polygon", {}))),
    "limits": ("per-sequence limits and Lagrange values", _FORMATS,
               lambda: cmd_limits, (
                   ("--n", {"type": int, "default": 10}),
                   ("--k", {"type": int}))),
    "complete": ("certify the ordered prefix above a threshold", ("text", "json"),
                 lambda: cmd_complete, (
                     ("--threshold", {"required": True}),
                     ("--n-max", {"type": int, "default": 450}))),
    "verify": ("run invariant suites", ("text", "json"),
               lambda: _module("suites").cmd_verify, (
                   # the names of suites.SUITES, in its order
                   ("--suite", {"action": "append", "dest": "suites",
                                "choices": ("markov", "capacity", "ordering",
                                            "lattice", "ingest")}),
                   ("--max-bound", {"type": int, "default": 10_000}),
                   ("--n-max", {"type": int, "default": 60}))),
    "plot": ("deterministic SVG figures", (),
             lambda: _module("svg").cmd_plot, (
                 ("--figure", {"required": True,
                               "choices": ("order5", "numberline", "triangle")}),
                 ("--triple", {}),
                 ("--depth", {"type": int, "default": 3}),
                 ("--n", {"type": int, "default": 33}),
                 ("--k", {"type": int, "default": 3}),
                 ("--delta", {"default": "1/4"}))),
    "ingest": ("load and cross-check sequence b-files", _FORMATS,
               lambda: _module("commands").cmd_ingest, (
                   # "all", then the keys of oeis.SEQUENCE_IDS, in its order
                   ("--kind", {"default": "all",
                               "choices": ("all", "markov", "fibonacci", "pell")}),
                   ("--n", {"type": int, "default": 500}),
                   ("--bfile", {}))),
}


def _flags(command: str) -> dict[str, dict]:
    """The flags of `command` in the order its help lists them, `--format`
    (where it renders formats) and `--out` first, each with its dest
    (argparse's own default unless the table names one)."""
    _, formats, _, flags = _COMMANDS[command]
    fmt = [("--format", {"dest": "fmt", "default": "text", "choices": formats})] if formats else []
    return {flag: {"dest": flag[2:].replace("-", "_"), **options}
            for flag, options in [*fmt, ("--out", {}), *flags]}


def build_parser() -> argparse.ArgumentParser:
    """The `mbl` parser, one subparser per command of `_COMMANDS`."""
    import argparse  # only help, usage errors and argv _plain_parse declines need it

    parser = argparse.ArgumentParser(
        prog="mbl",
        description="Exact computations on Markov triples, their capacities, "
        "and the associated base triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, *_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, options in _flags(name).items():
            p.add_argument(flag, **options)
    return parser


def _plain_parse(argv) -> dict | None:
    """`vars(build_parser().parse_args(argv))` for argv of the shape
    `<command> (--flag value | --switch)*`, or None for any other argv.

    Flags must be named exactly and each at most once, values must not
    start with "-", ints and choices must be valid and every required flag
    given; argparse takes the rest: help, abbreviations, `--flag=value`,
    repeated flags and every usage error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, flags = argv[0], _flags(argv[0])
    values = {"command": command}
    for options in flags.values():
        switch = options.get("action") == "store_true"
        values[options["dest"]] = options.get("default", False if switch else None)
    given = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        options = flags.get(flag)
        if options is None or flag in given:
            return None
        given.add(flag)
        action = options.get("action")
        if action == "store_true":
            values[options["dest"]] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if "type" in options:
            try:
                value = options["type"](value)
            except ValueError:
                return None
        if "choices" in options and value not in options["choices"]:
            return None
        values[options["dest"]] = [value] if action == "append" else value
    if any(options.get("required") and flag not in given for flag, options in flags.items()):
        return None
    return values


def main(argv: list[str]) -> int:
    values = _plain_parse(argv)
    if values is None:
        values = vars(build_parser().parse_args(argv))
    try:
        for dest, parse in _VALUES.items():
            if values.get(dest) is not None:
                values[dest] = parse("--" + dest.replace("_", "-"), values[dest])
        handler = _COMMANDS[values["command"]][2]()  # imports the module holding it
        return handler(SimpleNamespace(**values))
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
    """The `mbl` process: lift the int/str digit limit, main(sys.argv[1:]), a
    flush, then exit without interpreter teardown.

    Integers convert at any length, since mbl parses only its user's own
    input; an in-process caller of main keeps its own limit.  A flush that
    fails (stdout closed) is an i/o error; a stream whose file descriptor was
    closed at start-up is None and is not flushed; a SystemExit or an
    uncaught exception from main takes Python's own exit path.
    """
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    status = main(sys.argv[1:])
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
