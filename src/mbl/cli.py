"""Command-line front end: the command table, the value parsers, the argv
parsers, `main` and `run`.

`_COMMANDS` declares every command's flags once.  `main` parses an argv of
the plain shape `<command> (--flag value | --switch)*` from it directly;
argparse (with gettext and locale) loads only for help, usage errors and the
argv that parse declines, through `build_parser`, which builds the same
parser from the same table.  Neither converts a value: `main` reads each one
`_VALUES` names, defaults included, with `mbl._integer` or `_rational`, checks
a count's bound, then looks the handler up, so no handler checks a bound.  The
handlers of the ordering commands (`irregularities`, `limits`, `complete`)
live in `mbl.ordering`, which every process loads; the module holding any
other is imported only when its command runs with values that pass:
`mbl.commands` (the other table commands), `mbl.suites` (`verify`) or
`mbl.svg` (`plot`).  No ordering command calls `mbl.lattice` or `mbl.oeis`:
`_deferred` puts both in `sys.modules` unrun, and the first read of one of
their names runs it.  `fractions` loads only to read or write a rational as
text and `decimal` only to print a decimal, so `verify` loads neither.  The
Markov walk behind the ordering commands hands out int triples, and `json`
loads only for `--fixture` and `width --polygon`.  Exit codes and output
helpers live in `mbl.report`.
"""

from __future__ import annotations

import importlib.machinery
import os
import sys
from types import ModuleType, SimpleNamespace

from . import _integer, _rational
from .errors import VerificationError
from .markov import sorted_triple
from .ordering import cmd_complete, cmd_irregularities, cmd_limits
from .report import EXIT_INTERRUPT, EXIT_IO, EXIT_RESOURCE, EXIT_USAGE, EXIT_VERIFICATION


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


def _parse_triple(flag: str, text: str) -> tuple[int, int, int]:
    try:
        values = [_integer(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects integers a,b,c, got {text!r}") from None
    if len(values) != 3:
        raise ValueError(f"{flag} expects three entries, got {text!r}")
    return sorted_triple(*values)


def _parse_rational(flag: str, text: str) -> tuple[int, int]:
    try:
        return _rational(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} expects an exact rational like 'p/q', got {text!r}") from None


def _count(least: int | None):
    """The reader of a count flag: its int, refusing other text and any int below `least`."""
    def read(flag: str, text: str) -> int:
        try:
            value = _integer(text)
        except ValueError:
            raise ValueError(f"{flag} expects an integer, got {text!r}") from None
        if least is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}")
        return value
    return read


#: Every flag value `main` reads before it loads a handler: each dest, in
#: this order, and the reader of its flag's text.
_VALUES = {"triple": _parse_triple, "threshold": _parse_rational, "delta": _parse_rational,
           "max_bound": _count(1), "n_max": _count(1), "n": _count(1),
           "k": _count(1), "depth": _count(0), "preserve": _count(None)}


def _module(name: str):
    """The `mbl` module `name`, imported on first use; `-X importtime` logs `__import__`."""
    return __import__(f"{__package__}.{name}", fromlist=[name])


_FORMATS = ("text", "json", "csv")
#: Every command, in the order `mbl -h` lists them: its help, the formats it
#: renders (the choices of its `--format`, which `plot` lacks), its handler
#: (a function that imports the module holding it) and its flags.  A flag is
#: its name and the keywords of argparse's `add_argument`: dest, default (as
#: text, which `_VALUES` reads like a given value), choices, action, required.
_COMMANDS = {
    "widths": ("capacity table bc/a", _FORMATS,
               lambda: _module("commands").cmd_widths, (
                   ("--triple", {}),)),
    "triples": ("enumerate triples up to a bound", _FORMATS,
                lambda: _module("commands").cmd_triples, (
                    ("--max-bound", {"default": "1000"}),)),
    "subtree": ("bivalent subtree preserving one entry", _FORMATS,
                lambda: _module("commands").cmd_subtree, (
                    ("--triple", {"required": True}),
                    ("--preserve", {}),
                    ("--depth", {"default": "3"}))),
    "order": ("alternating decreasing capacity order below an apex", _FORMATS,
              lambda: _module("commands").cmd_order, (
                  ("--triple", {"required": True}),
                  ("--depth", {"default": "3"}))),
    "irregularities": ("scan the juxtaposition inequality", _FORMATS,
                       lambda: cmd_irregularities, (
                           ("--n-max", {"default": "450"}),
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
                   ("--n", {"default": "10"}),
                   ("--k", {}))),
    "complete": ("certify the ordered prefix above a threshold", ("text", "json"),
                 lambda: cmd_complete, (
                     ("--threshold", {"required": True}),
                     ("--n-max", {"default": "450"}))),
    "verify": ("run invariant suites", ("text", "json"),
               lambda: _module("suites").cmd_verify, (
                   # the names of suites.SUITES, in its order
                   ("--suite", {"action": "append", "dest": "suites",
                                "choices": ("markov", "capacity", "ordering",
                                            "lattice", "ingest")}),
                   ("--max-bound", {"default": "10000"}),
                   ("--n-max", {"default": "60"}))),
    "plot": ("deterministic SVG figures", (),
             lambda: _module("svg").cmd_plot, (
                 ("--figure", {"required": True,
                               "choices": ("order5", "numberline", "triangle")}),
                 ("--triple", {}),
                 ("--depth", {"default": "3"}),
                 ("--n", {"default": "33"}),
                 ("--k", {"default": "3"}),
                 ("--delta", {"default": "1/4"}))),
    "ingest": ("load and cross-check sequence b-files", _FORMATS,
               lambda: _module("commands").cmd_ingest, (
                   # "all", then the keys of oeis.SEQUENCE_IDS, in its order
                   ("--kind", {"default": "all",
                               "choices": ("all", "markov", "fibonacci", "pell")}),
                   ("--n", {"default": "500"}),
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
    start with "-", choices must be valid and every required flag given;
    argparse takes the rest: help, abbreviations, `--flag=value`, repeated
    flags and every usage error.  Like argparse, it converts no value.
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
        if "choices" in options and value not in options["choices"]:
            return None
        values[options["dest"]] = [value] if action == "append" else value
    if any(options.get("required") and flag not in given for flag, options in flags.items()):
        return None
    return values


#: Each exception a command can end in, the stderr line `main` prints and the exit code.
_OUTCOMES = ((ValueError, "mbl: {exc}", EXIT_USAGE),
             (VerificationError, "mbl: verification failure: {exc}", EXIT_VERIFICATION),
             (OSError, "mbl: i/o error: {exc}", EXIT_IO),
             (MemoryError, "mbl: {command} ran out of memory", EXIT_RESOURCE),
             (RecursionError, "mbl: {command} ran out of recursion depth", EXIT_RESOURCE))


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
    except tuple(kind for kind, _, _ in _OUTCOMES) as exc:
        line, status = next((line.format(exc=exc, command=values["command"]), status)
                            for kind, line, status in _OUTCOMES if isinstance(exc, kind))
    # printed past the except clause, which frees the frames the exception holds
    print(line, file=sys.stderr)
    return status


def run() -> None:
    """The `mbl` process: lift the int/str digit limit, main(sys.argv[1:]), a
    flush, then exit without interpreter teardown.

    Integers convert at any length, since mbl parses only its user's own
    input; an in-process caller of main keeps its own limit.  A flush that
    fails (stdout closed) is an i/o error; a stream whose file descriptor was
    closed at start-up is None and is not flushed; an interrupt prints one
    line and exits 130; a SystemExit or another uncaught exception from main
    takes Python's own exit path.
    """
    getattr(sys, "set_int_max_str_digits", lambda digits: None)(0)  # absent before 3.10.7
    try:
        status = main(sys.argv[1:])
    except KeyboardInterrupt:
        print("mbl: interrupted", file=sys.stderr)
        status = EXIT_INTERRUPT
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError as exc:
        print(f"mbl: i/o error: {exc}", file=sys.stderr, flush=True)
        status = EXIT_IO
    os._exit(status)


if __name__ == "__main__":
    run()
