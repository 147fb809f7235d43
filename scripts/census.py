#!/usr/bin/env python3
"""List the lines of `mbl` that no checked invocation reaches.

    python3 scripts/census.py SRC [--seed N ...]

Runs, in this one process, every invocation that scripts/compare_outputs.py
compares: the usage paths (no arguments, `-h`, `<command> -h` for every
command of `mbl.cli._COMMANDS`, an unknown command and an unknown flag),
its FIXED list, and the distinct `order` and `verify` operations of the
benchmark's seeded lists (perfbench/workloads.py) for each seed (default 1
and 20261017).  Each goes through `mbl.cli.main` under `sys.settrace`, with
a temporary directory holding the polygon files and text files of
compare_outputs.py as the working directory; a SystemExit ends only its run.
Prints, per file of SRC/mbl, the executable lines that no run reached, then
their total.  A line counts as executable if the compiled module maps an
instruction to it (line 0, where a module starts, is none).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave src/ and perfbench/ as they are
sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import FIXED, workloads, write_files  # noqa: E402


def _executable(path: Path) -> set[int]:
    lines, pending = set(), [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: the RESUME
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def _spans(lines: list[int]) -> str:
    spans, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            spans.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--seed", type=int, action="append", dest="seeds")
    args = parser.parse_args(argv)
    package = (args.src / "mbl").resolve()
    files = {str(path): _executable(path) for path in sorted(package.glob("*.py"))}
    reached = {name: set() for name in files}

    def line(frame, event, _):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, _):
        return line if frame.f_code.co_filename in reached else None

    sys.path.insert(0, str(args.src.resolve()))
    with tempfile.TemporaryDirectory() as workdir, open(os.devnull, "w") as sink:
        os.chdir(workdir)  # every run reads its polygon file and b-file from here
        write_files()
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)  # as `mbl.cli.run` lifts it
        sys.settrace(call)
        try:
            import mbl.cli  # its module lines count too

            commands = [(), ("-h",), *((command, "-h") for command in mbl.cli._COMMANDS),
                        ("bogus",), ("widths", "--bogus"), *FIXED]
            for seed in args.seeds or (1, 20261017):
                for workload in ("order", "verify"):
                    for op in workloads.generate(workload, seed):
                        for name, text in op.files.items():
                            Path(name).write_text(text)
                        commands.append(op.argv)
            for command in dict.fromkeys(commands):
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        mbl.cli.main(list(command))
                    except SystemExit:
                        pass
        finally:
            sys.settrace(None)
    total = 0
    for name, lines in files.items():
        missed = sorted(lines - reached[name])
        total += len(missed)
        if missed:
            print(f"{Path(name).relative_to(package.parent)}: {len(missed)}: {_spans(missed)}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
