#!/usr/bin/env python3
"""Compare the `mbl` command line under two src/ trees, operation by operation.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--seed N ...]
    python3 scripts/compare_outputs.py --write-golden SRC

Takes the distinct `order` and `verify` operations of the benchmark's seeded
lists (perfbench/workloads.py) for each seed (default 1 and 20261017), and
the usage paths: no arguments, `-h`, `<command> -h` for every subcommand
that OLD_SRC lists, an unknown command and an unknown flag; and FIXED, the
invocations outside the benchmark that reach the ordering layer in every
format it renders, every other command in each format it renders, and the
argv shapes that `mbl.cli` hands from its plain parse to argparse.  Runs
each as `python -m mbl.cli ...` with PYTHONPATH set to each tree and a
temporary directory holding the polygon files of POLYGONS and the files of
TEXT_FILES (b-files and a broken polygon file) as the working
directory, and compares exit code, stdout, stderr and the bytes of the file
that `--out FILE` names; a run still going after TIMEOUT_S seconds is
stopped and differs from every finished one.
Prints the counts for the usage paths, for FIXED and per seed, and every
differing command line; exits 1 if any differs.

With --write-golden, runs the usage paths and FIXED under SRC alone and
rewrites tests/golden.tsv: one line per distinct argv, tab-separated, of the
argv as JSON, the exit code and the sha256 of stdout, of stderr and of the
`--out` file ("-" where none is written).  tests/test_golden.py runs each
line in process and compares; no test writes the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def _fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _long_triple() -> str:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    lift(0)
    try:
        return f"{_fibonacci(21203)},{_fibonacci(21201)},1"
    finally:
        lift(limit)  # an importer keeps its own limit


#: A Markov triple whose largest entry has 4,431 digits, past the int/str
#: conversion limit of 4,300 that Python 3.11 sets by default.
LONG_TRIPLE = _long_triple()
#: The polygon files `width --polygon` reads: a unimodular image of a base
#: triangle, unreduced fractions mixed with ints, triangles of height 1 and
#: base 2^61 or 10^999, the image of a thin triangle under (x, y) ->
#: (5x + 3y, 3x + 2y), a hexagon with mixed denominators, and ten
#: refusals of a polygon file (clockwise, collinear, one vertex written
#: twice as 1/2 and 2/4, a float and a bool coordinate, a JSON object, two
#: vertices, a coordinate that is not a number, the coordinates 3
#: written with the Arabic-Indic digit U+0663 and 10 written 1_0, which
#: `Fraction` reads, and a decimal exponent past the bound of 10^6).
POLYGONS = {
    "skew.json": [["5607/145", "1791/145"], ["5491/10", "1933/10"], [1, -1]],
    "unreduced.json": [["0", "0"], ["6/4", "0"], [0, "3/3"]],
    "thin.json": [[0, 0], [2 ** 61, 0], [0, 1]],
    "thin999.json": [[0, 0], [10 ** 999, 0], [0, 1]],
    "thin_image.json": [[0, 0], [5 * 10 ** 40, 3 * 10 ** 40], [3, 2]],
    "hexagon.json": [[0, 0], ["7/2", "19/6"], [6, "15/2"], ["11/2", "19/2"], [2, "13/2"],
                     ["-3/4", "7/4"]],
    "clockwise.json": [[0, 0], [0, 1], [1, 0]],
    "collinear.json": [[0, 0], ["1/3", "1/6"], ["2/3", "1/3"]],
    "duplicate.json": [["0", "0"], ["1/2", "0"], ["2/4", "0"], ["0", "1"]],
    "float.json": [[0, 0], [0.5, 0], [0, 1]],
    "bool.json": [[0, 0], [True, 0], [0, 1]],
    "object.json": {"vertices": [[0, 0], [1, 0], [0, 1]]},
    "two.json": [[0, 0], [1, 0]],
    "letters.json": [["x", 0], [1, 0], [0, 1]],
    "arabic.json": [[0, 0], ["\u0663", 0], [0, 1]],
    "underscore.json": [[0, 0], ["1_0", 0], [0, 1]],
    "exponent.json": [[0, 0], ["1e1000001", 0], [0, 1]],
}
FIXED = [
    *(("order", "--triple", triple, "--depth", "8", "--format", fmt)
      for triple in ("5,2,1", "1,1,1", "2,1,1") for fmt in ("text", "json", "csv")),
    *(("limits", "--n", "850", "--k", k, "--format", "json") for k in ("1", "7", "8")),
    ("limits", "--n", "2", "--format", "json"),
    *(("limits", "--n", n, "--format", fmt) for n in ("450", "850") for fmt in ("text", "csv")),
    *(("irregularities", "--n-max", "793", "--format", fmt) for fmt in ("text", "csv")),
    # the scan's edges: the regular prefix, the first records, the first span 2, the last n_max
    *(("irregularities", "--n-max", n, "--format", "json")
      for n in ("1", "32", "33", "34", "369", "793")),
    ("complete", "--threshold", str(workloads.threshold(44)), "--n-max", "450"),
    *(("complete", "--threshold", str(workloads.threshold(44)), "--n-max", "793",
       "--format", fmt) for fmt in ("text", "json")),
    ("verify", "--suite", "ordering", "--n-max", "793"),
    ("plot", "--figure", "numberline", "--n", "369"),
    *((*command, "--format", fmt) for fmt in ("text", "json", "csv") for command in (
        ("widths",),
        ("widths", "--triple", "433,29,5"),
        ("widths", "--triple", LONG_TRIPLE),
        ("triples", "--max-bound", "10000"),
        ("subtree", "--triple", "29,5,2", "--preserve", "5", "--depth", "3"),
        ("order", "--triple", "13,5,1", "--depth", "4"),
        *(("triangle", "--triple", triple)
          for triple in ("1,1,1", "2,1,1", "5,2,1", "194,13,5", "433,29,5")),
        *(("width", "--triple", triple) for triple in ("1,1,1", "2,1,1", "433,29,5")),
        *(("width", "--polygon", name) for name in POLYGONS),
        ("ingest",),
        ("ingest", "--kind", "markov", "--n", "8", "--bfile", "doctored.txt"),
        ("ingest", "--kind", "markov", "--n", "8", "--bfile", "short.txt"),
        ("ingest", "--kind", "pell", "--n", "5"),
    )),
    *(("complete", "--threshold", str(workloads.threshold(60)), "--n-max", "450",
       "--format", fmt) for fmt in ("text", "json")),
    # the descent certificate: the span-3 refusal next to the active count, and
    # the active counts 1 and 0; the apex alone, at depth 0
    *(("complete", "--threshold", str(workloads.threshold(30)), "--n-max", "850",
       "--format", fmt) for fmt in ("text", "json")),
    *(("complete", "--threshold", t, "--n-max", "1") for t in ("7/20", "1/2")),
    ("order", "--triple", "29,5,2", "--depth", "0"),
    ("plot", "--figure", "order5"),
    ("plot", "--figure", "numberline", "--n", "33"),
    # the irregularity path: a span-1 and a span-2 figure, `complete` with the
    # first record and the first span-2 record as the last n, and the regular
    # prefix below an n_max of 32
    ("plot", "--figure", "numberline", "--n", "37"),
    ("plot", "--figure", "numberline", "--n", "433", "--k", "1"),
    *(("complete", "--threshold", str(workloads.threshold(44)), "--n-max", n,
       "--format", fmt) for n in ("33", "369") for fmt in ("text", "json")),
    ("verify", "--suite", "ordering", "--n-max", "10"),
    *(("plot", "--figure", "triangle", "--triple", triple)
      for triple in ("1,1,1", "2,1,1", "29,5,2")),
    *(("verify", "--suite", suite)
      for suite in ("markov", "capacity", "ordering", "lattice", "ingest")),
    # argv that mbl.cli's plain parse leaves to argparse: an abbreviated or
    # unknown flag, --flag=value, a repeated flag, a value starting with "-",
    # a flag missing its value, a stray token and -h after a flag
    *((*base, *shape) for base in (("limits",), ("irregularities",),
                                   ("complete", "--threshold", "7/20"), ("verify",))
      for shape in (("--n-max", "5"), ("--format=json",), ("--n", "5", "--n", "6"),
                    ("--n", "-1"), ("--n",), ("--suite", "markov", "--suite", "markov"),
                    ("--fixture", "x"), ("--n", "5", "-h"))),
    # and the three values it declines: a bad int, a bad choice and a
    # missing required flag; a table written to --out FILE
    ("limits", "--n", "x"),
    ("verify", "--suite", "nope"),
    ("complete", "--n-max", "5"),
    ("limits", "--n", "3", "--out", "limits.txt"),
    # the flags of the b-file cache and its download, removed: usage errors
    ("ingest", "--fetch"),
    ("ingest", "--kind", "markov", "--cache-dir", "d"),
    ("verify", "--suite", "ingest", "--cache-dir", "d"),
    # the stored catalogue matched in each format; refused before any work:
    # a catalogue covering another n_max, and an n past the vendored Pell
    # b-file; every limit-gaps node at the smallest bound
    *(("irregularities", "--n-max", "450", "--fixture", "--format", fmt)
      for fmt in ("text", "csv", "json")),
    ("irregularities", "--n-max", "800", "--fixture"),
    ("ingest", "--kind", "pell", "--n", "2000"),
    ("verify", "--suite", "capacity", "--max-bound", "1"),
    # deep subtrees in each format: the depth column of every node
    ("subtree", "--triple", "5,2,1", "--depth", "150"),
    ("subtree", "--triple", "433,29,5", "--preserve", "5", "--depth", "40", "--format", "json"),
    ("subtree", "--triple", "2,1,1", "--depth", "60", "--format", "csv"),
    ("subtree", "--triple", "1,1,1", "--depth", "30"),
    # the depth column of 3,502 rows; apexes above, at and off the given triple
    ("triples", "--max-bound", str(10 ** 60), "--format", "csv"),
    ("subtree", "--triple", "433,29,5", "--preserve", "29", "--depth", "5"),
    ("subtree", "--triple", "194,13,5", "--preserve", "1", "--depth", "4", "--format", "json"),
    ("subtree", "--triple", "2,1,1", "--preserve", "1", "--depth", "3", "--format", "csv"),
    ("subtree", "--triple", "5,2,1", "--preserve", "7"),
    # the wedge's levels: a two-chain apex alone at depth 0, one chain to depth 6;
    # a b-file too short for n, its refusal naming the file
    ("plot", "--figure", "order5", "--triple", "29,5,2", "--depth", "0"),
    ("plot", "--figure", "order5", "--triple", "1,1,1", "--depth", "6"),
    ("subtree", "--triple", "29,5,2", "--depth", "0", "--format", "json"),
    ("ingest", "--kind", "fibonacci", "--n", "30", "--bfile", "doctored.txt"),
    # thresholds from 2/3 on, which no capacity beyond n_max reaches; the
    # uniqueness check read off the walk up to 10^9
    *(("complete", "--threshold", t, "--n-max", "10", "--format", fmt)
      for t in ("2/3", "1", "2", "10", "1e100") for fmt in ("text", "json")),
    ("verify", "--suite", "markov", "--max-bound", str(10 ** 9)),
    # a 6-digit threshold preview at exponent 99999, and the certificate that
    # writes its 10^5 digits; the ordering suite past the span-3 refusal,
    # which keeps the checks made before the scan
    *(("complete", "--threshold", "1e99999", "--n-max", "10", "--format", fmt)
      for fmt in ("text", "json")),
    *(("verify", "--suite", "ordering", "--n-max", "800", "--max-bound", "30",
       "--format", fmt) for fmt in ("text", "json")),
    # the span-3 refusal at 794 on each path that scans: the table in text
    # and CSV, the numberline figure and the certificate in text
    *(("irregularities", "--n-max", "794", "--format", fmt) for fmt in ("text", "csv")),
    ("plot", "--figure", "numberline", "--n", "794"),
    ("complete", "--threshold", str(workloads.threshold(30)), "--n-max", "794"),
    # each triple-walking suite up to a bound past 10^6, with no cap of its own
    *(("verify", "--suite", suite, "--max-bound", str(10 ** 30), "--format", "json")
      for suite in ("markov", "capacity", "ordering", "lattice")),
    # the refusals of user input: a triple that is not three integers, a
    # rational that does not parse or divides by zero, --k outside JSON,
    # width with neither or both of its inputs, a polygon file that is not
    # JSON, a b-file of no kind, a triangle figure without its triple or with
    # a delta out of range, a numberline off a record
    ("order", "--triple", "1,x,1"),
    ("order", "--triple", "1,1"),
    ("complete", "--threshold", "abc"),
    ("plot", "--figure", "triangle", "--triple", "5,2,1", "--delta", "1/0"),
    ("limits", "--n", "3", "--k", "3"),
    ("width",),
    ("width", "--triple", "5,2,1", "--polygon", "skew.json"),
    ("width", "--polygon", "broken.json"),
    ("ingest", "--bfile", "doctored.txt"),
    ("plot", "--figure", "triangle"),
    ("plot", "--figure", "triangle", "--triple", "5,2,1", "--delta", "1/2"),
    ("plot", "--figure", "numberline", "--n", "34"),
    # a triple that is not sorted or not a solution, the threshold 1/3, an
    # --out FILE in no directory, and a b-file with comments and a blank
    # line beside the four refusals of its lines
    ("widths", "--triple", "3,2,1"),
    ("widths", "--triple", "0,0,0"),
    ("complete", "--threshold", "1/3"),
    ("limits", "--n", "3", "--out", "nodir/limits.txt"),
    *(("ingest", "--kind", "markov", "--n", "3", "--bfile", name)
      for name in ("comments.txt", "three.txt", "letter.txt", "repeated.txt", "empty.txt")),
    # a count's bound is checked first, whatever the command reads of its
    # other flags and whatever figure it draws
    ("limits", "--n", "0", "--k", "3"),
    ("subtree", "--triple", "5,2,1", "--preserve", "7", "--depth", "-1"),
    ("ingest", "--bfile", "doctored.txt", "--n", "0"),
    ("plot", "--figure", "triangle", "--depth", "-1"),
    ("plot", "--figure", "numberline", "--depth", "-1"),
    ("plot", "--figure", "order5", "--n", "0"),
    ("verify", "--max-bound", "0"),
    # the vendored Markov b-file with one field spelled as int() reads it but
    # the ASCII b-file format does not
    *(("ingest", "--kind", "markov", "--bfile", name, "--format", fmt)
      for name in ("underscore.txt", "arabic.txt", "plus.txt") for fmt in ("text", "json")),
    # spellings that int() or Fraction() reads but the ASCII grammar of
    # mbl._integer and mbl._rational refuses: non-ASCII digits, "_", a
    # leading "+" and spaces in a count, a triple, a threshold and a delta
    # (the polygon coordinates are in POLYGONS), and Unicode line and field
    # separators in a b-file
    *(("limits", "--n", n) for n in ("\u0663", "1_0", "+3", " 3")),
    *(("widths", "--triple", t) for t in ("\u0665,2,1", "5, 2, 1", "+5,2,1")),
    *(("complete", "--threshold", t, "--n-max", "10")
      for t in ("\u0663/8", "3_0/80", "+3/8", " 3/8")),
    ("plot", "--figure", "triangle", "--triple", "5,2,1", "--delta", "+1/4"),
    *(("ingest", "--kind", "markov", "--bfile", name)
      for name in ("u2028.txt", "vtab.txt", "nbsp.txt")),
    # a decimal exponent past 10^6, refused before 10^K is built (the polygon
    # file's coordinate is in POLYGONS)
    ("complete", "--threshold", "1e1000001", "--n-max", "5"),
]
#: Seconds a run may take before it counts as timed out: older trees walk on
#: toward thresholds far above 2/3 without end.
TIMEOUT_S = 60
#: Files written as they are: the b-files of the first 8 Markov numbers with
#: m_5 = 29 written as 30, of a sequence too short for 8, of the first 3
#: Markov numbers under a comment and a blank line, and four malformed ones
#: (a line of three fields, a field that is no integer, an index written
#: twice, comments only), a polygon file cut off inside its JSON, and the
#: vendored Markov b-file with 169 written 1_69, index 3 written with the
#: Arabic-Indic digit U+0663, or 5 written +5, or with the lines "3 5" and
#: "4 13" joined by U+2028 or by a vertical tab, or "3 5" split by the
#: no-break space U+00A0.
_MARKOV = (Path(__file__).resolve().parent.parent / "src/mbl/data/b002559.txt").read_text()
TEXT_FILES = {"doctored.txt": "1 1\n2 2\n3 5\n4 13\n5 30\n6 34\n7 89\n8 169\n",
              "short.txt": "1 1\n2 2\n", "comments.txt": "# A002559\n\n1 1\n2 2\n3 5\n",
              "three.txt": "1 1\n2 2 2\n", "letter.txt": "1 1\n2 x\n",
              "repeated.txt": "1 1\n1 2\n", "empty.txt": "# no entries\n",
              "broken.json": "[[0, 0], [1, 0",
              "underscore.txt": _MARKOV.replace("\n8 169\n", "\n8 1_69\n"),
              "arabic.txt": _MARKOV.replace("\n3 5\n", "\n\u0663 5\n"),
              "plus.txt": _MARKOV.replace("\n3 5\n", "\n3 +5\n"),
              **{name: _MARKOV.replace("\n3 5\n4 13\n", f"\n3 5{sep}4 13\n")
                 for name, sep in (("u2028.txt", "\u2028"), ("vtab.txt", "\x0b"))},
              "nbsp.txt": _MARKOV.replace("\n3 5\n", "\n3\u00a05\n")}


def _run(src: Path, argv: tuple[str, ...]) -> tuple[int | None, bytes, bytes, bytes | None]:
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")  # argparse wraps help to COLUMNS
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    try:
        done = subprocess.run([sys.executable, "-m", "mbl.cli", *argv], env=env,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, b"", b"timed out", None  # unequal to every finished run
    written = None
    if out is not None and out.exists():
        written = out.read_bytes()
        out.unlink()  # the other tree's run writes it afresh
    return done.returncode, done.stdout, done.stderr, written


def _usage_paths(src: Path) -> list[tuple[str, ...]]:
    _, help_text, _, _ = _run(src, ("-h",))
    commands = re.search(rb"\{([a-z,]+)\}", help_text).group(1).decode().split(",")
    return [(), ("-h",), *((command, "-h") for command in commands),
            ("bogus",), ("widths", "--bogus")]


def _differing(old: Path, new: Path, commands) -> list[tuple[str, ...]]:
    differ = [command for command in commands
              if _run(old, command) != _run(new, command)]
    for command in differ:
        print("differs:", " ".join(command) or "(no arguments)")
    return differ


def write_files() -> None:
    """The polygon files of POLYGONS and the files of TEXT_FILES, in the working directory."""
    for name, polygon in POLYGONS.items():
        Path(name).write_text(json.dumps(polygon))
    for name, text in TEXT_FILES.items():
        Path(name).write_text(text, encoding="utf-8")


#: The pinned bytes of the usage paths and FIXED, which Tier-1 checks.
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden.tsv"


def _digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def _write_golden(src: Path) -> int:
    lines = []
    for argv in dict.fromkeys([*_usage_paths(src), *FIXED]):
        code, out, err, written = _run(src, argv)
        if code is None:
            raise SystemExit(f"timed out: {' '.join(argv)}")
        lines.append("\t".join([json.dumps(list(argv)), str(code),
                                *map(_digest, (out, err, written))]))
    GOLDEN.write_text("".join(line + "\n" for line in lines))
    print(f"{GOLDEN}: {len(lines)} rows")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path, nargs="?")
    parser.add_argument("new_src", type=Path, nargs="?")
    parser.add_argument("--seed", type=int, action="append", dest="seeds")
    parser.add_argument("--write-golden", type=Path, metavar="SRC",
                        help="rewrite tests/golden.tsv from SRC instead of comparing")
    args = parser.parse_args(argv)
    trees = [args.old_src, args.new_src]
    if trees.count(None) != (2 if args.write_golden else 0):
        parser.error("give OLD_SRC and NEW_SRC, or --write-golden SRC alone")
    golden = args.write_golden and args.write_golden.resolve()
    old, new = (tree and tree.resolve() for tree in trees)
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # every run reads its polygon file and b-file from here
        write_files()
        if golden:
            return _write_golden(golden)
        return _compare(old, new, args.seeds or (1, 20261017))


def _compare(old: Path, new: Path, seeds) -> int:
    usage = _usage_paths(old)
    differing = len(_differing(old, new, usage))
    print(f"usage: {len(usage)} paths, {differing} differ")
    differ = len(_differing(old, new, FIXED))
    print(f"fixed: {len(FIXED)} invocations, {differ} differ")
    differing += differ
    for seed in seeds:
        commands = dict.fromkeys(op.argv for workload in ("order", "verify")
                                 for op in workloads.generate(workload, seed))
        differ = _differing(old, new, commands)
        print(f"seed {seed}: {len(commands)} operations, {len(differ)} differ")
        differing += len(differ)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
