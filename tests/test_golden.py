"""The pinned bytes of every usage path and FIXED row of scripts/compare_outputs.py.

tests/golden.tsv holds one line per distinct argv, tab-separated: the argv as
JSON, the exit code and the sha256 of stdout, of stderr and of the file that
`--out` names ("-" where none is written).  `python3
scripts/compare_outputs.py --write-golden src` writes it from fresh
processes; no test writes it, so a changed line is a change to pinned output.
Here every line runs in this one process, in file order, with the int/str
digit limit lifted as `mbl.cli.run` lifts it and the files of POLYGONS and
TEXT_FILES in the working directory.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import mbl.cli
from mbl.cli import main

GOLDEN = Path(__file__).with_name("golden.tsv")

pytestmark = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="argparse words its help differently in other versions")


@pytest.fixture(scope="module")
def compare_outputs():
    # the script puts perfbench/ on the path and writes no bytecode while it
    # imports; this process keeps its own path and setting
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
    try:
        import compare_outputs
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
    return compare_outputs


def _rows() -> list[tuple[tuple[str, ...], int, list[str]]]:
    rows = []
    for line in GOLDEN.read_text().splitlines():
        argv, code, *digests = line.split("\t")
        rows.append((tuple(json.loads(argv)), int(code), digests))
    return rows


def _digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def _outcome(argv: tuple[str, ...]) -> tuple[int, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: help and usage errors
            code = exc.code
    written = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.exists():
            written = path.read_bytes()
            path.unlink()
    return code, [_digest(out.getvalue().encode()), _digest(err.getvalue().encode()),
                  _digest(written)]


def test_corpus_holds_every_usage_path_and_fixed_row(compare_outputs):
    usage = [(), ("-h",), *((command, "-h") for command in mbl.cli._COMMANDS),
             ("bogus",), ("widths", "--bogus")]
    expected = list(dict.fromkeys([*usage, *compare_outputs.FIXED]))
    assert [argv for argv, _, _ in _rows()] == expected


def test_every_row_gives_its_pinned_bytes(compare_outputs, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it
    compare_outputs.write_files()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        differ = [" ".join(argv) for argv, code, digests in _rows()
                  if _outcome(argv) != (code, digests)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert differ == []
