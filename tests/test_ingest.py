import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mbl.cli
import mbl.oeis
from mbl.cli import main
from mbl.markov import markov_numbers
from mbl.oeis import SEQUENCE_IDS, cross_check, load_bfile, parse_bfile
from mbl.suites import fibonacci, pell


class TestParse:
    def test_basic(self):
        assert parse_bfile(b"1 1\n2 2\n3 5\n") == {1: 1, 2: 2, 3: 5}

    def test_comments_and_blanks(self):
        assert parse_bfile(b"# comment\n\n  # indented comment\n \t \n1 1\n") == {1: 1}

    def test_malformed_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_bfile(b"1 x\n")

    def test_extra_fields_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_bfile(b"1 1\n2 2 3\n")

    def test_crlf_accepted(self):
        assert parse_bfile(b"0 0\r\n1 1\r\n") == {0: 0, 1: 1}

    def test_indices_must_increase(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_bfile(b"5 1\n5 2\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_bfile(b"# nothing\n")

    def test_deterministic(self):
        data = b"1 1\n2 2\n3 5\n"
        assert parse_bfile(data) == parse_bfile(data)


def _vendored(kind: str) -> dict[int, int]:
    # the map of the vendored b-file, read here without its checksum
    data = Path(mbl.oeis.__file__).parent / "data"
    return parse_bfile((data / f"b{SEQUENCE_IDS[kind][1:]}.txt").read_bytes())


class TestVendored:
    def test_all_kinds_load(self):
        for kind in SEQUENCE_IDS:
            entries = load_bfile(kind)
            assert entries == _vendored(kind)
            assert len(entries) >= 1000

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            load_bfile("lucas")

    def test_checksums_detect_tampering(self, tmp_path, monkeypatch):
        def data_with_sums(sums):  # each in its own directory, read at every load
            data = tmp_path / str(len(list(tmp_path.iterdir())))
            data.mkdir()
            (data / "b002559.txt").write_text("1 1\n")
            (data / "B2SUMS").write_text(sums)
            monkeypatch.setattr(mbl.oeis, "_DATA_DIR", str(data))

        digest = hashlib.blake2b(b"1 1\n", digest_size=32).hexdigest()
        blake2b_512 = hashlib.blake2b(b"1 1\n").hexdigest()  # b2sum's default length
        for sums in (f"{'0' * 64}  b002559.txt\n",  # a wrong digest
                     "", "# no entry\n", f"{'0' * 64}  b000045.txt\n",  # entry missing
                     f"{digest} b002559.txt\n", f"{digest[:-1]}  b002559.txt\n",  # malformed
                     f"{blake2b_512}  b002559.txt\n"):
            data_with_sums(sums)
            with pytest.raises(OSError, match="b002559.txt fails its checksum"):
                load_bfile("markov")
        data_with_sums(f"{digest}  b002559.txt\n")
        assert load_bfile("markov") == {1: 1}

    def test_digests_are_blake2b_256_of_the_vendored_files(self):
        data = Path(mbl.oeis.__file__).parent / "data"
        lines = (data / "B2SUMS").read_text(encoding="ascii").splitlines()
        names = sorted(f"b{seq[1:]}.txt" for seq in SEQUENCE_IDS.values())
        assert lines == [
            f"{hashlib.blake2b((data / name).read_bytes(), digest_size=32).hexdigest()}  {name}"
            for name in names]

    def test_verify_checks_digests_without_hashlib_or_json(self):
        # the digest comes from _blake2, the C module behind hashlib.blake2b,
        # so neither OpenSSL's hashlib nor the json package loads
        probe = ("import sys, mbl.cli; code = mbl.cli.main(['verify', '--suite', 'ingest']); "
                 "print(code, sorted({'hashlib', '_hashlib', 'json'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.endswith("all suites passed\n0 []\n")

    def test_markov_file_prefix(self):
        entries = load_bfile("markov")
        assert [entries[i] for i in range(1, 7)] == [1, 2, 5, 13, 29, 34]


class TestCrossCheck:
    def test_markov_500(self):
        assert cross_check("markov", 500, load_bfile("markov"), "vendored") is None

    def test_fibonacci_entry_27(self):
        entries = load_bfile("fibonacci")
        assert entries[27] == 196418
        assert cross_check("fibonacci", 1000, entries, "vendored") is None

    def test_pell_entry_15(self):
        entries = load_bfile("pell")
        assert entries[15] == 195025
        assert cross_check("pell", 1000, entries, "vendored") is None

    def test_identity_anchors(self):
        markov = load_bfile("markov")
        assert markov[33] == pell(15) == 195025
        assert markov[34] == fibonacci(27) == 196418

    def test_mismatch_reported(self, tmp_path):
        doctored = tmp_path / "b002559.txt"
        numbers = markov_numbers(20)
        lines = [f"{i + 1} {m}\n" for i, m in enumerate(numbers)]
        lines[4] = "5 30\n"  # true m_5 is 29
        doctored.write_text("".join(lines))
        entries = load_bfile("markov", path=doctored)
        assert cross_check("markov", 20, entries, str(doctored)) == (5, 29, 30)

    def test_short_file_rejected(self, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("1 1\n2 2\n")
        with pytest.raises(ValueError, match=re.escape(f"markov ({short}) is shorter than n=10")):
            cross_check("markov", 10, load_bfile("markov", path=short), str(short))

    def test_n_validated(self):
        with pytest.raises(ValueError):
            cross_check("markov", 0, load_bfile("markov"), "vendored")

    def test_report_json(self, capsys, monkeypatch, tmp_path):
        # `ingest` writes each cross-check as a JSON row
        assert main(["ingest", "--kind", "markov", "--n", "10", "--format", "json"]) == 0
        [data] = json.loads(capsys.readouterr().out)["rows"]
        assert data == {"kind": "markov", "sequence_id": "A002559", "n": 10,
                        "source": "vendored", "ok": True, "first_mismatch": None}
        doctored = tmp_path / "b002559.txt"
        doctored.write_text("1 1\n2 2\n3 6\n")
        assert main(["ingest", "--kind", "markov", "--n", "3", "--bfile", str(doctored),
                     "--format", "json"]) == 1
        [data] = json.loads(capsys.readouterr().out)["rows"]
        assert (data["ok"], data["source"]) == (False, str(doctored))
        assert data["first_mismatch"] == {"index": 3, "generated": "5", "file": "6"}


class TestCachePrecedence:
    """A b-file comes from an explicit path, else the vendored copy: there is
    no cache directory, and MBL_CACHE_DIR is not read."""

    def test_env_var_is_ignored(self, tmp_path, monkeypatch):
        (tmp_path / "b000129.txt").write_text("0 0\n1 1\n")
        monkeypatch.setenv("MBL_CACHE_DIR", str(tmp_path))
        entries = load_bfile("pell")
        assert entries == _vendored("pell") and len(entries) >= 1000

    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        path = tmp_path / "b002559.txt"
        path.write_text("1 41\n")
        monkeypatch.setenv("MBL_CACHE_DIR", str(tmp_path))
        assert load_bfile("markov", path=path) == {1: 41}
        assert load_bfile("markov") == _vendored("markov")


def test_verify_and_ingest_ignore_mbl_cache_dir(tmp_path):
    # a directory that once took the place of the vendored b-files: a Markov
    # file that agrees on the compared prefix and then goes wrong, and a
    # Fibonacci file too short for the cross-check
    vendored = Path(mbl.oeis.__file__).parent / "data" / "b002559.txt"
    head = vendored.read_text().splitlines(keepends=True)[:600]
    (tmp_path / "b002559.txt").write_text("".join(head) + "999999 1\n")
    (tmp_path / "b000045.txt").write_text("0 0\n1 1\n2 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    env.pop("MBL_CACHE_DIR", None)
    for argv in (["verify", "--suite", "ingest"], ["ingest"]):
        runs = [subprocess.run([sys.executable, "-m", "mbl.cli", *argv], env=cache_env,
                               capture_output=True)
                for cache_env in (env, dict(env, MBL_CACHE_DIR=str(tmp_path)))]
        assert runs[0].returncode == 0
        assert (runs[0].returncode, runs[0].stdout, runs[0].stderr) == \
            (runs[1].returncode, runs[1].stdout, runs[1].stderr)
