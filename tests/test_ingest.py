import json

import pytest

from mbl.cli import main
from mbl.markov import markov_numbers
from mbl.oeis import SEQUENCE_IDS, cross_check, load_bfile, parse_bfile
from mbl.suites import fibonacci, pell


class TestParse:
    def test_basic(self):
        assert parse_bfile("1 1\n2 2\n3 5\n").entries == {1: 1, 2: 2, 3: 5}

    def test_comments_and_blanks(self):
        assert parse_bfile("# comment\n\n1 1\n").entries == {1: 1}

    def test_malformed_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_bfile("1 x\n")

    def test_extra_fields_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_bfile("1 1\n2 2 3\n")

    def test_crlf_accepted(self):
        assert parse_bfile(b"0 0\r\n1 1\r\n").entries == {0: 0, 1: 1}

    def test_indices_must_increase(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_bfile("5 1\n5 2\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_bfile("# nothing\n")

    def test_deterministic(self):
        blob = b"1 1\n2 2\n3 5\n"
        assert parse_bfile(blob).entries == parse_bfile(blob).entries


class TestVendored:
    def test_all_kinds_load(self):
        for kind in SEQUENCE_IDS:
            bfile = load_bfile(kind)
            assert bfile.source == "vendored"
            assert len(bfile.entries) >= 1000

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            load_bfile("lucas")

    def test_checksums_detect_tampering(self, tmp_path, monkeypatch):
        import mbl.oeis as module

        data = tmp_path / "data"
        data.mkdir()
        (data / "b002559.txt").write_text("1 1\n")
        (data / "manifest.json").write_text(
            json.dumps({"b002559.txt": {"sha256": "0" * 64, "entries": 1}})
        )

        class FakeResources:
            @staticmethod
            def files(package):
                assert package == "mbl"
                return tmp_path

        monkeypatch.setattr(module, "resources", FakeResources)
        with pytest.raises(OSError, match="checksum"):
            load_bfile("markov")

    def test_markov_file_prefix(self):
        entries = load_bfile("markov").entries
        assert [entries[i] for i in range(1, 7)] == [1, 2, 5, 13, 29, 34]


class TestCrossCheck:
    def test_markov_500(self):
        assert cross_check("markov", 500, load_bfile("markov")) is None

    def test_fibonacci_entry_27(self):
        bfile = load_bfile("fibonacci")
        assert bfile.entries[27] == 196418
        assert cross_check("fibonacci", 1000, bfile) is None

    def test_pell_entry_15(self):
        bfile = load_bfile("pell")
        assert bfile.entries[15] == 195025
        assert cross_check("pell", 1000, bfile) is None

    def test_identity_anchors(self):
        markov = load_bfile("markov").entries
        assert markov[33] == pell(15) == 195025
        assert markov[34] == fibonacci(27) == 196418

    def test_mismatch_reported(self, tmp_path):
        doctored = tmp_path / "b002559.txt"
        numbers = markov_numbers(20)
        lines = [f"{i + 1} {m}\n" for i, m in enumerate(numbers)]
        lines[4] = "5 30\n"  # true m_5 is 29
        doctored.write_text("".join(lines))
        assert cross_check("markov", 20, load_bfile("markov", path=doctored)) == (5, 29, 30)

    def test_short_file_rejected(self, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("1 1\n2 2\n")
        with pytest.raises(ValueError, match="shorter"):
            cross_check("markov", 10, load_bfile("markov", path=short))

    def test_n_validated(self):
        with pytest.raises(ValueError):
            cross_check("markov", 0, load_bfile("markov"))

    def test_report_json(self, capsys, monkeypatch, tmp_path):
        # `ingest` writes each cross-check as a JSON row
        monkeypatch.delenv("MBL_CACHE_DIR", raising=False)
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
    def test_cache_dir_wins_over_vendored(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "b002559.txt").write_text("1 41\n")
        bfile = load_bfile("markov", cache_dir=str(cache))
        assert bfile.entries == {1: 41}
        assert bfile.source.endswith("b002559.txt")

    def test_env_var_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        cache.mkdir()
        (cache / "b000129.txt").write_text("0 0\n1 1\n")
        monkeypatch.setenv("MBL_CACHE_DIR", str(cache))
        assert load_bfile("pell").entries == {0: 0, 1: 1}

    def test_explicit_path_wins(self, tmp_path):
        path = tmp_path / "custom.txt"
        path.write_text("1 1\n")
        bfile = load_bfile("markov", path=path, cache_dir="/nonexistent")
        assert bfile.entries == {1: 1}
