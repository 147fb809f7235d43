import contextlib
import csv
import decimal
import fractions
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import mbl.capacity
import mbl.cli
import mbl.commands
import mbl.markov
import mbl.oeis
import mbl.ordering
import mbl.report
import mbl.suites
from mbl.cli import main
from mbl.errors import VerificationError
from mbl.lattice import convex_polygon, vianna_triangle
from mbl.markov import MarkovWalk, ancestors, markov_numbers, sorted_triple
from mbl.suites import MutationKind, fibonacci

from support import rounded_limit


def fraction_of(pair):  # a rational in the reports' {"num", "den"} form
    return Fraction(int(pair["num"]), int(pair["den"]))


def _row(n, span, swap_verified):  # an irregularity as `find_irregularities` returns it
    return {"n": n, "span": span, "n_prime": n + span,
            "kind": mbl.ordering.SWAP_PATTERNS[span], "swap_verified": swap_verified}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The exit code and the sha256 of stdout and of stderr that tests/golden.tsv
# pins for each of its argv: a digest table takes a row the corpus holds
# from it, so each pinned byte string has one digest in one place.
_GOLDEN = {tuple(json.loads(argv)): (int(code), out, err) for argv, code, out, err, _
           in (line.split("\t") for line in
               Path(__file__).with_name("golden.tsv").read_text().splitlines())}


def _held(command: str, *fmts: str) -> list[tuple[str, str, int, str]]:
    """The digest-table rows of `command` in each format, from the corpus;
    a text row may be held without `--format`, text being the default."""
    rows = []
    for fmt in fmts:
        argv = (*command.split(), "--format", fmt)
        code, out, _ = _GOLDEN.get(argv) or _GOLDEN[argv[:-2] if fmt == "text" else argv]
        rows.append((command, fmt, code, out))
    return rows


# sha256 of stdout and the exit code of each row-table command in each format.
_ROW_TABLE_DIGESTS = [
    *_held("widths", "text", "csv", "json"),
    ("triples --max-bound 100", "text", 0,
     "3b337b5cc6d89d3236dd44dbaf971175e90fafb210944bfc057316ad9b5a5a21"),
    ("triples --max-bound 100", "csv", 0,
     "05acf78693db17402c19f129a420df91aff631aebf6081265e3c236abdf1a4ec"),
    ("triples --max-bound 100", "json", 0,
     "79275fe498c7b6d9fc5652faa222a950d69d66e637444ad525547c16749c983b"),
    ("subtree --triple 29,5,2 --preserve 5 --depth 2", "text", 0,
     "32a5411101cc3f7c41b8f7baec6fe9a0ab693bbdb5dc3c4d7e907dd9cf2e74be"),
    ("subtree --triple 29,5,2 --preserve 5 --depth 2", "csv", 0,
     "8c8c8e5c37c9a32f16fa7a3b2bde9d200bb78c5baa90f659a7af7260fbfb695b"),
    ("subtree --triple 29,5,2 --preserve 5 --depth 2", "json", 0,
     "703f16d3497f93f34ea1ab6152c514236976f8995edb99f6c35aef9d5bce87be"),
    ("order --triple 5,2,1 --depth 3", "text", 0,
     "a146a4e1eb50b72c0fc12dfa2cc1bfa6816ff290fe4a6a53d8c0e13e6b5fffc6"),
    ("order --triple 5,2,1 --depth 3", "csv", 0,
     "87ee6eb31c21d0de9fc0f6e980c01d6f97e7639ec2a46ec7c9434ffe4119d722"),
    ("order --triple 5,2,1 --depth 3", "json", 0,
     "a4b838f66380ee20d4507baa6f68b716da5dbf1dcfcfe581630ef3bcabe70515"),
    ("irregularities --n-max 40", "text", 0,
     "bdb6a07a12545929f396dce52e3769176edfe172ab9a5f2f52bc48d86f7057b0"),
    ("irregularities --n-max 40", "csv", 0,
     "cb88e76a00f7d234d85da2df5841b75cd08a3eb2c011e61c58e240ec0ed7d294"),
    ("irregularities --n-max 40", "json", 0,
     "1e0b25a93a831798dafd008a8662b053d51d94beb41df15c57b764c290958aa2"),
    ("limits --n 5", "text", 0,
     "0a6f4934290a72e432e7fff1e54aa367fda5ff2695893dc5accb6a786ac8f3b9"),
    ("limits --n 5", "csv", 0,
     "a8337e8fcc5e9133748a83a19bffe4e22be16ffe7951ffeec3ec9b5dc77f160b"),
    ("limits --n 5", "json", 0,
     "6071d846067e9c027ee312b7aa64d517196ceba6adfaa85da5ea8f8bb3089d9a"),
    ("ingest --kind markov --n 10", "text", 0,
     "89cae2f9953b365e5060a3db3cfef9ee04883c0e8fece38542f9e82b39ade02b"),
    ("ingest --kind markov --n 10", "csv", 0,
     "ee6b199904c7d51ec6081afebe4735539249765d382f647439517560e2830b6b"),
    ("ingest --kind markov --n 10", "json", 0,
     "627c33700f43c8bbee958c015f81a95ebcfd33c32e8591dd10120ef52738d6db"),
]

# The degenerate apexes (1,1,1) and (2,1,1), below which the two branches coincide.
_DEGENERATE_DIGESTS = [
    ("subtree --triple 1,1,1 --depth 5", "text", 0,
     "0bc184bc81d45387f0ad9136c8fda943edfb39511050b448a170fa6276ad9e34"),
    ("subtree --triple 1,1,1 --depth 5", "csv", 0,
     "797474c13c7be12758db95330b576b6fd17b391f54e1441bdd84844e31fc4864"),
    ("subtree --triple 1,1,1 --depth 5", "json", 0,
     "8dadd349f849def64580727ad663357386bee899d9cc11693adc63e3361eab86"),
    ("subtree --triple 2,1,1 --preserve 2 --depth 5", "text", 0,
     "c57103822b2aa3769508d1ea65ebb5c5992462261c2be902c361e9e373f19314"),
    ("subtree --triple 2,1,1 --preserve 2 --depth 5", "csv", 0,
     "274f0dc829cfd3a6bd44da8e97f6bea1cf80a1bbdad54d17e275ff4ba36016c5"),
    ("subtree --triple 2,1,1 --preserve 2 --depth 5", "json", 0,
     "d44690b9dbf06883f85a7ab2e07e6d6ac147bcc8019dd40b09b3dc0c0ec4c04e"),
    ("order --triple 2,1,1 --depth 4", "text", 0,
     "7162f5561e2b5d4b6c8a9514ac9522130b118f54cbf08c76b155961f2febe062"),
    ("order --triple 2,1,1 --depth 4", "csv", 0,
     "0fbcf8212c955824242f1b344625fb8a252f13bc0fd6e01a8d3f00d9433331e5"),
    ("order --triple 2,1,1 --depth 4", "json", 0,
     "3b3f2da8de8fb130f8c3d9d22baa7847d8d36088787759f632fa9db707e93fb1"),
]


# Seven essential capacities per row over 60 rows: only the JSON rows carry
# them, so text and csv refuse --k as a usage error with no output.
_ESSENTIAL_DIGESTS = [
    ("limits --n 60 --k 7", "text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("limits --n 60 --k 7", "csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("limits --n 60 --k 7", "json", 0,
     "5bceca75abebe5906891d504e35335d175fc00bcfa18c6b89b93567e35748de7"),
]


# The verify and complete reports.
_REPORT_DIGESTS = [
    ("verify --max-bound 3000 --n-max 60", "text", 0,
     "2a310704b536a15db63153dcf145a97e88ef572b429d47cba75762c48aab9e13"),
    ("verify --max-bound 3000 --n-max 60", "json", 0,
     "c030538ebeacddfd2bf619f9d3adb00983fa2461ccd58f12e90fd71e3582df86"),
    ("verify --suite lattice --max-bound 10000", "text", 0,
     "a096294f2b32cd245bc48acd195377e798c696c4ab7242854e7dc0d1a1f88bc8"),
    ("verify --suite lattice --max-bound 10000", "json", 0,
     "aec4c4c3c91f81804e803cc5bd474f48f23805dcd92e64e53f0514edac14f383"),
    ("complete --threshold 7/20 --n-max 30", "text", 0,
     "c8e279a439e056adcaaee613cafab2c909961a75629656f67a0d09529591974f"),
    ("complete --threshold 7/20 --n-max 30", "json", 0,
     "1381fb28e42fe02ec1cee9a20e88cc79cf2453a76aeb859b4a251f0e46a4c7ab"),
]


# The order commands at the sizes where capacities and limits come within
# 1e-236 of each other, with thresholds 1/3 + 2*10^-e.  At n_max 850 the
# span-3 irregularity at (794, 797) refuses the certificate.
_T44, _T29, _T30 = (str(Fraction(1, 3) + Fraction(2, 10 ** e)) for e in (44, 29, 30))
_ORDER_SCALE_DIGESTS = [
    *_held("limits --n 450", "text", "csv"),
    ("limits --n 450", "json", 0,
     "7628697ecb708ebb4b457289f9c3a5ef80647bb6b379687481e29628ecdcec90"),
    *_held("limits --n 850 --k 7", "json"),
    *_held(f"complete --threshold {_T44} --n-max 450", "text"),
    (f"complete --threshold {_T44} --n-max 450", "json", 0,
     "de9c2211c649a301731da1ab73a21372678aba2a9d8dc7de07600e9337aac947"),
    (f"complete --threshold {_T29} --n-max 759", "json", 0,
     "edef47cff1cbb422aa427ca25143dd235295aff993e4d46567d82ae3a3a641ba"),
    *_held("irregularities --n-max 793", "json"),
    *_held(f"complete --threshold {_T30} --n-max 850", "json"),
    *_held("irregularities --n-max 450 --fixture", "text", "json"),
]


# The single-row geometry tables.  The polygon files are written to the
# working directory so that the JSON's polygon_file is the same each run:
# square.json is the unit square, skew.json a skewed unimodular image of the
# (29,5,2) base triangle whose least minimizer is (-67,189), and tie.json a
# polygon with four pairs of minimal directions (its text and csv equal the
# square's).
_GEOMETRY_DIGESTS = [
    *_held("triangle --triple 1,1,1", "text", "csv", "json"),
    *_held("triangle --triple 2,1,1", "text", "csv", "json"),
    ("triangle --triple 29,5,2", "text", 0,
     "ff7e1e9b008feed07bf97a7c9cc72ea66626f755405e7dff5de473f7249f7563"),
    ("triangle --triple 29,5,2", "csv", 0,
     "65d2c011aacb89e43024870491a5a3cd33afeece5ba3a39dd9f8470acff5bdbd"),
    ("triangle --triple 29,5,2", "json", 0,
     "c6fe6416c0141cbd560fb5c42841be31229f667c52be61523aefedd5652a471f"),
    *_held("width --triple 433,29,5", "text", "csv", "json"),
    ("width --polygon square.json", "text", 0,
     "0083496aa09027da84024e14e920fac8afda2834df805c83474e49b09da4378e"),
    ("width --polygon square.json", "csv", 0,
     "c34e156a4bac5771e35d35adde115253e8aa7a07ffc97fe9df63449ee164a972"),
    ("width --polygon square.json", "json", 0,
     "cdf4bb0e65b496332a281afe283027d8b8d84a84078fef42d4e16364a256d88e"),
    *_held("width --polygon skew.json", "text", "csv", "json"),
    ("width --polygon tie.json", "json", 0,
     "bcdd4237ed7ec1100932dec182fb2b1e661da6a4ec77e429adfd51b9b6e563cc"),
]

_NAMED_DIGESTS = (_DEGENERATE_DIGESTS + _ESSENTIAL_DIGESTS + _REPORT_DIGESTS
                  + _ORDER_SCALE_DIGESTS + _GEOMETRY_DIGESTS)


@pytest.mark.parametrize(
    "command, fmt, exit_code, digest",
    _ROW_TABLE_DIGESTS + _NAMED_DIGESTS,
    ids=[f"{c.split()[0]}-{fmt}" for c, fmt, _, _ in _ROW_TABLE_DIGESTS]
    + [f"{c.split()[0]}-{c.split()[2]}-{fmt}" for c, fmt, _, _ in _NAMED_DIGESTS],
)
def test_row_table_bytes_are_pinned(capsys, monkeypatch, tmp_path,
                                    command, fmt, exit_code, digest):
    (tmp_path / "square.json").write_text(
        json.dumps([["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]))
    (tmp_path / "skew.json").write_text(
        json.dumps([["5607/145", "1791/145"], ["5491/10", "1933/10"], [1, -1]]))
    (tmp_path / "tie.json").write_text(
        json.dumps([["3/2", "-1"], ["2", "-2"], ["5/2", "-2"], ["2", "-1"]]))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *command.split(), "--format", fmt)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _scaled_bounds(q, s, r, bits):
    # lo <= (q + s*sqrt(r)) * 2^bits <= hi for an integer radicand r
    root = math.isqrt(r * 4 ** bits)  # root <= sqrt(r) * 2^bits < root + 1
    ends = sorted([s * root, s * (root + 1)])
    return q * 2 ** bits + ends[0], q * 2 ** bits + ends[1]


def test_limits_rows_satisfy_the_paper_map(capsys):
    # limit * (3 + L) = 2 on every printed row, read back from the integers:
    # with limit = q1 + s1*sqrt(r) and L = s2*sqrt(r), the rational part is
    # 3 q1 + s1 s2 r and the surd part 3 s1 + q1 s2
    code, out, _ = run(capsys, "limits", "--n", "850", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["n"] for row in rows] == list(range(1, 851))
    previous = None
    for row in rows:
        q1, s1, r = (fraction_of(row["limit"][key]) for key in "qsr")
        q2, s2, r2 = (fraction_of(row["lagrange"][key]) for key in "qsr")
        assert q2 == 0 and r2 == r and r.denominator == 1
        assert 3 * q1 + s1 * s2 * r == 2
        assert 3 * s1 + q1 * s2 == 0
        r = r.numerator
        if previous is not None:  # L strictly rises, so the limit strictly falls
            p_q1, p_s1, p_s2, p_r = previous
            assert s2 > 0 and p_s2 ** 2 * p_r < s2 ** 2 * r
            bits = 4 * max(r, p_r).bit_length() + 64
            assert _scaled_bounds(q1, s1, r, bits)[1] < _scaled_bounds(p_q1, p_s1, p_r, bits)[0]
        previous = q1, s1, s2, r


@pytest.mark.parametrize("n", [1, 2, 40, 850])
@pytest.mark.parametrize("k", [1, 4, 7, 8])
def test_limits_json_is_canonical(capsys, n, k):
    # each row writes its own JSON text: it must be what json.dumps writes
    code, out, _ = run(capsys, "limits", "--n", str(n), "--k", str(k), "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command, exit_code, err", [
    ("irregularities --n-max 794", 1, "mbl: verification failure: irregularity at "
     "(n=794, n'=797) spans 3 sequences; outside the catalogued patterns\n"),
    ("widths --triple 5,2", 2, "mbl: --triple expects three entries, got '5,2'\n"),
    ("widths --triple a,b,c", 2, "mbl: --triple expects integers a,b,c, got 'a,b,c'\n"),
    ("complete --threshold 1/0", 2,
     "mbl: --threshold expects an exact rational like 'p/q', got '1/0'\n"),
    ("plot --figure triangle", 2, "mbl: plot --figure triangle needs --triple\n"),
    # a bound below 1 is named by the flag that set it
    ("limits --n 0", 2, "mbl: --n must be >= 1\n"),
    ("limits --n 3 --k 0 --format json", 2, "mbl: --k must be >= 1\n"),
    ("plot --figure numberline --n 0", 2, "mbl: --n must be >= 1\n"),
    ("plot --figure numberline --n 33 --k 0", 2, "mbl: --k must be >= 1\n"),
    ("irregularities --n-max 0", 2, "mbl: --n-max must be >= 1\n"),
    ("complete --threshold 7/20 --n-max 0", 2, "mbl: --n-max must be >= 1\n"),
    ("triples --max-bound 0", 2, "mbl: --max-bound must be >= 1\n"),
    ("verify --max-bound 0", 2, "mbl: --max-bound must be >= 1\n"),
    ("verify --n-max 0", 2, "mbl: --n-max must be >= 1\n"),
    ("ingest --n 0", 2, "mbl: --n must be >= 1\n"),
    # and a depth below 0, or a delta outside (0, 1/3), by theirs
    ("order --triple 5,2,1 --depth -1", 2, "mbl: --depth must be >= 0\n"),
    ("subtree --triple 5,2,1 --depth -1", 2, "mbl: --depth must be >= 0\n"),
    ("plot --figure order5 --depth -1", 2, "mbl: --depth must be >= 0\n"),
    ("plot --figure triangle --triple 5,2,1 --delta 1/2", 2,
     "mbl: --delta must lie strictly between 0 and 1/3\n"),
    # main checks every bound before a handler reads its other flags
    ("limits --n 0 --k 3", 2, "mbl: --n must be >= 1\n"),
    ("subtree --triple 5,2,1 --preserve 7 --depth -1", 2, "mbl: --depth must be >= 0\n"),
    ("ingest --bfile latin1.txt --n 0", 2, "mbl: --n must be >= 1\n"),
    ("plot --figure triangle --depth -1", 2, "mbl: --depth must be >= 0\n"),
    # a polygon file too deeply nested to parse, or not UTF-8, is a bad file,
    # and so is one whose vertices are refused; each refusal names the file
    ("width --polygon deep.json", 2, "mbl: bad polygon file deep.json: maximum recursion "
     "depth exceeded while decoding a JSON array from a unicode string\n"),
    ("width --polygon latin1.json", 2, "mbl: bad polygon file latin1.json: 'utf-8' codec "
     "can't decode byte 0xe9 in position 3: invalid continuation byte\n"),
    ("width --polygon twice.json", 2, "mbl: bad polygon file twice.json: duplicate vertices\n"),
    # as is a b-file that is not UTF-8 or holds a malformed line
    ("ingest --kind markov --n 3 --bfile latin1.txt", 2, "mbl: bad b-file latin1.txt: "
     "'utf-8' codec can't decode byte 0xe9 in position 4: invalid continuation byte\n"),
    ("ingest --kind markov --n 3 --bfile repeated.txt", 2, "mbl: bad b-file repeated.txt: "
     "line 2: indices must strictly increase\n"),
    # a digest file that lacks the line of a vendored b-file is an i/o error
    *((command, 3, "mbl: i/o error: vendored b002559.txt fails its checksum: "
       "no matching line in B2SUMS\n")
      for command in ("ingest --kind markov", "verify --suite ingest")),
])
def test_error_exits_write_one_line_to_stderr(capsys, monkeypatch, tmp_path,
                                              command, exit_code, err):
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    (tmp_path / "latin1.json").write_bytes('[["\u00e9", 1]]'.encode("latin-1"))
    (tmp_path / "twice.json").write_text('[[0, 0], [1, 0], ["2/2", 0], [0, 1]]')
    (tmp_path / "latin1.txt").write_bytes("1 1\n\u00e9\n".encode("latin-1"))
    (tmp_path / "repeated.txt").write_text("1 1\n1 2\n")
    data = tmp_path / "data"  # vendored data whose B2SUMS lost the Markov line
    data.mkdir()
    vendored = Path(mbl.oeis.__file__).parent / "data"
    (data / "b002559.txt").write_bytes((vendored / "b002559.txt").read_bytes())
    (data / "B2SUMS").write_text("".join(
        line + "\n" for line in (vendored / "B2SUMS").read_text().splitlines()
        if not line.endswith("b002559.txt")))
    monkeypatch.setattr(mbl, "_DATA_DIR", str(data))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *command.split()) == (exit_code, "", err)


@pytest.mark.parametrize("command, flag", [
    ("complete --threshold abc", "--threshold"),
    ("plot --figure triangle --triple 5,2,1 --delta x", "--delta"),
    ("widths --triple 1,x,1", "--triple"),
    ("widths --triple 1,1", "--triple"),
])
def test_every_value_refusal_names_its_flag(capsys, command, flag):
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"mbl: {flag} expects ") and err.count("\n") == 1


#: Text over the characters of Fraction's grammar, a space and U+0663.
_NUMERAL_TEXT = st.text(alphabet="0123456789-+/.eE_ \u0663", max_size=8)
#: Fraction's grammar in ASCII, with no whitespace, no "_" and no leading "+".
_RATIONAL_GRAMMAR = re.compile(
    r"-?(?=[0-9]|\.[0-9])[0-9]*(?:/(?P<den>[0-9]+)|(?:\.[0-9]*)?(?:[eE](?P<exp>[-+]?[0-9]+))?)",
    re.ASCII)


@seed(20261021)
@settings(max_examples=1500, deadline=None)
@given(st.one_of(_NUMERAL_TEXT, st.integers().map(str)))
def test_integer_reads_ascii_digits_with_an_optional_minus(text):
    if re.fullmatch(r"-?[0-9]+", text, re.ASCII):
        assert mbl._integer(text) == int(text)
    else:
        with pytest.raises(ValueError):
            mbl._integer(text)


@seed(20261021)
@settings(max_examples=1500, deadline=None)
@given(st.one_of(_NUMERAL_TEXT, st.fractions().map(str),
                 st.decimals(allow_nan=False, allow_infinity=False).map(str)))
def test_rational_reads_fractions_grammar_in_ascii(text):
    match = _RATIONAL_GRAMMAR.fullmatch(text)
    if match is None or abs(int(match["exp"] or 0)) > 10 ** 6:
        with pytest.raises(ValueError):
            mbl._rational(text)
    elif match["den"] is not None and int(match["den"]) == 0:
        with pytest.raises(ZeroDivisionError):
            mbl._rational(text)
    else:
        assert mbl._rational(text) == Fraction(text).as_integer_ratio()


_VENDORED_MARKOV = (Path(mbl.oeis.__file__).parent / "data" / "b002559.txt").read_text()
#: Spellings that int() or Fraction() reads but mbl._integer and mbl._rational
#: refuse, at each entry point: the argv and what its one stderr line names.
_REFUSED_SPELLINGS = [
    *((("limits", "--n", n), "--n") for n in ("\u0663", "1_0", "+3", " 3")),
    *((("widths", "--triple", t), "--triple") for t in ("\u0665,2,1", "5, 2, 1", "+5,2,1")),
    *((("complete", "--threshold", t, "--n-max", "10"), "--threshold")
      for t in ("\u0663/8", "3_0/80", "+3/8", " 3/8")),
    (("plot", "--figure", "triangle", "--triple", "5,2,1", "--delta", "+1/4"), "--delta"),
    *((("width", "--polygon", name), name) for name in ("arabic.json", "underscore.json")),
    *((("ingest", "--kind", "markov", "--bfile", name), name)
      for name in ("u2028.txt", "vtab.txt", "nbsp.txt")),
]


@pytest.mark.parametrize("argv, named", _REFUSED_SPELLINGS,
                         ids=[" ".join(argv) for argv, _ in _REFUSED_SPELLINGS])
def test_spellings_outside_the_ascii_grammar_are_refused(capsys, monkeypatch, tmp_path,
                                                         argv, named):
    # non-ASCII digits, "_", a leading "+" and spaces in a count, a triple,
    # a rational or a polygon coordinate, and Unicode line and field
    # separators in a b-file: int(), Fraction(), str.split and
    # str.splitlines read each as 3, 5, 3/8, 1/4, 10 or a well-formed b-file
    (tmp_path / "arabic.json").write_text('[[0, 0], ["\u0663", 0], [0, 1]]')
    (tmp_path / "underscore.json").write_text('[[0, 0], ["1_0", 0], [0, 1]]')
    for name, sep in (("u2028.txt", "\u2028"), ("vtab.txt", "\x0b")):
        (tmp_path / name).write_text(
            _VENDORED_MARKOV.replace("\n3 5\n4 13\n", f"\n3 5{sep}4 13\n"), encoding="utf-8")
    (tmp_path / "nbsp.txt").write_text(
        _VENDORED_MARKOV.replace("\n3 5\n", "\n3\u00a05\n"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("mbl: ") and err.count("\n") == 1 and named in err


def test_a_decimal_exponent_past_a_million_is_refused_before_it_is_read(
        capsys, monkeypatch, tmp_path):
    # Fraction builds 10^K before any other check, so the 9 characters
    # 1e9999999 took seconds to read: each of these is refused before
    # Fraction is called, with the message of its flag or file
    def refuse(*args):
        raise AssertionError("Fraction called")

    monkeypatch.setattr(fractions, "Fraction", refuse)
    for text in ("1e1000001", "1e-1000001", "1E+1000001", "-2.5e001000001", "1e9999999",
                 "1e" + "9" * 40):
        with pytest.raises(ValueError, match="decimal exponent beyond 10\\^6"):
            mbl._rational(text)
    monkeypatch.undo()
    assert mbl._rational("1e1000000") == (10 ** 1000000, 1)
    assert mbl._rational("-1e-001000000") == (-1, 10 ** 1000000)
    assert run(capsys, "complete", "--threshold", "1e1000001", "--n-max", "5") == (
        2, "", "mbl: --threshold expects an exact rational like 'p/q', got '1e1000001'\n")
    (tmp_path / "exponent.json").write_text('[[0, 0], ["1e1000001", 0], [0, 1]]')
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "width", "--polygon", "exponent.json") == (
        2, "", "mbl: bad polygon file exponent.json: coordinates must be ints or rational "
        "strings, got '1e1000001'\n")


@pytest.mark.parametrize("error, resource", [(MemoryError, "memory"),
                                             (RecursionError, "recursion depth")])
def test_running_out_is_one_line_and_exit_4(capsys, monkeypatch, error, resource):
    def exhausted(config):
        print("partial row")
        raise error()

    monkeypatch.setattr(mbl.ordering, "cmd_limits", exhausted)
    assert run(capsys, "limits", "--n", "3") == (
        4, "partial row\n", f"mbl: limits ran out of {resource}\n")


def test_an_interrupt_is_one_line_and_exit_130(capsys, monkeypatch):
    def interrupted(config):
        raise KeyboardInterrupt

    exits = []
    monkeypatch.setattr(mbl.ordering, "cmd_limits", interrupted)
    monkeypatch.setattr(mbl.cli.os, "_exit", exits.append)
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda digits: None, raising=False)
    monkeypatch.setattr(sys, "argv", ["mbl", "limits", "--n", "3"])
    mbl.cli.run()
    assert exits == [130] and capsys.readouterr() == ("", "mbl: interrupted\n")


def test_a_process_out_of_memory_exits_4():
    # the child's own address space is capped, before it runs mbl; the chains
    # below (5,2,1) to depth 10^7 would need far more
    resource = pytest.importorskip("resource")
    cap = 256 * 2 ** 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    done = _process("subtree", "--triple", "5,2,1", "--depth", str(10 ** 7),
                    preexec_fn=limit, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        4, "", "mbl: subtree ran out of memory\n")


def test_a_refused_value_loads_no_handler_module():
    # main parses every value and checks every count before it imports the
    # module holding the handler, and runs none of the deferred modules
    probe = ("import sys, mbl.cli\n"
             "print(mbl.cli.main(['widths', '--triple', '1,x,1']),\n"
             "      mbl.cli.main(['plot', '--figure', 'triangle', '--triple', '1,x,1']),\n"
             "      mbl.cli.main(['verify', '--max-bound', '0']),\n"
             "      mbl.cli.main(['triples', '--max-bound', '0']),\n"
             "      mbl.cli.main(['plot', '--figure', 'order5', '--depth', '-1']),\n"
             "      mbl.cli.main(['limits', '--n', 'x']),\n"
             "      mbl.cli.main(['complete', '--threshold', 'abc', '--n-max', '10']))\n"
             "print(sorted({'mbl.commands', 'mbl.suites', 'mbl.svg'} & set(sys.modules)))\n"
             + _PRINT_RAN)
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "2 2 2 2 2 2 2\n[]\n\n"


def test_depth_is_refused_whatever_the_figure(capsys):
    # the numberline figure draws no depth, and still takes none below 0
    assert run(capsys, "plot", "--figure", "numberline", "--depth", "-1") == \
        (2, "", "mbl: --depth must be >= 0\n")


#: The dests _VALUES reads as counts: all but the triple and the two rationals.
_COUNTS = set(mbl.cli._VALUES) - {"triple", "threshold", "delta"}


def test_each_value_rule_names_a_flag_of_its_kind():
    # no flag converts its text in an argv parser, so main reads every value:
    # a misspelt dest in _VALUES would read nothing, so each names a flag of
    # some command, and every count is among them, --preserve included; a
    # count's default is text its reader takes
    flags = [options for command in mbl.cli._COMMANDS
             for options in mbl.cli._flags(command).values()]
    assert [options for options in flags if "type" in options] == []
    assert set(mbl.cli._VALUES) <= {options["dest"] for options in flags}
    assert _COUNTS == {"max_bound", "n_max", "n", "k", "depth", "preserve"}
    for options in flags:
        if options["dest"] in _COUNTS:
            read = mbl.cli._VALUES[options["dest"]]
            if "default" in options:
                assert type(read("--x", options["default"])) is int
            with pytest.raises(ValueError, match="^--x expects an integer, got '1.0'$"):
                read("--x", "1.0")


def test_import_leaves_the_network_stack_unloaded():
    # no command reaches the network: every b-file is vendored or named by --bfile
    probe = ("import sys, mbl.cli; "
             "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


# Every module a fresh `import mbl.cli` loads on Python 3.11 when nothing was
# imported before it (python -S).  An interpreter whose site imports more at
# start loads a subset of these.
_IMPORT_CLOSURE = frozenset("""
    __future__ _collections _collections_abc _json _operator _stat collections
    collections.abc genericpath importlib importlib._bootstrap
    importlib._bootstrap_external importlib.machinery itertools keyword mbl
    mbl.capacity mbl.cli mbl.errors mbl.lattice mbl.markov mbl.oeis
    mbl.ordering mbl.report operator os os.path posixpath reprlib stat types
    warnings
""".split())

# A probe's line naming the deferred modules that have run in its process:
# one that has run holds its functions.  object.__getattribute__ reads the
# namespace without running the module.
_PRINT_RAN = ("print(*[name for name, fn in (('mbl.markov', 'sorted_triple'), "
              "('mbl.capacity', 'width'), ('mbl.ordering', 'cmd_limits'), "
              "('mbl.lattice', 'lattice_width'), ('mbl.oeis', 'load_bfile')) "
              "if fn in object.__getattribute__(sys.modules[name], '__dict__')])")


def test_import_loads_no_unused_machinery():
    # dataclasses (with inspect), csv, hashlib, the json package, argparse
    # (with gettext and locale) and every handler module outside mbl.cli
    # (commands, suites, svg) serve few commands and load inside them;
    # argparse only for help, usage errors and argv the plain parse declines.
    # mbl.markov, capacity, ordering, lattice and oeis are in sys.modules but
    # have not run: the bench tracer (perfbench/tracer.py, install) re-binds
    # its traced functions only in modules already loaded, and its vars() of
    # each runs it; a handler module's import runs them too.  fractions and
    # decimal (with numbers) load only to read or write a rational as text or
    # to print a decimal
    probe = ("import sys; before = set(sys.modules); import mbl.cli\n"
             "print(*sorted(set(sys.modules) - before))\n" + _PRINT_RAN)
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    loaded_line, ran = result.stdout.split("\n")[:2]
    loaded = set(loaded_line.split())
    assert loaded & {"dataclasses", "inspect", "csv", "hashlib", "json", "json.decoder",
                     "json.encoder", "json.scanner", "argparse", "gettext", "locale",
                     "mbl.commands", "mbl.suites", "mbl.svg",
                     "fractions", "decimal", "numbers"} == set()
    assert {"mbl.cli", "mbl.markov", "mbl.capacity", "mbl.ordering", "mbl.lattice",
            "mbl.oeis"} <= loaded
    assert ran == ""
    if sys.version_info[:2] == (3, 11):  # nothing new: the JSON writer quotes with _json
        assert loaded <= _IMPORT_CLOSURE


#: The deferred modules every command of `mbl.commands` runs, those an
#: ordering command runs, and those the lattice suite of `verify` runs.
_TABLE = "mbl.markov mbl.capacity"
_ORDERING = _TABLE + " mbl.ordering"
_LATTICE = _ORDERING + " mbl.lattice"


@pytest.mark.parametrize("argv, ran, unloaded", [
    ("limits --n 40 --format json", _ORDERING, {"fractions"}),
    ("irregularities --n-max 450", _ORDERING, {"fractions", "decimal"}),
    ("irregularities --n-max 450 --fixture", _ORDERING, {"fractions", "decimal"}),
    ("complete --threshold 7/20 --n-max 450", _ORDERING, set()),
    ("verify --suite lattice --max-bound 30", _LATTICE, {"fractions", "decimal"}),
    ("verify --max-bound 10000 --n-max 120", _LATTICE + " mbl.oeis", {"fractions", "decimal"}),
    ("width --triple 5,2,1", _TABLE + " mbl.lattice", set()),
    # of the table commands only `order` runs mbl.ordering, and only
    # `triangle` and `width` run mbl.lattice
    ("triangle --triple 5,2,1", _TABLE + " mbl.lattice", set()),
    ("order --triple 5,2,1 --depth 3", _ORDERING, {"fractions"}),
    ("widths --triple 5,2,1", _TABLE, {"fractions"}),
    ("triples --max-bound 100", _TABLE, {"fractions", "decimal"}),
    ("subtree --triple 29,5,2 --preserve 5 --depth 2", _TABLE, {"fractions"}),
    ("ingest --kind markov --n 10", _TABLE + " mbl.oeis", {"fractions", "decimal"}),
], ids=["limits", "irregularities", "irregularities-fixture", "complete", "verify-lattice",
        "verify", "width", "triangle", "order", "widths", "triples", "subtree", "ingest"])
def test_only_a_command_that_calls_them_runs_the_deferred_modules(argv, ran, unloaded):
    probe = ("import os, sys, mbl.cli\n"
             "sys.stdout = open(os.devnull, 'w')\n"
             f"code = mbl.cli.main({argv.split()!r})\n"
             "sys.stdout = sys.__stdout__\n"
             "print(code)\n" + _PRINT_RAN + "\n"
             "print(*sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    code, ran_line, loaded = result.stdout.split("\n")[:3]
    assert (code, ran_line) == ("0", ran)
    assert set(loaded.split()) & unloaded == set()


def test_a_module_imported_before_the_cli_is_not_deferred():
    probe = ("import sys, mbl.lattice\n"
             "first, build = sys.modules['mbl.lattice'], mbl.lattice.vianna_triangle\n"
             "import mbl.cli, mbl.suites, mbl.svg\n"
             "print(sys.modules['mbl.lattice'] is first is mbl.lattice,\n"
             "      mbl.svg.vianna_triangle is build is mbl.suites.vianna_triangle)")
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "True True\n"


def test_import_without_site_loads_neither_typing_nor_contextlib():
    # site may preload both, so only python -S shows what mbl.cli itself loads
    probe = ("import sys; before = set(sys.modules); import mbl.cli\n"
             "print(*sorted(set(sys.modules) - before))\n"
             "print(sorted({'typing', 'contextlib'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    loaded, unused = result.stdout.splitlines()
    assert unused == "[]"
    if sys.version_info[:2] == (3, 11):
        assert set(loaded.split()) <= _IMPORT_CLOSURE


def test_package_data_loads_neither_importlib_resources_nor_pathlib():
    # mbl.oeis reads the vendored b-files, B2SUMS and the --fixture catalogue
    # with open(), so no site preload is needed to keep these out (python -S)
    probe = ("import sys, mbl.cli\n"
             "seen = lambda: sorted({'importlib.resources', 'pathlib'} & set(sys.modules))\n"
             "print(seen())\n"
             "codes = [mbl.cli.main(argv.split()) for argv in "
             "('irregularities --fixture', 'verify --suite ingest')]\n"
             "print(codes, seen())")
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    lines = result.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[0, 0] []")


def test_import_mbl_loads_no_submodule():
    # callers import the modules; the package namespace re-exports nothing
    probe = ("import sys, mbl; "
             "print(sorted(name for name in sys.modules if name.startswith('mbl.')))")
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def _imported_by_process(*argv):
    # every module a `python -m mbl.cli` process imports through `__import__`,
    # which -X importtime logs: by import statements (argparse, gettext and
    # locale too) and by `cli._module` (the handler modules); not the modules
    # `cli._deferred` registers (markov, capacity, ordering, lattice and oeis),
    # which run in place
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "mbl.cli", *argv],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.mark.parametrize("argv", [
    ("limits", "--n", "3", "--format", "json"),
    ("verify", "--suite", "capacity", "--format", "json"),
])
def test_well_formed_runs_load_no_argparse(argv):
    imported = _imported_by_process(*argv)
    assert "mbl.report" in imported  # the probe sees the process's imports
    assert imported & {"argparse", "gettext", "locale"} == set()


@pytest.mark.parametrize("argv, module", [
    (("verify", "--suite", "capacity", "--format", "json"), "mbl.suites"),
    (("order", "--triple", "5,2,1", "--depth", "1"), "mbl.commands"),
    (("plot", "--figure", "order5"), "mbl.svg"),
], ids=["suites", "commands", "svg"])
def test_importtime_sees_the_handler_modules(argv, module):
    assert module in _imported_by_process(*argv)


def test_only_a_polygon_file_loads_json():
    # mbl.commands serves widths, triples, subtree, order, triangle, width
    # and ingest; of these only `width --polygon` reads JSON
    probe = ("import sys, mbl.commands; "
             "print(sorted(name for name in sys.modules if name.split('.')[0] == 'json'))")
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_suite_choices_are_the_suites():
    options = mbl.cli._flags("verify")["--suite"]
    assert options["choices"] == tuple(mbl.suites.SUITES)


def test_ingest_kind_choices_are_the_sequences():
    options = mbl.cli._flags("ingest")["--kind"]
    assert options["choices"] == ("all",) + tuple(mbl.oeis.SEQUENCE_IDS)


# Well-formed argv, the benchmark's shapes among them: each parses without argparse.
_PLAIN_ARGV = [
    "limits --n 450 --format json",
    "irregularities --n-max 450 --fixture --format json",
    "complete --threshold 1/3 --n-max 793 --format json",
    "verify --max-bound 3000 --n-max 40 --format json",
    "verify --suite ingest --n-max 1",
    "ingest --kind pell --n 5 --bfile b --out o --format csv",
    "plot --figure triangle --triple 5,2,1 --delta 1/8",
    "subtree --triple 29,5,2 --preserve 5",
    "width --polygon p.json",
    "widths",
]


@pytest.mark.parametrize("argv", _PLAIN_ARGV)
def test_plain_argv_parse_as_argparse_would(argv):
    argv = argv.split()
    assert mbl.cli._plain_parse(argv) == vars(mbl.cli.build_parser().parse_args(argv))


# Shapes the plain parse leaves to argparse, some of which argparse accepts.
_DECLINED_ARGV = [
    "limits --n-max 5", "verify --n 5", "limits --format=json", "limits --n 5 --n 6",
    "verify --suite markov --suite markov", "limits --n -1", "limits --n",
    "irregularities --fixture x", "limits --n 5 -h", "limits --format JSON",
    "verify --suite bogus", "complete --n-max 5", "-h limits", "bogus", "",
]


@pytest.mark.parametrize("argv", _DECLINED_ARGV)
def test_other_argv_are_left_to_argparse(argv):
    assert mbl.cli._plain_parse(argv.split()) is None


def _drawn_argv(draw):
    # a command with its flags, each once (the required ones most of the
    # time), mostly with well-formed values, else negative, non-int, empty
    # or wrong-choice ones; then up to three hostile tokens at drawn places:
    # repeated, abbreviated, unknown or `--x=y` flags, flags left without a
    # value, stray tokens and -h
    command = draw(st.sampled_from(sorted(mbl.cli._COMMANDS)))
    flags = mbl.cli._flags(command)
    names = sorted(flags)

    def good(options):
        if "choices" in options:
            return st.sampled_from(options["choices"])
        if options["dest"] in _COUNTS:
            return st.integers(0, 10_000).map(str)
        return st.sampled_from(["5,2,1", "1/4", "7/20", "x", "", "p.json"])

    def bad(options):  # a value the plain parse declines, or one main refuses
        if "choices" in options:
            return st.sampled_from(["bogus", "svg", "", options["choices"][0].upper()])
        if options["dest"] in _COUNTS:
            return st.sampled_from(["-1", "-7", "x", "", "2.5", "1e3"])
        return st.sampled_from(["-1", "-x", "-h", "--n", "-", "--"])

    def item(name):
        if flags[name].get("action") == "store_true":
            return [name]
        return [name, draw(bad(flags[name]) if draw(st.integers(0, 4)) == 4 else good(flags[name]))]

    required = [name for name in names if flags[name].get("required")]
    chosen = draw(st.permutations(draw(st.lists(st.sampled_from(names), unique=True))))
    if draw(st.integers(0, 9)) < 9:  # else the required flags may go missing
        chosen += [name for name in required if name not in chosen]
    tokens = [part for name in chosen for part in item(name)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        name = draw(st.sampled_from(names))
        hostile = draw(st.sampled_from([
            item(name),  # repeated, or one more flag
            [name],  # a switch, or a flag missing its value
            [name[:draw(st.integers(3, max(3, len(name) - 1)))]],  # abbreviated
            [f"{name}={draw(good(flags[name]))}"],
            [draw(st.sampled_from(["-h", "--help", "--bogus", "stray", "-x", "--", command]))],
        ]))
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at] = hostile
    return [command, *tokens]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_plain_parse_is_argparse_or_declines(data):
    # argparse on an argv the plain parse accepted would give the same
    # values; wherever argparse exits, it declined
    argv = _drawn_argv(data.draw)
    plain = mbl.cli._plain_parse(argv)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            expected = vars(mbl.cli.build_parser().parse_args(argv))
    except SystemExit:
        assert plain is None
    else:
        assert plain is None or plain == expected


def test_subcommands_match_readme_and_have_handlers():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = re.search(r"^mbl <([a-z|]+)> \[flags\]$", readme, re.M).group(1)
    listed = re.search(r"\{([a-z,]+)\}", mbl.cli.build_parser().format_usage()).group(1)
    assert listed.split(",") == documented.split("|")
    for name in listed.split(","):
        handler = mbl.cli._COMMANDS[name][2]()
        assert callable(handler) and handler.__name__ == f"cmd_{name}"


# The usage paths, run at 80 columns against the exit code and the stdout
# and stderr digests tests/golden.tsv pins for them.  They pin every help
# and usage text of the parser that build_parser makes from the command table.
_USAGE_ARGV = [
    "", "-h", "bogus", "widths -h", "triples -h", "subtree -h", "order -h", "irregularities -h",
    "triangle -h", "width -h", "limits -h", "complete -h", "verify -h", "plot -h", "ingest -h",
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words its help differently in other versions")
@pytest.mark.parametrize("argv", _USAGE_ARGV, ids=[argv or "no-arguments" for argv in _USAGE_ARGV])
def test_usage_text_is_pinned(capsys, monkeypatch, argv):
    code, out_digest, err_digest = _GOLDEN[tuple(argv.split())]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    captured = capsys.readouterr()
    assert excinfo.value.code == code
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_digest


def test_the_process_converts_integers_of_any_length(capsys):
    # (F_21203, F_21201, 1) solves the Markov equation; its largest entry has
    # 4,431 digits, past the int/str conversion limit of 4,300 that Python
    # 3.11 sets by default; an in-process caller keeps its own limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert run(capsys, "widths", "--triple", "5,2,1")[0] == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    f_21201, f_21202 = 0, 1
    for _ in range(21201):
        f_21201, f_21202 = f_21202, f_21201 + f_21202
    lift = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    lift(0)
    try:
        a, b = str(f_21201 + f_21202), str(f_21201)  # F_21203, F_21201
        done = _process("widths", "--triple", f"{a},{b},1", "--format", "json")
    finally:
        lift(limit)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["rows"][0]["width"] == {"num": b, "den": a}


def _process(*argv, unbuffered=False, stdout=subprocess.PIPE, **popen):
    # `python -m mbl.cli argv` on this tree in a fresh interpreter, its stdout
    # block-buffered unless asked otherwise
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(mbl.cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "mbl.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, **popen)


@pytest.mark.parametrize("threshold", ["10", "1e100", "1e99999"])
def test_complete_above_two_thirds_certifies_at_n_max(threshold):
    # the tail ends at n_max + 1 however large the threshold: no capacity
    # beyond n_max reaches 2/3, so no walk runs on toward 2T^2/(3T - 1)
    done = _process("complete", "--threshold", threshold, "--n-max", "10", "--format", "json",
                    timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads(done.stdout)
    assert (report["certified"], report["active_sequences"], report["tail_exact"],
            report["tail_bound_index"], report["tail_bound_m"]) == (True, 0, [], 11, "433")


@pytest.mark.parametrize("command, code", [("limits --n 3", 0),
                                           ("limits --n 40 --format json", 0),
                                           ("irregularities --n-max 800", 1)])
def test_the_process_ends_as_main_returns(capsys, tmp_path, command, code):
    # the process exits through a flush and os._exit: the bytes and status of
    # an in-process main(argv), and with --out a complete file
    argv = command.split()
    expected = run(capsys, *argv)
    assert expected[0] == code
    done = _process(*argv)
    assert (done.returncode, done.stdout, done.stderr) == expected
    paths = tmp_path / "main.out", tmp_path / "process.out"
    assert run(capsys, *argv, "--out", str(paths[0])) == (code, "", expected[2])
    done = _process(*argv, "--out", str(paths[1]))
    assert (done.returncode, done.stdout, done.stderr) == (code, "", expected[2])
    assert [path.read_text() if path.exists() else None
            for path in paths] == [expected[1] or None] * 2


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_is_an_io_error(unbuffered):
    # unbuffered, the write finds the pipe closed; buffered, the final flush
    read, write = os.pipe()
    os.close(read)
    try:
        done = _process("limits", "--n", "3", unbuffered=unbuffered, stdout=write)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (3, "mbl: i/o error: [Errno 32] Broken pipe\n")


def test_a_stdout_closed_at_start_is_an_io_error(capsys, tmp_path):
    # with file descriptor 1 closed Python's sys.stdout is None: the table
    # cannot be written there, while --out writes the whole file and exits 0
    def close_stdout():
        os.close(1)

    done = _process("limits", "--n", "3", stdout=None, preexec_fn=close_stdout)
    assert (done.returncode, done.stderr) == (3, "mbl: i/o error: stdout is closed\n")
    path = tmp_path / "limits.txt"
    done = _process("limits", "--n", "3", "--out", str(path), stdout=None,
                    preexec_fn=close_stdout)
    assert (done.returncode, done.stderr) == (0, "")
    assert path.read_text() == run(capsys, "limits", "--n", "3")[1]


def test_limit_previews_are_correctly_rounded(capsys):
    # every preview, rounded from 2m/(3m + sqrt(9m^2 - 4)) at 12 digits
    code, out, _ = run(capsys, "limits", "--n", "850", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    previews = [row["preview"] for row in rows]
    assert previews == [rounded_limit(int(row["m"])) for row in rows]
    code, out, _ = run(capsys, "limits", "--n", "850")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[-1] for line in lines[2:852]] == previews
    assert lines[852].startswith("# ")


def test_limit_decimals_hold_40_correct_digits():
    # the numberline figure places its limit ticks by these
    for m in markov_numbers(850):
        assert mbl.capacity.limit_decimal(m, 40) == rounded_limit(m, 40)


class TestWidths:
    def test_default_table(self, capsys):
        code, out, _ = run(capsys, "widths")
        assert code == 0
        for cell in ("1/2", "2/5", "5/13", "10/29", "145/433"):
            assert cell in out

    def test_single_triple(self, capsys):
        code, out, _ = run(capsys, "widths", "--triple", "194,13,5")
        assert code == 0 and "65/194" in out

    def test_root_width_one(self, capsys):
        code, out, _ = run(capsys, "widths", "--triple", "1,1,1")
        assert code == 0 and "1" in out.splitlines()[2]

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "widths", "--format", "json")
        payload = json.loads(out)
        widths = [fraction_of(row["width"]) for row in payload["rows"]]
        assert widths == [
            Fraction(1, 2), Fraction(2, 5), Fraction(5, 13),
            Fraction(10, 29), Fraction(145, 433),
        ]
        triples = [sorted_triple(*map(int, row["triple"].values())) for row in payload["rows"]]
        assert triples[0] == (2, 1, 1)

    def test_csv_parses(self, capsys):
        code, out, _ = run(capsys, "widths", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["triple", "width", "decimal"]
        assert rows[1][1] == "1/2"

    def test_bad_triple_usage_error(self, capsys):
        code, _, err = run(capsys, "widths", "--triple", "4,2,1")
        assert code == 2 and "Markov" in err


class TestTriplesAndSubtree:
    def test_triples_bound(self, capsys):
        code, out, _ = run(capsys, "triples", "--max-bound", "5")
        assert code == 0
        assert out.count("(") == 3

    def test_subtree(self, capsys):
        code, out, _ = run(
            capsys, "subtree", "--triple", "29,5,2", "--preserve", "5",
            "--depth", "2")
        assert code == 0 and "(433,29,5)" in out

    def test_order_depth_three(self, capsys):
        code, out, _ = run(capsys, "order", "--triple", "5,2,1", "--depth", "3")
        assert code == 0
        assert "(6466,433,5)" in out and "2165/6466" in out

    @pytest.mark.parametrize("triple, preserve", [("5,2,1", "5"), ("433,29,5", "5"),
                                                  ("2,1,1", "2"), ("1,1,1", "1")])
    def test_subtree_walks_back_to_the_root_once(self, capsys, monkeypatch, triple, preserve):
        # one climb from the given triple gives the apex and its depth; each
        # node adds its level below the apex
        seen = []
        monkeypatch.setattr(mbl.commands, "ancestors", lambda t: seen.append(t) or ancestors(t))
        code, out, _ = run(capsys, "subtree", "--triple", triple, "--preserve", preserve,
                           "--depth", "9", "--format", "json")
        assert code == 0 and seen == [tuple(map(int, triple.split(",")))]
        rows = json.loads(out)["rows"]
        assert len(rows) in (10, 19)
        assert rows[0]["triple"]["a"] == preserve
        for row in rows:
            t = sorted_triple(*map(int, row["triple"].values()))
            assert row["depth"] == len(ancestors(t)) - 1

    def test_depths_build_no_triples(self, capsys, monkeypatch):
        # `triples` reads each depth off its parent's row, and `subtree`
        # climbs on ints: on a fresh walk `_check` runs once per apex the walk
        # hands out (the 893 rows and the first past the bound) and on a
        # walk gone that far not at all; for a triple 100 levels down only
        # on the parsed one
        checked = []
        real = mbl.markov._check
        monkeypatch.setattr(mbl.markov, "_check", lambda *t: checked.append(t) or real(*t))
        walk = MarkovWalk()
        monkeypatch.setattr(mbl.markov, "markov_prefix", walk.prefix)
        argv = ("triples", "--max-bound", str(10 ** 30), "--format", "csv")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("\n") - 1 == 893
        assert checked == walk._apexes and len(checked) == 894
        checked.clear()
        assert run(capsys, *argv) == (0, out, "") and checked == []
        deep = (fibonacci(201), fibonacci(199), 1)
        code, out, _ = run(capsys, "subtree", "--triple", ",".join(map(str, deep)),
                           "--depth", "0", "--format", "json")
        assert code == 0 and json.loads(out)["rows"][0]["depth"] == 100
        assert checked == [deep]


class TestIrregularities:
    def test_scan_to_40(self, capsys):
        code, out, _ = run(
            capsys, "irregularities", "--n-max", "40", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [r["n"] for r in payload["rows"]] == [33, 37]
        assert all(r["swap_verified"] for r in payload["rows"])

    def test_fixture_needs_450(self, capsys):
        # checked before the scan, which refuses --n-max 800 (a span-3 record)
        for n_max in ("40", "800"):
            code, _, err = run(
                capsys, "irregularities", "--n-max", n_max, "--fixture")
            assert code == 2
            assert err == f"mbl: --fixture catalogue covers n_max=450, got --n-max {n_max}\n"

    def test_the_scan_enters_the_walk_once_per_prefix(self, capsys, monkeypatch):
        # each swap verdict reads the prefix the scan walked: `find_irregularities`
        # enters the walk twice, and `complete` once more for its tail
        entries = []
        walk = MarkovWalk()

        def counted(*args):
            entries.append(args)
            return walk.prefix(*args)

        monkeypatch.setattr(mbl.ordering, "markov_prefix", counted)
        report = mbl.ordering.ordered_prefix_complete_above((7, 20), 793)
        assert report["certified"] and len(report["swap_checks"]) == 30
        assert len(entries) == 3
        entries.clear()
        code, _, _ = run(capsys, "irregularities", "--n-max", "793")
        assert code == 0 and len(entries) == 2

    def test_the_scan_returns_the_rows_both_commands_write(self, capsys):
        # an irregularity is its JSON row: `irregularities` writes the rows the
        # scan returns, and `complete` writes them less their swap verdicts,
        # with the verdicts beside them
        rows = mbl.ordering.find_irregularities(450)
        code, out, _ = run(capsys, "irregularities", "--n-max", "450", "--format", "json")
        assert code == 0 and json.loads(out)["rows"] == rows
        threshold = str(Fraction(1, 3) + Fraction(2, 10 ** 44))
        code, out, _ = run(capsys, "complete", "--threshold", threshold, "--n-max", "450",
                           "--format", "json")
        report = json.loads(out)
        assert code == 0 and len(rows) == 17
        assert report["records"] == [{key: value for key, value in row.items()
                                      if key != "swap_verified"} for row in rows]
        assert report["swap_checks"] == [{"n": row["n"], "ok": row["swap_verified"]}
                                         for row in rows]

    def test_fixture_mismatch_fails(self, capsys, monkeypatch):
        real = mbl.ordering.find_irregularities
        monkeypatch.setattr(mbl.ordering, "find_irregularities", lambda n_max: real(n_max)[1:])
        code, out, _ = run(capsys, "irregularities", "--n-max", "450", "--fixture")
        assert code == 1 and "# fixture match: False" in out.splitlines()


class TestSwapPatternCatalogue:
    """Every command reads the catalogued spans from ordering.SWAP_PATTERNS."""

    SPAN_3 = "first capacity of sequence n+3 moves ahead of sequences n to n+2"

    def test_a_catalogued_span_3_reaches_both_commands(self, capsys, monkeypatch):
        monkeypatch.setitem(mbl.ordering.SWAP_PATTERNS, 3, self.SPAN_3)
        threshold = str(Fraction(1, 3) + Fraction(2, 10 ** 44))
        code, out, _ = run(capsys, "complete", "--threshold", threshold,
                           "--n-max", "800")
        assert code == 1  # verify_swap_pattern rejects 794 -> 797
        assert "span-3 at [794])" in out.splitlines()[2]
        code, out, _ = run(capsys, "irregularities", "--n-max", "800")
        assert code == 1
        assert ["794", "3", "797", "NO", self.SPAN_3] in \
            [line.split(None, 4) for line in out.splitlines()]

    def test_a_catalogued_span_3_keeps_the_fixture_match(self, capsys, monkeypatch):
        # the catalogue lists spans 1 and 2 only: a catalogued span needs no
        # key in it while no record has that span
        monkeypatch.setitem(mbl.ordering.SWAP_PATTERNS, 3, self.SPAN_3)
        code, out, _ = run(capsys, "irregularities", "--n-max", "450", "--fixture")
        assert code == 0 and "# fixture match: True" in out.splitlines()
        # a record of a span the catalogue does not list is a mismatch
        real = mbl.ordering.find_irregularities
        extra = _row(400, 3, True)
        monkeypatch.setattr(mbl.ordering, "find_irregularities",
                            lambda n_max: real(n_max) + [extra])
        code, out, _ = run(capsys, "irregularities", "--n-max", "450", "--fixture")
        assert code == 1 and "# fixture match: False" in out.splitlines()

    def test_a_catalogued_span_3_reaches_the_numberline_figure(self, capsys, monkeypatch):
        monkeypatch.setitem(mbl.ordering.SWAP_PATTERNS, 3, self.SPAN_3)
        code, out, _ = run(capsys, "plot", "--figure", "numberline", "--n", "794")
        assert code == 0
        assert ("sequences 793..797: leading capacity of sequence 797 moves ahead of "
                "sequences 794..796</text>") in out
        assert [f"w(ess {n})" in out for n in range(792, 799)] == [False] + [True] * 5 + [False]


class TestGeometryCommands:
    def test_triangle(self, capsys):
        code, out, _ = run(capsys, "triangle", "--triple", "5,2,1",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["vertices"] == [["0", "0"], ["5/2", "0"], ["1/10", "2/5"]]
        assert payload["central_point"] == ["1/6", "1/3"]
        assert payload["minimizer"] == [0, 1]

    def test_width_of_triple(self, capsys):
        code, out, _ = run(capsys, "width", "--triple", "433,29,5")
        assert code == 0 and "145/433" in out

    def test_width_of_polygon_file(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(json.dumps([["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]))
        code, out, _ = run(capsys, "width", "--polygon", str(path))
        assert code == 0 and out.splitlines()[2].startswith("1")

    @pytest.mark.parametrize("polygon, message", [
        *(pytest.param([[0, 0], [1, 0], [0, bad]],
                       f"coordinates must be ints or rational strings, got {bad!r}",
                       id=str(bad))
          for bad in (0.001, True, None, "1/0", "x")),
        # vertices that are not [x, y] pairs, which once unpacked into two
        # coordinates (or crashed on a third)
        pytest.param(["00", "10", "01"], "[x, y] pairs", id="string-vertices"),
        pytest.param({"00": 0, "10": 0, "01": 0}, "[x, y] pairs", id="object"),
        pytest.param([[0, 0], [1, 0], ["0", "1", "7"]], "[x, y] pairs",
                     id="three-coordinates"),
    ])
    def test_width_rejects_inexact_coordinates(self, capsys, tmp_path, polygon, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(polygon))
        code, out, err = run(capsys, "width", "--polygon", str(path))
        assert code == 2 and out == "" and err.startswith("mbl: ") and message in err

    def test_width_accepts_ints_and_rational_strings(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([[0, 0], ["1", 0], [0, "1/2"]]))
        code, out, _ = run(capsys, "width", "--polygon", str(path),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["vertices"] == [["0", "0"], ["1", "0"], ["0", "1/2"]]

    def test_width_missing_file_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "width", "--polygon",
                           str(tmp_path / "absent.json"))
        assert code == 3

    def test_width_needs_one_source(self, capsys):
        code, _, _ = run(capsys, "width")
        assert code == 2

    def test_limits(self, capsys):
        code, out, _ = run(capsys, "limits", "--n", "3")
        assert code == 0 and "sqrt(221)" in out

    def test_limits_k_is_json_only(self, capsys):
        code, out, err = run(capsys, "limits", "--n", "3", "--k", "5")
        assert code == 2 and out == "" and "--format json" in err
        code, out, _ = run(capsys, "limits", "--n", "3", "--k", "5", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["rows"][2]["first_capacities"]) == 5


class TestFormatOnlyRendering:
    """Each row command renders only the format asked for."""

    @staticmethod
    def refuse(*args):
        raise AssertionError("rendered for a format that was not asked for")

    def test_json_formats_no_surd(self, capsys, monkeypatch):
        _, expected, _ = run(capsys, "limits", "--n", "40", "--format", "json")
        monkeypatch.setattr(mbl.capacity.QuadraticValue, "__str__", self.refuse)
        code, out, _ = run(capsys, "limits", "--n", "40", "--format", "json")
        assert code == 0 and out == expected

    def _limits_450_from_integers(self, capsys, monkeypatch, fmt):
        # no surd, limit or Lagrange value and no Fraction is built for the
        # rows, and the bytes are the pinned ones
        monkeypatch.setattr(mbl.capacity.QuadraticValue, "__init__", self.refuse)
        monkeypatch.setattr(Fraction, "__new__", self.refuse)
        for module in (mbl.capacity, mbl.ordering, mbl.cli, mbl.suites):
            for name in ("limit_point", "lagrange_number"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, self.refuse)
        digest = next(digest for command, fmt_, _, digest in _ORDER_SCALE_DIGESTS
                      if (command, fmt_) == ("limits --n 450", fmt))
        code, out, _ = run(capsys, "limits", "--n", "450", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @staticmethod
    def _complete_t44(capsys, fmt):
        digest = next(digest for command, fmt_, _, digest in _ORDER_SCALE_DIGESTS
                      if (command, fmt_) == (f"complete --threshold {_T44} --n-max 450", fmt))
        code, out, _ = run(capsys, "complete", "--threshold", _T44, "--n-max", "450",
                           "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_complete_json_formats_no_preview(self, capsys, monkeypatch):
        # the threshold's preview is built for the text alone
        monkeypatch.setattr(mbl.ordering, "_preview", self.refuse)
        self._complete_t44(capsys, "json")

    def test_complete_text_renders_the_certificate(self, capsys, monkeypatch):
        # the threshold line and its preview read the digits the JSON writes,
        # so the threshold converts to decimal once
        monkeypatch.setattr(Fraction, "__str__", self.refuse)
        self._complete_t44(capsys, "text")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("source", [("--triple", "29,5,2"), ("--polygon", "skew.json")])
    def test_width_previews_once(self, capsys, monkeypatch, tmp_path, fmt, source):
        (tmp_path / "skew.json").write_text(
            json.dumps([["5607/145", "1791/145"], ["5491/10", "1933/10"], [1, -1]]))
        monkeypatch.chdir(tmp_path)
        calls = []
        real = mbl.commands._preview
        monkeypatch.setattr(mbl.commands, "_preview",
                            lambda *args: calls.append(args) or real(*args))
        code, _, _ = run(capsys, "width", *source, "--format", fmt)
        assert code == 0 and len(calls) == 1

    def test_json_builds_no_value_objects(self, capsys, monkeypatch):
        self._limits_450_from_integers(capsys, monkeypatch, "json")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_text_and_csv_build_no_value_objects(self, capsys, monkeypatch, fmt):
        # the cells come from the closed forms, as the JSON rows do
        self._limits_450_from_integers(capsys, monkeypatch, fmt)

    def test_ordering_commands_build_no_markov_triple(self, capsys, monkeypatch):
        # the walk's int triples serve the rows, the scan and the certificate:
        # on a fresh walk `_check` runs once per apex it hands out, and nowhere else
        checked = []
        real = mbl.markov._check
        monkeypatch.setattr(mbl.markov, "_check", lambda *t: checked.append(t) or real(*t))
        for argv, count in ((["limits", "--n", "450", "--format", "json"], 450),
                            # the scan's window runs 7 numbers past n_max
                            (["complete", "--threshold", "7/20", "--n-max", "450"], 457),
                            (["irregularities", "--n-max", "450", "--fixture"], 457)):
            walk = MarkovWalk()
            monkeypatch.setattr(mbl.markov, "markov_prefix", walk.prefix)
            monkeypatch.setattr(mbl.ordering, "markov_prefix", walk.prefix)
            checked.clear()
            assert run(capsys, *argv)[0] == 0
            assert checked == walk._apexes and len(checked) == count, argv

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize("command", ["widths", "triples --max-bound 100",
                                         "subtree --triple 29,5,2 --preserve 5 --depth 2",
                                         "order --triple 5,2,1 --depth 3"])
    def test_width_cells_read_the_json_row(self, capsys, monkeypatch, command, fmt):
        # each width and its preview are written from the digits of its JSON
        # row, so no cell writes a Fraction
        digest = next(digest for command_, fmt_, _, digest in _ROW_TABLE_DIGESTS
                      if (command_, fmt_) == (command, fmt))
        monkeypatch.setattr(Fraction, "__str__", self.refuse)
        code, out, _ = run(capsys, *command.split(), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_text_and_csv_build_no_json_rows(self, capsys, monkeypatch, fmt):
        _, expected, _ = run(capsys, "limits", "--n", "40", "--format", fmt)
        monkeypatch.setattr(mbl.ordering.SpectrumRow, "json_text", self.refuse)
        code, out, _ = run(capsys, "limits", "--n", "40", "--format", fmt)
        assert code == 0 and out == expected


def _fraction_text(pair):
    return str(Fraction(int(pair["num"]), int(pair["den"])))


def _decimal_text(pair):  # 12 significant digits, in a context of this test's own
    return str(decimal.Context(prec=12).divide(decimal.Decimal(pair["num"]),
                                               decimal.Decimal(pair["den"])))


def _triple_text(t):
    return f"({t['a']},{t['b']},{t['c']})"


def _surd_text(surd):  # q + s*sqrt(r), each part as str(Fraction) writes it
    q, s, r = (Fraction(int(surd[k]["num"]), int(surd[k]["den"])) for k in "qsr")
    root = f"sqrt({r})" if abs(s) == 1 else f"{abs(s)}*sqrt({r})"
    if q == 0:
        return root if s > 0 else f"-{root}"
    return f"{q} {'+' if s > 0 else '-'} {root}"


def _width_cells(row):
    return [_triple_text(row["triple"]), _fraction_text(row["width"]),
            _decimal_text(row["width"])]


#: One argv per table command, its exit code, and the cells of one JSON row,
#: written here from the row's fields alone.
_TABLE_CELLS = [
    ("widths", 0, _width_cells),
    ("triples --max-bound 100", 0, lambda row: [
        _triple_text(row["triple"]), str(row["depth"]), _fraction_text(row["width"])]),
    ("subtree --triple 29,5,2 --preserve 5 --depth 2", 0,
     lambda row: [str(row["depth"]), *_width_cells(row)]),
    ("order --triple 5,2,1 --depth 3", 0, lambda row: [str(row["rank"]), *_width_cells(row)]),
    ("limits --n 5", 0, lambda row: [
        str(row["n"]), row["m"], row["b"] + ("*" if row["degenerate_b"] else ""),
        _surd_text(row["lagrange"]), _surd_text(row["limit"]), rounded_limit(int(row["m"]))]),
    *((f"irregularities --n-max {n_max}", 0, lambda row: [
        str(row["n"]), str(row["span"]), str(row["n_prime"]),
        "yes" if row["swap_verified"] else "NO", row["kind"]])
      for n_max in ("40", "450 --fixture")),
    *((f"ingest --kind markov --n {n}", code, lambda row: [
        row["kind"], row["sequence_id"], str(row["n"]), row["source"],
        "ok" if row["ok"] else f"MISMATCH at {row['first_mismatch']['index']}"])
      for n, code in (("10", 0), ("8 --bfile doctored.txt", 1))),
]


class TestOneRowEveryFormat:
    """A table's text and CSV cells are its JSON rows' fields, written out."""

    @staticmethod
    def text_cells(out):
        # each column starts where its run of dashes under the header does
        header, dashes, *lines = out.splitlines()
        spans = [m.span() for m in re.finditer("-+", dashes)]
        return [[line[start:end].rstrip() for start, end in spans]
                for line in [header, *lines] if not line.startswith("# ")]

    @pytest.mark.parametrize("command, code, cells", _TABLE_CELLS,
                             ids=[command for command, _, _ in _TABLE_CELLS])
    def test_text_csv_and_json_agree(self, capsys, monkeypatch, tmp_path, command, code, cells):
        (tmp_path / "doctored.txt").write_text(
            "1 1\n2 2\n3 5\n4 13\n5 30\n6 34\n7 89\n8 169\n")
        monkeypatch.chdir(tmp_path)
        outputs = {}
        for fmt in ("text", "csv", "json"):
            code_, outputs[fmt], _ = run(capsys, *command.split(), "--format", fmt)
            assert code_ == code
        rows = json.loads(outputs["json"])["rows"]
        table = list(csv.reader(io.StringIO(outputs["csv"])))
        assert self.text_cells(outputs["text"]) == table
        assert table[1:] == [cells(row) for row in rows] and rows
        if command == "widths":
            assert [row["preview"] for row in rows] == [_decimal_text(row["width"])
                                                        for row in rows]
        if command.startswith("limits"):
            assert [row["preview"] for row in rows] == [row[-1] for row in table[1:]]


_JSON_TEXT = st.text(st.characters(codec="utf-8"), max_size=12) | st.sampled_from(
    ["", "\"", "\\", "\n\t\r\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", "a\"b\\c"])
_JSON_SCALARS = (st.none() | st.booleans() | st.sampled_from([0, 1, -1])
                 | st.integers(-10 ** 300, 10 ** 300) | _JSON_TEXT)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=30,
)


class TestJsonText:
    """The payload writer against json.dumps(indent=2, sort_keys=True)."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert mbl.report._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_bools_next_to_their_ints(self):
        value = {"b": [True, 1, False, 0], "a": {"": None, "z": [], "y": {}}, "c": ()}
        assert mbl.report._json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_values_that_write_themselves(self):
        # a row writes the bytes of its JSON object at the indent it is given
        rows = mbl.ordering.spectrum_rows(3, k=2)
        value = {"rows": rows, "deeper": [[rows[0]]]}
        plain = {"rows": [json.loads(row.json_text("\n")) for row in rows],
                 "deeper": [[json.loads(rows[0].json_text("\n"))]]}
        assert mbl.report._json_text(value) == json.dumps(plain, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        1.5, [0.0], {"x": Fraction(1, 3)}, {1, 2}, {"a": [frozenset()]}, {1: "one"},
        {"a": {2: 3}},
    ])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            mbl.report._json_text(value)


def _raise(exc):
    raise exc


def _short_root_base(real):
    def build(t, *u):  # the root's triangle under (x, y) -> (-y, x + y): still of
        # width 1 along (0, 1), but the vertex read as (ell, 0) is (0, 1), so
        # its base reads as shorter than 1
        tri = real(t, *u)
        if t == (1, 1, 1):
            return mbl.suites.apply_unimodular((0, -1, 1, 1, (0, 1), (0, 1)), tri)
        return tri
    return build


def _doubling_map(m, polygon):  # scales every polygon by 2, so its width doubles
    return convex_polygon(polygon[0], [(2 * x, 2 * y) for x, y in polygon[1]])


_DESCENT_FAILURE = "capacity descent fails below (13,5,1): needs b > c and 3ac > 2b"


def _descent_fails_at(*triple):  # the helper refusing one apex, in its own words
    return lambda real: lambda t: (_raise(VerificationError(_DESCENT_FAILURE))
                                   if t == triple else real(t))


_descent_fails_at_13_5_1 = _descent_fails_at(13, 5, 1)


def _gcd_fails_at(*pair):  # math as mbl.suites reads it, with one gcd of 2
    return lambda real: SimpleNamespace(
        gcd=lambda x, y: 2 if (x, y) == pair else real.gcd(x, y), isqrt=real.isqrt)


MIN, MAX = MutationKind.ELIMINATE_MIN, MutationKind.ELIMINATE_MAX
PAST_THE_OLD_CAPS = 10 ** 30

# (suite, check, collaborator read from mbl.suites, its broken form given the
# real one, the witness of the FAIL line, the --max-bound); --n-max 40
_BROKEN_CHECKS = [
    ("markov", "mutation-involution", "mutate",  # (2,1,1) never leads back to the root
     lambda real: lambda t, kind: t if (t, kind) == ((2, 1, 1), MAX) else real(t, kind),
     "(1,1,1) ELIMINATE_MIN", 30),
    ("markov", "mutation-monotonicity", "mutate",
     lambda real: lambda t, kind: (2, 1, 1) if (t, kind) == ((5, 2, 1), MIN)
     else real(t, kind),
     "(5,2,1)", 30),
    ("markov", "pairwise-coprimality", "math", _gcd_fails_at(13, 5), "(13,5,1)", 30),
    ("capacity", "width-bounds", "width",
     lambda real: lambda t: (1, 3) if t == (5, 2, 1) else real(t), "(5,2,1)", 30),
    ("capacity", "limit-gaps", "_above_limit",  # 2/5 read against the limit of 1
     lambda real: lambda num, den, m: (num, den, m) != (2, 5, 1) and real(num, den, m),
     "gap at (5,2,1) is not positive", 30),
    ("ordering", "chain-interleaving", "descent_integers", _descent_fails_at_13_5_1,
     "(13,5,1)", 30),
    ("ordering", "chain-inequalities", "descent_integers", _descent_fails_at_13_5_1,
     "(13,5,1)", 30),
    ("ordering", "alternating-descent", "descent_integers", _descent_fails_at_13_5_1,
     _DESCENT_FAILURE, 30),
    ("lattice", "lattice-width-equals-capacity", "width",  # 5/13 + 1
     lambda real: lambda t: (18, 13) if t == (13, 5, 1) else real(t), "(13,5,1)", 30),
    ("lattice", "triangle-invariants", "vianna_triangle", _short_root_base, "(1,1,1)", 30),
    ("lattice", "shear-and-inscribed", "inscribed_right_triangle",  # (13,5,1)'s needs no shear
     lambda real: lambda tri: tri != vianna_triangle((13, 5, 1)) and real(tri),
     "(13,5,1)", 30),
    ("lattice", "alg-lemma", "check_alg_lemma",
     lambda real: lambda t: t != (13, 5, 1) and real(t), "(13,5,1)", 30),
    ("lattice", "unimodular-invariance", "apply_unimodular",
     lambda real: _doubling_map, "(5,2,1)", 30),
    # every triple-walking check reaches the bound it is given: each of these
    # triples lies past a cap the suites once put on it (10^4, or 10^6 for
    # width-bounds)
    ("markov", "pairwise-coprimality", "math",  # the pair's first triple is the witness
     _gcd_fails_at(10946, 4181), "(10946,4181,1)", PAST_THE_OLD_CAPS),
    ("capacity", "width-bounds", "width",
     lambda real: lambda t: (1, 3) if t == (1136689, 195025, 2) else real(t),
     "(1136689,195025,2)", PAST_THE_OLD_CAPS),
    ("capacity", "surd-identity", "surd_identity_check",
     lambda real: lambda t: t != (14701, 169, 29) and real(t), "(14701,169,29)", 10 ** 6),
    ("ordering", "chain-interleaving", "descent_integers", _descent_fails_at(10946, 4181, 1),
     "(10946,4181,1)", PAST_THE_OLD_CAPS),
    ("lattice", "lattice-width-equals-capacity", "width",  # 4181/10946 + 1
     lambda real: lambda t: (15127, 10946) if t == (10946, 4181, 1) else real(t), "(10946,4181,1)",
     PAST_THE_OLD_CAPS),
]


class TestVerifyAndComplete:
    # the checks of the ordering suite made before its irregularity scan
    BEFORE_SCAN = ("chain-interleaving", "chain-inequalities", "alternating-descent",
                   "row-anchors")

    def test_markov_suite_trivial_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "markov",
                           "--max-bound", "1")
        assert code == 0 and "all suites passed" in out

    def test_lattice_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lattice",
                           "--max-bound", "100")
        assert code == 0

    def test_ingest_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "ingest",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_ingest_suite_loads_each_bfile_once(self, capsys, monkeypatch):
        real, kinds = mbl.suites.oeis.load_bfile, []

        def counted(kind, *args, **kwargs):
            kinds.append(kind)
            return real(kind, *args, **kwargs)

        monkeypatch.setattr(mbl.suites.oeis, "load_bfile", counted)
        code, _, _ = run(capsys, "verify", "--suite", "ingest")
        assert code == 0 and sorted(kinds) == ["fibonacci", "markov", "pell"]

    def test_capacity_and_ordering_build_no_surd_values(self, capsys, monkeypatch):
        # both suites decide on integers: the class and lagrange_number are
        # left only for the bench tracer
        argv = ("verify", "--suite", "capacity", "--suite", "ordering", "--n-max", "40")
        _, expected, _ = run(capsys, *argv)

        def refuse(*args):
            raise AssertionError("a surd value built")

        monkeypatch.setattr(mbl.capacity.QuadraticValue, "__init__", refuse)
        for module in (mbl.capacity, mbl.ordering, mbl.suites):
            if hasattr(module, "lagrange_number"):
                monkeypatch.setattr(module, "lagrange_number", refuse)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == expected

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2
        # the reports render as text or json only
        for argv in (["verify", "--format", "csv"],
                     ["complete", "--threshold", "7/20", "--format", "csv"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_mutation_closure_can_fail(self, capsys, monkeypatch):
        real = mbl.suites.mutate

        def broken(t, kind):
            if t == (1, 1, 1) and kind is MutationKind.ELIMINATE_MAX:
                raise ValueError("mutation left the solution set")
            return real(t, kind)

        monkeypatch.setattr(mbl.suites, "mutate", broken)
        code, out, _ = run(capsys, "verify", "--suite", "markov",
                           "--max-bound", "30", "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["suites"]["markov"]["checks"]}
        assert not checks["mutation-closure"]["passed"]
        assert checks["mutation-closure"]["witness"] == "(1,1,1) ELIMINATE_MAX"
        for name in ("mutation-involution", "mutation-monotonicity",
                     "pairwise-coprimality"):
            assert checks[name]["passed"] and checks[name]["witness"] == ""
        # the text report, with its FAIL line and witness, is pinned too
        code, out, _ = run(capsys, "verify", "--suite", "markov", "--max-bound", "30")
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0d7f3b0c158c70a0677ba4e30b0bb0e494abd10acc5d23f9f4c9de3ca3d108ce")

    def test_mutation_closure_failure_keeps_every_check(self, capsys, monkeypatch):
        # a mutation failing below the root ends no check: monotonicity reads
        # the children closure built, and the involution of (29,5,2), which
        # needs the broken mutation to come back, fails on its own
        real = mbl.suites.mutate

        def broken(t, kind):
            if t == (5, 2, 1) and kind is MutationKind.ELIMINATE_MIN:
                raise ValueError("mutation left the solution set")
            return real(t, kind)

        monkeypatch.setattr(mbl.suites, "mutate", broken)
        code, out, _ = run(capsys, "verify", "--suite", "markov", "--max-bound", "30")
        assert code == 1
        assert out.splitlines() == [
            "FAIL  markov:mutation-closure  [(5,2,1) ELIMINATE_MIN]",
            "FAIL  markov:mutation-involution  [(29,5,2) ELIMINATE_MAX]",
            "PASS  markov:mutation-monotonicity",
            "PASS  markov:pairwise-coprimality",
            "PASS  markov:brute-force-equivalence",
            "PASS  markov:uniqueness",
            "FAILURES above",
        ]

    def test_the_involution_tries_the_likely_inverse_first(self, capsys, monkeypatch):
        # max undoes min and mid, and mid or min undoes max: 5,656 calls for
        # the 893 triples below 10^30, where trying every kind in order made 9,526
        calls = []
        real = mbl.suites.mutate
        monkeypatch.setattr(mbl.suites, "mutate", lambda t, kind: calls.append(t) or real(t, kind))
        code, out, _ = run(capsys, "verify", "--suite", "markov",
                           "--max-bound", str(PAST_THE_OLD_CAPS))
        assert code == 0 and len(calls) == 5656

    @pytest.mark.parametrize(
        "suite, check, name, broken, witness, bound", _BROKEN_CHECKS,
        ids=[check if bound == 30 else f"{check}-bound-1e{len(str(bound)) - 1}"
             for _, check, _, _, _, bound in _BROKEN_CHECKS])
    def test_each_check_can_fail(self, capsys, monkeypatch, suite, check, name,
                                 broken, witness, bound):
        monkeypatch.setattr(mbl.suites, name, broken(getattr(mbl.suites, name)))
        code, out, _ = run(capsys, "verify", "--suite", suite,
                           "--max-bound", str(bound), "--n-max", "40")
        assert code == 1
        assert f"FAIL  {suite}:{check}  [{witness}]" in out.splitlines()

    def test_limit_gaps_reach_depth_ten_below_the_root(self, capsys, monkeypatch):
        # (10946,4181,1), the root's level-10 node, is the only node refused
        real = mbl.suites._above_limit
        monkeypatch.setattr(mbl.suites, "_above_limit", lambda num, den, m:
                            (num, den, m) != (4181, 10946, 1) and real(num, den, m))
        code, out, _ = run(capsys, "verify", "--suite", "capacity")
        assert code == 1
        assert "FAIL  capacity:limit-gaps  [gap at (10946,4181,1) is not positive]" in out

    def test_descent_failure_path(self, capsys, monkeypatch):
        # one apex refused by the descent helper, as each command reports it;
        # the suite reads its own binding, the ordering commands that of mbl.ordering
        monkeypatch.setattr(mbl.suites, "descent_integers",
                            _descent_fails_at_13_5_1(mbl.suites.descent_integers))
        code, out, _ = run(capsys, "verify", "--suite", "ordering",
                           "--max-bound", "30", "--n-max", "40")
        failed = [line for line in out.splitlines() if line.startswith("FAIL  ")]
        assert code == 1 and failed == [
            "FAIL  ordering:chain-interleaving  [(13,5,1)]",
            "FAIL  ordering:chain-inequalities  [(13,5,1)]",
            f"FAIL  ordering:alternating-descent  [{_DESCENT_FAILURE}]",
        ]
        monkeypatch.setattr(mbl.ordering, "descent_integers",
                            _descent_fails_at_13_5_1(mbl.ordering.descent_integers))
        code, out, err = run(capsys, "order", "--triple", "13,5,1", "--depth", "2")
        assert (code, out) == (1, "")
        assert err == f"mbl: verification failure: {_DESCENT_FAILURE}\n"
        code, out, _ = run(capsys, "complete", "--threshold", "7/20", "--n-max", "40")
        lines = out.splitlines()
        assert code == 1 and "certified: False" in lines
        assert [line for line in lines if line.startswith("FAILURE:")] == [
            f"FAILURE: {_DESCENT_FAILURE}"]

    def test_repeated_suite_runs_once(self, capsys):
        code, once, _ = run(capsys, "verify", "--suite", "markov", "--max-bound", "30")
        twice_code, twice, _ = run(capsys, "verify", "--suite", "markov",
                                   "--suite", "markov", "--max-bound", "30")
        assert (code, twice_code) == (0, 0)
        assert twice == once

    def test_surd_identity_failure_is_named(self, capsys, monkeypatch):
        real = mbl.suites.surd_identity_check

        def broken(t):  # the identity fails at (433,29,5) alone
            return t != (433, 29, 5) and real(t)

        monkeypatch.setattr(mbl.suites, "surd_identity_check", broken)
        code, out, _ = run(capsys, "verify", "--suite", "capacity",
                           "--max-bound", "1000")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL  capacity:surd-identity  [(433,29,5)]" in lines
        for name in ("width-bounds", "limit-gaps", "spectrum-values"):
            assert any(line.endswith(f"capacity:{name}") for line in lines)

    @pytest.mark.parametrize("error", [ValueError, VerificationError])
    def test_error_inside_suite_is_a_failed_check(self, capsys, monkeypatch, error):
        def raising(n_max):
            raise error("scan broke")

        monkeypatch.setattr(mbl.suites, "find_irregularities", raising)
        code, out, _ = run(capsys, "verify", "--suite", "ordering",
                           "--max-bound", "30", "--n-max", "40", "--format", "json")
        assert code == 1
        suite = json.loads(out)["suites"]["ordering"]
        # the checks made before the scan stay in the report
        assert suite == {"passed": False, "checks": [
            *({"name": name, "passed": True, "witness": ""} for name in self.BEFORE_SCAN),
            {"name": "completed", "passed": False,
             "witness": f"{error.__name__}: scan broke"}]}

    def test_span_3_refusal_keeps_the_checks_made(self, capsys):
        refusal = ("VerificationError: irregularity at (n=794, n'=797) spans 3 "
                   "sequences; outside the catalogued patterns")
        argv = ["verify", "--suite", "ordering", "--n-max", "800", "--max-bound", "30"]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.splitlines() == [
            *(f"PASS  ordering:{name}" for name in self.BEFORE_SCAN),
            f"FAIL  ordering:completed  [{refusal}]", "FAILURES above"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1
        assert json.loads(out)["suites"]["ordering"]["checks"] == [
            *({"name": name, "passed": True, "witness": ""} for name in self.BEFORE_SCAN),
            {"name": "completed", "passed": False, "witness": refusal}]

    @pytest.mark.parametrize("argv, code", [
        (("--suite", "ordering", "--n-max", "800", "--max-bound", "30"), 1),
        (("--suite", "capacity"), 0),
    ])
    def test_text_renders_the_json_report(self, capsys, argv, code):
        # check for check, in the report's order, a witness beside each failure
        text_code, text, _ = run(capsys, "verify", *argv)
        json_code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert text_code == json_code == code
        report = json.loads(out)
        lines = [f"{'PASS' if check['passed'] else 'FAIL'}  {suite}:{check['name']}"
                 + (f"  [{check['witness']}]" if check["witness"] and not check["passed"]
                    else "")
                 for suite, result in report["suites"].items() for check in result["checks"]]
        assert any(not check["passed"] and check["witness"]
                   for result in report["suites"].values()
                   for check in result["checks"]) == (code == 1)
        assert text.splitlines() == [
            *lines, "all suites passed" if report["passed"] else "FAILURES above"]

    def test_early_record_fails_the_regular_prefix(self, capsys, monkeypatch):
        checked = [_row(5, 1, True), _row(7, 2, True)]
        monkeypatch.setattr(mbl.suites, "find_irregularities", lambda n_max: checked)
        code, out, _ = run(capsys, "verify", "--suite", "ordering",
                           "--max-bound", "30", "--n-max", "40", "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["suites"]["ordering"]["checks"]}
        failed = [name for name, c in checks.items() if not c["passed"]]
        assert failed == ["regular-prefix"]
        assert checks["regular-prefix"]["witness"] == "(n,n')=(5,6)"  # the first record
        # the suite reads each swap verdict off the scan
        assert checks["swap-patterns"] == {
            "name": "swap-patterns", "passed": True, "witness": "2 records"}

    def test_a_rejected_swap_fails_the_swap_patterns(self, capsys, monkeypatch):
        checked = [_row(33, 1, True), _row(37, 1, False)]
        monkeypatch.setattr(mbl.suites, "find_irregularities", lambda n_max: checked)
        code, out, _ = run(capsys, "verify", "--suite", "ordering",
                           "--max-bound", "30", "--n-max", "40")
        failed = [line for line in out.splitlines() if line.startswith("FAIL  ")]
        assert code == 1 and failed == ["FAIL  ordering:swap-patterns  [2 records]"]

    def test_regular_prefix_scans_to_32_below_it(self, capsys, monkeypatch):
        # the check stands for every pair with n <= 32, whatever --n-max is
        injected = [_row(20, 1, True)]
        monkeypatch.setattr(mbl.suites, "find_irregularities",
                            lambda n_max: [row for row in injected if row["n"] <= n_max])
        code, out, _ = run(capsys, "verify", "--suite", "ordering",
                           "--max-bound", "30", "--n-max", "10")
        assert code == 1
        assert "FAIL  ordering:regular-prefix  [(n,n')=(20,21)]" in out.splitlines()

    def test_removed_flags_are_usage_errors(self):
        # per-sequence b-files go through `ingest --bfile`, the stored
        # catalogue through `irregularities --n-max 450 --fixture`
        for flags in (["--bfile", "x"], ["--fixture"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["verify", *flags])
            assert excinfo.value.code == 2

    def test_nonpositive_bounds_are_usage_errors(self, capsys):
        for flag in ("--n-max", "--max-bound"):
            code, out, _ = run(capsys, "verify", "--suite", "markov", flag, "0")
            assert code == 2 and out == ""

    def test_aggregate_equals_conjunction(self, capsys):
        bounds = ["--max-bound", "500", "--n-max", "36"]
        code, out, _ = run(capsys, "verify", "--format", "json", *bounds)
        combined = json.loads(out)
        assert (code == 0) == combined["passed"]
        for name, suite in combined["suites"].items():
            single_code, single_out, _ = run(
                capsys, "verify", "--suite", name, "--format", "json", *bounds)
            single = json.loads(single_out)
            assert single["suites"][name]["passed"] == suite["passed"]
            assert (single_code == 0) == suite["passed"]

    def test_complete_certifies(self, capsys):
        code, out, _ = run(capsys, "complete", "--threshold", "7/20",
                           "--n-max", "10")
        assert code == 0 and "certified: True" in out

    # at 17/50 with n_max 1, sequence 2 (m = 2), beyond n_max, still reaches the threshold
    @pytest.mark.parametrize("threshold, n_max, code", [("7/20", "10", 0), ("17/50", "1", 1)])
    def test_complete_writes_the_certificate_it_is_given(self, capsys, threshold, n_max, code):
        certificate = mbl.ordering.ordered_prefix_complete_above(
            Fraction(threshold).as_integer_ratio(), int(n_max))
        assert certificate["certified"] is (code == 0)
        assert run(capsys, "complete", "--threshold", threshold, "--n-max", n_max,
                   "--format", "json") == (code, mbl.report._json_text(certificate) + "\n", "")

    def test_complete_rejects_one_third(self, capsys):
        code, _, err = run(capsys, "complete", "--threshold", "1/3",
                           "--n-max", "10")
        assert code == 2 and "accumulation" in err


class TestPlot:
    def test_deterministic_bytes(self, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        assert main(["plot", "--figure", "order5", "--out", str(first)]) == 0
        assert main(["plot", "--figure", "order5", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().startswith(b"<svg")

    def test_stdout_gets_the_bytes_of_the_out_file(self, capsysbinary, tmp_path):
        out = tmp_path / "order5.svg"
        assert main(["plot", "--figure", "order5", "--out", str(out)]) == 0
        assert main(["plot", "--figure", "order5"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_single_chain_subtree_bytes_are_pinned(self, tmp_path):
        # (2,1,1) and (1,1,1) are degenerate: one chain below each; the
        # default (5,2,1) has two, and (29,5,2) at depth 0 only its apex
        for flags, digest in [
            (["--triple", "2,1,1"],
             "c43f3d5b5e5694ed319d664fb71b2bc2918305567cf0dbb33e7f9353f1eb314f"),
            ([], "bc0a0dd74cbe8c53d11f36903dda7666239962b2c75842871154ca3144de4605"),
            (["--triple", "29,5,2", "--depth", "0"],
             "c92f44ab9e96efe69b00182b238cf754ac84c5c672f29a25b83934569e8c9aff"),
            (["--triple", "1,1,1", "--depth", "5"],
             "8ada9fcd15cb915898aacd81f1b0b93713dcf8c614aa0cf5329d439c8f367d34"),
        ]:
            out = tmp_path / "chain.svg"
            assert main(["plot", "--figure", "order5", *flags, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, flags

    def test_triangle_figure(self, tmp_path):
        out = tmp_path / "tri.svg"
        assert main(["plot", "--figure", "triangle", "--triple", "1,1,1",
                     "--out", str(out)]) == 0
        blob = out.read_text()
        assert "(1/3, 1/3)" in blob

    @pytest.mark.parametrize("flags, digest", [
        ("--triple 1,1,1",
         "65110dec9743eb77e479548c29cd3f7cc7544db7a1b036c69994c2baadd56a9f"),
        ("--triple 2,1,1",
         "9dea88625b00fb5e9e70fb48c7e7a9003a5a6afbbc21c845e5fb4588e1bb2462"),
        ("--triple 5,2,1",
         "fe38abcf079a5aeba9a69af1980bd41212df73ee64a4edab62d4ea916e3d1fb7"),
        ("--triple 433,29,5 --delta 1/5",
         "4caac6fc3f48c7d611a0cee4b7f85fddb5b9dd41430f2afc1fbac8421dedb3c3"),
    ])
    def test_triangle_figure_bytes_are_pinned(self, tmp_path, flags, digest):
        out = tmp_path / "tri.svg"
        assert main(["plot", "--figure", "triangle", *flags.split(),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_numberline_figure(self, tmp_path):
        out = tmp_path / "n33.svg"
        assert main(["plot", "--figure", "numberline", "--n", "33",
                     "--out", str(out)]) == 0
        assert "swapped" in out.read_text()

    @pytest.mark.parametrize("n, digest", [
        (33, "84afe8f82fbfc4b34e9d6547e81561a01dcbd26f505ef156745574877d73160e"),
        (369, "21d5bf871a0e4b5477fa5c1ff58690bbab7596b0691fa379215dfa4f5afa343b"),
    ])
    def test_numberline_figure_bytes_are_pinned(self, tmp_path, n, digest):
        out = tmp_path / "numberline.svg"
        assert main(["plot", "--figure", "numberline", "--n", str(n),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_numberline_regular_index_rejected(self, capsys):
        for n in (10, 792):  # a scan to 792 + 3 meets the span-3 refusal at 794
            code, _, err = run(capsys, "plot", "--figure", "numberline", "--n", str(n))
            assert code == 2 and err == f"mbl: no irregularity at n={n}\n"

    def test_unknown_figure(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", "--figure", "spiral"])
        assert excinfo.value.code == 2
        for fmt in ("text", "json", "csv"):  # figures are always SVG
            with pytest.raises(SystemExit) as excinfo:
                main(["plot", "--figure", "order5", "--format", fmt])
            assert excinfo.value.code == 2


class TestIngestCommand:
    def test_offline_vendored(self, capsys):
        code, out, _ = run(capsys, "ingest", "--n", "100")
        assert code == 0 and "vendored" in out

    @pytest.mark.parametrize("argv", ["ingest --fetch", "ingest --kind markov --cache-dir d",
                                      "verify --cache-dir d"])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        # the vendored b-files and --bfile are the only sources
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_n_past_the_bfile_is_refused_before_generating(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("generated before the b-file's length was checked")

        monkeypatch.setattr(mbl.oeis, "markov_numbers", refuse)
        monkeypatch.setattr(mbl.oeis, "recurrence_prefix", refuse)
        for kind, n in (("markov", 100000), ("fibonacci", 5000), ("pell", 40000)):
            code, out, err = run(capsys, "ingest", "--kind", kind, "--n", str(n))
            assert (code, out) == (2, "")
            assert err == f"mbl: b-file for {kind} (vendored) is shorter than n={n}\n"

    def test_doctored_bfile_fails(self, capsys, tmp_path):
        doctored = tmp_path / "bad.txt"
        numbers = markov_numbers(10)
        lines = [f"{i + 1} {m}\n" for i, m in enumerate(numbers)]
        lines[2] = "3 6\n"
        doctored.write_text("".join(lines))
        code, out, _ = run(capsys, "ingest", "--kind", "markov", "--n", "10",
                           "--bfile", str(doctored))
        assert code == 1 and "MISMATCH" in out

    def test_bfile_needs_one_kind(self, capsys):
        fibonacci_file = str(Path(mbl.cli.__file__).parent / "data" / "b000045.txt")
        code, out, err = run(capsys, "ingest", "--bfile", fibonacci_file, "--n", "20")
        assert code == 2 and out == "" and "--kind" in err
        code, out, _ = run(capsys, "ingest", "--kind", "fibonacci", "--bfile",
                           fibonacci_file, "--n", "20")
        assert code == 0 and "ok" in out
