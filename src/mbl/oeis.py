"""b-file ingestion and cross-checks for three integer sequences.

Sequence files use the b-file wire format: ASCII lines "<index> <value>",
'#' comments and blank lines ignored, LF or CRLF.  The package vendors
prefixes for the Markov numbers (A002559), Fibonacci numbers (A000045) and
Pell numbers (A000129) under mbl/data with their BLAKE2b-256 digests; a cache
directory (flag or MBL_CACHE_DIR) and explicit paths take precedence.
Network fetching is opt-in only, and lives with `ingest` in `mbl.commands`.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

from .errors import _Record
from .markov import markov_numbers, recurrence_prefix

SEQUENCE_IDS = {
    "markov": "A002559",
    "fibonacci": "A000045",
    "pell": "A000129",
}

_GENERATORS = {
    "markov": lambda n: {i + 1: m for i, m in enumerate(markov_numbers(n))},
    "fibonacci": lambda n: dict(enumerate(recurrence_prefix(1, n))),
    "pell": lambda n: dict(enumerate(recurrence_prefix(2, n))),
}

ENV_CACHE_DIR = "MBL_CACHE_DIR"


class BFile(_Record):
    sequence_id: str
    entries: dict[int, int]
    source: str


def parse_bfile(data: bytes, sequence_id: str, source: str) -> BFile:
    """Parse b-file bytes (UTF-8) into an index -> value map.

    Indices must be strictly increasing; malformed lines report their line
    number.
    """
    entries: dict[int, int] = {}
    last_index = None
    for lineno, raw in enumerate(data.decode("utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<index> <value>', got {raw!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-integer field in {raw!r}"
            ) from None
        if last_index is not None and index <= last_index:
            raise ValueError(f"line {lineno}: indices must strictly increase")
        entries[index] = value
        last_index = index
    if not entries:
        raise ValueError("empty b-file")
    return BFile(sequence_id, entries, source)


def _vendored_bytes(kind: str) -> bytes:
    """A vendored b-file, once its BLAKE2b-256 digest matches its line in
    the `b2sum` file data/B2SUMS ("<hex digest>  <file name>")."""
    try:  # the C module behind hashlib.blake2b, without loading OpenSSL
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b
    seq = SEQUENCE_IDS[kind]
    name = f"b{seq[1:]}.txt"
    package = resources.files("mbl") / "data"
    blob = (package / name).read_bytes()
    line = f"{blake2b(blob, digest_size=32).hexdigest()}  {name}".encode()
    if line not in (package / "B2SUMS").read_bytes().splitlines():
        raise OSError(f"vendored {name} fails its checksum: no matching line in B2SUMS")
    return blob


def _cache_path(kind: str, cache_dir: str | None) -> Path | None:
    directory = cache_dir or os.environ.get(ENV_CACHE_DIR)
    if not directory:
        return None
    seq = SEQUENCE_IDS[kind]
    return Path(directory) / f"b{seq[1:]}.txt"


def load_bfile(
    kind: str,
    path: str | os.PathLike | None = None,
    cache_dir: str | None = None,
) -> BFile:
    """Load a b-file: explicit path, then cache, then the vendored copy."""
    if kind not in SEQUENCE_IDS:
        raise ValueError(f"unknown sequence kind {kind!r}")
    seq = SEQUENCE_IDS[kind]
    if path is not None:
        return parse_bfile(Path(path).read_bytes(), seq, str(path))
    cached = _cache_path(kind, cache_dir)
    if cached is not None and cached.exists():
        return parse_bfile(cached.read_bytes(), seq, str(cached))
    return parse_bfile(_vendored_bytes(kind), seq, "vendored")


def cross_check(kind: str, n: int, bfile: BFile) -> tuple[int, int, int] | None:
    """The first (index, generated, file) where the generated sequence prefix
    and a loaded b-file's prefix differ, or None where they agree.

    For "markov" the compared indices are 1..n; for the recurrences they are
    the first n+1 file indices starting at 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    generated = _GENERATORS[kind](n)
    if any(i not in bfile.entries for i in generated):
        raise ValueError(
            f"b-file for {kind} ({bfile.source}) is shorter than n={n}"
        )
    for index, value in generated.items():
        if bfile.entries[index] != value:
            return index, value, bfile.entries[index]
    return None
