"""b-file ingestion and cross-checks for three integer sequences.

Sequence files use the b-file wire format: ASCII lines "<index> <value>",
'#' comments and blank lines ignored, LF or CRLF.  The package vendors
prefixes for the Markov numbers (A002559), Fibonacci numbers (A000045) and
Pell numbers (A000129) under mbl/data with their BLAKE2b-256 digests; only
an explicit path (`ingest --bfile`) is read in place of a vendored file.
"""

from __future__ import annotations

import os

from . import _package_data
from .markov import markov_numbers, recurrence_prefix

SEQUENCE_IDS = {
    "markov": "A002559",
    "fibonacci": "A000045",
    "pell": "A000129",
}

#: Each kind's first index and the generator of its values from there to index
#: n; each looks its function up when called, as the bench tracer re-binds it.
_GENERATORS = {
    "markov": (1, lambda n: markov_numbers(n)),
    "fibonacci": (0, lambda n: recurrence_prefix(1, n)),
    "pell": (0, lambda n: recurrence_prefix(2, n)),
}


def parse_bfile(data: bytes) -> dict[int, int]:
    """Parse b-file bytes (UTF-8) into an index -> value map; indices must
    strictly increase, and a malformed line reports its number."""
    entries: dict[int, int] = {}
    last_index = None
    for lineno, raw in enumerate(data.decode("utf-8").splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<index> <value>', got {raw!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
        if last_index is not None and index <= last_index:
            raise ValueError(f"line {lineno}: indices must strictly increase")
        entries[index] = value
        last_index = index
    if not entries:
        raise ValueError("empty b-file")
    return entries


def _read(path: str | os.PathLike) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _vendored_bytes(kind: str) -> bytes:
    """A vendored b-file, once its BLAKE2b-256 digest matches its line in
    the `b2sum` file data/B2SUMS ("<hex digest>  <file name>")."""
    from _blake2 import blake2b  # hashlib.blake2b itself, without loading OpenSSL
    name = f"b{SEQUENCE_IDS[kind][1:]}.txt"
    blob = _package_data(name)
    line = f"{blake2b(blob, digest_size=32).hexdigest()}  {name}".encode()
    if line not in _package_data("B2SUMS").splitlines():
        raise OSError(f"vendored {name} fails its checksum: no matching line in B2SUMS")
    return blob


def load_bfile(kind: str, path: str | os.PathLike | None = None) -> dict[int, int]:
    """The index -> value map of a b-file: the file at `path` if one is
    given, its refusal naming the path, else the vendored copy."""
    if kind not in SEQUENCE_IDS:
        raise ValueError(f"unknown sequence kind {kind!r}")
    if path is None:
        return parse_bfile(_vendored_bytes(kind))
    try:
        return parse_bfile(_read(path))
    except ValueError as exc:  # malformed lines and bytes that are not UTF-8
        raise ValueError(f"bad b-file {path}: {exc}") from None


def cross_check(kind: str, n: int, entries: dict[int, int],
                source: str) -> tuple[int, int, int] | None:
    """The first (index, generated, file) where the generated sequence prefix
    and a b-file's entries differ, or None where they agree.

    For "markov" the compared indices are 1..n; for the recurrences they are
    the first n+1 file indices starting at 0.  `source` names the file in
    the refusal of one too short for n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    first, generate = _GENERATORS[kind]
    # the index range first..n is checked before any value is generated
    if any(i not in entries for i in range(first, n + 1)):
        raise ValueError(f"b-file for {kind} ({source}) is shorter than n={n}")
    for index, value in enumerate(generate(n), start=first):
        if entries[index] != value:
            return index, value, entries[index]
    return None
