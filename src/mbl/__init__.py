"""Exact arithmetic for Markov triples and their geometry.

Everything numerical is decided over arbitrary-precision integers, reduced
(num, den) integer pairs, or sign-exact quadratic surds; floating point appears
only in human-readable previews.  The package holds only what its modules
share: `_package_data`, the reader of its data files, and `_integer` and
`_rational`, the readers of every number a user writes.
"""

import os

#: The vendored b-files, their B2SUMS and the `irregularities --fixture` catalogue.
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _package_data(name: str) -> bytes:
    """The bytes of the package data file data/<name>."""
    with open(os.path.join(_DATA_DIR, name), "rb") as handle:
        return handle.read()


def _integer(text: str) -> int:
    """The int that ASCII -?[0-9]+ spells; ValueError for any other text."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _rational(text: str) -> tuple[int, int]:
    """The reduced (num, den) pair of what `Fraction` reads, p/q with q > 0 or a
    decimal like -1.5e-3, if ASCII with no whitespace, "_" or leading "+" (an
    exponent's "+" stays) and with an exponent K of size at most 10^6 (`Fraction`
    builds 10^K first); else ValueError (ZeroDivisionError for q = 0)."""
    from fractions import Fraction  # loads only where a rational is read
    if text.startswith("+") or not set(text) <= set("0123456789+-/.eE"):
        raise ValueError(f"not a rational: {text!r}")
    exponent = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if exponent.isdigit() and (len(exponent) > 7 or int(exponent) > 10 ** 6):
        raise ValueError(f"decimal exponent beyond 10^6: {text!r}")
    return Fraction(text).as_integer_ratio()
