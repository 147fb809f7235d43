"""Exact arithmetic for Markov triples and their geometry.

Everything numerical is decided over arbitrary-precision integers, reduced
(num, den) integer pairs, or sign-exact quadratic surds; floating point appears
only in human-readable previews.  The package itself holds only the reader
of its data files, which `mbl.oeis` and `irregularities --fixture` share.
"""

import os

#: The vendored b-files, their B2SUMS and the `irregularities --fixture` catalogue.
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _package_data(name: str) -> bytes:
    """The bytes of the package data file data/<name>."""
    with open(os.path.join(_DATA_DIR, name), "rb") as handle:
        return handle.read()
