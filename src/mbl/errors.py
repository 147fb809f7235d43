"""The exception `mbl` raises when a proven fact fails an exact check."""


class VerificationError(RuntimeError):
    """An exact check that is expected to always hold turned out violated.

    Raised by operations whose postconditions restate proven facts (strict
    descent of capacities, existence of the central point, ...).  Seeing this
    exception means a bug, not bad input.
    """

