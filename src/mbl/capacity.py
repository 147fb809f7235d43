"""Exact capacities bc/a and the quadratic surds governing their limits.

The capacity of a sorted triple (a, b, c) is the rational bc/a.  Along any
branch of the subtree preserving a these capacities decrease to the
irrational value 2/(3 + sqrt(9 - 4/a^2)), so deciding orderings near the
limit needs sign-exact arithmetic on numbers of the form q + s*sqrt(r).
Differences there shrink below 10^-40; floating point never enters any
decision, only human-readable previews.  Widths and thresholds are reduced
(num, den) int pairs; `fractions` loads only in `QuadraticValue` and
`lagrange_number`, `decimal` only to print a preview: `verify` loads neither.
"""

from __future__ import annotations

import functools
import math

from .markov import is_markov_number


def _rational_sqrt(r: Fraction) -> Fraction | None:
    """sqrt(r) if r is the square of a rational, else None."""
    pn = math.isqrt(r.numerator)
    pd = math.isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        from fractions import Fraction

        return Fraction(pn, pd)
    return None


def _sign(x: int, y: int, z: int) -> int:
    """Sign of x + y*sqrt(z) for integers x, y and z >= 0."""
    if y == 0 or z == 0:
        return (x > 0) - (x < 0)
    if x == 0 or (x > 0) == (y > 0):
        return 1 if y > 0 else -1
    t = x * x - y * y * z  # opposite signs: squaring decides
    if t == 0:
        return 0
    return 1 if (t > 0) == (x > 0) else -1


class QuadraticValue:
    """An exact number q + s*sqrt(r) with rational q, s and rational r >= 0.

    No decision in `mbl` uses one: every decision runs on the integer closed
    forms and `_sign`.  The class and `lagrange_number`, which builds one,
    stay only as names the bench tracer wraps.  Canonical form folds a
    perfect-square radicand into the rational part; values compare only
    through the trichotomy `compare` and through `==`, sign-exact on the
    integers left once the denominators are cleared.
    """

    __slots__ = ("_q", "_s", "_r")

    def __init__(self, q=0, s=0, r=0):
        from fractions import Fraction

        if not all(isinstance(x, (int, Fraction)) for x in (q, s, r)):
            raise TypeError(f"expected exact rationals, got {q!r}, {s!r}, {r!r}")
        q, s, r = Fraction(q), Fraction(s), Fraction(r)
        if r < 0:
            raise ValueError(f"negative radicand {r}")
        if s == 0 or r == 0:
            q, s, r = q, Fraction(0), Fraction(0)
        else:
            root = _rational_sqrt(r)
            if root is not None:
                q, s, r = q + s * root, Fraction(0), Fraction(0)
        self._q, self._s, self._r = q, s, r

    def _cleared(self) -> tuple[int, int, int, int]:
        """Integers (A, B, R, D) with self = (A + B*sqrt(R))/D and D > 0."""
        q, s, r = self._q, self._s, self._r
        rd = r.denominator  # sqrt(r) = sqrt(r.num * r.den) / r.den
        return (q.numerator * s.denominator * rd, s.numerator * q.denominator,
                r.numerator * rd, q.denominator * s.denominator * rd)

    def compare(self, other) -> int:
        """Exact trichotomy against a rational or another QuadraticValue.

        With self = (a + b*sqrt(r))/d and other = (a2 + b2*sqrt(r2))/d2, the
        sign of self - other is that of u - v, where u = x + y*sqrt(r) with
        x = a*d2 - a2*d, y = b*d2, and v = z*sqrt(r2) with z = b2*d.
        """
        from fractions import Fraction

        a, b, r, d = self._cleared()
        if isinstance(other, QuadraticValue):
            a2, b2, r2, d2 = other._cleared()
        elif isinstance(other, (int, Fraction)):
            a2, b2, r2, d2 = other.numerator, 0, 0, other.denominator
        else:
            raise TypeError(
                f"cannot compare QuadraticValue with {type(other).__name__}")
        x, y, z = a * d2 - a2 * d, b * d2, b2 * d
        su = _sign(x, y, r)
        sv = _sign(0, z, r2)
        if su != sv:
            return 1 if su > sv else -1
        if su == 0:
            return 0
        # same strict sign: u^2 - v^2 is again a simple surd
        t = _sign(x * x + y * y * r - z * z * r2, 2 * x * y, r)
        return t if su > 0 else -t

    def __eq__(self, other):
        from fractions import Fraction

        if isinstance(other, (QuadraticValue, int, Fraction)):
            return self.compare(other) == 0
        return NotImplemented

    def __repr__(self) -> str:
        return f"QuadraticValue({self._q!r}, {self._s!r}, {self._r!r})"


def capacity_to_json(pair: tuple[int, int]) -> dict:
    return {"num": str(pair[0]), "den": str(pair[1])}


def _ratio_text(num: str, den: str) -> str:
    """The rational num/den written "num/den", or "num" where den is "1"."""
    return num if den == "1" else f"{num}/{den}"


def surd_text(parts) -> str:
    """q + s*sqrt(r) given as reduced (num, den) pairs, s != 0 and r not a
    square, with each part written as `_ratio_text` writes it:
    "3/2 - 1/2*sqrt(5)", "1/2*sqrt(32)", "-sqrt(5)"."""
    (qn, qd), (sn, sd), r = (map(str, part) for part in parts)
    sign, sn = ("-", sn[1:]) if sn[0] == "-" else ("+", sn)
    surd = f"sqrt({_ratio_text(*r)})"
    if (sn, sd) != ("1", "1"):
        surd = f"{_ratio_text(sn, sd)}*{surd}"
    if qn == "0":
        return surd if sign == "+" else "-" + surd
    return f"{_ratio_text(qn, qd)} {sign} {surd}"


@functools.cache
def _context(prec: int) -> decimal.Context:
    """The context of every printed decimal: `prec` significant digits at any
    exponent, so no preview overflows or loses digits below 1E-999999."""
    import decimal

    return decimal.Context(prec=prec, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _preview(pair: dict, digits: int = 12) -> str:
    """The rational {"num", "den"} correctly rounded to `digits` significant digits."""
    from decimal import Decimal  # from a digit string in linear time, from an int quadratic

    return str(_context(digits).divide(Decimal(pair["num"]), Decimal(pair["den"])))


def limit_decimal(m: int, digits: int = 12) -> str:
    """The limit 2m/(3m + sqrt(9m^2 - 4)) of sequence m to `digits` significant
    digits, rounded from `digits + 20`; the denominator adds two positives."""
    ctx = _context(digits + 20)
    return str(_context(digits).plus(ctx.divide(2 * m, ctx.add(3 * m, ctx.sqrt(9 * m * m - 4)))))


def width(t: tuple[int, int, int]) -> tuple[int, int]:
    """(bc, a): bc/a in lowest terms, the entries being pairwise coprime; 1 only at (1,1,1)."""
    return t[1] * t[2], t[0]


def closed_forms(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The limit point (3m^2 - m*sqrt(r))/2 and the Lagrange number sqrt(r)/m,
    r = 9m^2 - 4, each as the reduced (num, den) pairs of q, s and r in
    q + s*sqrt(r); canonical as they stand, since (3m - 1)^2 < r < (3m)^2."""
    d, r = 1 + m % 2, (9 * m * m - 4, 1)  # the 2 of the limit cancels for even m
    return ((3 * m * m * d // 2, d), (-m * d // 2, d), r), ((0, 1), (1, m), r)


def lagrange_number(a: int) -> QuadraticValue:
    """sqrt(9 - 4/a^2) for a Markov number a, normalized to sqrt(9a^2-4)/a."""
    from fractions import Fraction

    if not is_markov_number(a):
        raise ValueError(f"{a} is not a Markov number")
    return QuadraticValue(*(Fraction(*part) for part in closed_forms(a)[1]))

