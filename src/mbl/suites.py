"""The invariant suites that `mbl verify` runs, and the checks only they use.

Each suite takes the parsed `verify` arguments and yields one
(check name, passed, witness) per check; SUITES names them in run order and
`cmd_verify` runs them into one report, which its JSON writes and its text
renders check for check.  Only `verify` reads this module, so the command
line loads it on demand, and the checks below that no other command needs
(the three mutations, independent enumerations, closed forms, limit gaps,
unimodular maps and shears) are compiled only then.  The three descent
checks of the ordering suite read the four integers of
`ordering.descent_integers` per apex, which decide the descent at every
depth.
"""

from __future__ import annotations

import enum
import math
import random
from types import SimpleNamespace

from . import oeis
from .capacity import _sign, closed_forms, width
from .errors import VerificationError
from .lattice import (
    Polygon,
    _inner_normals,
    _reduced,
    central_point,
    convex_polygon,
    lattice_width,
    vianna_triangle,
)
from .markov import enumerate_triples, markov_prefix, recurrence_prefix, sorted_triple, triple_text
from .ordering import (
    alternating_order,
    descent_integers,
    find_irregularities,
    spectrum_rows,
)
from .report import EXIT_OK, EXIT_VERIFICATION, _report


class MutationKind(enum.Enum):
    """Which entry of the sorted triple gets replaced by the other root: its position."""

    ELIMINATE_MIN = 2
    ELIMINATE_MID = 1
    ELIMINATE_MAX = 0


def mutate(t: tuple[int, int, int], kind: MutationKind) -> tuple[int, int, int]:
    """Replace one entry x by the other root 3yz - x of the induced quadratic,
    y and z the other two, and sort and check the result.

    Slots refer to positions of the sorted triple; for the degenerate triples
    (1,1,1) and (2,1,1) equal entries are resolved by position.
    """
    values = list(t)
    x = values.pop(kind.value)
    y, z = values
    return sorted_triple(3 * y * z - x, y, z)


def fibonacci(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1."""
    return recurrence_prefix(1, n)[n]


def pell(n: int) -> int:
    """P_n with P_0 = 0, P_1 = 1, P_{n+1} = 2 P_n + P_{n-1}."""
    return recurrence_prefix(2, n)[n]


def brute_force_triples(max_bound: int) -> list[tuple[int, int, int]]:
    """Independent enumeration: scan pairs (b, c) and solve for the third entry.

    Used as the oracle for `enumerate_triples`; it never applies mutations.
    Only pairs with bc <= max_bound are scanned: a triple a >= b >= c has
    3abc = a^2 + b^2 + c^2 <= 3a^2, so bc <= a <= max_bound.
    """
    if max_bound < 1:
        raise ValueError("max_bound must be >= 1")
    found = set()
    for c in range(1, max_bound + 1):
        for b in range(c, max_bound // c + 1):
            disc = 9 * b * b * c * c - 4 * (b * b + c * c)  # >= c^2 (9c^2 - 8) > 0
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            for a2 in (3 * b * c - s, 3 * b * c + s):
                if a2 % 2 == 0 and b <= a2 // 2 <= max_bound:
                    found.add((a2 // 2, b, c))
    return sorted(found)


def surd_identity_check(t: tuple[int, int, int]) -> bool:
    """Integer form of bc/a = 2/(3 + sqrt(9 - 4/c^2 - 4/b^2)).

    Holds iff (2a - 3bc)^2 = 9 b^2 c^2 - 4 b^2 - 4 c^2 and 2a >= 3bc; the
    squared identity follows from the Markov equation alone, so the sign
    condition (a is the larger root) carries the content.  It fails exactly
    at (1,1,1).
    """
    a, b, c = t
    lhs = (2 * a - 3 * b * c) ** 2
    rhs = 9 * b * b * c * c - 4 * b * b - 4 * c * c
    return lhs == rhs and 2 * a >= 3 * b * c


def spectrum_values_check() -> bool:
    """L(1) = sqrt(5) and L(2) = sqrt(8), and each limit q + s*sqrt(r) of
    `closed_forms` is 2/(3 + L) and lies above 1/3, decided on integers."""
    for m, square in ((1, 5), (2, 8)):
        ((qn, qd), (sn, sd), (r, _)), (_, (ln, ld), _) = closed_forms(m)
        # with L = ln*sqrt(r)/ld, (q + s*sqrt(r))(3 + L) = 2 holds if its
        # rational and its surd part do
        if not (ln > 0 and ln * ln * r == square * ld * ld
                and 3 * qn * sd * ld + sn * ln * r * qd == 2 * qd * sd * ld
                and qn * ln * sd + 3 * sn * qd * ld == 0
                and _sign((3 * qn - qd) * sd, 3 * sn * qd, r) > 0):  # 3q - 1 + 3s*sqrt(r)
            return False
    return True


def _above_limit(num: int, den: int, m: int) -> bool:
    # num/den > (3m^2 - m sqrt(r))/2, r = 9m^2 - 4  <=>  2 num - 3m^2 den + m den sqrt(r) > 0
    mm = m * m
    return _sign(2 * num - 3 * mm * den, m * den, 9 * mm - 4) > 0


def apply_unimodular(m: tuple, polygon: Polygon) -> Polygon:
    """The image of polygon under x -> M x + v for m = (m00, m01, m10, m11,
    tx, ty): M the integer matrix of those four entries, of determinant +-1,
    and v = (tx, ty) as (num, den) pairs."""
    m00, m01, m10, m11, (txn, txd), (tyn, tyd) = m
    det = m00 * m11 - m01 * m10
    if abs(det) != 1:
        raise ValueError("matrix must have determinant +-1")
    # integer products on the polygon's integer form, over one common
    # denominator of D and the translation
    den, scaled = polygon
    common = math.lcm(den, txd, tyd)
    k = common // den
    sx, sy = txn * (common // txd), tyn * (common // tyd)
    pts = [((m00 * x + m01 * y) * k + sx, (m10 * x + m11 * y) * k + sy) for x, y in scaled]
    if det < 0:
        pts.reverse()  # keep counterclockwise orientation
    return convex_polygon(common, pts)


def random_unimodular(rng: random.Random) -> tuple:
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(2, 6)):
        k = rng.randint(-3, 3)
        if rng.randint(0, 1):
            m = (m[0], m[1] + k * m[0], m[2], m[3] + k * m[2])
        else:
            m = (m[0] + k * m[1], m[1], m[2] + k * m[3], m[3])
    if rng.randint(0, 1):
        m = (m[1], m[0], m[3], m[2])
    return (*m, _reduced(rng.randint(-4, 4), rng.randint(1, 3)),
            _reduced(rng.randint(-4, 4), rng.randint(1, 3)))


def shear_normalize(tri: Polygon, triple: tuple[int, int, int]) -> Polygon:
    """Shear the apex of the base triangle `tri` of `triple` strictly over
    the base; the lattice width is unchanged.

    The normal form has 0 <= u < b^2, so 0 <= t = uc/(ab) < bc/a = h.  Below
    the root h < ell, since ell/h = a^2/(bc)^2 > 2 (check_alg_lemma), so the
    apex already lies over the base unless t = 0.  That means u = 0, and
    u*c^2 = a^2 (mod b^2) with gcd(a, b) = 1 then forces b = 1: the triple
    is (2,1,1), which the shear (x, y) -> (x + y, y), u -> u + b^2, moves to
    the apex (1/2, 1/2).  Rejects (1,1,1), whose apex can never move strictly
    inside (its width equals its base).
    """
    if triple == (1, 1, 1):
        raise ValueError("(1,1,1) cannot be shear-normalized")
    b = triple[1]
    t = tri[1][2][0]  # uc^2, the apex abscissa times D = abc: t > 0 iff u > 0
    sheared = tri if t > 0 else vianna_triangle(triple, b * b)  # from u = 0
    _, (_, (ell, _), (t, _)) = sheared
    if not 0 < t < ell:
        raise VerificationError(f"no shear normalizes {triple_text(triple)}")
    return sheared


def inscribed_right_triangle(tri: Polygon) -> bool:
    """Whether, for every eps in (0, h), an axis-aligned isoceles right
    triangle with legs h - eps/2 fits strictly inside a shear-normalized
    base triangle.

    The horizontal leg sits on y = eps/4 starting at the foot of the apex,
    extending away from the nearer base corner (mirrored when the apex lies
    over the right half).  Scaled by 4D, D = abc the scale of the
    triangle's integer form (0,0), (ell, 0), (t, h), each of the 9
    half-plane tests is an integer affine in e = D eps, so it holds on the
    open interval 0 < e < h exactly when its values at e = 0 and e = h are
    both >= 0 and not both 0.
    """
    _, (_, (ell, _), (t, h)) = tri
    if not 0 < t < ell:
        raise ValueError("triangle must be shear-normalized first")
    sign = 1 if 2 * t <= ell else -1
    normals = _inner_normals(tri)

    def values(e: int) -> list[int]:
        leg = 4 * h - 2 * e
        corners = ((4 * t, e), (4 * t + sign * leg, e), (4 * t, e + leg))
        return [nx * x + ny * y - 4 * s for nx, ny, s in normals for x, y in corners]

    return all(lo >= 0 and hi >= 0 and (lo or hi) for lo, hi in zip(values(0), values(h)))


def check_alg_lemma(t: tuple[int, int, int]) -> bool:
    """Exact form of ell > 2h for the base triangle: a^2 > 2 b^2 c^2.

    False exactly at (1,1,1)."""
    a, b, c = t
    return a * a > 2 * b * b * c * c


def _failed(failures: dict[str, str], *names: str):
    """One check per name, failed with the first witness failures records for it."""
    for name in names:
        yield name, name not in failures, failures.get(name, "")


def _suite_markov(config: SimpleNamespace):
    triples = enumerate_triples(config.max_bound)
    failures: dict[str, str] = {}

    def mutated(t, kind):  # None where the mutation leaves the solution set
        try:
            return mutate(t, kind)  # which re-checks the equation
        except ValueError:
            failures.setdefault("mutation-closure", f"{triple_text(t)} {kind.name}")

    # the likely inverse first: max undoes min and mid, and mid or min undoes max
    undo_max = (MutationKind.ELIMINATE_MID, MutationKind.ELIMINATE_MIN, MutationKind.ELIMINATE_MAX)
    for t in triples:
        degenerate = t in ((1, 1, 1), (2, 1, 1))
        for kind in MutationKind:
            child = mutated(t, kind)
            if child is None:
                continue
            backs = undo_max if kind is MutationKind.ELIMINATE_MAX else reversed(undo_max)
            if not any(mutated(child, back) == t for back in backs):
                failures.setdefault("mutation-involution", f"{triple_text(t)} {kind.name}")
            # min and mid raise the maximum; max lowers it below the degenerate apexes
            if not (degenerate or child[0] < t[0] if kind is MutationKind.ELIMINATE_MAX
                    else child[0] > t[0]):
                failures.setdefault("mutation-monotonicity", triple_text(t))
        a, b, c = t
        if math.gcd(a, b) != 1 or math.gcd(b, c) != 1 or math.gcd(a, c) != 1:
            failures.setdefault("pairwise-coprimality", triple_text(t))
    yield from _failed(failures, "mutation-closure", "mutation-involution",
                       "mutation-monotonicity", "pairwise-coprimality")
    small = min(config.max_bound, 600)
    brute = brute_force_triples(small)
    walked = [t for t in triples if t[0] <= small]
    yield "brute-force-equivalence", brute == walked, f"bound {small}"
    unique = True
    try:  # the walk refuses a shared maximum once it reaches it
        markov_prefix(1, lambda m: m >= config.max_bound)
    except VerificationError:
        unique = False
    yield "uniqueness", unique, f"bound {config.max_bound}"


def _suite_capacity(config: SimpleNamespace):
    root = (1, 1, 1)
    failures: dict[str, str] = {}
    for t in enumerate_triples(config.max_bound):
        num, den = width(t)
        # 1 at the root, 1/3 < bc/a <= 1/2 below it
        if not (num == den if t == root else den < 3 * num and 2 * num <= den):
            failures.setdefault("width-bounds", triple_text(t))
        if surd_identity_check(t) == (t == root):  # it fails exactly at the root
            failures.setdefault("surd-identity", triple_text(t))
    # every node to depth 10 lies above the limit of its apex maximum; the
    # gaps to it decrease with the widths, which `alternating_order` checks
    try:
        for apex in (root, (2, 1, 1), (5, 2, 1)):
            for t, (num, den) in alternating_order(apex, 10):
                if not _above_limit(num, den, apex[0]):
                    raise VerificationError(f"gap at {triple_text(t)} is not positive")
    except VerificationError as exc:
        failures.setdefault("limit-gaps", str(exc))
    yield from _failed(failures, "width-bounds", "surd-identity", "limit-gaps")
    yield "spectrum-values", spectrum_values_check(), ""


def _suite_ordering(config: SimpleNamespace):
    failures: dict[str, str] = {}
    for t in enumerate_triples(config.max_bound):
        try:  # b > c and 3ac > 2b: L_i < R_i < L_{i+1}, and descent at every depth
            descent_integers(t)
        except VerificationError as exc:  # the first apex refused is the witness
            failures.update({"chain-interleaving": triple_text(t), "alternating-descent": str(exc),
                             "chain-inequalities": triple_text(t)})
            break
    yield from _failed(failures, "chain-interleaving", "chain-inequalities",
                       "alternating-descent")
    if config.n_max >= 34:
        rows = spectrum_rows(34)
        anchors = (rows[32].m, rows[33].m, rows[32].b, rows[33].b)
        expected = (pell(15), fibonacci(27), pell(17), fibonacci(29))
        yield "row-anchors", anchors == expected, ""
    # a record keeps the lowest n of its violated pairs, so the pairs with
    # n <= 32 all hold exactly when a scan to at least 32 has no record with n <= 32
    checked = find_irregularities(max(config.n_max, 32))
    for row in checked:
        if row["n"] <= 32:
            failures.setdefault("regular-prefix", f"(n,n')=({row['n']},{row['n_prime']})")
    yield from _failed(failures, "regular-prefix")
    yield "swap-patterns", all(row["swap_verified"] for row in checked), f"{len(checked)} records"


def _suite_lattice(config: SimpleNamespace):
    root = (1, 1, 1)
    failures: dict[str, str] = {}
    for t in enumerate_triples(config.max_bound):
        tri = vianna_triangle(t)  # construction re-checks the invariants
        value, xi = lattice_width(tri)
        # below the root the width also drops under the ambient width 1
        if (value, xi) != (width(t), (0, 1)) or (t != root and value[0] >= value[1]):
            failures.setdefault("lattice-width-equals-capacity", triple_text(t))
        den, (_, (ell, _), _) = tri
        if ell < den:  # ell < 1
            failures.setdefault("triangle-invariants", triple_text(t))
        central_point(tri, t)  # raises if the 1/3-point fails
        if t != root:
            normalized = shear_normalize(tri, t)
            after = value  # the shear moves only (2,1,1)'s triangle
            if normalized != tri:
                after, _ = lattice_width(normalized)
            if value != after or not inscribed_right_triangle(normalized):
                failures.setdefault("shear-and-inscribed", triple_text(t))
        if check_alg_lemma(t) == (t == root):
            failures.setdefault("alg-lemma", triple_text(t))
    rng = random.Random(20240813)
    for t in ((5, 2, 1), (29, 5, 2)):
        polygon = vianna_triangle(t)
        base, _ = lattice_width(polygon)
        for _ in range(20):
            mapped = apply_unimodular(random_unimodular(rng), polygon)
            got, _ = lattice_width(mapped)
            if got != base:
                failures.setdefault("unimodular-invariance", triple_text(t))
    yield from _failed(failures, "lattice-width-equals-capacity", "triangle-invariants",
                       "shear-and-inscribed", "alg-lemma", "unimodular-invariance")


def _suite_ingest(config: SimpleNamespace):
    sizes = {"markov": 500, "fibonacci": 1000, "pell": 1000}
    entries = {kind: oeis.load_bfile(kind) for kind in sizes}
    for kind, n in sizes.items():
        mismatch = oeis.cross_check(kind, n, entries[kind], "vendored")
        yield f"cross-check-{kind}", mismatch is None, "" if mismatch is None else str(mismatch)
    markov = entries["markov"]
    yield "pinned-anchors", (markov[33], markov[34]) == (pell(15), fibonacci(27)), ""


SUITES = {
    "markov": _suite_markov,
    "capacity": _suite_capacity,
    "ordering": _suite_ordering,
    "lattice": _suite_lattice,
    "ingest": _suite_ingest,
}


def cmd_verify(config: SimpleNamespace) -> int:
    report = {"command": "verify", "suites": {}}
    for name in dict.fromkeys(config.suites or SUITES):  # once each, first-given order
        results = []
        try:  # a suite that raises keeps the checks it made, then fails one more
            results.extend(SUITES[name](config))
        except (ValueError, VerificationError) as exc:
            results.append(("completed", False, f"{type(exc).__name__}: {exc}"))
        report["suites"][name] = {"passed": all(ok for _, ok, _ in results), "checks": [
            {"name": check, "passed": ok, "witness": witness} for check, ok, witness in results]}
    report["passed"] = all(suite["passed"] for suite in report["suites"].values())

    def render() -> str:
        lines = [f"{'PASS' if c['passed'] else 'FAIL'}  {name}:{c['name']}"
                 + (f"  [{c['witness']}]" if c["witness"] and not c["passed"] else "")
                 for name, suite in report["suites"].items() for c in suite["checks"]]
        lines.append("all suites passed" if report["passed"] else "FAILURES above")
        return "\n".join(lines) + "\n"

    return _report(config, report, render, EXIT_OK if report["passed"] else EXIT_VERIFICATION)
