"""Deterministic SVG figures: subtree orders, capacity number lines, base
triangles.

Geometry scales affinely from exact rational data; coordinates are emitted
with fixed-point integer rounding so identical inputs give identical bytes.
No timestamps, no dict-iteration nondeterminism.  `cmd_plot` is the
handler of `mbl plot`; only that command loads this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

from .capacity import limit_decimal, width
from .lattice import central_point, vianna_triangle
from .markov import MarkovTriple, wedge
from .ordering import find_irregularities, spectrum_rows
from .report import EXIT_OK, _emit

#: Versioned layout constants; bump "version" when changing any of them.
STYLE = {
    "version": "1",
    "font": "ui-monospace, monospace",
    "font_size": 12,
    "edge_stroke": "#555555",
    "order_stroke": "#b22222",
    "tick_colors": ("#1f6fb2", "#b22222", "#2e8540"),
    "cut_stroke": "#888888",
    "cross_stroke": "#b22222",
}


def _fmt(x: Fraction, places: int = 3) -> str:
    """Fixed-point decimal of a rational, via integer rounding."""
    x = Fraction(x)
    scale = 10 ** places
    scaled = x * scale
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator - n * scaled.denominator) >= scaled.denominator:
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // scale}.{n % scale:0{places}d}"


def _text(x, y, content, anchor="middle", size=None, fill="#000000") -> str:
    size = size or STYLE["font_size"]
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
        f'font-family="{STYLE["font"]}" font-size="{size}" '
        f'fill="{fill}">{content}</text>'
    )


def _line(x1, y1, x2, y2, stroke, dash=None, width_=1) -> str:
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width_}"{dash_attr}/>'
    )


def _document(width_px: int, height_px: int, body: list[str]) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}" data-style-version="{STYLE["version"]}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def figure_subtree(apex: MarkovTriple, depth: int) -> str:
    """The subtree preserving the apex maximum, nodes labelled with their
    capacity, dashed arrows tracing the decreasing order."""
    levels = wedge(apex, depth)
    width_px, level_h, top = 920, 90, 60
    mid_x = Fraction(width_px, 2)
    rows = [[(mid_x, Fraction(top))]]  # each level's positions, one chain or two side by side
    body = []
    for i, level in enumerate(levels[1:], start=1):
        offsets = (0,) if len(level) == 1 else (-190, 190)
        rows.append([(mid_x + dx, Fraction(top + level_h * i)) for dx in offsets])
        for side, point in enumerate(rows[i]):  # from the apex, then from its own side
            body.append(_line(*rows[i - 1][side if i > 1 else 0], *point,
                              STYLE["edge_stroke"]))
    positions = [p for row in rows for p in row]
    nodes = [t for level in levels for t in level]
    for i in range(len(nodes) - 1):
        (x1, y1), (x2, y2) = positions[i], positions[i + 1]
        body.append(
            _line(x1, y1 + 8, x2, y2 - 8, STYLE["order_stroke"], dash="5,4")
        )
    for (x, y), t in zip(positions, nodes):
        w = width(t)
        body.append(_text(x, y - 6, str(t)))
        body.append(
            _text(x, y + 12, f"w = {w} = {_fmt(w, 4)}", size=11, fill="#444444")
        )
    height_px = top + level_h * depth + 60
    return _document(width_px, height_px, body)


def figure_numberline(n: int, k: int) -> str:
    """Clustered capacity sequences around an irregularity at index n.

    Shows sequences n-1 .. n+span as ticks on one axis; the leading capacity
    of the higher sequence (the swapped one) is highlighted, and the title
    names every sequence it moves ahead of.
    """
    rec = next((rec for rec, _ in find_irregularities(n) if rec.n == n), None)
    if rec is None:
        raise ValueError(f"no irregularity at n={n}")
    seqs = spectrum_rows(rec.n_prime, k)[n - 2:]  # no record has n = 1
    # the capacities exactly; each limit, for layout only, to 40 correct digits
    caps = [[Fraction(*ratio) for ratio in row.ratios] for row in seqs]
    limits = [Fraction(limit_decimal(row.m, 40)) for row in seqs]
    values = [*limits, *(w for ws in caps for w in ws)]
    lo, hi = min(values), max(values)
    pad = (hi - lo) / 12
    lo, hi = lo - pad, hi + pad
    width_px, height_px, margin = 960, 240, 50
    axis_y = 120

    def xpos(v: Fraction) -> Fraction:
        return margin + (v - lo) / (hi - lo) * (width_px - 2 * margin)

    passed = f"sequence {n}" if rec.span == 1 else f"sequences {n}..{rec.n_prime - 1}"
    body = [
        _line(margin - 20, axis_y, width_px - margin + 20, axis_y, "#000000"),
        _text(width_px - margin + 20, axis_y + 18, "R", anchor="end"),
        _text(Fraction(width_px, 2), 30, f"sequences {n - 1}..{rec.n_prime}: leading "
              f"capacity of sequence {rec.n_prime} moves ahead of {passed}", size=13),
    ]
    for color_idx, row in enumerate(seqs):
        color = STYLE["tick_colors"][color_idx % len(STYLE["tick_colors"])]
        label_y = axis_y + 40 + 18 * color_idx
        body.append(_text(margin, label_y, f"w(ess {row.n}), m = {row.m}",
                          anchor="start", size=11, fill=color))
        for j, w in enumerate(caps[color_idx]):
            x = xpos(w)
            swapped = row.n == rec.n_prime and j == 0
            tick = 26 if swapped else 16
            body.append(_line(x, axis_y - tick, x, axis_y, color,
                              width_=2 if swapped else 1))
            if swapped:
                body.append(_text(x, axis_y - tick - 6, f"w1({row.n}) swapped",
                                  size=11, fill=STYLE["order_stroke"]))
        x = xpos(limits[color_idx])
        body.append(_line(x, axis_y, x, axis_y + 10, color, dash="2,2"))
    return _document(width_px, height_px, body)


def _primitive(vx: Fraction, vy: Fraction) -> tuple[int, int]:
    """The primitive integer vector d with (vx, vy) = s * d for some s > 0."""
    den = math.lcm(vx.denominator, vy.denominator)
    nx = int(vx * den)
    ny = int(vy * den)
    g = math.gcd(abs(nx), abs(ny))
    if g == 0:
        raise ValueError("zero segment has no direction")
    return nx // g, ny // g


def figure_triangle(triple: MarkovTriple, delta: Fraction) -> str:
    """Base triangle with cut segments from each vertex toward the central
    point and a cross at affine distance delta along each segment."""
    if not 0 < delta < Fraction(1, 3):
        raise ValueError("--delta must lie strictly between 0 and 1/3")
    tri = vianna_triangle(triple)
    center = central_point(tri)
    pts = list(tri.polygon.vertices)
    xs, ys = zip(*pts)
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    width_px, height_px, margin = 720, 420, 60
    span_x = hi_x - lo_x
    span_y = hi_y - lo_y if hi_y > lo_y else Fraction(1)
    scale = min(
        Fraction(width_px - 2 * margin) / span_x,
        Fraction(height_px - 2 * margin) / span_y,
    )

    def place(x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
        return margin + (x - lo_x) * scale, height_px - margin - (y - lo_y) * scale

    body = []
    ring = pts + [pts[0]]
    for p, q in zip(ring, ring[1:]):
        body.append(_line(*place(*p), *place(*q), "#000000", width_=2))
    for vx, vy in pts:
        body.append(_line(*place(vx, vy), *place(*center), STYLE["cut_stroke"],
                          dash="6,5"))
        dx, dy = _primitive(center[0] - vx, center[1] - vy)
        cx, cy = place(vx + delta * dx, vy + delta * dy)
        arm = 5
        body.append(_line(cx - arm, cy - arm, cx + arm, cy + arm,
                          STYLE["cross_stroke"], width_=2))
        body.append(_line(cx - arm, cy + arm, cx + arm, cy - arm,
                          STYLE["cross_stroke"], width_=2))
    cx, cy = place(*center)
    body.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="#000000"/>')
    body.append(_text(cx + 10, cy - 8, "({}, {})".format(*center),
                      anchor="start", size=11))
    body.append(_text(Fraction(width_px, 2), height_px - 18,
                      f"base triangle of {triple}, cut length delta = {delta}",
                      size=13))
    return _document(width_px, height_px, body)


def cmd_plot(config: SimpleNamespace) -> int:
    if config.figure == "order5":
        triple = config.triple or MarkovTriple(5, 2, 1)
        data = figure_subtree(triple, config.depth)
    elif config.figure == "numberline":
        data = figure_numberline(config.n, k=config.k)
    elif config.triple is None:
        raise ValueError("plot --figure triangle needs --triple")
    else:
        data = figure_triangle(config.triple, config.delta)
    _emit(config, data)
    return EXIT_OK
