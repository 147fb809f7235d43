"""The handlers of `widths`, `triples`, `subtree`, `order`, `triangle`,
`width` and `ingest`.

`mbl.cli` imports this module only when one of these commands runs, so the
ordering commands (`irregularities`, `limits`, `complete`) never compile it.
Depths are read on ints: `triples` gives each row its parent's depth plus
one, and `subtree` finds its apex and its depth in one `ancestors` climb.
A report's text is rendered from its payload: `width` previews its width once.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from . import oeis
from .capacity import _preview, capacity_to_json, width
from .lattice import LatticePolygon, central_point, lattice_width, vianna_triangle
from .markov import MarkovTriple, ancestors, enumerate_triples, wedge
from .ordering import alternating_order
from .report import EXIT_OK, EXIT_VERIFICATION, _emit_rows, _report, _table

_PAPER_TABLE = ((2, 1, 1), (5, 2, 1), (13, 5, 1), (29, 5, 2), (433, 29, 5))


def cmd_widths(config: SimpleNamespace) -> int:
    triples = (
        [config.triple]
        if config.triple is not None
        else [MarkovTriple(*t) for t in _PAPER_TABLE]
    )
    return _emit_rows(
        config, ["triple", "width", "decimal"], [(t, width(t)) for t in triples],
        lambda t, w: [str(t), str(w), _preview(w)],
        lambda t, w: {"triple": t.to_json(), "width": capacity_to_json(w),
                      "preview": _preview(w)},
        {"command": "widths"},
    )


def cmd_triples(config: SimpleNamespace) -> int:
    triples = enumerate_triples(config.max_bound)
    depths = {1: 0}  # by maximum; the parent of (a, b, c) is the triple with maximum b
    for t in triples[1:]:
        depths[t.a] = depths[t.b] + 1
    records = [(t, depths[t.a], width(t)) for t in triples]
    return _emit_rows(
        config, ["triple", "depth", "width"], records,
        lambda t, depth, w: [str(t), str(depth), str(w)],
        lambda t, depth, w: {"triple": t.to_json(), "depth": depth,
                             "width": capacity_to_json(w)},
        {"command": "triples", "max_bound": str(config.max_bound)},
    )


def cmd_subtree(config: SimpleNamespace) -> int:
    preserved = config.preserve if config.preserve is not None else config.triple.a
    if preserved not in config.triple:
        raise ValueError(f"{preserved} does not appear in {config.triple}")
    # an entry stays in each ancestor until it is maximal, and the maxima decrease
    path = [t for t in ancestors(config.triple) if t[0] <= preserved]
    apex, top = MarkovTriple(*path[0]), len(path) - 1
    records = [(top + i, t, width(t))
               for i, level in enumerate(wedge(apex, config.depth)) for t in level]
    payload = {
        "command": "subtree",
        "preserved": str(apex.a),
        "apex": apex.to_json(),
    }
    return _emit_rows(
        config, ["depth", "triple", "width", "decimal"], records,
        lambda depth, t, w: [str(depth), str(t), str(w), _preview(w)],
        lambda depth, t, w: {"depth": depth, "triple": t.to_json(),
                             "width": capacity_to_json(w)},
        payload,
    )


def cmd_order(config: SimpleNamespace) -> int:
    records = [(rank, t, w) for rank, (t, w)
               in enumerate(alternating_order(config.triple, config.depth), start=1)]
    return _emit_rows(
        config, ["rank", "triple", "width", "decimal"], records,
        lambda rank, t, w: [str(rank), str(t), str(w), _preview(w)],
        lambda rank, t, w: {"rank": rank, "triple": t.to_json(),
                            "width": capacity_to_json(w)},
        {"command": "order", "apex": config.triple.to_json()},
    )


def cmd_triangle(config: SimpleNamespace) -> int:
    tri = vianna_triangle(config.triple)
    cx, cy = central_point(tri)
    value, xi = lattice_width(tri.polygon)
    den, (_, (ell, _), (t, h)) = tri.polygon.scaled
    ell, h, t, lam = (str(Fraction(x, den)) for x in (ell, h, t, 1))
    lengths = [str(Fraction(g, den)) for *_, g in tri.edges]
    payload = {
        "command": "triangle",
        "triple": config.triple.to_json(),
        "vertices": tri.polygon.to_json(),
        "ell": ell,
        "h": h,
        "t": t,
        "lam": lam,
        "u": tri.u,
        "edges": [{"direction": [dx, dy], "affine_length": length}
                  for (dx, dy, _), length in zip(tri.edges, lengths)],
        "central_point": [str(cx), str(cy)],
        "lattice_width": capacity_to_json(value),
        "minimizer": list(xi),
    }
    rows = [
        ["vertices", " ".join(f"({x},{y})" for x, y in tri.polygon.vertices)],
        ["ell", ell],
        ["h", h],
        ["apex abscissa t", t],
        ["lam", lam],
        ["edge lengths", " ".join(lengths)],
        ["central point", f"({cx}, {cy})"],
        ["lattice width", f"{value} at xi={xi}"],
    ]
    columns = ["quantity", "value"]
    return _report(config, payload, lambda: _table(config.fmt, columns, rows))


def cmd_width(config: SimpleNamespace) -> int:
    if (config.triple is None) == (config.polygon is None):
        raise ValueError("width needs exactly one of --triple or --polygon")
    if config.triple is not None:
        polygon = vianna_triangle(config.triple).polygon
        source = {"triple": config.triple.to_json()}
    else:
        import json  # only a polygon file is read as JSON
        try:
            with open(config.polygon, "r") as handle:
                polygon = LatticePolygon.from_json(json.load(handle))
        except (ValueError, RecursionError) as exc:  # JSON, UTF-8 and vertex refusals
            raise ValueError(f"bad polygon file {config.polygon}: {exc}") from None
        source = {"polygon_file": config.polygon}
    value, xi = lattice_width(polygon)
    payload = {
        "command": "width",
        **source,
        "vertices": polygon.to_json(),
        "lattice_width": capacity_to_json(value),
        "minimizer": list(xi),
        "preview": _preview(value),
    }
    return _report(config, payload, lambda: _table(
        config.fmt, ["lattice_width", "minimizer", "decimal"],
        [[str(value), f"({xi[0]},{xi[1]})", payload["preview"]]]))


def cmd_ingest(config: SimpleNamespace) -> int:
    if config.bfile is not None and config.kind == "all":
        raise ValueError("--bfile holds one sequence; name it with --kind")
    kinds = list(oeis.SEQUENCE_IDS) if config.kind == "all" else [config.kind]
    source = "vendored" if config.bfile is None else str(config.bfile)
    checks = [(kind, oeis.cross_check(kind, config.n, oeis.load_bfile(kind, config.bfile),
                                      source)) for kind in kinds]
    status = EXIT_OK if all(mismatch is None for _, mismatch in checks) else EXIT_VERIFICATION
    return _emit_rows(
        config, ["kind", "sequence", "n", "source", "status"], checks,
        lambda kind, mismatch: [
            kind, oeis.SEQUENCE_IDS[kind], str(config.n), source,
            "ok" if mismatch is None else f"MISMATCH at {mismatch[0]}",
        ],
        lambda kind, mismatch: {
            "kind": kind, "sequence_id": oeis.SEQUENCE_IDS[kind], "n": config.n,
            "source": source, "ok": mismatch is None,
            "first_mismatch": None if mismatch is None else {
                "index": mismatch[0], "generated": str(mismatch[1]), "file": str(mismatch[2])},
        },
        {"command": "ingest"}, status=status,
    )
