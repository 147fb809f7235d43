"""The handlers of `widths`, `triples`, `subtree`, `order`, `triangle`,
`width` and `ingest`.

`mbl.cli` imports this module only when one of these commands runs, so the
ordering commands (their handlers live in `mbl.ordering`) never compile it.
Depths are read on ints: `triples` gives each row its parent's depth plus
one, and `subtree` finds its apex and its depth in one `ancestors` climb.
Each table is its JSON rows, and its text and CSV cells are read off them;
`triangle` and `width` render their text from their payload.  So each
width converts to digits once and previews once, from those digits.  Only
`triangle` and `width` import `mbl.lattice`, and only `order` imports
`mbl.ordering`: the other commands run neither.
"""

from __future__ import annotations

from types import SimpleNamespace

from . import oeis
from .capacity import _preview, _ratio_text, capacity_to_json, width
from .markov import ancestors, enumerate_triples, triple_json, triple_text, wedge
from .report import EXIT_OK, EXIT_VERIFICATION, _emit_rows, _report, _table

_PAPER_TABLE = ((2, 1, 1), (5, 2, 1), (13, 5, 1), (29, 5, 2), (433, 29, 5))


def _row(t: tuple[int, int, int], **fields) -> dict:
    """The JSON row of the triple t and its width bc/a, beside `fields`."""
    return {**fields, "triple": triple_json(t), "width": capacity_to_json(width(t))}


def cmd_widths(config: SimpleNamespace) -> int:
    triples = _PAPER_TABLE if config.triple is None else [config.triple]
    rows = [{**row, "preview": _preview(row["width"])} for row in map(_row, triples)]
    return _emit_rows(
        config, ["triple", "width", "decimal"], rows,
        lambda row: [triple_text(row["triple"].values()), _ratio_text(**row["width"]),
                     row["preview"]],
        {"command": "widths"},
    )


def cmd_triples(config: SimpleNamespace) -> int:
    triples = enumerate_triples(config.max_bound)
    depths = {1: 0}  # by maximum; the parent of (a, b, c) is the triple with maximum b
    for a, b, _ in triples[1:]:
        depths[a] = depths[b] + 1
    return _emit_rows(
        config, ["triple", "depth", "width"], [_row(t, depth=depths[t[0]]) for t in triples],
        lambda row: [triple_text(row["triple"].values()), str(row["depth"]),
                     _ratio_text(**row["width"])],
        {"command": "triples", "max_bound": str(config.max_bound)},
    )


def cmd_subtree(config: SimpleNamespace) -> int:
    preserved = config.preserve if config.preserve is not None else config.triple[0]
    if preserved not in config.triple:
        raise ValueError(f"{preserved} does not appear in {triple_text(config.triple)}")
    # an entry stays in each ancestor until it is maximal, and the maxima decrease
    path = [t for t in ancestors(config.triple) if t[0] <= preserved]
    apex, top = path[0], len(path) - 1
    payload = {"command": "subtree", "preserved": str(apex[0]), "apex": triple_json(apex)}
    return _emit_rows(
        config, ["depth", "triple", "width", "decimal"],
        [_row(t, depth=top + i) for i, level in enumerate(wedge(apex, config.depth))
         for t in level],
        lambda row: [str(row["depth"]), triple_text(row["triple"].values()),
                     _ratio_text(**row["width"]), _preview(row["width"])],
        payload,
    )


def cmd_order(config: SimpleNamespace) -> int:
    from .ordering import alternating_order
    return _emit_rows(
        config, ["rank", "triple", "width", "decimal"],
        [{"rank": rank, "triple": triple_json(t), "width": capacity_to_json(w)} for rank, (t, w)
         in enumerate(alternating_order(config.triple, config.depth), start=1)],
        lambda row: [str(row["rank"]), triple_text(row["triple"].values()),
                     _ratio_text(**row["width"]), _preview(row["width"])],
        {"command": "order", "apex": triple_json(config.triple)},
    )


def cmd_triangle(config: SimpleNamespace) -> int:
    from fractions import Fraction  # the lengths and coordinates it prints reduce here
    from .lattice import central_point, edges, lattice_width, polygon_json, vianna_triangle
    tri = vianna_triangle(config.triple)
    value, xi = lattice_width(tri)
    den, (_, (ell, _), (t, h)) = tri
    u = t // config.triple[2] ** 2  # t = uc/(ab) scales by D = abc to uc^2
    ell, h, t, lam = (str(Fraction(x, den)) for x in (ell, h, t, 1))
    payload = {
        "command": "triangle",
        "triple": triple_json(config.triple),
        "vertices": polygon_json(tri),
        "ell": ell,
        "h": h,
        "t": t,
        "lam": lam,
        "u": u,
        "edges": [{"direction": [dx, dy], "affine_length": str(Fraction(g, den))}
                  for dx, dy, g in edges(tri)],
        "central_point": [str(Fraction(*c)) for c in central_point(tri, config.triple)],
        "lattice_width": capacity_to_json(value),
        "minimizer": list(xi),
    }
    return _report(config, payload, lambda: _table(config.fmt, ["quantity", "value"], [
        ["vertices", " ".join(f"({x},{y})" for x, y in payload["vertices"])],
        ["ell", payload["ell"]],
        ["h", payload["h"]],
        ["apex abscissa t", payload["t"]],
        ["lam", payload["lam"]],
        ["edge lengths", " ".join(edge["affine_length"] for edge in payload["edges"])],
        ["central point", "({}, {})".format(*payload["central_point"])],
        ["lattice width", "{} at xi=({}, {})".format(
            _ratio_text(**payload["lattice_width"]), *payload["minimizer"])],
    ]))


def cmd_width(config: SimpleNamespace) -> int:
    if (config.triple is None) == (config.polygon is None):
        raise ValueError("width needs exactly one of --triple or --polygon")
    from .lattice import lattice_width, polygon_from_json, polygon_json, vianna_triangle
    if config.triple is not None:
        polygon = vianna_triangle(config.triple)
        source = {"triple": triple_json(config.triple)}
    else:
        import json  # only a polygon file is read as JSON
        try:
            with open(config.polygon, "r") as handle:
                polygon = polygon_from_json(json.load(handle))
        except (ValueError, RecursionError) as exc:  # JSON, UTF-8 and vertex refusals
            raise ValueError(f"bad polygon file {config.polygon}: {exc}") from None
        source = {"polygon_file": config.polygon}
    value, xi = lattice_width(polygon)
    pair = capacity_to_json(value)
    payload = {
        "command": "width",
        **source,
        "vertices": polygon_json(polygon),
        "lattice_width": pair,
        "minimizer": list(xi),
        "preview": _preview(pair),
    }
    return _report(config, payload, lambda: _table(
        config.fmt, ["lattice_width", "minimizer", "decimal"],
        [[_ratio_text(**pair), "({},{})".format(*payload["minimizer"]), payload["preview"]]]))


def cmd_ingest(config: SimpleNamespace) -> int:
    if config.bfile is not None and config.kind == "all":
        raise ValueError("--bfile holds one sequence; name it with --kind")
    kinds = list(oeis.SEQUENCE_IDS) if config.kind == "all" else [config.kind]
    source = "vendored" if config.bfile is None else str(config.bfile)
    checks = [(kind, oeis.cross_check(kind, config.n, oeis.load_bfile(kind, config.bfile),
                                      source)) for kind in kinds]
    status = EXIT_OK if all(mismatch is None for _, mismatch in checks) else EXIT_VERIFICATION
    rows = [{"kind": kind, "sequence_id": oeis.SEQUENCE_IDS[kind], "n": config.n,
             "source": source, "ok": mismatch is None,
             "first_mismatch": None if mismatch is None else {
                 "index": mismatch[0], "generated": str(mismatch[1]), "file": str(mismatch[2])}}
            for kind, mismatch in checks]
    return _emit_rows(
        config, ["kind", "sequence", "n", "source", "status"], rows,
        lambda row: [row["kind"], row["sequence_id"], str(row["n"]), row["source"],
                     "ok" if row["ok"] else f"MISMATCH at {row['first_mismatch']['index']}"],
        {"command": "ingest"}, status=status,
    )
