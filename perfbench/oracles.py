"""Independent judges of `mbl` outputs.

Nothing here imports `mbl`.  The references are the repository's data
files, parsed here: the n = 450 irregularity catalogue and the Markov-number
b-file.  Lattice widths are judged against bc/a of the source triple and a
support-function spread recomputed from the polygon the benchmark wrote.

A verdict is one of
  OK       the output is right;
  REFUSED  the program declined with exactly its report that the first
           record of span 3, (n, n') = (794, 797), lies outside the
           catalogued patterns, on an input that reaches it, and nothing
           else it printed is wrong.  This is a documented limit of the
           model, not a wrong answer; the operation still counts as failed;
  WRONG    anything else: a wrong output, an unexpected exit code, a crash.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

OK, REFUSED, WRONG = "ok", "refused", "wrong"
FIRST_SPAN_3 = 794
SPAN_3 = "irregularity at (n=794, n'=797) spans 3 sequences; outside the catalogued patterns"
SUITES = ("markov", "capacity", "ordering", "lattice", "ingest")


@dataclass(frozen=True)
class Reference:
    catalogue_n_max: int
    span_1: tuple[int, ...]
    span_2: tuple[int, ...]
    markov: tuple[int, ...]  # A002559 from index 1


def parse_bfile(text: str) -> dict[int, int]:
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        index, value = line.split()
        entries[int(index)] = int(value)
    return entries


def load_reference(root: Path) -> Reference:
    data = root / "src" / "mbl" / "data"
    catalogue = json.loads((data / "irregularities_450.json").read_text())
    entries = parse_bfile((data / "b002559.txt").read_text())
    markov = tuple(entries[i] for i in range(1, len(entries) + 1))
    return Reference(catalogue["n_max"], tuple(catalogue["span_1"]),
                     tuple(catalogue["span_2"]), markov)


def _fraction(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _catalogue_part(records, ref: Reference) -> str | None:
    """Records with n inside the catalogue's range must equal it exactly."""
    inside = [(r["n"], r["span"]) for r in records if r["n"] <= ref.catalogue_n_max]
    got_1 = tuple(n for n, span in inside if span == 1)
    got_2 = tuple(n for n, span in inside if span == 2)
    if got_1 != ref.span_1 or got_2 != ref.span_2:
        return f"records up to n={ref.catalogue_n_max} differ from the catalogue"
    return None


def _check_complete(payload, expect, ref) -> str | None:
    if _fraction(payload["threshold"]) != Fraction(expect["threshold"]):
        return "wrong threshold echoed"
    if payload["n_max"] != expect["n_max"]:
        return "wrong n_max echoed"
    if not all(entry["ok"] is True for entry in payload["tail_exact"]):
        return "a tail check failed"
    if payload.get("certified") is not True:
        return "not certified"
    return _catalogue_part(payload["records"], ref)


def _refused_complete(payload, expect) -> str | None:
    """None when a `complete` report fails on the span-3 record alone."""
    if payload.get("certified") is not False or payload["failures"] != [SPAN_3]:
        return f"failures {payload['failures']!r}"[:200]
    if _fraction(payload["threshold"]) != Fraction(expect["threshold"]):
        return "wrong threshold echoed"
    if payload["n_max"] != expect["n_max"]:
        return "wrong n_max echoed"
    if not all(entry["ok"] is True for entry in payload["tail_exact"]):
        return "a tail check failed"
    return None


def _check_irregularities(payload, expect, ref) -> str | None:
    if payload["n_max"] != expect["n_max"]:
        return "wrong n_max echoed"
    rows = payload["rows"]
    if not all(row["swap_verified"] is True for row in rows):
        return "a swap pattern failed"
    if expect["fixture"] and payload.get("fixture_match") is not True:
        return "fixture match not reported"
    return _catalogue_part(rows, ref)


def _check_limits(payload, expect, ref) -> str | None:
    rows = payload["rows"]
    n = expect["n"]
    if [row["n"] for row in rows] != list(range(1, n + 1)):
        return "wrong row indices"
    if tuple(int(row["m"]) for row in rows) != ref.markov[:n]:
        return "m column differs from A002559"
    return None


def _check_width(payload, expect, ref) -> str | None:
    a, b, c = expect["triple"]
    value = _fraction(payload["lattice_width"])
    if value != Fraction(b * c, a):
        return f"width {value} != bc/a = {Fraction(b * c, a)}"
    p, q = payload["minimizer"]
    if math.gcd(p, q) != 1:
        return f"minimizer ({p},{q}) is not primitive"
    values = [Fraction(x) * p + Fraction(y) * q for x, y in expect["polygon"]]
    if max(values) - min(values) != value:
        return f"spread along ({p},{q}) differs from the reported width"
    return None


def _check_verify(payload, expect, ref) -> str | None:
    if payload.get("passed") is not True:
        return "verify did not pass"
    if set(payload["suites"]) != set(SUITES):
        return "suites missing"
    return None


_CHECKS = {
    "complete": _check_complete,
    "irregularities": _check_irregularities,
    "limits": _check_limits,
    "width": _check_width,
    "verify": _check_verify,
}


def judge(op, returncode: int, stdout: str, stderr: str,
          ref: Reference) -> tuple[str, str]:
    """(verdict, reason) for one finished operation."""
    command = op.argv[0]
    last_error = (stderr.strip().splitlines() or [""])[-1]
    reaches_span_3 = command in ("complete", "irregularities") \
        and op.expect["n_max"] >= FIRST_SPAN_3
    try:
        if returncode == 1 and reaches_span_3 and command == "irregularities":
            if last_error == f"mbl: verification failure: {SPAN_3}":
                return REFUSED, SPAN_3
        elif returncode == 1 and reaches_span_3:
            problem = _refused_complete(json.loads(stdout), op.expect)
            return (WRONG, problem) if problem else (REFUSED, SPAN_3)
        if returncode != 0:
            return WRONG, f"exit code {returncode}: {last_error[:200]}"
        problem = _CHECKS[command](json.loads(stdout), op.expect, ref)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"malformed output: {exc!r}"[:200]
    return (WRONG, problem) if problem else (OK, "")
