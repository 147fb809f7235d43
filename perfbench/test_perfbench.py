"""Self-tests of the benchmark: generators, oracles, span arithmetic, and a
tiny run of every workload.  Run them with

    python -m pytest -q perfbench

from the repository root.  They are not part of the repository's own test
suite (pytest's testpaths there is tests/).
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REF = oracles.load_reference(ROOT)


def mbl(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MBL_CACHE_DIR", None)
    return subprocess.run([sys.executable, "-m", "mbl.cli", *argv], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


def verdict(op, payload, returncode=0, stderr=""):
    text = payload if isinstance(payload, str) else json.dumps(payload)
    return oracles.judge(op, returncode, text, stderr, REF)[0]


# ------------------------------------------------------------ generators

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first = workloads.digest(workloads.generate(workload, 5))
    assert first == workloads.digest(workloads.generate(workload, 5))
    assert first != workloads.digest(workloads.generate(workload, 6))


def test_order_mix_has_fixed_proportions():
    ops = workloads.order_ops(3)
    block = len(workloads.ORDER_BLOCK)
    for start in range(0, len(ops), block):
        kinds = Counter(op.argv[0] for op in ops[start:start + block])
        assert kinds == {"limits": 8, "complete": 4, "irregularities": 4}
        high = [op for op in ops[start:start + block]
                if "--n-max" in op.argv
                and int(op.argv[op.argv.index("--n-max") + 1]) >= 794]
        assert len(high) == 2
    for op in ops:
        if op.argv[0] == "complete":
            assert 450 <= op.expect["n_max"] <= 850
            e = round(-math.log10((Fraction(op.expect["threshold"]) - Fraction(1, 3)) / 2))
            assert 30 <= e <= 44
            assert Fraction(op.expect["threshold"]) == workloads.threshold(e)
        elif op.argv[0] == "irregularities":
            assert ("--fixture" in op.argv) == (op.expect["n_max"] == 450)
        else:
            assert 100 <= op.expect["n"] <= 450


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_runs_are_whole_blocks_whatever_the_seconds(workload):
    block = workloads.BLOCK[workload]
    for seconds in (1, 10, 25, 40):
        blocks = run.run_blocks(workload, seconds)
        assert blocks >= 1 and blocks * run.BLOCK_S[workload] >= seconds
        assert (blocks - 1) * run.BLOCK_S[workload] < seconds
    assert len(workloads.generate(workload, 1)) % block == 0


def test_verify_draws_stay_in_range():
    for op in workloads.verify_ops(9):
        assert 3_000 <= op.expect["max_bound"] <= 10_000
        assert 40 <= op.expect["n_max"] <= 120


def test_skew_maps_are_unimodular_and_in_band():
    rng = random.Random(1)
    for _ in range(2_000):
        m00, m01, m10, m11 = workloads.skew_map(rng)
        assert abs(m00 * m11 - m01 * m10) == 1
        assert workloads.SKEW <= max(map(abs, (m00, m01, m10, m11))) < 2 * workloads.SKEW


def test_base_triangles_have_area_one_half():
    assert workloads.markov_triples(6) == [
        (1, 1, 1), (2, 1, 1), (5, 2, 1), (13, 5, 1), (29, 5, 2), (34, 13, 1)]
    for a, b, c in workloads.markov_triples(12):
        (x0, y0), (x1, y1), (x2, y2) = workloads.base_triangle(a, b, c)
        assert ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2 == Fraction(1, 2)


def test_skewed_polygons_are_counterclockwise():
    for op in workloads.skewed_ops(2)[:24]:
        pts = [(Fraction(x), Fraction(y)) for x, y in op.expect["polygon"]]
        area = sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(pts, pts[1:] + pts[:1]))
        assert area == 1  # twice the area 1/2, positive orientation


# ----------------------------------------------------------------- oracles

@pytest.fixture(scope="module")
def width_case():
    op = workloads.skewed_ops(4)[2]
    text, = op.files.values()
    path = BENCH / ".work" / "test-polygon.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    try:
        done = mbl("width", "--polygon", str(path), "--format", "json")
    finally:
        path.unlink()
    assert done.returncode == 0, done.stderr
    return op, json.loads(done.stdout)


def test_width_oracle(width_case):
    op, payload = width_case
    assert verdict(op, payload) == oracles.OK
    wider = json.loads(json.dumps(payload))
    wider["lattice_width"]["num"] = str(int(wider["lattice_width"]["num"])
                                        + int(wider["lattice_width"]["den"]))
    assert verdict(op, wider) == oracles.WRONG
    doubled = dict(payload, minimizer=[2 * v for v in payload["minimizer"]])
    assert verdict(op, doubled) == oracles.WRONG
    p, q = payload["minimizer"]
    assert verdict(op, dict(payload, minimizer=[p + q, q] if q else [p, 1])) == oracles.WRONG


@pytest.fixture(scope="module")
def order_cases():
    t = workloads.threshold(44)
    cases = {
        "complete": ({"threshold": str(t), "n_max": 450},
                     ("--threshold", str(t), "--n-max", "450")),
        "irregularities": ({"n_max": 450, "fixture": True},
                           ("--n-max", "450", "--fixture")),
        "limits": ({"n": 120}, ("--n", "120")),
    }
    out = {}
    for command, (expect, flags) in cases.items():
        done = mbl(command, *flags, "--format", "json")
        assert done.returncode == 0, done.stderr
        out[command] = (workloads.Op(command, (command,), expect), json.loads(done.stdout))
    return out


def test_complete_oracle(order_cases):
    op, payload = order_cases["complete"]
    assert verdict(op, payload) == oracles.OK
    assert verdict(op, dict(payload, certified=False)) == oracles.WRONG
    missing = dict(payload, records=[r for r in payload["records"] if r["n"] != 369])
    assert verdict(op, missing) == oracles.WRONG


def test_irregularities_oracle(order_cases):
    op, payload = order_cases["irregularities"]
    assert verdict(op, payload) == oracles.OK
    missing = dict(payload, rows=[r for r in payload["rows"] if r["n"] != 33])
    assert verdict(op, missing) == oracles.WRONG
    assert verdict(op, dict(payload, fixture_match=False)) == oracles.WRONG


def test_limits_oracle(order_cases):
    op, payload = order_cases["limits"]
    assert verdict(op, payload) == oracles.OK
    rows = json.loads(json.dumps(payload["rows"]))
    rows[57]["m"] = str(int(rows[57]["m"]) + 1)
    assert verdict(op, dict(payload, rows=rows)) == oracles.WRONG
    assert verdict(op, dict(payload, rows=payload["rows"][:-1])) == oracles.WRONG


def test_verify_oracle():
    op = workloads.verify_ops(1)[0]
    good = {"passed": True, "suites": {s: {} for s in oracles.SUITES}}
    assert verdict(op, good) == oracles.OK
    assert verdict(op, dict(good, passed=False)) == oracles.WRONG
    assert verdict(op, good, returncode=1) == oracles.WRONG


def test_exit_codes_and_the_model_limit():
    op = workloads.Op("irregularities", ("irregularities",), {"n_max": 800, "fixture": False})
    done = mbl("irregularities", "--n-max", "800", "--format", "json")
    limit = done.stderr
    assert verdict(op, done.stdout, returncode=done.returncode, stderr=limit) == oracles.REFUSED
    below = workloads.Op("irregularities", ("irregularities",), {"n_max": 793, "fixture": False})
    assert verdict(below, "", returncode=1, stderr=limit) == oracles.WRONG
    assert verdict(op, "", returncode=1, stderr="mbl: verification failure") == oracles.WRONG
    later = limit + "mbl: verification failure: swap pattern at n=33 (span 1) fails\n"
    assert verdict(op, "", returncode=1, stderr=later) == oracles.WRONG
    assert verdict(op, "", returncode=2, stderr=limit) == oracles.WRONG
    assert verdict(op, "{not json") == oracles.WRONG


def test_complete_refusal_must_be_the_span_3_record_alone():
    t = workloads.threshold(30)
    op = workloads.Op("complete", ("complete",), {"threshold": str(t), "n_max": 850})
    done = mbl("complete", "--threshold", str(t), "--n-max", "850", "--format", "json")
    payload = json.loads(done.stdout)
    assert done.returncode == 1
    assert verdict(op, payload, returncode=1) == oracles.REFUSED
    extra = dict(payload, failures=payload["failures"] + [
        "sequence 851 beyond n_max still reaches the threshold"])
    assert verdict(op, extra, returncode=1) == oracles.WRONG
    tail = payload["tail_exact"] + [{"n": 851, "ok": False}]
    assert verdict(op, dict(payload, tail_exact=tail), returncode=1) == oracles.WRONG
    assert verdict(op, dict(payload, n_max=849), returncode=1) == oracles.WRONG
    assert verdict(op, dict(payload, failures=[]), returncode=1) == oracles.WRONG


# ------------------------------------------------------------------- spans

def test_self_time_subtracts_direct_children():
    names = tracer.NAMES
    index = {name: i for i, name in enumerate(names)}
    spans = [
        (index["cli.main"], 0, 100, -1),
        (index["lattice.lattice_width"], 10, 60, 0),
        (index["lattice.width_along"], 20, 30, 1),
        (index["lattice.width_along"], 40, 45, 1),
        (index["lattice.width_along"], 70, 80, 0),
    ]
    out = tracer.summarize([{"names": names, "spans": spans}])
    assert out["cli.self_s"] == (100 - 50 - 10) / 1e9
    assert out["lattice.lattice_width.self_s"] == (50 - 15) / 1e9
    assert out["lattice.width_along.calls"] == 3
    assert out["lattice.directions_per_width"] == 2


# ----------------------------------------------------------------- scaling

def test_scaler_uses_the_reference_on_either_side():
    class Runner:
        times = iter([0.1, 0.3, 0.2])

        def reference(self):
            return next(self.times)

    scale = run.Scaler(Runner())
    factor = 2 * run.REFERENCE_S / (0.1 + 0.3)
    assert scale(2.0) == pytest.approx((2.0 * factor, factor))
    factor = 2 * run.REFERENCE_S / (0.3 + 0.2)
    assert scale(1.0) == pytest.approx((1.0 * factor, factor))


# -------------------------------------------------------------- tiny runs

def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = declared()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        unit = result["metrics"][metric["name"]]["unit"]
        assert unit == metric["unit"]
        assert any(line.startswith(metric["name"] + " ") and f" {unit}" in line
                   for line in lines[:-1])
