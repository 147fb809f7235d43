"""Benchmark of the `mbl` command line as users run it.

    python3 perfbench/run.py --workload {order,skewed-width,verify} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it needs nothing installed beyond the
Python that runs it.  Every operation is a fresh `python -m mbl.cli ...`
process with PYTHONPATH pointing at the checkout's src/.  Operations run as
a closed loop with one client: the next starts only after the previous one
exits, so at most one child runs at a time.  Every output is judged by an
independent oracle (oracles.py).

The host's speed drifts: on a shared 2-vCPU VM the same operation took
from 1x to 2.3x its best time from one run to the next, within seconds and
with no change in input.  So a fixed reference task that never touches
`mbl` (REFERENCE, a fresh interpreter doing exact fraction and dict work)
runs before the first timed item and after every one.  Each item's wall
time is scaled by REFERENCE_S over the mean of the two reference times
around it: the reported times are seconds at the speed at which the
reference task takes REFERENCE_S.  Raw wall times and the factors are kept
in the result file.

--trace 0 runs the first whole blocks of the seeded list (workloads.py),
the fewest that take at least S scaled seconds (BLOCK_S), and reports
the end-to-end metrics.  The count depends on S alone, not on the speed of the
machine or of the program, so every run of a workload has the same mix of
operations and op_s.tail is always the same percentile.  --trace 1 runs a
fixed number of operations, each once plainly and once under tracer.py, and
reports the per-layer metrics; the fixed count makes the call counts repeat
exactly.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it give every
metric by name with its unit, plus fail_ratio and the percentile behind
op_s.tail.  A result file with provenance, every operation and, for a
traced run, every span, is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracles
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HARD_LIMIT_S = 165  # a child still running then is killed, so the run ends in time
SETUP_SAMPLES = 7
# A fixed task for a fresh `python -S` that never touches mbl: exact fractions
# over growing integers and dict updates, the kind of work mbl does.
REFERENCE = (
    "from fractions import Fraction as F\n"
    "s = F(0)\n"
    "for i in range(1, 2500):\n    s += F(1, i * i)\n"
    "d = {}\n"
    "for i in range(200000):\n    d[i % 1009] = d.get(i % 1009, 0) + i\n"
)
REFERENCE_S = 0.1  # its time at the speed the reported times are given in
# Scaled seconds one block of operations (workloads.BLOCK) takes on the
# reference host: 2 vCPUs, Python 3.11.  They turn --seconds into a count of
# blocks.
BLOCK_S = {"order": 20.0, "skewed-width": 2.7, "verify": 2.5}
# A timed run on a machine much slower than that stops once its raw
# operation time passes this many times the planned time, so that two sets
# of ten runs per workload still end within an hour.
SLOW_CAP = 1.75
# Operations in a traced run, each run once plainly and once traced.
TRACED_OPS = {"order": workloads.BLOCK["order"], "skewed-width": 24, "verify": 6}

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "markov.markov_numbers.calls", "markov.markov_numbers.self_s",
    "markov.enumerate_triples.calls", "markov.enumerate_triples.self_s",
    "markov.is_markov_number.calls", "markov.is_markov_number.self_s",
    "capacity.QuadraticValue.compare.calls",
    "capacity.QuadraticValue.compare.self_s",
    "capacity.lagrange_number.self_s",
    "ordering.find_irregularities.self_s",
    "ordering.verify_swap_pattern.calls", "ordering.verify_swap_pattern.self_s",
    "ordering.spectrum_rows.self_s",
    "ordering.ordered_prefix_complete_above.self_s",
    "lattice.lattice_width.calls", "lattice.lattice_width.self_s",
    "lattice.width_along.calls", "lattice.directions_per_width",
    "lattice.vianna_triangle.self_s",
    "oeis.cross_check.self_s", "oeis.load_bfile.self_s",
    "cli.self_s", "cli.import_s", "trace.overhead_ratio",
)


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".directions_per_width")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


@dataclass
class Finished:
    seconds: float  # spawn to exit
    max_rss_kb: int
    returncode: int
    stdout: str
    stderr: str


class Runner:
    """Spawns one child at a time and reaps it with os.wait4."""

    def __init__(self, work: Path, hard_deadline: float):
        self.work = work
        self.hard_deadline = hard_deadline
        env = dict(os.environ)
        env.pop("MBL_CACHE_DIR", None)  # read only the vendored b-files
        paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        self.env = env

    def spawn(self, argv: list[str]) -> Finished:
        with open(self.work / "stdout", "w+b") as out, \
                open(self.work / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            # Popen.kill polls first, so a kill that races the reaping below
            # finds the child gone and sends nothing
            timer = threading.Timer(max(self.hard_deadline - time.monotonic(), 0.0),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Finished(seconds, usage.ru_maxrss, proc.returncode,
                            out.read().decode(errors="replace"),
                            err.read().decode(errors="replace"))

    def op(self, op: workloads.Op) -> Finished:
        return self.spawn([sys.executable, "-m", "mbl.cli", *op.argv])

    def traced_op(self, op: workloads.Op, op_id: int, spans_file: Path) -> Finished:
        return self.spawn([sys.executable, str(BENCH / "tracer.py"),
                           str(spans_file), str(op_id), "--", *op.argv])

    def reference(self) -> float:
        """Seconds for a fresh interpreter to run REFERENCE."""
        done = self.spawn([sys.executable, "-S", "-c", REFERENCE])
        if done.returncode != 0:
            raise RuntimeError(f"reference task failed: {done.stderr.strip()}")
        return done.seconds

    def import_time(self) -> float:
        """Seconds for a fresh interpreter to `import mbl.cli`."""
        done = self.spawn([sys.executable, "-c", "import mbl.cli"])
        if done.returncode != 0:
            raise RuntimeError(f"import mbl.cli failed: {done.stderr.strip()}")
        return done.seconds


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest order statistic with
    at least 10 samples above it, or the minimum when there are fewer."""
    ordered = sorted(times)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def record(i: int, op: workloads.Op, done: Finished, ref, traced: bool) -> dict:
    verdict, reason = oracles.judge(op, done.returncode, done.stdout, done.stderr, ref)
    if verdict == oracles.WRONG:
        print(f"wrong output: {' '.join(op.argv)}: {reason}", file=sys.stderr)
    return {"i": i, "kind": op.kind, "argv": list(op.argv), "traced": traced,
            "seconds": done.seconds, "max_rss_kb": done.max_rss_kb,
            "returncode": done.returncode, "verdict": verdict, "reason": reason}


def run_blocks(workload: str, seconds: float) -> int:
    """Blocks in a timed run: the fewest that take at least `seconds` on
    the reference host."""
    return max(1, math.ceil(seconds / BLOCK_S[workload]))


class Scaler:
    """Scales each timed item by the reference task run on either side of it."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.before = runner.reference()

    def __call__(self, seconds: float) -> tuple[float, float]:
        """(scaled seconds, factor) for an item that has just finished."""
        after = self.runner.reference()
        factor = 2 * REFERENCE_S / (self.before + after)
        self.before = after
        return seconds * factor, factor


def timed_run(ops, runner: Runner, ref, count: int, cap_s: float):
    """The first `count` operations, one after another.

    Set-up is sampled between operations, SETUP_SAMPLES times spread evenly
    over the run, so that its median sees the same machine as the
    operations.  Every operation and set-up sample is scaled (Scaler).
    Past `cap_s` of raw operation time the run stops after the operation in
    hand.
    """
    points = [k * count // SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    setup, records = [], []
    scale = Scaler(runner)
    busy = 0.0
    for i in range(count):
        while len(setup) < SETUP_SAMPLES and points[len(setup)] <= i:
            setup.append(scale(runner.import_time())[0])
        op = ops[i % len(ops)]
        done = runner.op(op)
        busy += done.seconds
        records.append(record(i, op, done, ref, traced=False))
        records[-1]["scaled_seconds"], records[-1]["factor"] = scale(done.seconds)
        if busy >= cap_s or time.monotonic() >= runner.hard_deadline:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(scale(runner.import_time())[0])
    return records, setup


def traced_run(ops, runner: Runner, ref, count: int):
    """Each operation once plainly and once traced, alternating which goes
    first; returns both records and the raw span files."""
    records, traces = [], []
    for i in range(count):
        op = ops[i % len(ops)]
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                spans_file = runner.work / f"spans-{i:04d}.json"
                done = runner.traced_op(op, i, spans_file)
                if spans_file.exists():
                    traces.append(spans_file.read_text())
                    spans_file.unlink()
            else:
                done = runner.op(op)
            records.append(record(i, op, done, ref, traced))
            if time.monotonic() >= runner.hard_deadline:
                return records, traces
    return records, traces


def end_to_end(records, setup: list[float]) -> dict:
    times = [r["scaled_seconds"] for r in records]
    return {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail(times)[0],
        "ops_per_s": len(records) / sum(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["max_rss_kb"] for r in records) / 1024,
    }


def per_layer(records, traces: list[str]) -> dict:
    parsed = [json.loads(text) for text in traces]
    layers = tracer.summarize(parsed)
    layers["cli.import_s"] = (statistics.median(t["import_ns"] for t in parsed) / 1e9
                              if parsed else 0.0)
    plain = [r["seconds"] for r in records if not r["traced"]]
    traced = [r["seconds"] for r in records if r["traced"]]
    layers["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain)
                                      if traced and plain else 0.0)
    return layers


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, ops, planned: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_generated": len(ops),
        "ops_planned": planned,
        "ops_digest": workloads.digest(ops),
    }


def report(args, records, planned, metrics, units, setup, result_file) -> None:
    failed = [r for r in records if r["verdict"] != oracles.OK]
    wrong = sum(r["verdict"] == oracles.WRONG for r in records)
    done = len({r["i"] for r in records})
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  operations {done} of {planned} planned")
    for name, value in metrics.items():
        note = ""
        if name == "op_s.tail":
            _, pct, beyond = tail([r["scaled_seconds"] for r in records])
            note = f"  (p{pct:.0f} of {len(records)} operations, {beyond} beyond it)"
        elif name == "setup_s":
            note = f"  (median of {len(setup)} fresh imports of mbl.cli)"
        print(f"{name:<46} {value:.6g} {units[name]}{note}")
    print(f"{'fail_ratio':<46} {len(failed) / len(records):.6g} ratio"
          f"  ({len(failed)} of {len(records)} failed, {wrong} of them wrong outputs)")
    if not args.trace:
        raw = statistics.median(r["seconds"] for r in records)
        factor = statistics.median(r["factor"] for r in records)
        print(f"times are scaled to the speed at which the reference task takes"
              f" {REFERENCE_S} s: median factor {factor:.4g},"
              f" raw wall op_s.p50 {raw:.6g} s")
    print(f"result file {result_file.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hard_deadline = time.monotonic() + HARD_LIMIT_S

    if not (ROOT / "src" / "mbl" / "cli.py").is_file():
        print(f"no mbl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref = oracles.load_reference(ROOT)
    ops = workloads.generate(args.workload, args.seed)

    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        for op in ops:
            for name, text in op.files.items():
                (work / name).write_text(text)
        runner = Runner(work, hard_deadline)
        runner.import_time()  # warm-up: the first import may compile bytecode
        setup = []
        if args.trace:
            planned = TRACED_OPS[args.workload]
            records, traces = traced_run(ops, runner, ref, planned)
            layers = per_layer(records, traces)
            metrics = {name: layers[name] for name in PER_LAYER}
            units = {name: per_layer_unit(name) for name in PER_LAYER}
        else:
            blocks = run_blocks(args.workload, args.seconds)
            planned = blocks * workloads.BLOCK[args.workload]
            records, setup = timed_run(ops, runner, ref, planned,
                                       SLOW_CAP * blocks * BLOCK_S[args.workload])
            traces = []
            metrics = end_to_end(records, setup)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_file = results / f"{stem}.json"
    result_file.write_text(json.dumps({
        "provenance": provenance(args, ops, planned),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "setup_samples_s": setup,
        "operations": records,
    }, indent=1) + "\n")
    if traces:
        (results / f"{stem}-spans.jsonl").write_text("\n".join(traces) + "\n")

    report(args, records, planned, metrics, units, setup, result_file)
    failed = sum(r["verdict"] != oracles.OK for r in records)
    print(json.dumps({
        "correct": all(r["verdict"] != oracles.WRONG for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
