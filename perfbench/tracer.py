"""Traced `mbl` invocation, and the per-layer numbers drawn from its spans.

Run as a script it stands in for `python -m mbl.cli`:

    python perfbench/tracer.py SPANS_FILE OP_ID -- <mbl arguments>

It imports `mbl.cli` (timed), re-binds each public function in TRACED to a
wrapper wherever a loaded `mbl` module holds it (and `compare` on its
class), runs `mbl.cli.main` inside a root span, keeps every span in memory
and writes them to SPANS_FILE, tagged with the operation id OP_ID, when
main returns.  Nothing under src/ is edited.  A span is (name index, start
ns, end ns, parent span index or -1).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

ROOT_SPAN = "cli.main"
TRACED = (
    ("markov", "markov_numbers"),
    ("markov", "enumerate_triples"),
    ("markov", "is_markov_number"),
    ("capacity", "QuadraticValue.compare"),
    ("capacity", "lagrange_number"),
    ("ordering", "find_irregularities"),
    ("ordering", "verify_swap_pattern"),
    ("ordering", "spectrum_rows"),
    ("ordering", "ordered_prefix_complete_above"),
    ("lattice", "lattice_width"),
    ("lattice", "width_along"),
    ("lattice", "vianna_triangle"),
    ("oeis", "cross_check"),
    ("oeis", "load_bfile"),
)
NAMES = (ROOT_SPAN,) + tuple(f"{module}.{name}" for module, name in TRACED)


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]

    def open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        return sid, time.perf_counter_ns()

    def close(self, index: int, sid: int, start: int) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans[sid] = (index, start, end, self.stack[-1])

    def wrap(self, index: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, start = self.open()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index, sid, start)
        return traced


def install(recorder: Recorder) -> None:
    modules = [m for name, m in sys.modules.items()
               if name == "mbl" or name.startswith("mbl.")]
    for index, (module_name, qualname) in enumerate(TRACED, start=1):
        owner = importlib.import_module(f"mbl.{module_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, recorder.wrap(index, cls.__dict__[attr]))
            continue
        original = getattr(owner, qualname)
        wrapper = recorder.wrap(index, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    spans_file, op_id, separator, *mbl_argv = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE OP_ID -- <mbl arguments>")
    start = time.perf_counter_ns()
    import mbl.cli
    import_ns = time.perf_counter_ns() - start

    recorder = Recorder()
    install(recorder)
    sid, start = recorder.open()
    try:
        returncode = mbl.cli.main(mbl_argv)
    except SystemExit as exc:  # argparse usage errors
        returncode = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.close(0, sid, start)
        sys.stdout.flush()
        with open(spans_file, "w") as handle:
            json.dump({"op": int(op_id), "names": NAMES, "import_ns": import_ns,
                       "spans": recorder.spans}, handle, separators=(",", ":"))
    return returncode


def summarize(traces: list[dict]) -> dict:
    """Exact call counts and self times per span name over many traces.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because every call is synchronous.
    """
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    directions = 0  # width_along calls made directly by lattice_width
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for sid, (index, start, end, parent) in enumerate(spans):
            name = names[index]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[sid]
            if (name == "lattice.width_along" and parent >= 0
                    and names[spans[parent][0]] == "lattice.lattice_width"):
                directions += 1
    out = {}
    for name in NAMES:
        label = "cli" if name == ROOT_SPAN else name
        out[f"{label}.calls"] = calls[name]
        out[f"{label}.self_s"] = self_ns[name] / 1e9
    widths = calls["lattice.lattice_width"]
    out["lattice.directions_per_width"] = directions / widths if widths else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
