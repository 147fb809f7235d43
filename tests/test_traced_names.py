"""Every name the bench tracer wraps must still exist in `mbl`, and the
tracer must still count its calls.

`perfbench/tracer.py` re-binds each entry of its TRACED table when a run
asks for per-layer numbers; a missing name would break only those runs, and
the tier-1 suite does not collect `perfbench/`.  It re-binds only in `mbl`
modules loaded when it installs, so `mbl.cli` registers every module it
wraps (`mbl.markov`, `capacity`, `ordering`, `lattice`, `oeis`) unrun, and
the tracer's `vars()` runs them.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mbl

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    assert tracer.TRACED
    for module_name, qualname in tracer.TRACED:
        owner = importlib.import_module(f"mbl.{module_name}")
        if "." in qualname:  # the tracer wraps methods through the class dict
            cls_name, attr = qualname.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(attr)), qualname
        else:
            assert callable(getattr(owner, qualname, None)), qualname


# Span counts of the tracer's own run (`python perfbench/tracer.py`), as the
# code before any deferred module gave them: a traced owner that `install`
# could not see would count 0 calls.
_TRACED_COUNTS = [
    (("verify", "--suite", "lattice", "--max-bound", "30"),
     {"lattice.lattice_width.calls": 48, "lattice.width_along.calls": 644}),
    (("verify", "--suite", "ingest"),
     {"oeis.load_bfile.calls": 3, "oeis.cross_check.calls": 3}),
    (("limits", "--n", "40"), {"ordering.spectrum_rows.calls": 1}),
    (("irregularities", "--n-max", "450"),
     {"ordering.find_irregularities.calls": 1, "ordering.verify_swap_pattern.calls": 17}),
]


@pytest.mark.parametrize("argv, counts", _TRACED_COUNTS,
                         ids=["lattice", "ingest", "limits", "irregularities"])
def test_tracer_counts_the_deferred_modules(tmp_path, argv, counts):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(Path(mbl.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(TRACER), str(spans), "0", "--", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = _load_tracer().summarize([json.loads(spans.read_text())])
    assert {name: summary[name] for name in counts} == counts
