"""Every name the bench tracer wraps must still exist in `mbl`.

`perfbench/tracer.py` re-binds each entry of its TRACED table when a run
asks for per-layer numbers; a missing name would break only those runs, and
the tier-1 suite does not collect `perfbench/`.
"""

import importlib
import importlib.util
from pathlib import Path

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
