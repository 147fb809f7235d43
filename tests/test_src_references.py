"""Every public name defined in `src/mbl` serves `src/`.

A public top-level function or class must be read somewhere in `src/`
outside its own definition, or be wrapped by the bench tracer
(`perfbench/tracer.py`'s TRACED).  A public method or property must be read
as an attribute of that name somewhere in `src/` outside its own body.  Code
that only the tests call is cost in `src/`: an oracle of that kind belongs
in `tests/support.py`.  Dunder methods are out of scope: an operator use
is not a name read.  What every process loads (`import mbl.cli`) holds only
what some module of that set reads, and no module imports `mbl.cli`.  No
float can enter a decision: `src/` holds no float or complex literal, no
`float()`, `round()` or `complex()` call, no `math` name but `gcd`, `lcm`
and `isqrt`, and no true division outside the SVG layout.  A triple has one
form, the sorted int tuple, and a polygon, a base triangle and a unimodular
map are int tuples too: no line of `src/` names a class that once wrapped
one, or their base, and no class of `src/` holds fields alone.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced() -> set[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{owner}.{name}" for owner, name in module.TRACED}


def _modules() -> list[tuple[str, ast.Module]]:
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted((ROOT / "src" / "mbl").glob("*.py"))]


def _read_names(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_public_names_are_used_in_src():
    definitions = []  # (module.name, the top-level statement defining it)
    statements = []  # (statement, the names it reads)
    for stem, module in _modules():
        for stmt in module.body:
            statements.append((stmt, _read_names(stmt)))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions.append((f"{stem}.{stmt.name}", stmt))
    assert definitions
    unused = [
        qualname for qualname, stmt in definitions
        if not any(qualname.split(".")[1] in names
                   for other, names in statements if other is not stmt)
    ]
    assert sorted(set(unused) - _traced()) == []


def test_public_methods_and_properties_are_read_in_src():
    reads = Counter()  # attribute name -> times read anywhere in src/
    methods = []  # (module.Class.name, the method's definition)
    for stem, module in _modules():
        reads.update(n.attr for n in ast.walk(module) if isinstance(n, ast.Attribute))
        for cls in module.body:
            if isinstance(cls, ast.ClassDef):
                methods.extend((f"{stem}.{cls.name}.{stmt.name}", stmt) for stmt in cls.body
                               if isinstance(stmt, ast.FunctionDef)
                               and not stmt.name.startswith("_"))
    assert methods
    unread = []
    for qualname, method in methods:
        own = sum(isinstance(n, ast.Attribute) and n.attr == method.name
                  for n in ast.walk(method))
        if reads[method.name] <= own:
            unread.append(qualname)
    assert unread == []


def _imported_modules(stem: str, module: ast.Module) -> set[str]:
    """The `mbl` modules an import anywhere in the module names, by stem."""
    found = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("mbl.") for alias in node.names
                      if alias.name.startswith("mbl.")}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base != "mbl" and not base.startswith("mbl."):
                continue
            base = base.removeprefix("mbl").lstrip(".")
            found |= {base} if base else {alias.name for alias in node.names}
    return found


def test_no_module_imports_cli():
    importers = [stem for stem, module in _modules() if "cli" in _imported_modules(stem, module)]
    assert importers == [], (
        "under `python -m mbl.cli` the running module is __main__, not mbl.cli, "
        "so importing mbl.cli compiles and runs cli.py a second time")


def test_cli_holds_only_the_front_end():
    # the handlers live beside what they render: cli.py defines none, imports
    # no name of the modules it defers (markov, capacity, ordering, lattice,
    # oeis), reaches every handler as `_module(name).cmd_...`, reads nothing
    # of mbl.capacity, and only ordering.py reads the span catalogue
    modules = dict(_modules())
    cli = modules["cli"]
    assert [node.name for node in ast.walk(cli) if isinstance(node, ast.FunctionDef)
            and node.name.startswith("cmd_")] == []
    imported = {node.module for node in ast.walk(cli)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported & {"markov", "capacity", "ordering", "lattice", "oeis"} == set()
    table = next(node.value for node in cli.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_COMMANDS")
    reads = {key.value: re.fullmatch(r"lambda: _module\('(\w+)'\)\.(\w+)",
                                     ast.unparse(entry.elts[2]))
             for key, entry in zip(table.keys, table.values)}
    assert None not in reads.values()
    assert {command: read[2] for command, read in reads.items() if read[1] == "ordering"} == {
        "irregularities": "cmd_irregularities", "limits": "cmd_limits",
        "complete": "cmd_complete"}
    capacity_names = {stmt.name for stmt in modules["capacity"].body
                      if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    assert "capacity" not in _imported_modules("cli", cli) | _read_names(cli)
    assert _read_names(cli) & capacity_names == set()
    readers = [stem for stem, module in modules.items()
               if "SWAP_PATTERNS" in _read_names(module)
               | {alias.name for node in ast.walk(module)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}]
    assert readers == ["ordering"]


def test_what_every_process_loads_serves_more_than_verify():
    # every top-level function and class of a module that `import mbl.cli`
    # loads is read outside its own definition by some module other than
    # the verify suites, or wrapped by the bench tracer: what only `verify`
    # runs belongs in mbl/suites.py, which only that command loads
    probe = "import sys, mbl.cli; print(*sorted(n for n in sys.modules if n.startswith('mbl.')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    loaded = {name.removeprefix("mbl.") for name in result.stdout.split()}
    modules = dict(_modules())
    assert loaded <= modules.keys() and "suites" not in loaded
    statements = [(stmt, _read_names(stmt)) for stem, module in modules.items()
                  if stem != "suites" for stmt in module.body]
    unread = [
        f"{stem}.{stmt.name}" for stem in sorted(loaded) for stmt in modules[stem].body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not any(stmt.name in names for other, names in statements if other is not stmt)
    ]
    assert sorted(set(unread) - _traced()) == []


def test_no_module_reads_the_environment():
    # what `verify` vouches for follows from argv and the vendored data alone:
    # no environment variable can swap a data source or a bound in
    names = {"environ", "environb", "getenv", "getenvb", "putenv"}
    reads = [
        f"{stem}:{node.lineno}" for stem, module in _modules() for node in ast.walk(module)
        if (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "os")
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in names for alias in node.names))
    ]
    assert reads == []


EXACT_MATH = {"gcd", "lcm", "isqrt"}


def _inexact_sites(stem: str, module: ast.Module) -> list[str]:
    """Where a float could enter: a float or complex literal, a call that
    makes or rounds one, a `math` name that computes one, and a true
    division outside `svg` (whose `/` lays out Fractions)."""
    return [
        f"{stem}:{node.lineno}" for node in ast.walk(module)
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"float", "round", "complex"})
        or (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr not in EXACT_MATH)
        or (isinstance(node, ast.ImportFrom) and node.module == "math"
            and any(alias.name not in EXACT_MATH for alias in node.names))
        or (stem != "svg" and isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div))
    ]


def test_no_float_enters_src():
    assert [site for stem, module in _modules() for site in _inexact_sites(stem, module)] == []


def test_each_way_in_for_a_float_is_found():
    probes = ["x = 0.5", "x = 2j", "float(x)", "round(x)", "complex(x)", "math.sqrt(x)",
              "math.pi", "from math import log", "x = y / 2", "x /= 2"]
    assert all(_inexact_sites("lattice", ast.parse(probe)) for probe in probes)
    assert _inexact_sites("svg", ast.parse("x = y / 2\nx /= 2")) == []
    assert _inexact_sites("lattice", ast.parse("math.gcd(x, math.lcm(y, math.isqrt(z)))")) == []


def _lines_naming(*names: str) -> list[str]:
    return [f"{path.relative_to(ROOT)}:{number}"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if any(name in line for name in names)]


def test_a_triple_has_one_form():
    assert _lines_naming("MarkovTriple") == []


def test_polygons_triangles_and_maps_are_int_tuples():
    # `lattice.convex_polygon` returns a polygon as a checked int tuple, a
    # base triangle is its polygon and a unimodular map is a 6-tuple; each
    # class left defines a method beside `__init__`, or is an exception or an enum
    assert _lines_naming("_Record", "LatticePolygon", "ViannaTriangle", "UnimodularMap") == []
    holders = [f"{stem}.{cls.name}" for stem, module in _modules() for cls in module.body
               if isinstance(cls, ast.ClassDef)
               and not {ast.unparse(base) for base in cls.bases} & {"RuntimeError", "enum.Enum"}
               and not any(isinstance(stmt, ast.FunctionDef) and stmt.name != "__init__"
                           for stmt in cls.body)]
    assert holders == []
