"""Every public name defined in `src/mbl` serves `src/`.

A public top-level function or class must be read somewhere in `src/`
outside its own definition, or be wrapped by the bench tracer
(`perfbench/tracer.py`'s TRACED).  A public method or property must be read
as an attribute of that name somewhere in `src/` outside its own body.  Code
that only the tests call is cost in `src/`: an oracle of that kind belongs
in `tests/support.py`.  Dunder methods are out of scope: an operator use
is not a name read.
"""

import ast
import importlib.util
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
