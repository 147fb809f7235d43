"""Every public top-level function and class in `src/mbl` serves `src/`.

A public name must be read somewhere in `src/` outside its own definition,
or be wrapped by the bench tracer (`perfbench/tracer.py`'s TRACED).  Code
that only the tests call is cost in `src/`: an oracle of that kind belongs
in `tests/support.py`.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced() -> set[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{owner}.{name}" for owner, name in module.TRACED}


def _read_names(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_public_names_are_used_in_src():
    definitions = []  # (module.name, the top-level statement defining it)
    statements = []  # (statement, the names it reads)
    for path in sorted((ROOT / "src" / "mbl").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append((stmt, _read_names(stmt)))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions.append((f"{path.stem}.{stmt.name}", stmt))
    assert definitions
    unused = [
        qualname for qualname, stmt in definitions
        if not any(qualname.split(".")[1] in names
                   for other, names in statements if other is not stmt)
    ]
    assert sorted(set(unused) - _traced()) == []
