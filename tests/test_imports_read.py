"""Every name an import binds in `src/mbl` or `tests/` is read there.

An import that nothing reads costs start-up time in `src/` and misleads a
reader anywhere.  `from __future__` imports are directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    bound = {}  # name -> line of the import that binds it
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in read]


def test_every_imported_name_is_read():
    paths = sorted((ROOT / "src" / "mbl").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert paths
    assert [entry for path in paths for entry in _unread_imports(path)] == []
