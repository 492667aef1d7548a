"""No module imports a name that it never reads.

When code goes, the imports that served it tend to stay behind. This check
finds them in `src/`, `tests/` and `scripts/`. An `__init__.py` is exempt,
since its imports are the package's re-exports, and so is `from __future__`.
A name counts as read when the module loads it anywhere, as a bare name or
as the base of an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in read]


def test_every_imported_name_is_read():
    paths = [path for folder in ("src", "tests", "scripts")
             for path in sorted((ROOT / folder).rglob("*.py")) if path.name != "__init__.py"]
    assert [entry for path in paths for entry in _unused_imports(path)] == []
