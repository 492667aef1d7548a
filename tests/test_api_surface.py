"""The package exports nothing that only tests call.

A public top-level function or class of `src/resamplerec`, and a public
method of such a class, must be used by the package itself, by
`perfbench/` or by `scripts/`. A name that only an `__init__.py`
re-exports, or only a test calls, is dead weight: its test should exercise
the form the package runs instead. Uses are matched by name, so a method
counts as used when any attribute of that name is read.

A private top-level function, class or constant must be read by the package
itself: a test's use alone does not keep it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "resamplerec"


def _public(nodes) -> list:
    return [node for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_definitions() -> dict[str, str]:
    """Public top-level function and class names, and `Class.method` for the
    public methods of public classes -> the module defining them."""
    names = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        for node in _public(ast.parse(path.read_text(encoding="utf-8")).body):
            names[node.name] = module
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    names[f"{node.name}.{method.name}"] = module
    return names


def _private_definitions() -> dict[str, str]:
    """Private top-level function, class and constant names (dunders aside)
    -> the module defining them."""
    names = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = str(path.relative_to(PACKAGE))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                if name.startswith("_") and not name.startswith("__"):
                    names[name] = module
    return names


def _used_names(*roots: Path) -> set[str]:
    """Every name the files under `roots` read, as a bare name or as an
    attribute. An import alone is no use, so a re-export in an `__init__.py`
    does not count."""
    names = set()
    for path in [path for root in roots for path in root.rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_outside_the_tests():
    used = _used_names(PACKAGE, ROOT / "perfbench", ROOT / "scripts")
    unused = {name: module for name, module in _public_definitions().items()
              if name.rpartition(".")[2] not in used}
    assert unused == {}


def test_every_private_name_is_used_by_the_package():
    used = _used_names(ROOT / "src")
    unused = {name: module for name, module in _private_definitions().items()
              if name not in used}
    assert unused == {}
