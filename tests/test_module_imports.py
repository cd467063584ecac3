"""Every module of the package is reached from the rest of the package.

A module that no other module of ``src/repro`` imports is code the
program never runs: it can only be reached from tests or benchmarks,
and its prose ends up describing a program that does not exist. This
scans the import statements of every module by AST (imports inside
functions included) and fails on any module, other than a ``__main__``
entry point, that no other module imports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(path: Path) -> set[str]:
    """Dotted names the module's import statements may resolve to."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}:{node.lineno}: the package uses absolute imports"
            names.add(node.module)
            # ``from pkg import sub`` imports the submodule ``pkg.sub``.
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    # Importing ``a.b.c`` imports its parent packages ``a`` and ``a.b`` too.
    return {
        ".".join(name.split(".")[:depth])
        for name in names
        for depth in range(1, name.count(".") + 2)
    }


def test_every_module_is_imported_by_another():
    modules = {_module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    imported: set[str] = set()
    for module, path in modules.items():
        imported |= _imported_names(path) - {module}
    orphans = sorted(
        name for name in modules if name not in imported and not name.endswith(".__main__")
    )
    assert orphans == [], f"modules no other module of src/repro imports: {orphans}"
