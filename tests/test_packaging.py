"""The declared runtime dependencies are exactly what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "typoimpute"


def _third_party_imports() -> set[str]:
    """Top-level names of absolute imports anywhere in the package, also
    inside functions, that are neither the standard library nor the
    package itself."""
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"typoimpute"}


def _declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    # the distribution name leads each requirement; for these packages it
    # is also the import name
    return {re.match(r"[A-Za-z0-9._-]+", req).group(0).lower() for req in requirements}


def test_runtime_dependencies_are_what_the_package_imports():
    assert _third_party_imports() == _declared_dependencies() == {"numpy"}


def _unused_imports(path: Path) -> list[str]:
    """``line: name`` for each name a module imports and never reads,
    leaving out names listed in its ``__all__`` and import lines marked
    ``# noqa: F401``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(const.value for const in ast.walk(node.value)
                        if isinstance(const, ast.Constant))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {bound}")
    return unused


def test_every_imported_name_is_used():
    unused = {str(path.relative_to(PACKAGE)): names for path in sorted(PACKAGE.rglob("*.py"))
              if (names := _unused_imports(path))}
    assert unused == {}
