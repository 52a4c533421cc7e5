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
