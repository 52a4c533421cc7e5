"""The declared runtime dependencies are exactly what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "typoimpute"


def _imports() -> dict[str, set[str]]:
    """Module path -> top-level names of its absolute imports, also
    inside functions."""
    imports = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        names = imports[str(path.relative_to(PACKAGE))] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return imports


def _third_party_imports() -> set[str]:
    """Top-level names imported anywhere in the package that are neither
    the standard library nor the package itself."""
    names = set().union(*_imports().values())
    # the interpreter's SHA-256 module is _sha256 up to Python 3.11 and
    # _sha2 from 3.12, and stdlib_module_names names only its own
    return names - set(sys.stdlib_module_names) - {"_sha256", "_sha2", "typoimpute"}


def _declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    # the distribution name leads each requirement; for these packages it
    # is also the import name
    return {re.match(r"[A-Za-z0-9._-]+", req).group(0).lower() for req in requirements}


def test_runtime_dependencies_are_what_the_package_imports():
    assert _third_party_imports() == _declared_dependencies() == {"numpy"}


# The modules whose ``haversine_km`` import no code reads: the benchmark's
# tracer (bench/trace_child.py) counts the scalar haversine calls of each
# through that name, so each import is marked ``# noqa: F401``.
TRACED_IMPORTS = {
    "splits.py": "haversine_km",
    "imputers/frequency.py": "haversine_km",
    "imputers/knn.py": "haversine_km",
    "imputers/ridge.py": "haversine_km",
}


def _unused_imports(path: Path) -> list[str]:
    """``line: name`` for each name a module imports and never reads,
    leaving out names listed in its ``__all__`` and the traced imports,
    and ``line: name (noqa)`` for any other import marked ``# noqa: F401``."""
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
            traced = TRACED_IMPORTS.get(path.relative_to(PACKAGE).as_posix()) == bound
            if "# noqa: F401" in lines[alias.lineno - 1]:
                if not traced:
                    unused.append(f"{alias.lineno}: {bound} (noqa)")
            elif bound not in used:
                unused.append(f"{alias.lineno}: {bound}")
    return unused


def test_every_imported_name_is_used():
    """Every import is read, but the four traced ``haversine_km`` ones,
    and no other import hides behind a ``# noqa: F401`` marker."""
    unused = {str(path.relative_to(PACKAGE)): names for path in sorted(PACKAGE.rglob("*.py"))
              if (names := _unused_imports(path))}
    assert unused == {}


def test_only_configio_imports_hashlib():
    """Importing ``hashlib`` maps OpenSSL's libcrypto, some 3.5 MB of a
    stage's peak RSS; ``configio`` imports it only where the interpreter
    has no SHA-256 module of its own."""
    assert [path for path, names in _imports().items() if "hashlib" in names] == ["configio.py"]


def _calls(path: Path) -> set[str]:
    """Names of the functions and methods a module calls or names as
    an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_no_module_holds_a_whole_file_copy():
    """Inputs are hashed in chunks, and the CLI writes datasets one block
    of languages at a time: no module reads a file's bytes whole, and
    ``cli`` never builds a dataset's whole text."""
    modules = {str(path.relative_to(PACKAGE)): _calls(path) for path in sorted(PACKAGE.rglob("*.py"))}
    assert [path for path, names in modules.items() if "read_bytes" in names] == []
    assert "serialize_dataset" not in modules["cli.py"]


def _linalg_uses(tree: ast.AST) -> list[ast.AST]:
    """The nodes of ``tree`` that read a ``linalg`` attribute or import
    from ``numpy.linalg``."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "linalg"
            or isinstance(node, ast.Import) and any("linalg" in a.name for a in node.names)
            or isinstance(node, ast.ImportFrom) and ("linalg" in (node.module or "")
                                                     or any(a.name == "linalg" for a in node.names))]


def test_one_linear_solver():
    """Ridge's primal and dual systems share one solver: ``src/`` reads
    ``linalg`` only inside ``imputers/ridge.py::_solve_in_place``, whose
    ``np.linalg.solve`` calls see at most one block of rows each."""
    inside, outside = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path == PACKAGE / "imputers" / "ridge.py":
            solver = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_solve_in_place")
            allowed = {id(node) for node in ast.walk(solver)}
        for node in _linalg_uses(tree):
            (inside if id(node) in allowed else outside).append(
                f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert inside and outside == []


def _uses_by_function(path: Path, used) -> set[str]:
    """``module::function`` for each function of ``path`` (``<module>``
    outside any) holding a node for which ``used`` is true."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if used(child):
                found.add(f"{path.relative_to(PACKAGE)}::{inner}")
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def _reads_a_whole_file(node: ast.AST) -> bool:
    """``read_text`` named anywhere, or a ``.read()`` with no size."""
    if isinstance(node, ast.Attribute) and node.attr == "read_text":
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "read" and not node.args and not node.keywords)


def _calls_parse_dataset(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "parse_dataset"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "parse_dataset")


def test_no_stage_reads_a_dataset_whole():
    """Datasets are parsed as their files are read, line by line: only
    ``cli._load_dataset`` calls ``parse_dataset``, and a file's whole
    text is read only by the readers of small files, ``configio.read_kv``
    (configs and specs) and ``cli._read_table`` (evaluation tables)."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert set().union(*(_uses_by_function(path, _reads_a_whole_file) for path in paths)) == {
        "configio.py::read_kv", "cli.py::_read_table"}
    assert set().union(*(_uses_by_function(path, _calls_parse_dataset) for path in paths)) == {
        "cli.py::_load_dataset"}
