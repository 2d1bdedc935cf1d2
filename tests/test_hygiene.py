"""Source hygiene: every name a module of the package imports is used in
that module, every name a module exports is bound there and the package
re-exports only what its defining module exports, every top-level function
and class is referenced outside its own definition, and no module states
an invariant with ``assert``, which ``python -O`` strips.  Standard library
only (``ast``)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fthresh"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import, `__future__` excluded."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported_names(tree: ast.Module) -> set[str]:
    """The literal `__all__` list: names imported to be re-exported."""
    for node in tree.body:
        if _is_all(node):
            return set(ast.literal_eval(node.value))
    return set()


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level: definitions, assignments and
    imports."""
    out = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    # an empty glob would parametrize no check at all
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    if path.name == "__init__.py":
        used |= _exported_names(tree)
    unused = {
        name: line
        for name, line in _imported_names(tree).items()
        if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}; raise InternalError"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    tree = _tree(path)
    stale = _exported_names(tree) - _bound_names(tree)
    assert not stale, f"{path.name}: __all__ names nothing bound: {sorted(stale)}"


def test_package_exports_are_module_exports():
    """Each name `fthresh.__all__` takes from a module with an `__all__` is
    in that module's `__all__`."""
    init = _tree(SRC / "__init__.py")
    exported = _exported_names(init)
    missing = []
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module_all = _exported_names(_tree(SRC / f"{node.module}.py"))
            missing += [
                f"{node.module}.{a.name}"
                for a in node.names
                if a.name in exported and module_all and a.name not in module_all
            ]
    assert not missing, f"re-exported but not in the module's __all__: {missing}"


def _references(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement refers to: identifiers, attributes,
    imported names and string constants (`getattr`-style lookups)."""
    out: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_definition_is_referenced():
    """A top-level function or class of the package that nothing in `src/`,
    `tests/` or `perfbench/` names, apart from its own body and `__all__`
    lists, is dead code, such as a helper left behind by a deletion."""
    paths = [*MODULES, *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    referenced: set[str] = set()
    for path in paths:
        for stmt in _tree(path).body:
            if _is_all(stmt):
                continue
            refs = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
            referenced |= refs
    dead = [
        f"{path.name}:{stmt.name}"
        for path in MODULES
        for stmt in _tree(path).body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in referenced
    ]
    assert not dead, f"defined but never referenced: {dead}"
