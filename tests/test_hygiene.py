"""Source hygiene read from the syntax trees of ``src/momaplan``: no private
module-level name that nothing in the package reads, no function, class or
method that nothing in the repository's code reads, and no import a module
never reads."""
import ast
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "momaplan"
_TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(_SRC.glob("*.py"))}
# Every Python file that may call into the package.
_CODE = [ast.parse(path.read_text(), str(path))
         for folder in ("src", "perfbench", "scripts", "tests")
         for path in sorted((_ROOT / folder).rglob("*.py"))]


def _reads(tree: ast.AST) -> Counter:
    """How often a tree loads each name, bare or as an attribute of something."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    )


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names a module's top-level definitions and assignments bind."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    return names


def test_every_private_module_name_is_read_in_the_package():
    read = sum(map(_reads, _TREES.values()), Counter())
    unread = sorted(
        f"{module}: {name}"
        for module, tree in _TREES.items()
        for name in _module_bindings(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    )
    assert unread == []


def test_every_function_class_and_method_is_read_outside_itself():
    """A definition in the package whose name no code under ``src/``,
    ``perfbench/``, ``scripts/`` or ``tests/`` reads, apart from reads in its
    own body, has no caller. Dunders are called by Python itself."""
    read = sum(map(_reads, _CODE), Counter())
    unread = sorted(
        f"{module}: {node.name}"
        for module, tree in _TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
        and read[node.name] <= _reads(node)[node.name]
    )
    assert unread == []


def test_every_import_is_read_where_it_is_made():
    unread = []
    for module, tree in _TREES.items():
        if module == "__init__.py":
            continue
        read = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unread += [f"{module}: {name}" for name in bound if name not in read]
    assert unread == []
