"""No module of the package imports a name it never uses, every
module-level private function or class is used somewhere in the package, and
every private attribute stored on ``self`` is read somewhere in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vetokensim"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append(f"{name}:{node.lineno}: {bound}")
    assert unused == []


def test_every_private_function_and_class_is_used():
    # a use is a name read, an attribute read or a name imported, in any module
    used = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unused == []


def test_every_private_attribute_stored_is_read():
    attributes = [node for tree in TREES.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    read = {node.attr for node in attributes if isinstance(node.ctx, ast.Load)}
    stored = {node.attr for node in attributes if isinstance(node.ctx, ast.Store)
              and getattr(node.value, "id", None) == "self" and node.attr.startswith("_")}
    assert sorted(stored - read) == []  # state that no code reads
