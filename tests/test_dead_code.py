"""Code with no caller is deleted.

Every function and class defined in `src/finadj` must be named again
somewhere in `src/`, `tests/` or `demos/`.  Its own definition does not
count, and neither does a re-export from an `__init__.py`.  A method counts
only when an attribute read there names it, since its name may be part of
other words.  Dunder methods are exempt: the interpreter calls them.
Every name a module of `src/finadj` imports at module level is used in
that module, and every field of a dataclass there is read as an attribute
somewhere.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "finadj"


def _definitions():
    """(where, name, is a method) for each function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(node) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for node in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{path.name}:{node.lineno}", node.name, id(node) in methods


def _attributes_read() -> set[str]:
    return {
        node.attr
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }


def test_every_definition_is_referenced():
    texts = [
        path.read_text()
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    read = _attributes_read()
    definitions = list(_definitions())
    defined = Counter(name for _, name, _ in definitions)
    unreferenced = []
    for where, name, method in definitions:
        if method:
            referenced = name in read
        else:
            word = re.compile(rf"\b{re.escape(name)}\b")
            referenced = sum(len(word.findall(text)) for text in texts) > defined[name]
        if not referenced:
            unreferenced.append(f"{where} {name}")
    assert not unreferenced, unreferenced


def test_every_module_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def test_every_dataclass_field_is_read():
    read = _attributes_read()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                for field in node.body:
                    if isinstance(field, ast.AnnAssign) and field.target.id not in read:
                        unread.append(f"{path.name}:{field.lineno} {node.name}.{field.target.id}")
    assert not unread, unread
