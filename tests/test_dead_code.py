"""Code with no caller is deleted.

Every function and class defined in `src/finadj` must be read somewhere
in `src/`, `demos/` or `perfbench/`: code that only tests call is not
used, so a read from `tests/` does not count.  A definition in module m
counts only through the syntax tree: a load of its name inside m, an import
of the name from m, or an attribute read `m.<name>`.  Its own definition does not count,
nor does a re-export from an `__init__.py`, nor a comment, string or
same-named attribute of another module (`re.compile` does not read a
`compile` of ours).  A method counts when an attribute read names it.
Dunder methods are exempt: the interpreter calls them.
Every name a module of `src/finadj` imports at module level is used in
that module, and every field of a dataclass there is read as an attribute
somewhere, tests included.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "finadj"
USERS = ("src", "demos", "perfbench")  # the folders whose reads keep a definition


def _definitions():
    """(module, line, name, is a method) for each function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(node) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for node in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield path.stem, node.lineno, node.name, id(node) in methods


def _trees(folders):
    """(module name if in src/finadj, syntax tree) of each file in `folders`."""
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name != "__init__.py":
                yield path.stem if path.parent == PACKAGE else None, ast.parse(path.read_text())


def _attributes_read(folders) -> set[str]:
    return {node.attr for _, tree in _trees(folders) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _module_names_read() -> set[tuple[str, str]]:
    """(module, name) for each name of a src/finadj module that is loaded
    inside it, imported from it, or read as `module.name`."""
    read = set()
    for module, tree in _trees(USERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and module:
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.removeprefix("finadj.") if node.level == 0 else node.module
                read.update((source, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
    return read


def test_every_definition_is_referenced():
    attributes, names = _attributes_read(USERS), _module_names_read()
    unreferenced = [
        f"{module}.py:{line} {name}"
        for module, line, name, method in _definitions()
        if not (name in attributes if method else (module, name) in names)
    ]
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
    """Reads from tests count here, unlike for definitions: some fields
    are results that only tests inspect yet, and are kept on purpose.
    `FunctorProfile.faithful` is what the planned mapping-space oracle for
    the enriched decision needs (whiskering full and faithful), and
    `PreservationReport.counterexample` is the witness a re-check of a
    failed preservation certificate will name."""
    read = _attributes_read(USERS + ("tests",))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                for field in node.body:
                    if isinstance(field, ast.AnnAssign) and field.target.id not in read:
                        unread.append(f"{path.name}:{field.lineno} {node.name}.{field.target.id}")
    assert not unread, unread
