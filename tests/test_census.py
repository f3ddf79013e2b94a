"""Census: every function, method and class in the library is used by it.

A definition counts as used when its name appears somewhere in
``src/arguesia`` outside its own body, as a name, an attribute or a
string constant.  The check is by name only, so a method that shares its
name with a used one passes; it still catches code that only the tests
call.  The few definitions kept as test fixtures are listed below with
the reason each one stays.  A second check finds imported names that the
importing module never uses, in the library and in the tests.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
LIBRARY = TESTS.parent / "src" / "arguesia"

ALLOWLIST = {
    "affine_point": "test fixture: builds points from affine coordinates",
    "from_json": "test fixture: reads points back from the library's own JSON",
    "menelaus_steps": "test fixture: selects the Menelaus steps of a proof trace",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _census():
    """(module, name) of every definition named nowhere else in the library."""
    uses = {}  # name -> [(module, line)] of every mention
    defs = []  # (module, first line, last line, name)
    for path in sorted(LIBRARY.glob("*.py")):
        module = path.name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used = node.id
            elif isinstance(node, ast.Attribute):
                used = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used = node.value
            else:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not _is_dunder(node.name):
                        defs.append((module, node.lineno, node.end_lineno, node.name))
                continue
            uses.setdefault(used, []).append((module, node.lineno))
    return [
        (module, name)
        for module, first, last, name in defs
        if all(where == module and first <= line <= last for where, line in uses.get(name, ()))
    ]


def test_every_definition_is_used_or_allowlisted():
    unused = _census()
    unlisted = sorted(f"{module}:{name}" for module, name in unused if name not in ALLOWLIST)
    assert unlisted == [], "named nowhere else in the library; delete or allowlist"
    # an entry whose definition gained a library caller, or is gone, leaves the list
    assert sorted(name for _, name in unused) == sorted(ALLOWLIST)


def test_every_allowlisted_name_has_a_reason():
    for name, reason in ALLOWLIST.items():
        assert reason.strip(), name


def _unused_imports(path: Path) -> list[str]:
    """Names the module imports and never mentions; ``__future__`` imports,
    names listed in ``__all__`` and imports marked ``noqa: F401`` (loaded
    for their effect) are used."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(LIBRARY.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert [entry for path in modules for entry in _unused_imports(path)] == []
