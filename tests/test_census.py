"""Census: every function, method and class in the library is used by it.

A definition counts as used when its name appears somewhere in
``src/arguesia`` outside its own body, as a name, an attribute or a
string constant.  The check is by name only, so a method that shares its
name with a used one passes; it still catches code that only the tests
call.  A definition kept for the tests alone would be listed below with
the reason it stays; none is.  A second check finds imported names that the
importing module never uses, in the library and in the tests.

The census by execution runs every CLI command in process and records,
with ``sys.setprofile``, the code object of every library function it
enters; a function or method never entered fails unless ``NEVER_RUN``
lists its qualified name with the reason.  Code objects, not names, so a
dead method that shares its name with a live one is found.
"""

import ast
import functools
import importlib
import pkgutil
import sys
from pathlib import Path

import arguesia
from arguesia.cli import FIGURE_KINDS, REPLAY_KINDS, VERIFY_KINDS, main

TESTS = Path(__file__).resolve().parent
LIBRARY = TESTS.parent / "src" / "arguesia"

ALLOWLIST = {}


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


NEVER_RUN = {
    "_frozen.Frozen.__delattr__": "refuses deletion; nothing deletes a field",
    "_frozen.Frozen.__hash__": "hashes a value class without its own __hash__; no command does",
    "_frozen.Frozen.__repr__": "debugging text of a value class; no output prints it",
    "_frozen.Frozen.__setattr__": "refuses assignment; fields are set through object.__setattr__",
    "_frozen.Frozen.__setstate__": "restores fields for copy and pickle; no command copies",
    "_kernel.kernel_backend": "public API (arguesia.kernel_backend), recorded by the benchmark",
    "cli._default_seed": "reads ARGUESIA_SEED when --seed is left out; the census passes --seed",
    "cli._usage_error": "the exit-2 path; every census command is well-formed",
    "conics.chord_quadratic": "the pencil's no-rational-chord claim; no seeded member reaches it",
    "projective_core.PLine.__repr__": "names the line in a GeometryError; no seeded run raises one",
}


def _library_functions() -> dict:
    """Code object -> qualified name (module without the package) of every
    function and method defined in the library, unwrapped from
    staticmethod, property, cached_property and the functools caches."""
    found = {}
    for info in pkgutil.iter_modules(arguesia.__path__):
        module = importlib.import_module(f"arguesia.{info.name}")

        def add(obj, qualname):
            while not hasattr(obj, "__code__"):
                if isinstance(obj, (staticmethod, classmethod)):
                    obj = obj.__func__
                elif isinstance(obj, property):
                    for accessor in (obj.fget, obj.fset, obj.fdel):
                        if accessor is not None:
                            add(accessor, qualname)
                    return
                elif isinstance(obj, functools.cached_property):
                    obj = obj.func
                elif hasattr(obj, "__wrapped__"):
                    obj = obj.__wrapped__
                else:
                    return
            if obj.__module__ == module.__name__:
                found[obj.__code__] = f"{info.name}.{qualname}"

        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    add(member, f"{name}.{attr}")
            else:
                add(obj, name)
    return found


def _census_commands(figure: str) -> list[list[str]]:
    seeds = ("1", "2", "3")
    commands = [["verify", kind, "--seed", "1", "--trials", "3", *json]
                for kind in VERIFY_KINDS for json in ([], ["--json"])]
    commands += [["replay", kind, "--seed", seed, *json]
                 for kind in REPLAY_KINDS for seed in seeds for json in ([], ["--json"])]
    commands += [["figure", kind, "--seed", seed, "-o", figure]
                 for kind in FIGURE_KINDS for seed in seeds]
    commands.append(["construct", "harmonic", "--b", "0", "--c", "1", "--d", "1/2"])
    return commands


def test_every_function_runs_or_is_listed(tmp_path, capsys):
    functions = _library_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    commands = _census_commands(str(tmp_path / "figure.svg"))
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(commands)
    never_run = sorted(name for code, name in functions.items() if code not in entered)
    unlisted = [name for name in never_run if name not in NEVER_RUN]
    assert unlisted == [], "never run by any command; delete, cover or list"
    # an entry whose function now runs, or is gone, leaves the list
    assert never_run == sorted(NEVER_RUN)
    assert all(reason.strip() for reason in NEVER_RUN.values())
