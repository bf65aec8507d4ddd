"""Layout guards: no module of the package but fileio.py writes files, no public
name of the package is there only for the tests, and the number of settable
values is pinned."""

import argparse
import ast
import pathlib

import gflasso
from gflasso.cli import build_parser

PACKAGE = pathlib.Path(gflasso.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
WRITE_MODE_CHARS = set("wax+")
OS_WRITERS = {"replace", "fdopen"}
PATH_WRITERS = {"write_text", "write_bytes"}


def _opens_for_writing(call: ast.Call) -> bool:
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    # a mode that is not a literal could be a write mode
    return not isinstance(mode, ast.Constant) or bool(WRITE_MODE_CHARS & set(mode.value))


def file_writes(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, kind) of each place in a module that writes, replaces or creates a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import) and any(a.name == "tempfile" for a in node.names):
            found.append((node.lineno, "tempfile"))
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "tempfile" or (node.module == "os" and OS_WRITERS & {a.name for a in node.names})
        ):
            found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in OS_WRITERS:
                found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name == "open" and _opens_for_writing(node):
                found.append((node.lineno, "open for writing"))
            elif name in PATH_WRITERS:
                found.append((node.lineno, name))
    return sorted(found)


def test_only_fileio_writes_files():
    offenders = {p.name: file_writes(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "fileio.py"}
    assert {name: writes for name, writes in offenders.items() if writes} == {}


def test_guard_sees_the_writes_in_fileio():
    kinds = {kind for _, kind in file_writes(PACKAGE / "fileio.py")}
    assert {"tempfile", "os.replace", "os.fdopen"} <= kinds


def public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each public top-level function or class, and of each public method or property."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{sub.name}", sub.name)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
    return found


def names_used(tree: ast.Module) -> set[str]:
    """Every name a module refers to: bare names, attribute names and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def unused_public_names(modules: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """The public definitions of ``modules`` that no module of ``modules`` or ``users`` names."""
    used = set().union(*map(names_used, [*modules.values(), *users]))
    return [f"{mod}.{qual}" for mod, tree in modules.items() for qual, name in public_definitions(tree) if name not in used]


def test_every_public_name_is_used_outside_the_tests():
    # __init__.py re-exports names and so cannot count as a use
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    users = [ast.parse(p.read_text()) for p in sorted(PERFBENCH.glob("*.py"))]
    assert users, f"no benchmark modules found under {PERFBENCH}"
    assert unused_public_names(modules, users) == []


def test_unused_guard_sees_an_unused_method():
    source = "class A:\n    def kept(self): ...\n    def dropped(self): ...\ndef helper(): ...\nA().kept()\nhelper()\n"
    assert unused_public_names({"m": ast.parse(source)}, []) == ["m.A.dropped"]


SETTABLE_VALUES = 95
ENVIRONMENT_READS = {"environ", "getenv"}


def settable_values() -> dict[str, int]:
    """Everything a user or a caller of the package can set, counted by kind."""
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    counts = {
        "cli options": sum(
            bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
            for p in subcommands.values()
            for a in p._actions
        ),
        "environment reads": 0,
        "config and spec fields": 0,
        "parameter defaults": 0,
        "other field defaults": 0,
    }
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                counts["environment reads"] += node.attr in ENVIRONMENT_READS
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                counts["parameter defaults"] += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                if node.name.endswith(("Config", "Spec")):
                    counts["config and spec fields"] += len(fields)
                else:
                    counts["other field defaults"] += sum(f.value is not None for f in fields)
    return counts


def test_settable_value_count():
    """Counts every CLI option but --help (the hidden --threads too), every
    os.environ/os.getenv read, every field of a *Config or *Spec class, every
    parameter default and every other class-body field with a default.

    A change that adds or removes a settable value updates SETTABLE_VALUES in
    the same diff."""
    counts = settable_values()
    assert sum(counts.values()) == SETTABLE_VALUES, counts
