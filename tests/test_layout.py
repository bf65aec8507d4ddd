"""Layout guard: no module of the package but fileio.py writes files."""

import ast
import pathlib

import gflasso

PACKAGE = pathlib.Path(gflasso.__file__).parent
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
