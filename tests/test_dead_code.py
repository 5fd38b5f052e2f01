"""Nothing in ``src/`` exists only because a test calls it.

Every top-level function and class, every method and every UPPER_CASE
module constant of ``src/xrprobe`` must be referenced by the program: by a
name or an attribute in ``src/``, ``scripts/`` or the benchmark's own code
(``xrbench/`` outside its tests). A reference inside the name's own
definition (recursion, a class naming itself) does not count, and neither
does a string or an import that is never used. Names are matched by
spelling alone, so a method counts as referenced when any attribute of that
name is. Dunder methods, which Python calls itself, are not checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "xrprobe"

# methods that http.server calls by name
HOOKS = {"do_GET", "log_message"}

_CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


def _program_files() -> list[Path]:
    return (sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
            + sorted(p for p in (ROOT / "xrbench").glob("*.py")
                     if not p.name.startswith("test_")))


def _definitions(tree: ast.Module) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of every checked definition in a module."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, item.lineno, item.end_lineno) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        out += [(t.id, node.lineno, node.end_lineno) for t in targets
                if isinstance(t, ast.Name) and _CONSTANT.fullmatch(t.id)]
    return out


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name read and every attribute taken in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def unreferenced(modules: list[Path], program: list[Path]) -> list[str]:
    """``module.name`` of every checked definition in ``modules`` that no file
    of ``program`` references."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in program:
        for name, line in _references(ast.parse(path.read_text(), str(path))):
            refs.setdefault(name, []).append((path, line))
    missing = []
    for path in modules:
        for name, first, last in _definitions(ast.parse(path.read_text(), str(path))):
            if name in HOOKS:
                continue
            if not any(where != path or not first <= line <= last
                       for where, line in refs.get(name, ())):
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_src_definition_serves_the_program():
    assert unreferenced(sorted(SRC.glob("*.py")), _program_files()) == []


def test_what_counts_as_a_reference(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "LIMIT = 3\n"
        "NAMED = 'NAMED'\n"
        "def walk(n):\n"
        "    return walk(n - 1)\n"
        "def used():\n"
        "    return LIMIT\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = Box\n"
        "    def open(self):\n"
        "        return self.close()\n"
        "    def close(self):\n"
        "        return self.close\n"
        "    def do_GET(self):\n"
        "        pass\n")
    app = tmp_path / "app.py"
    app.write_text("from lib import NAMED, walk, used, Box\nused()\nBox().open()\n")
    assert unreferenced([lib], [lib, app]) == ["lib.NAMED", "lib.walk"]
