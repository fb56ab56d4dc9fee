"""Fail when a name that ``src/provlab`` defines or imports is used nowhere,
or only by tests.

Every top-level function, class and assigned name of a ``src/provlab``
module, and every method of a top-level class, must appear in ``src/``,
``perfbench/`` or ``tools/`` somewhere besides its own definition; a name
that only ``tests/`` reaches is reported too, unless ``RESERVED`` lists it
with the ROADMAP item that will give it a src user.  A mention inside a
string counts, because the benchmark tracer names the functions it hooks in
strings.  Dunder names are called implicitly and are not checked.  Every
name a ``src/provlab`` module imports must be read in that module, unless
the import's first line is marked ``# noqa: F401`` (a re-export).  The
modules are parsed with the stdlib ``ast``.

Every backticked Python identifier in README's "Package layout" table must
name something that exists, unless ``NOT_PYTHON`` lists it.  A call's
arguments aside, its first part is ``provlab``, a ``provlab`` module, a
builtin, or a name some ``src/provlab`` module defines (a top-level name, a
class member or field, a parameter) or imports; each later part is a member
of what precedes it: a module of ``provlab``, a module's own top-level
name, or a class's method, field or class attribute.  A part after
anything else names nothing the sources show.  Exits 1 and lists the dead names,
any ``RESERVED`` name that is no longer reached only by tests, and any
table identifier that names nothing.

    python3 tools/dead_names.py
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "perfbench", "tools")
# src names that only tests reach for now, each with the ROADMAP item that gives it a src user
RESERVED = {"redact_assertion": "item 3", "report_from_json": "item 23"}
# backticked identifiers in README's package table that are not Python names, each with what it is
NOT_PYTHON = {
    "revocation": "the validator check that catches ServiceUnreachable",
    "workspace.json": "the workspace's state file",
}
# a backticked span that reads as a Python identifier: dotted names, optionally called
IDENTIFIER = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def top_level_names(tree: ast.Module):
    """``(name, line)`` of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def defined_names(tree: ast.Module):
    """``(name, line)`` of each top-level definition and top-level class method."""
    yield from top_level_names(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member.lineno


def class_members(node: ast.ClassDef):
    """Each method, field and class attribute a class body defines."""
    for member in node.body:
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield member.name
        elif isinstance(member, (ast.Assign, ast.AnnAssign)):
            targets = member.targets if isinstance(member, ast.Assign) else [member.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def unused_imports(tree: ast.Module, lines: list[str]):
    """``(name, line)`` of each name the module imports and never reads."""
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]  # ``import a.b`` binds ``a``
            if name not in read:
                yield name, node.lineno


def known_names(tree: ast.Module):
    """Each name the module defines at top level, in a class body or as a
    parameter, and each name it imports."""
    yield from (name for name, _ in defined_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from class_members(node)
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)


def unknown_table_names(table: str, trees: dict[str, ast.Module]):
    """Each backticked identifier in the rows of ``table`` that names nothing
    the ``provlab`` modules in ``trees``, parsed and keyed by name, define."""
    known = {"provlab", *dir(builtins), *trees}
    # each module's own top-level names, and each class's members by class name
    modules = {stem: {name for name, _ in top_level_names(tree)} for stem, tree in trees.items()}
    classes: dict[str, set[str]] = {}
    for tree in trees.values():
        known.update(known_names(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, set()).update(class_members(node))

    def names_something(first: str, *rest: str) -> bool:
        if first == "provlab":
            scope = "package", None
        elif first in trees:
            scope = "module", first
        elif first in classes:
            scope = "class", first
        elif first in known:
            scope = "opaque", None  # a builtin, a function, a field, a parameter or an import
        else:
            return False
        for part in rest:
            kind, value = scope
            if kind == "package" and part in trees:
                scope = "module", part
            elif kind == "module" and part in modules[value]:
                scope = ("class", part) if part in classes else ("opaque", None)
            elif kind == "class" and part in classes[value]:
                scope = "opaque", None
            else:
                return False
        return True

    for row in table.splitlines():
        for span in re.findall(r"`([^`]+)`", row) if row.startswith("|") else ():
            match = IDENTIFIER.fullmatch(span)
            if match and span not in NOT_PYTHON and not names_something(*match[1].split(".")):
                yield span


def main() -> int:
    words, untested = Counter(), Counter()  # every mention; mentions outside tests/
    for directory in SEARCHED:
        for path in (ROOT / directory).rglob("*.py"):
            if path == Path(__file__).resolve():  # its own RESERVED table is not a use
                continue
            found = re.findall(r"\w+", path.read_text())
            words.update(found)
            if directory != "tests":
                untested.update(found)
    dead = [
        f"tools/dead_names.py: RESERVED name {name} ({item}) is not reached only by tests"
        for name, item in RESERVED.items()
        if untested[name] != 1 or words[name] == untested[name]
    ]
    trees = {}
    for path in sorted((ROOT / "src" / "provlab").glob("*.py")):
        source = path.read_text()
        tree = trees[path.stem] = ast.parse(source)
        where = path.relative_to(ROOT)
        for name, line in defined_names(tree):
            if name.startswith("__"):
                continue
            if words[name] <= 1:
                dead.append(f"{where}:{line}: {name} appears only in its definition")
            elif untested[name] <= 1 and name not in RESERVED:
                dead.append(f"{where}:{line}: {name} is reached only by tests")
        dead += [
            f"{where}:{line}: {name} is imported and never read"
            for name, line in unused_imports(tree, source.splitlines())
        ]
    table = (ROOT / "README.md").read_text().split("## Package layout", 1)[1].split("\n## ", 1)[0]
    dead += [
        f"README.md: package table names `{span}`, which src/provlab does not define"
        for span in dict.fromkeys(unknown_table_names(table, trees))
    ]
    print("\n".join(dead) or "no dead names")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
