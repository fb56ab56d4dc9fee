"""The names the benchmark reaches in provlab still exist.

``perfbench/run.py`` binds provlab modules as globals and reads attributes
off them; ``perfbench/tracer.py`` wraps the functions its ``HOOKS`` table
names, and skips (reporting "hooks not installed") any that are gone.  Both
files are read with :mod:`ast`, so metric names such as
``"container.hard_binding_over_sha256"`` in strings are not mistaken for
attribute reads.
"""

import ast
import functools
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class _ModuleReads(ast.NodeVisitor):
    """Each attribute chain read off a module global, as (line, module, attrs);
    a name a function binds itself (a parameter or an assignment) is not one."""

    def __init__(self, modules: set[str]) -> None:
        self.modules = modules
        self.shadowed: frozenset[str] = frozenset()
        self.reads: list[tuple[int, str, tuple[str, ...]]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        declared = {n for g in ast.walk(node) if isinstance(g, ast.Global) for n in g.names}
        bound = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        bound |= {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        outer, self.shadowed = self.shadowed, self.shadowed | (bound - declared)
        self.generic_visit(node)
        self.shadowed = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attrs, base = [], node
        while isinstance(base, ast.Attribute):
            attrs.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in self.modules - self.shadowed:
            self.reads.append((node.lineno, base.id, tuple(reversed(attrs))))
        else:
            self.generic_visit(node)


_MISSING = object()


def _lookup(module: str, attrs) -> object:
    """``provlab.<module>.<attrs...>``, or ``_MISSING`` if any step is absent."""
    found = importlib.import_module(f"provlab.{module}")
    return functools.reduce(lambda obj, attr: getattr(obj, attr, _MISSING), attrs, found)


def test_every_provlab_attribute_the_benchmark_reads_resolves():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "provlab"
        for alias in node.names
    }
    assert {"attacks", "corpus", "credentials", "signer", "validator"} <= modules
    visitor = _ModuleReads(modules)
    visitor.visit(tree)
    assert len(visitor.reads) > 30
    missing = [
        f"run.py:{line}: {module}.{'.'.join(attrs)}"
        for line, module, attrs in visitor.reads
        if _lookup(module, attrs) is _MISSING
    ]
    assert not missing, missing


def test_every_tracer_hook_resolves():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    hooks = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "HOOKS"
    )
    assert len(hooks) > 20
    missing = []
    for module, path, _ in hooks:
        *owner_path, name = path.split(".")
        owner = _lookup(module, owner_path)
        # the tracer wraps an attribute its owner defines, not one it inherits
        if owner is _MISSING or name not in vars(owner):
            missing.append(f"{module}.{path}")
    assert not missing, missing
