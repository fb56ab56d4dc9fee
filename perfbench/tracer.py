"""Span tracer for the provlab benchmark.

``Tracer.install`` replaces the public functions of provlab's layers with
wrappers that record one span per call: name, start, end, parent span and the
benchmark op that caused it.  Modules import by name, so every provlab
module's binding of a function is replaced, not just the defining one.  The
exception is ``encoding.encode_value``: it recurses through its own module
binding, so that binding is left alone and only top-level calls become spans.

Spans live in flat arrays in memory and are written to a file when the run
ends.  Calls made on other threads (the status service's handler threads)
have no enclosing span on their thread and are recorded as roots.  A hook
that cannot be installed is listed in ``missing``; the metrics that need it
are left out rather than reported as zero.
"""

from __future__ import annotations

import array
import functools
import hashlib
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, span name); the span name defaults to
# "<module>.<attribute path>"
HOOKS: tuple[tuple[str, str, str | None], ...] = (
    ("container", "parse_asset", None),
    ("container", "compute_hard_binding", None),
    ("container", "serialize_asset", None),
    ("container", "embed_manifest", None),
    ("encoding", "decode_value", None),
    ("encoding", "encode_value", None),
    ("crypto", "verify", None),
    ("crypto", "SigningKey.sign", "crypto.sign"),
    ("trust", "verify_chain", None),
    ("trust", "certificate_template_bytes", None),
    ("trust", "verify_crl", None),
    ("trust", "Authority.generate_crl", None),
    ("timestamp", "verify_token", None),
    ("timestamp", "issue_token", None),
    ("credentials", "decode_manifest", None),
    ("credentials", "encode_manifest", None),
    ("signer", "sign_asset", None),
    ("validator", "validate", None),
    ("statusservice", "run_status_service", None),
    ("statusservice", "StatusService.stop", None),
    ("statusservice", "StatusService.answer", None),
    ("statusservice", "query_status", None),
    ("cli", "main", None),
    ("workspace", "Workspace.initialize", None),
    ("workspace", "Workspace.load", None),
    ("corpus", "build_corpus", None),
)

# functions that call themselves through their own module binding
_RECURSIVE = {("encoding", "encode_value")}

_COLUMNS = ("name", "op", "parent", "start", "end", "extra")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.missing: list[str] = []
        self.op = -1  # id of the benchmark op now running on the client thread
        self.active = False
        self.signatures: list[bytes] | None = None  # sign results, when collecting
        self._seen_verifies: set[bytes] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._cols = {c: array.array("q") for c in _COLUMNS}

    # -- installation -------------------------------------------------------

    def install(self, package: str = "provlab") -> None:
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        }
        extras = {
            "container.compute_hard_binding": self._binding_bytes,
            "crypto.verify": self._verify_repeat,
            "crypto.sign": self._collect_signature,
        }
        for module_name, path, span_name in HOOKS:
            span_name = span_name or f"{module_name}.{path}"
            try:
                module = importlib.import_module(f"{package}.{module_name}")
                owner, attr = _resolve(module, path)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(span_name)
                continue
            index = len(self.names)
            self.names.append(span_name)
            extra = extras.get(span_name)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(index, raw.__func__, extra)))
            elif owner is not module:
                setattr(owner, attr, self._wrap(index, raw, extra))
            else:
                wrapper = self._wrap(index, raw, extra)
                skip_own = (module_name, path) in _RECURSIVE
                for other in modules.values():
                    if skip_own and other is module:
                        continue
                    for name, value in list(vars(other).items()):
                        if value is raw:
                            setattr(other, name, wrapper)

    def _wrap(self, index: int, fn, extra):
        cols = self._cols
        local = self._local
        lock = self._lock
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                span = len(cols["start"])
                cols["name"].append(index)
                cols["op"].append(self.op)
                cols["parent"].append(stack[-1] if stack else -1)
                cols["start"].append(0)
                cols["end"].append(0)
                cols["extra"].append(0)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                cols["start"][span] = start
                cols["end"][span] = end
            if extra is not None:
                cols["extra"][span] = extra(args, result)
            return result

        return wrapper

    # -- per-call extras ----------------------------------------------------

    @staticmethod
    def _binding_bytes(args, result) -> int:
        """Logical bytes hashed: the asset minus its exclusion ranges."""
        return len(args[0].data) - sum(r.length for r in args[1])

    def _verify_repeat(self, args, result) -> int:
        key = hashlib.sha256(b"".join(bytes(a) for a in args[:3])).digest()
        if key in self._seen_verifies:
            return 1
        self._seen_verifies.add(key)
        return 0

    def _collect_signature(self, args, result) -> int:
        if self.signatures is not None:
            self.signatures.append(result)
        return 0

    # -- results ------------------------------------------------------------

    def summary(self, op_kinds: dict[int, str]) -> "SpanSummary":
        return SpanSummary(self.names, self._cols, op_kinds)

    def write(self, path: Path, op_kinds: dict[int, str]) -> None:
        """Write every span: a JSON header line, then the raw int64 columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "columns": list(_COLUMNS),
            "count": len(self._cols["start"]),
            "byteorder": sys.byteorder,
            "op_kinds": {str(k): v for k, v in op_kinds.items()},
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in _COLUMNS:
                self._cols[column].tofile(out)


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if parts[-1] not in owner.__dict__:
        raise AttributeError(path)
    return owner, parts[-1]


class SpanSummary:
    """Per (span name, op kind) totals: calls, time, self time, extra."""

    def __init__(self, names: list[str], cols: dict[str, array.array], op_kinds: dict[int, str]):
        count = len(cols["start"])
        start, end, parent = cols["start"], cols["end"], cols["parent"]
        child_ns = [0] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.ns: dict[tuple[str, str], int] = defaultdict(int)
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.extra: dict[tuple[str, str], int] = defaultdict(int)
        name_col, op_col, extra_col = cols["name"], cols["op"], cols["extra"]
        for i in range(count):
            key = (names[name_col[i]], op_kinds.get(op_col[i], "none"))
            duration = end[i] - start[i]
            self.calls[key] += 1
            self.ns[key] += duration
            self.self_ns[key] += duration - child_ns[i]
            self.extra[key] += extra_col[i]

    def total(self, table: dict, name: str, kind: str | None = None) -> int:
        """Sum over spans of ``name`` in ops of ``kind``, or in every op but
        the warm-up ones when ``kind`` is None."""
        return sum(
            v for (n, k), v in table.items()
            if n == name and (k == kind if kind is not None else k != "warmup")
        )
