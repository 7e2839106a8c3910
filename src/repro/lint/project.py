"""Project-wide index for hdlint's cross-module analysis pass.

The per-file rules (HD001–HD008) see one :mod:`ast` tree at a time, which
is exactly the blind spot the concurrency and drift rules need to close:
a lock acquired in one method and forgotten in another, an ``os.environ``
read hiding outside the blessed config resolvers, a metric name typo'd in
one module out of twelve, a dense ``uint8`` array produced in
``repro.core`` and consumed as packed words in ``repro.eval``.

This module builds the first pass of the two-pass engine: every linted
file is summarised into a :class:`ModuleIndex` — exported symbols, class
attribute/lock usage, function definitions and call edges,
``threading`` primitive usage, environment reads, and
``repro.obs`` metric/span name literals — and the per-run collection is a
:class:`ProjectIndex`.  Both are plain dataclasses of JSON-able
primitives (no pickling anywhere, mirroring the HD008 discipline), so
the index can be cached across CI jobs keyed on a source hash.

:class:`ProjectRule` is the second pass: a rule that runs once over the
whole index instead of once per file (see
:mod:`repro.lint.project_rules` for the HD009–HD012 catalogue).
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding
from repro.lint.rules import Rule, dotted_name

# ----------------------------------------------------------------------
# Vocabulary
# ----------------------------------------------------------------------

#: Constructors that create a holdable (``with``-able) mutual-exclusion
#: primitive; attributes assigned one of these become "lock attributes".
_LOCK_CTORS = {"Lock", "RLock", "Condition"}

#: Constructors of thread-safe primitives whose *use* is synchronisation:
#: accesses to attributes holding one are excluded from race analysis.
_SYNC_CTORS = _LOCK_CTORS | {
    "Event", "Semaphore", "BoundedSemaphore", "Barrier",
    "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue",
}

#: Call names (last dotted segment, leading underscores stripped) whose
#: first string-literal argument is an obs metric/span name.
_METRIC_KINDS = {"counter", "gauge", "histogram"}
_SPAN_FNS = {"span", "span_ctx"}

#: Producers of dense (one byte / one element per bit) arrays.
_DENSE_PRODUCER_CALLS = {"unpack_bits", "unpackbits"}
_DENSE_DTYPES = {"uint8", "int8", "bool_", "bool"}
_DENSE_ALLOCATORS = {"zeros", "ones", "empty", "full", "asarray", "array"}

#: Packed-word consumers and the positional indices that must receive
#: packed ``uint64`` batches (mirrors HD004's consumer list plus the
#: kernel-registry entry points).
PACKED_CONSUMER_POSITIONS: Dict[str, Tuple[int, ...]] = {
    "hamming_rowwise": (0, 1),
    "hamming_block": (0, 1),
    "pairwise_hamming": (0, 1),
    "normalized_pairwise_hamming": (0, 1),
    "topk_hamming": (0, 1),
    "argmin_hamming": (0, 1),
    "loo_topk_hamming": (0,),
    "popcount": (0,),
    "xor_packed": (0, 1),
}

_PROM_LITERAL = re.compile(r"repro_[a-z0-9_]+")


# ----------------------------------------------------------------------
# Index records (all JSON-able)
# ----------------------------------------------------------------------


@dataclass
class EnvRead:
    """One ``os.environ``/``os.getenv`` *read* (writes are not recorded)."""

    var: Optional[str]  # literal variable name when statically known
    line: int
    col: int


@dataclass
class ObsName:
    """One obs metric/span name literal at its declaration site."""

    kind: str  # counter | gauge | histogram | span
    name: str
    line: int
    col: int


@dataclass
class AttrAccess:
    """One ``self.<attr>`` access inside a method."""

    attr: str
    line: int
    col: int
    kind: str  # read | write | rmw
    locks: Tuple[str, ...]  # lock attributes lexically held at the access


@dataclass
class MethodIndex:
    name: str
    line: int
    accesses: List[AttrAccess] = field(default_factory=list)
    self_calls: List[str] = field(default_factory=list)
    lock_pairs: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_") or (
            self.name.startswith("__") and self.name.endswith("__")
        )


@dataclass
class ClassIndex:
    name: str
    line: int
    lock_attrs: Dict[str, int] = field(default_factory=dict)
    sync_attrs: List[str] = field(default_factory=list)
    thread_target_methods: List[str] = field(default_factory=list)
    methods: Dict[str, MethodIndex] = field(default_factory=dict)

    def worker_methods(self) -> set:
        """Thread entry points plus everything they reach via self-calls."""
        reach = set(self.thread_target_methods)
        frontier = list(reach)
        while frontier:
            m = frontier.pop()
            for callee in self.methods.get(m, MethodIndex(m, 0)).self_calls:
                if callee in self.methods and callee not in reach:
                    reach.add(callee)
                    frontier.append(callee)
        return reach


@dataclass
class FunctionIndex:
    name: str
    cls: Optional[str]
    line: int
    returns_dense: bool


@dataclass
class PackedFlow:
    """A positional argument feeding a packed consumer, traced to the
    call that produced it (``callee`` as written at the call site)."""

    consumer: str
    arg_pos: int
    callee: str
    line: int
    col: int


@dataclass
class ModuleIndex:
    """Everything the project rules need to know about one module."""

    path: str
    module: str
    is_test: bool
    uses_threads: bool = False
    exports: List[str] = field(default_factory=list)
    imports: Dict[str, Tuple[str, Optional[str]]] = field(default_factory=dict)
    functions: Dict[str, FunctionIndex] = field(default_factory=dict)
    classes: Dict[str, ClassIndex] = field(default_factory=dict)
    env_reads: List[EnvRead] = field(default_factory=list)
    obs_names: List[ObsName] = field(default_factory=list)
    packed_flows: List[PackedFlow] = field(default_factory=list)
    prom_literals: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ModuleIndex":
        out = cls(
            path=payload["path"],
            module=payload["module"],
            is_test=payload["is_test"],
            uses_threads=payload.get("uses_threads", False),
            exports=list(payload.get("exports", [])),
            imports={
                k: (v[0], v[1]) for k, v in payload.get("imports", {}).items()
            },
            env_reads=[EnvRead(**e) for e in payload.get("env_reads", [])],
            obs_names=[ObsName(**o) for o in payload.get("obs_names", [])],
            packed_flows=[PackedFlow(**p) for p in payload.get("packed_flows", [])],
            prom_literals=list(payload.get("prom_literals", [])),
        )
        for name, fn in payload.get("functions", {}).items():
            out.functions[name] = FunctionIndex(**fn)
        for cname, cpayload in payload.get("classes", {}).items():
            ci = ClassIndex(
                name=cpayload["name"],
                line=cpayload["line"],
                lock_attrs=dict(cpayload.get("lock_attrs", {})),
                sync_attrs=list(cpayload.get("sync_attrs", [])),
                thread_target_methods=list(
                    cpayload.get("thread_target_methods", [])
                ),
            )
            for mname, mpayload in cpayload.get("methods", {}).items():
                ci.methods[mname] = MethodIndex(
                    name=mpayload["name"],
                    line=mpayload["line"],
                    accesses=[
                        AttrAccess(
                            attr=a["attr"], line=a["line"], col=a["col"],
                            kind=a["kind"], locks=tuple(a["locks"]),
                        )
                        for a in mpayload.get("accesses", [])
                    ],
                    self_calls=list(mpayload.get("self_calls", [])),
                    lock_pairs=[
                        (p[0], p[1]) for p in mpayload.get("lock_pairs", [])
                    ],
                )
            out.classes[cname] = ci
        return out


class ProjectIndex:
    """The in-memory project model the second lint pass runs over."""

    def __init__(self, modules: Sequence[ModuleIndex]) -> None:
        self.modules: List[ModuleIndex] = sorted(modules, key=lambda m: m.path)
        self._by_name: Dict[str, ModuleIndex] = {
            m.module: m for m in self.modules
        }

    def module(self, name: str) -> Optional[ModuleIndex]:
        return self._by_name.get(name)

    @property
    def has_test_modules(self) -> bool:
        return any(m.is_test for m in self.modules)

    def resolve_function(
        self, module: str, name: str, _depth: int = 0
    ) -> Optional[Tuple[ModuleIndex, FunctionIndex]]:
        """Find ``module:name``, chasing one level of re-export imports."""
        mod = self._by_name.get(module)
        if mod is None:
            return None
        fn = mod.functions.get(name)
        if fn is not None:
            return mod, fn
        if _depth >= 2:
            return None
        target = mod.imports.get(name)
        if target is not None and target[1] is not None:
            return self.resolve_function(target[0], target[1], _depth + 1)
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {"modules": [m.to_dict() for m in self.modules]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProjectIndex":
        return cls(
            [ModuleIndex.from_dict(m) for m in payload.get("modules", [])]
        )


# ----------------------------------------------------------------------
# Index construction
# ----------------------------------------------------------------------


def module_name_for(path: str) -> str:
    """Best-effort dotted module path for a file path.

    ``src/repro/core/search.py`` → ``repro.core.search``; paths outside a
    recognisable package root fall back to slash-to-dot of the whole
    relative path, which is still a stable key.
    """
    norm = path.replace("\\", "/")
    parts = [p for p in norm.split("/") if p not in ("", ".")]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("repro", "tests"):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-2:]
    return ".".join(parts)


def _is_self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _call_tail(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]


def _ctor_name(node: ast.AST) -> Optional[str]:
    """``threading.Lock()`` / ``queue.Queue()`` → ``Lock`` / ``Queue``."""
    if isinstance(node, ast.Call):
        return _call_tail(node)
    return None


def _is_dense_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _DENSE_DTYPES
    name = dotted_name(node)
    return name is not None and name.rsplit(".", 1)[-1] in _DENSE_DTYPES


def _is_dense_expr(node: ast.AST, dense_names: set) -> bool:
    """Does this expression produce a dense (unpacked) bit array?"""
    if isinstance(node, ast.Name):
        return node.id in dense_names
    if not isinstance(node, ast.Call):
        return False
    tail = _call_tail(node)
    if tail in _DENSE_PRODUCER_CALLS:
        return True
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "astype"
        and node.args
        and _is_dense_dtype(node.args[0])
    ):
        return True
    if tail in _DENSE_ALLOCATORS:
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_dense_dtype(kw.value):
                return True
    return False


class _MethodWalker(ast.NodeVisitor):
    """Collect attribute accesses with the lexically held lock set."""

    def __init__(self, lock_attrs: set) -> None:
        self.lock_attrs = lock_attrs
        self.held: List[str] = []
        self.accesses: List[AttrAccess] = []
        self.self_calls: List[str] = []
        self.lock_pairs: List[Tuple[str, str]] = []

    def _record(self, attr: str, node: ast.AST, kind: str) -> None:
        self.accesses.append(
            AttrAccess(
                attr=attr,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                kind=kind,
                locks=tuple(self.held),
            )
        )

    def visit_With(self, node: ast.With) -> None:
        acquired: List[str] = []
        for item in node.items:
            attr = _is_self_attr(item.context_expr)
            if attr is not None and attr in self.lock_attrs:
                for held in self.held + acquired:
                    self.lock_pairs.append((held, attr))
                acquired.append(attr)
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[len(self.held) - len(acquired):]

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = _is_self_attr(node.target)
        if attr is not None:
            self._record(attr, node, "rmw")
        else:
            self.visit(node.target)
        self.visit(node.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        value_reads = {
            _is_self_attr(n)
            for n in ast.walk(node.value)
            if _is_self_attr(n) is not None
        }
        for tgt in node.targets:
            attr = _is_self_attr(tgt)
            if attr is None:
                self.visit(tgt)
            else:
                self._record(attr, tgt, "rmw" if attr in value_reads else "write")
        self.visit(node.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _is_self_attr(node)
        if attr is not None:
            if isinstance(node.ctx, ast.Load):
                self._record(attr, node, "read")
            elif isinstance(node.ctx, (ast.Store, ast.Del)):
                self._record(attr, node, "write")
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None and name.startswith("self.") and name.count(".") == 1:
            self.self_calls.append(name.split(".", 1)[1])
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested functions run on whatever thread calls them; keep walking
        # so closures over ``self`` are still attributed to this method.
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


def _thread_targets(cls_node: ast.ClassDef) -> List[str]:
    """Method names handed to ``Thread(target=self.m)`` / ``submit(self.m)``."""
    targets: List[str] = []
    for node in ast.walk(cls_node):
        if not isinstance(node, ast.Call):
            continue
        tail = _call_tail(node)
        if tail == "Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    attr = _is_self_attr(kw.value)
                    if attr is not None:
                        targets.append(attr)
        elif tail in ("submit", "start_new_thread"):
            if node.args:
                attr = _is_self_attr(node.args[0])
                if attr is not None:
                    targets.append(attr)
    return targets


def _index_class(cls_node: ast.ClassDef) -> ClassIndex:
    ci = ClassIndex(name=cls_node.name, line=cls_node.lineno)
    methods = [
        n for n in cls_node.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # First pass: classify attributes assigned synchronisation primitives.
    for method in methods:
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            ctor = _ctor_name(node.value)
            if ctor is None or ctor not in _SYNC_CTORS:
                continue
            for tgt in node.targets:
                attr = _is_self_attr(tgt)
                if attr is None:
                    continue
                if ctor in _LOCK_CTORS:
                    ci.lock_attrs.setdefault(attr, node.lineno)
                if attr not in ci.sync_attrs:
                    ci.sync_attrs.append(attr)
    ci.thread_target_methods = _thread_targets(cls_node)
    lock_names = set(ci.lock_attrs)
    for method in methods:
        walker = _MethodWalker(lock_names)
        for stmt in method.body:
            walker.visit(stmt)
        ci.methods[method.name] = MethodIndex(
            name=method.name,
            line=method.lineno,
            accesses=walker.accesses,
            self_calls=walker.self_calls,
            lock_pairs=walker.lock_pairs,
        )
    return ci


def _index_function_body(
    fn: ast.FunctionDef, mi: ModuleIndex, cls: Optional[str]
) -> None:
    """Record dense-return classification and packed-consumer flows."""
    dense_names: set = set()
    assigned_calls: Dict[str, str] = {}
    returns_dense = False
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt = node.targets[0]
            if isinstance(tgt, ast.Name):
                if _is_dense_expr(node.value, dense_names):
                    dense_names.add(tgt.id)
                elif tgt.id in dense_names:
                    dense_names.discard(tgt.id)
                if isinstance(node.value, ast.Call):
                    callee = dotted_name(node.value.func)
                    if callee is not None:
                        assigned_calls[tgt.id] = callee
        elif isinstance(node, ast.Return) and node.value is not None:
            if _is_dense_expr(node.value, dense_names):
                returns_dense = True
    qual = f"{cls}.{fn.name}" if cls else fn.name
    mi.functions[qual] = FunctionIndex(
        name=fn.name, cls=cls, line=fn.lineno, returns_dense=returns_dense
    )
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        tail = _call_tail(node)
        positions = PACKED_CONSUMER_POSITIONS.get(tail or "")
        if positions is None:
            continue
        for pos in positions:
            if pos >= len(node.args):
                continue
            arg = node.args[pos]
            callee: Optional[str] = None
            if isinstance(arg, ast.Call):
                callee = dotted_name(arg.func)
            elif isinstance(arg, ast.Name):
                callee = assigned_calls.get(arg.id)
            if callee is not None:
                mi.packed_flows.append(
                    PackedFlow(
                        consumer=tail or "",
                        arg_pos=pos,
                        callee=callee,
                        line=arg.lineno,
                        col=arg.col_offset,
                    )
                )


def _index_obs_and_env(tree: ast.Module, mi: ModuleIndex) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            tail = (name or "").rsplit(".", 1)[-1].lstrip("_")
            if (
                tail in _METRIC_KINDS | _SPAN_FNS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                mi.obs_names.append(
                    ObsName(
                        kind="span" if tail in _SPAN_FNS else tail,
                        name=node.args[0].value,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )
            if name in ("os.getenv", "getenv") or (
                name is not None
                and name.split(".")[-1] == "get"
                and (name.endswith("environ.get"))
            ):
                var = None
                if node.args and isinstance(node.args[0], ast.Constant):
                    var = str(node.args[0].value)
                mi.env_reads.append(
                    EnvRead(var=var, line=node.lineno, col=node.col_offset)
                )
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            base = dotted_name(node.value)
            if base is not None and base.endswith("environ"):
                var = None
                if isinstance(node.slice, ast.Constant):
                    var = str(node.slice.value)
                mi.env_reads.append(
                    EnvRead(var=var, line=node.lineno, col=node.col_offset)
                )


def index_module(tree: ast.Module, path: str) -> ModuleIndex:
    """Summarise one parsed module for the project pass."""
    norm = path.replace("\\", "/")
    mi = ModuleIndex(
        path=path,
        module=module_name_for(path),
        is_test="tests/" in norm or norm.startswith("tests"),
    )
    prom: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            prom.update(_PROM_LITERAL.findall(node.value))
    mi.prom_literals = sorted(prom)

    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module:
            if stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                mi.imports[alias.asname or alias.name] = (stmt.module, alias.name)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                mi.imports[local] = (
                    alias.name if alias.asname else alias.name.split(".")[0],
                    None,
                )
        elif isinstance(stmt, ast.Assign):
            for tgt in stmt.targets:
                if isinstance(tgt, ast.Name) and tgt.id == "__all__" and isinstance(
                    stmt.value, (ast.List, ast.Tuple)
                ):
                    mi.exports = [
                        elt.value
                        for elt in stmt.value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    ]

    threads_hint = ("threading", "Thread", "ThreadPoolExecutor",
                    "ThreadingHTTPServer", "concurrent.futures")
    for node in ast.walk(tree):
        name = dotted_name(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        if name is not None and any(h in name for h in threads_hint):
            mi.uses_threads = True
            break

    def walk_defs(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                mi.classes[child.name] = _index_class(child)
                walk_defs(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _index_function_body(child, mi, cls)
            else:
                walk_defs(child, cls)

    walk_defs(tree, None)
    _index_obs_and_env(tree, mi)
    return mi


def build_index(sources: Dict[str, str]) -> ProjectIndex:
    """Index a ``{path: source}`` mapping (the test-corpus entry point)."""
    modules = []
    for path, source in sources.items():
        modules.append(index_module(ast.parse(source, filename=path), path))
    return ProjectIndex(modules)


# ----------------------------------------------------------------------
# Project rules
# ----------------------------------------------------------------------


class ProjectRule(Rule):
    """A rule that runs once over the :class:`ProjectIndex`.

    ``check`` (the per-file entry point) is intentionally empty; the
    engine calls :meth:`check_project` after the per-file pass.  Path
    scoping applies per *module*: findings are only emitted for modules
    the rule's ``scope`` covers, unless the engine disables scoping.
    """

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        return iter(())

    def check_project(
        self, index: ProjectIndex, *, respect_scope: bool = True
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def in_scope(self, module: ModuleIndex, respect_scope: bool) -> bool:
        return (not respect_scope) or self.applies_to(module.path)

    def finding_at(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=path,
            line=line,
            col=col + 1,
            code=self.code,
            message=message,
            rule_name=self.name,
        )


# ----------------------------------------------------------------------
# Index cache (CI: keyed on a source hash, shared between jobs)
# ----------------------------------------------------------------------

CACHE_SCHEMA = 1


def source_hash_key(files: Sequence[Tuple[str, str]]) -> str:
    """Stable key over ``(path, source)`` pairs."""
    digest = hashlib.sha256()
    for path, source in sorted(files):
        digest.update(path.encode("utf-8"))
        digest.update(b"\0")
        digest.update(hashlib.sha256(source.encode("utf-8")).digest())
    return digest.hexdigest()


def load_index_cache(path: Path, key: str) -> Optional[ProjectIndex]:
    """Return the cached index when ``key`` matches, else None."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != CACHE_SCHEMA
        or payload.get("key") != key
    ):
        return None
    try:
        return ProjectIndex.from_dict(payload)
    except (KeyError, TypeError):
        return None


def save_index_cache(path: Path, key: str, index: ProjectIndex) -> None:
    payload = {"schema": CACHE_SCHEMA, "key": key} | index.to_dict()
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


__all__ = [
    "AttrAccess",
    "ClassIndex",
    "EnvRead",
    "FunctionIndex",
    "MethodIndex",
    "ModuleIndex",
    "ObsName",
    "PACKED_CONSUMER_POSITIONS",
    "PackedFlow",
    "ProjectIndex",
    "ProjectRule",
    "build_index",
    "index_module",
    "load_index_cache",
    "module_name_for",
    "save_index_cache",
    "source_hash_key",
]
