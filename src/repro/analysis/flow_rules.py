"""Interprocedural lint rules R008–R012.

Every rule here subclasses :class:`repro.analysis.lint.FlowRule`: it
sees the whole :class:`~repro.analysis.lint.Project` at once — the
call graph (:mod:`repro.analysis.callgraph`) for reachability and type
questions, and per-function CFGs (:mod:`repro.analysis.flow`) for
all-paths questions. The single-module rules R001–R006 live in
:mod:`repro.analysis.rules`.

Honesty notes shared by all five rules:

* the call graph resolves ~85% of call sites; an unresolved callee is
  *not* traversed, so a blocking call hiding behind one is missed
  (false negative, never a false positive);
* functions passed by reference (``loop.run_in_executor(pool, fn)``,
  ``asyncio.to_thread(fn)``) create no call edge — which is exactly
  the executor-hop semantics R008 wants;
* R012 reads ``KNOWN_SITES`` from the *linted* ``faults`` module's own
  AST, so the rule is silent when no faults module is in scope (e.g.
  when linting a single subpackage).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.callgraph import (
    EXTERNAL,
    INTERNAL,
    CallGraph,
    CallSite,
    FunctionInfo,
)
from repro.analysis.flow import CFG, build_cfg
from repro.analysis.lint import (
    SEVERITY_ADVISORY,
    Finding,
    FlowRule,
    Project,
    register,
)

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

#: threading primitives whose acquisition blocks the calling thread.
_LOCK_TYPE_NAMES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)


def _is_lock_type(name: "str | None") -> bool:
    if name is None:
        return False
    return name in _LOCK_TYPE_NAMES or name.rsplit(".", 1)[-1] == "TrackedLock"


def _terminal(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _own_subnodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function/class defs."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _stmt_exprs(stmt: ast.AST) -> Iterator[ast.expr]:
    """The expressions evaluated *at* a statement (compound headers only).

    For a compound statement the body belongs to other CFG nodes; only
    the header expression is evaluated when control passes this node.
    """
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        yield stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.iter
        yield stmt.target
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
    elif isinstance(stmt, ast.Return):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, ast.Raise):
        if stmt.exc is not None:
            yield stmt.exc
    elif isinstance(stmt, (ast.Try, ast.ExceptHandler)):
        return
    elif isinstance(stmt, ast.stmt):
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                yield child


def _stmt_calls(stmt: ast.AST) -> Iterator[ast.Call]:
    """Call expressions evaluated at this statement (header-only)."""
    for expr in _stmt_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                yield node


def _call_terminal(call: ast.Call) -> "str | None":
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _sites_by_node(graph: CallGraph, qualname: str) -> "dict[int, CallSite]":
    return {id(site.node): site for site in graph.calls_from(qualname)}


def _function_display(qualname: str) -> str:
    """Trim the module prefix for messages (keep Class.method)."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


# ---------------------------------------------------------------------------
# R008 — blocking calls reachable from async defs
# ---------------------------------------------------------------------------

#: External callables that block the calling thread (event-loop stall
#: when that thread runs an asyncio loop).
_BLOCKING_EXTERNAL = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.sync",
        "os.system",
        "builtins.open",
        "builtins.input",
        "select.select",
        "socket.create_connection",
        "socket.socket.connect",
        "socket.socket.accept",
        "socket.socket.recv",
        "socket.socket.sendall",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen.wait",
        "subprocess.Popen.communicate",
        "shutil.rmtree",
        "shutil.copyfile",
        "shutil.copytree",
        "pathlib.Path.read_text",
        "pathlib.Path.read_bytes",
        "pathlib.Path.write_text",
        "pathlib.Path.write_bytes",
        "concurrent.futures.ThreadPoolExecutor.shutdown",
        "concurrent.futures.Future.result",
        "threading.Thread.join",
        "threading.Event.wait",
        "queue.Queue.get",
        "queue.Queue.put",
    }
)

#: Blocking lock acquisitions — flagged only when they appear *directly*
#: in an async body. Sync helpers take micro-locks around counters all
#: over this codebase; those are held for nanoseconds and are exactly
#: what ``run_in_executor`` offloading is not for. A lock held *by the
#: event-loop thread itself* is the real hazard.
_BLOCKING_ACQUIRE = frozenset(
    {f"{name}.acquire" for name in _LOCK_TYPE_NAMES}
)

#: Kernel-dispatch entry points: each runs a full parallel kernel to
#: completion on the calling thread (WorkerPool fan-out included).
_DISPATCH_ATTRS = frozenset({"map_range", "map_chunks", "run_tasks"})

_MAX_CHAIN_DEPTH = 12


@register
class AsyncBlockingRule(FlowRule):
    """R008: no blocking call may be reachable from an ``async def``
    body without an executor hop. The service promises interactive
    latencies; one ``time.sleep``, sync file/socket read,
    ``Lock.acquire``, ``Executor.shutdown(wait=True)`` or direct kernel
    dispatch on the event-loop thread stalls **every** tenant at once.
    The rule walks the call graph transitively through sync helpers
    (reporting the chain), and treats functions passed by reference to
    ``run_in_executor``/``asyncio.to_thread`` as hopped — they create
    no call edge, which is precisely the discipline the service layer
    uses. Lock acquisitions are flagged only when taken directly in the
    async body (micro-locks inside sync helpers are held for
    nanoseconds and are not worth a thread hop)."""

    code = "R008"
    name = "async-blocking"
    description = (
        "blocking call (sleep, sync I/O, Lock.acquire, kernel dispatch) "
        "reachable from an async def without an executor hop"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project.callgraph
        self._summaries: dict[str, "tuple[str, tuple[str, ...]] | None"] = {}
        for fn in sorted(graph.functions.values(), key=lambda f: f.qualname):
            if not fn.is_async:
                continue
            yield from self._check_async(project, graph, fn)

    def _check_async(
        self, project: Project, graph: CallGraph, fn: FunctionInfo
    ) -> Iterator[Finding]:
        display = _function_display(fn.qualname)
        for site in graph.calls_from(fn.qualname):
            primitive = self._direct_blocking(site, in_async_body=True)
            if primitive is not None:
                yield self.project_finding(
                    project,
                    site.path,
                    site.node,
                    f"async '{display}' calls blocking {primitive} on the "
                    "event-loop thread; hop through run_in_executor or "
                    "asyncio.to_thread",
                )
                continue
            chain = self._chain_for_site(graph, site)
            if chain is not None:
                primitive, path = chain
                via = " -> ".join(_function_display(q) for q in path)
                yield self.project_finding(
                    project,
                    site.path,
                    site.node,
                    f"async '{display}' reaches blocking {primitive} via "
                    f"{via}; hop through run_in_executor or asyncio.to_thread",
                )
        # `with lock:` directly in the async body blocks the loop thread
        # exactly like a bare acquire().
        for node in _own_subnodes(fn.node):
            if isinstance(node, ast.With):
                for item in node.items:
                    ref = graph.expr_type(fn.qualname, item.context_expr)
                    if ref is not None and _is_lock_type(ref.name):
                        yield self.project_finding(
                            project,
                            fn.path,
                            node,
                            f"async '{display}' holds threading lock "
                            f"'{ast.unparse(item.context_expr)}' on the "
                            "event-loop thread; use asyncio.Lock or hop to "
                            "an executor",
                        )

    def _direct_blocking(
        self, site: CallSite, in_async_body: bool
    ) -> "str | None":
        if site.attr in _DISPATCH_ATTRS:
            return f"kernel dispatch .{site.attr}()"
        if site.kind == EXTERNAL and site.callee is not None:
            if site.callee in _BLOCKING_EXTERNAL:
                return site.callee
            if in_async_body and site.callee in _BLOCKING_ACQUIRE:
                return site.callee
        if (
            in_async_body
            and site.callee is not None
            and site.callee.endswith(".TrackedLock.acquire")
        ):
            return site.callee
        return None

    def _chain_for_site(
        self, graph: CallGraph, site: CallSite
    ) -> "tuple[str, tuple[str, ...]] | None":
        if site.kind != INTERNAL or site.callee is None:
            return None
        target = site.callee
        if target in graph.classes:
            ctor = graph.find_method(target, "__init__")
            if ctor is None:
                return None
            target = ctor.qualname
        callee = graph.functions.get(target)
        if callee is None or callee.is_async:
            return None
        return self._blocking_summary(graph, target, frozenset(), 0)

    def _blocking_summary(
        self, graph: CallGraph, qualname: str, visiting: frozenset, depth: int
    ) -> "tuple[str, tuple[str, ...]] | None":
        if qualname in self._summaries:
            return self._summaries[qualname]
        if qualname in visiting or depth > _MAX_CHAIN_DEPTH:
            return None
        result: "tuple[str, tuple[str, ...]] | None" = None
        for site in graph.calls_from(qualname):
            primitive = self._direct_blocking(site, in_async_body=False)
            if primitive is not None:
                result = (primitive, (qualname,))
                break
            if site.kind == INTERNAL and site.callee is not None:
                target = site.callee
                if target in graph.classes:
                    ctor = graph.find_method(target, "__init__")
                    target = ctor.qualname if ctor is not None else None
                if target is None:
                    continue
                callee = graph.functions.get(target)
                if callee is None or callee.is_async:
                    continue
                deeper = self._blocking_summary(
                    graph, target, visiting | {qualname}, depth + 1
                )
                if deeper is not None:
                    result = (deeper[0], (qualname,) + deeper[1])
                    break
        self._summaries[qualname] = result
        return result


# ---------------------------------------------------------------------------
# R009 — static lock-order cycles
# ---------------------------------------------------------------------------


@register
class LockOrderRule(FlowRule):
    """R009: the static lock-order graph must be acyclic. Locks are
    identified structurally (``Class.attr`` for instance locks,
    ``module.NAME`` for globals) over ``threading.Lock``/``RLock``/
    ``TrackedLock``; an edge A→B is recorded when B is acquired —
    directly or via any transitively called helper — inside a ``with
    A:`` region. A cycle means two threads can each hold one lock of
    the cycle while waiting for another: a deadlock that hits only
    under load, which is why it must be caught statically (the runtime
    Eraser-style detector in ``races.py`` only sees schedules that
    actually interleave). Re-acquiring the same non-reentrant lock is
    reported as a self-cycle; ``RLock`` self-cycles are reentrant and
    accepted. Identity is per-class, not per-instance: two instances'
    locks share a name, which can over-report (never under-report) on
    deliberately instance-partitioned designs — suppress with a
    justifying comment in that case."""

    code = "R009"
    name = "lock-order"
    description = "lock-order graph over threading/Tracked locks must be acyclic"

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project.callgraph
        self._acquire_summaries: dict[str, frozenset] = {}
        # identity -> lock type name (first seen)
        self._lock_types: dict[str, str] = {}
        edges: dict[str, dict[str, tuple[str, int, str]]] = {}
        for fn in sorted(graph.functions.values(), key=lambda f: f.qualname):
            for held, target, node in self._edges_in(graph, fn):
                edges.setdefault(held, {}).setdefault(
                    target, (fn.path, getattr(node, "lineno", 1), fn.qualname)
                )
        yield from self._report_cycles(project, graph, edges)

    # -- acquisition discovery ----------------------------------------

    def _lock_identity(
        self, graph: CallGraph, fn: FunctionInfo, expr: ast.expr
    ) -> "str | None":
        """Stable identity for a lock expression, or None if not a lock."""
        ref = graph.expr_type(fn.qualname, expr)
        if ref is None or not _is_lock_type(ref.name):
            return None
        identity: "str | None" = None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in ("self", "cls")
            and fn.class_qualname is not None
        ):
            identity = f"{fn.class_qualname}.{expr.attr}"
        elif isinstance(expr, ast.Name):
            identity = f"{fn.module}.{expr.id}"
        elif isinstance(expr, ast.Attribute):
            base = graph.expr_type(fn.qualname, expr.value)
            if base is not None and base.name in graph.classes:
                identity = f"{base.name}.{expr.attr}"
        if identity is None:
            identity = f"{fn.module}.{ast.unparse(expr)}"
        self._lock_types.setdefault(identity, ref.name)
        return identity

    def _acquisitions(
        self, graph: CallGraph, fn: FunctionInfo
    ) -> "list[tuple[str, ast.AST, set[int] | None]]":
        """(identity, node, with-region node ids | None) per acquisition."""
        out: list[tuple[str, ast.AST, "set[int] | None"]] = []
        for node in _own_subnodes(fn.node):
            if isinstance(node, ast.With):
                for item in node.items:
                    identity = self._lock_identity(graph, fn, item.context_expr)
                    if identity is not None:
                        region = {
                            id(sub)
                            for stmt in node.body
                            for sub in [stmt, *_own_subnodes(stmt)]
                        }
                        out.append((identity, node, region))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                identity = self._lock_identity(graph, fn, node.func.value)
                if identity is not None:
                    out.append((identity, node, None))
        return out

    def _acquire_summary(
        self, graph: CallGraph, qualname: str, visiting: frozenset
    ) -> frozenset:
        """Locks a function may acquire, transitively (memoized)."""
        cached = self._acquire_summaries.get(qualname)
        if cached is not None:
            return cached
        if qualname in visiting or len(visiting) > _MAX_CHAIN_DEPTH:
            return frozenset()
        fn = graph.functions.get(qualname)
        if fn is None:
            return frozenset()
        acquired = {identity for identity, _, _ in self._acquisitions(graph, fn)}
        for site in graph.calls_from(qualname):
            if site.kind == INTERNAL and site.callee is not None:
                target = site.callee
                if target in graph.classes:
                    ctor = graph.find_method(target, "__init__")
                    target = ctor.qualname if ctor is not None else None
                if target is not None:
                    acquired |= self._acquire_summary(
                        graph, target, visiting | {qualname}
                    )
        result = frozenset(acquired)
        self._acquire_summaries[qualname] = result
        return result

    def _edges_in(
        self, graph: CallGraph, fn: FunctionInfo
    ) -> "Iterator[tuple[str, str, ast.AST]]":
        acquisitions = self._acquisitions(graph, fn)
        with_events = [
            (identity, node, region)
            for identity, node, region in acquisitions
            if region is not None
        ]
        if not with_events:
            return
        sites = _sites_by_node(graph, fn.qualname)
        for held, _, region in with_events:
            for identity, node, _ in acquisitions:
                if id(node) in region:
                    yield held, identity, node
            for site in sites.values():
                if id(site.node) not in region:
                    continue
                if site.kind == INTERNAL and site.callee is not None:
                    target = site.callee
                    if target in graph.classes:
                        ctor = graph.find_method(target, "__init__")
                        target = ctor.qualname if ctor is not None else None
                    if target is not None:
                        for acquired in self._acquire_summary(
                            graph, target, frozenset()
                        ):
                            yield held, acquired, site.node

    # -- cycle detection ----------------------------------------------

    def _report_cycles(
        self,
        project: Project,
        graph: CallGraph,
        edges: "dict[str, dict[str, tuple[str, int, str]]]",
    ) -> Iterator[Finding]:
        reported: set[frozenset] = set()

        def edge_site(a: str, b: str) -> tuple[str, int, str]:
            return edges[a][b]

        for held, targets in sorted(edges.items()):
            # Self-cycle: re-acquiring a non-reentrant lock deadlocks
            # the holding thread itself.
            if held in targets:
                lock_type = self._lock_types.get(held, "")
                if not lock_type.endswith("RLock") and frozenset({held}) not in reported:
                    reported.add(frozenset({held}))
                    path, line, _ = edge_site(held, held)
                    yield self._cycle_finding(
                        project, path, line,
                        f"non-reentrant lock '{held}' ({lock_type}) is "
                        "re-acquired while already held — self-deadlock",
                    )
        # Multi-lock cycles via DFS over the order graph.
        state: dict[str, int] = {}
        stack: list[str] = []

        def dfs(node: str) -> Iterator[list[str]]:
            state[node] = 1
            stack.append(node)
            for nxt in sorted(edges.get(node, ())):
                if nxt == node:
                    continue
                if state.get(nxt, 0) == 1:
                    yield stack[stack.index(nxt) :] + [nxt]
                elif state.get(nxt, 0) == 0:
                    yield from dfs(nxt)
            stack.pop()
            state[node] = 2

        for root in sorted(edges):
            if state.get(root, 0) == 0:
                for cycle in dfs(root):
                    key = frozenset(cycle)
                    if key in reported:
                        continue
                    reported.add(key)
                    hops = []
                    for a, b in zip(cycle, cycle[1:]):
                        path, line, _ = edge_site(a, b)
                        hops.append(f"{a} -> {b} ({path}:{line})")
                    path, line, _ = edge_site(cycle[0], cycle[1])
                    yield self._cycle_finding(
                        project, path, line,
                        "lock-order cycle can deadlock: " + ", ".join(hops),
                    )

    def _cycle_finding(
        self, project: Project, path: str, line: int, message: str
    ) -> Finding:
        anchor = ast.Pass()
        anchor.lineno = line
        anchor.col_offset = 0
        return self.project_finding(project, path, anchor, message)


# ---------------------------------------------------------------------------
# R010 — resource lifecycle pairing
# ---------------------------------------------------------------------------

_TMP_CLEANUP_CALLS = frozenset(
    {"replace", "rename", "rmtree", "rmdir", "unlink", "_remove_tree", "remove_tree"}
)


@register
class ResourceLifecycleRule(FlowRule):
    """R010: acquired resources must be settled on **every** CFG path.
    Two project resources are tracked. (1) A WAL ``append`` that
    commits a *fresh* catalog name (an f-string name, the commit-point
    protocol) must be followed by ``_publish``/``_publish_as`` on every
    normal path, or recovery replays an object no caller could ever
    have observed; exceptional paths are exempt (replay re-derives),
    as is the mutate-in-place form that re-logs an existing ref.
    (2) A checkpoint temp directory (``mkdir`` on a ``tmp``-named
    path, or one derived from it) must reach ``os.replace`` (the
    atomic commit) or be removed on every path including exceptional
    ones — anything else litters the state root with torn snapshots.
    The statement's own exception edge is pre-effect: if the acquire
    itself raises, nothing was held."""

    code = "R010"
    name = "resource-lifecycle"
    description = (
        "fresh WAL append / checkpoint temp dir must be published or "
        "cleaned up on every CFG path"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project.callgraph
        for fn in sorted(graph.functions.values(), key=lambda f: f.qualname):
            yield from self._check_function(project, graph, fn)

    def _check_function(
        self, graph_project: Project, graph: CallGraph, fn: FunctionInfo
    ) -> Iterator[Finding]:
        cfg: "CFG | None" = None
        seen_tmp_roots: set[str] = set()
        for stmt in _function_statements(fn.node):
            for call in _stmt_calls(stmt):
                terminal = _call_terminal(call)
                if terminal == "append" and self._is_wal_append(graph, fn, call):
                    cfg = cfg or build_cfg(fn.node)
                    yield from self._check_wal_append(
                        graph_project, fn, cfg, stmt, call
                    )
                elif terminal == "mkdir":
                    cfg = cfg or build_cfg(fn.node)
                    yield from self._check_tmp_dir(
                        graph_project, fn, cfg, stmt, call, seen_tmp_roots
                    )

    # -- (1) WAL append / publish -------------------------------------

    def _is_wal_append(
        self, graph: CallGraph, fn: FunctionInfo, call: ast.Call
    ) -> bool:
        if not isinstance(call.func, ast.Attribute):
            return False
        ref = graph.expr_type(fn.qualname, call.func.value)
        return ref is not None and _terminal(ref.name) == "WriteAheadLog"

    def _check_wal_append(
        self,
        project: Project,
        fn: FunctionInfo,
        cfg: CFG,
        stmt: ast.AST,
        call: ast.Call,
    ) -> Iterator[Finding]:
        output = self._output_arg(call)
        if output is None or not self._is_fresh_name(cfg, stmt, output):
            return  # mutate-in-place form: the object is already published
        def settles(node) -> bool:
            if node.stmt is None:
                return False
            return any(
                _call_terminal(c) in ("_publish", "_publish_as")
                for c in _stmt_calls(node.stmt)
            )

        escape = cfg.find_escape(stmt, settles, include_exceptional=False)
        if escape is not None:
            yield self.project_finding(
                project,
                fn.path,
                call,
                f"'{_function_display(fn.qualname)}' WAL-appends a fresh "
                "catalog name but a normal path continues without "
                "_publish()/_publish_as() — recovery would replay an object "
                "the caller never observed",
            )

    @staticmethod
    def _output_arg(call: ast.Call) -> "ast.expr | None":
        if len(call.args) >= 4:
            return call.args[3]
        for kw in call.keywords:
            if kw.arg == "output":
                return kw.value
        return None

    @staticmethod
    def _is_fresh_name(cfg: CFG, stmt: ast.AST, output: ast.expr) -> bool:
        if isinstance(output, ast.JoinedStr):
            return True
        if isinstance(output, ast.Name):
            defs = cfg.definitions_at(stmt, output.id)
            values = [
                d.value
                for d in defs
                if isinstance(d, ast.Assign) and isinstance(d.value, ast.JoinedStr)
            ]
            return bool(defs) and len(values) == len(defs)
        return False

    # -- (2) checkpoint temp dirs -------------------------------------

    def _check_tmp_dir(
        self,
        project: Project,
        fn: FunctionInfo,
        cfg: CFG,
        stmt: ast.AST,
        call: ast.Call,
        seen_roots: set,
    ) -> Iterator[Finding]:
        assert isinstance(call.func, ast.Attribute)
        root = self._tmp_root(cfg, stmt, call.func.value)
        if root is None or root in seen_roots:
            return
        seen_roots.add(root)

        def settles(node) -> bool:
            if node.stmt is None:
                return False
            for c in _stmt_calls(node.stmt):
                if _call_terminal(c) not in _TMP_CLEANUP_CALLS:
                    continue
                names = {
                    sub.id
                    for arg in c.args
                    for sub in ast.walk(arg)
                    if isinstance(sub, ast.Name)
                }
                if isinstance(c.func, ast.Attribute) and isinstance(
                    c.func.value, ast.Name
                ):
                    names.add(c.func.value.id)
                if root in names:
                    return True
            return False

        escape = cfg.find_escape(stmt, settles, include_exceptional=True)
        if escape is not None:
            how = (
                "an exception path"
                if escape.kind == "raise-exit"
                else "a normal path"
            )
            yield self.project_finding(
                project,
                fn.path,
                call,
                f"'{_function_display(fn.qualname)}' creates temp dir "
                f"'{root}' but {how} escapes without os.replace() or "
                "removal — torn state is left on disk",
            )

    @staticmethod
    def _tmp_root(cfg: CFG, stmt: ast.AST, receiver: ast.expr) -> "str | None":
        """The tmp-ish variable a mkdir receiver names or derives from."""
        def tmpish(name: str) -> bool:
            return "tmp" in name.lower()

        if isinstance(receiver, ast.Name):
            if tmpish(receiver.id):
                return receiver.id
            for definition in cfg.definitions_at(stmt, receiver.id):
                value = getattr(definition, "value", None)
                if value is None:
                    continue
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name) and tmpish(sub.id):
                        return sub.id
        return None


def _function_statements(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Iterator[ast.stmt]:
    for node in _own_subnodes(fn):
        if isinstance(node, ast.stmt):
            yield node


# ---------------------------------------------------------------------------
# R011 — exception contract
# ---------------------------------------------------------------------------

_BROAD_CATCH = frozenset(
    {"BaseException", "Exception", "RingoError", "ExecutionError", "TransientError"}
)

#: try-bodies that are pure best-effort teardown may swallow: a close
#: that fails during shutdown has nothing better to do than proceed.
_CLEANUP_ATTRS = frozenset(
    {"close", "shutdown", "cancel", "release", "terminate", "join", "stop", "unlink"}
)


@register
class ExceptionContractRule(FlowRule):
    """R011: the typed exception contract must hold end to end. A broad
    handler (bare, ``Exception``, ``BaseException``, or a wide project
    base like ``RingoError``) that protects code which can raise
    ``TransientError`` — directly, via ``fault_point``, or through any
    transitively called helper — and neither re-raises nor inspects the
    bound exception *eats a retryable fault*: the retry policy upstream
    never sees it, so injected faults and transient contention turn
    into silent wrong answers. Bare ``except:`` without a re-raise is
    always an error (it also eats ``KeyboardInterrupt``). A broad
    silent ``pass`` handler over non-transient code is an advisory
    nudge. Exempt: handlers whose protected block is pure best-effort
    teardown (every statement a ``close``/``shutdown``/…-style call).
    The rule also audits the exception inventory itself: a class
    defined in an ``exceptions`` module that is never raised,
    instantiated, caught, subclassed, or referenced anywhere in the
    project is dead contract surface and is reported at its
    definition."""

    code = "R011"
    name = "exception-contract"
    description = (
        "no broad handler may swallow TransientError paths; no dead "
        "exception classes"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project.callgraph
        self._transient_quals, self._transient_names = _transient_classes(graph)
        self._raise_memo: dict[str, bool] = {}
        for fn in sorted(graph.functions.values(), key=lambda f: f.qualname):
            yield from self._check_handlers(project, graph, fn)
        yield from self._check_dead_exceptions(project, graph)

    # -- swallowed transients ------------------------------------------

    def _check_handlers(
        self, project: Project, graph: CallGraph, fn: FunctionInfo
    ) -> Iterator[Finding]:
        sites = _sites_by_node(graph, fn.qualname)
        for node in _own_subnodes(fn.node):
            if not isinstance(node, ast.Try):
                continue
            cleanup = _is_cleanup_block(node.body)
            transient = self._region_raises_transient(
                graph, sites, node.body + node.orelse
            )
            for handler in node.handlers:
                broad = _broad_catch_names(handler)
                if not broad:
                    continue
                silent = _handler_is_silent(handler)
                if handler.type is None and silent:
                    yield self.project_finding(
                        project,
                        fn.path,
                        handler,
                        "bare 'except:' without re-raise swallows everything "
                        "including KeyboardInterrupt; catch a typed "
                        "repro.exceptions class",
                    )
                elif silent and transient and not cleanup:
                    yield self.project_finding(
                        project,
                        fn.path,
                        handler,
                        f"'except {broad[0]}' swallows a TransientError path "
                        "— the retry policy upstream never sees the fault; "
                        "re-raise TransientError or narrow the catch",
                    )
                elif (
                    silent
                    and not cleanup
                    and len(handler.body) == 1
                    and isinstance(handler.body[0], ast.Pass)
                ):
                    yield Finding(
                        code=self.code,
                        message=(
                            f"silent 'except {broad[0]}: pass' hides every "
                            "failure in the block; consider narrowing or "
                            "recording the error"
                        ),
                        path=fn.path,
                        line=handler.lineno,
                        col=handler.col_offset,
                        symbol=_function_display(fn.qualname),
                        severity=SEVERITY_ADVISORY,
                    )

    def _region_raises_transient(
        self,
        graph: CallGraph,
        sites: "dict[int, CallSite]",
        stmts: "list[ast.stmt]",
    ) -> bool:
        for stmt in stmts:
            nodes = [stmt, *_own_subnodes(stmt)]
            for node in nodes:
                if isinstance(node, ast.Call):
                    site = sites.get(id(node))
                    if site is not None and self._site_raises_transient(
                        graph, site, frozenset()
                    ):
                        return True
        return False

    def _site_raises_transient(
        self, graph: CallGraph, site: CallSite, visiting: frozenset
    ) -> bool:
        if site.attr == "fault_point":
            return True  # raises InjectedFaultError, a TransientError
        if site.callee is None:
            return False
        if site.kind == EXTERNAL:
            return _terminal(site.callee) in self._transient_names
        if site.callee in self._transient_quals:
            return True
        if site.callee in graph.classes:
            return False  # constructing a non-exception class
        return self._callee_raises_transient(graph, site.callee, visiting)

    def _callee_raises_transient(
        self, graph: CallGraph, qualname: str, visiting: frozenset
    ) -> bool:
        if qualname in self._raise_memo:
            return self._raise_memo[qualname]
        if qualname in visiting or len(visiting) > _MAX_CHAIN_DEPTH:
            return False
        result = False
        for site in graph.calls_from(qualname):
            if self._site_raises_transient(graph, site, visiting | {qualname}):
                result = True
                break
        self._raise_memo[qualname] = result
        return result

    # -- dead exception classes ----------------------------------------

    def _check_dead_exceptions(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Finding]:
        exception_modules = [
            mi for name, mi in graph.modules.items()
            if _terminal(name) == "exceptions"
        ]
        if not exception_modules:
            return
        used_names: set[str] = set()
        used_quals: set[str] = set()
        for site in graph.all_sites():
            if site.callee is not None:
                used_quals.add(site.callee)
        for unit in project.units:
            own_exceptions = any(
                unit.path == mi.path for mi in exception_modules
            )
            for node in ast.walk(unit.tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    for name_node in ast.walk(node.type):
                        if isinstance(name_node, (ast.Name, ast.Attribute)):
                            used_names.add(_node_terminal(name_node))
                elif isinstance(node, ast.Raise) and node.exc is not None:
                    for name_node in ast.walk(node.exc):
                        if isinstance(name_node, (ast.Name, ast.Attribute)):
                            used_names.add(_node_terminal(name_node))
                elif isinstance(node, ast.Name) and not own_exceptions:
                    used_names.add(node.id)
        for qualname, ci in sorted(graph.classes.items()):
            if graph.modules.get(ci.module) not in exception_modules:
                continue
            if ci.node.name in used_names or qualname in used_quals:
                continue
            if any(
                qualname in graph.resolved_bases(other)
                for other in graph.classes
            ):
                continue
            yield self.project_finding(
                project,
                graph.modules[ci.module].path,
                ci.node,
                f"exception class '{ci.node.name}' is never raised, caught, "
                "subclassed, or referenced — dead contract surface",
            )


def _node_terminal(node: "ast.Name | ast.Attribute") -> str:
    return node.id if isinstance(node, ast.Name) else node.attr


def _broad_catch_names(handler: ast.ExceptHandler) -> list[str]:
    if handler.type is None:
        return ["<bare>"]
    exprs: list[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        exprs = list(handler.type.elts)
    else:
        exprs = [handler.type]
    names = []
    for expr in exprs:
        if isinstance(expr, (ast.Name, ast.Attribute)):
            terminal = _node_terminal(expr)
            if terminal in _BROAD_CATCH:
                names.append(terminal)
    return names


def _handler_is_silent(handler: ast.ExceptHandler) -> bool:
    """True when the handler neither re-raises nor uses the exception."""
    for node in handler.body:
        for sub in [node, *_own_subnodes(node)]:
            if isinstance(sub, ast.Raise):
                return False
            if (
                handler.name is not None
                and isinstance(sub, ast.Name)
                and sub.id == handler.name
            ):
                return False
    return True


def _is_cleanup_block(stmts: "list[ast.stmt]") -> bool:
    if not stmts:
        return False
    for stmt in stmts:
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and _call_terminal(stmt.value) in _CLEANUP_ATTRS
        ):
            return False
    return True


def _transient_classes(graph: CallGraph) -> "tuple[set[str], set[str]]":
    """(internal qualnames, terminal names) of TransientError subclasses."""
    names = {"TransientError", "InjectedFaultError", "AdmissionContention"}
    quals: set[str] = set()
    changed = True
    while changed:
        changed = False
        for qualname, ci in graph.classes.items():
            if qualname in quals:
                continue
            raw = {
                base.rsplit(".", 1)[-1] for base in graph.base_names(qualname)
            }
            resolved = set(graph.resolved_bases(qualname))
            if (
                ci.node.name in names
                or raw & names
                or resolved & quals
            ):
                quals.add(qualname)
                names.add(ci.node.name)
                changed = True
    return quals, names


# ---------------------------------------------------------------------------
# R012 — dead fault sites
# ---------------------------------------------------------------------------


@register
class DeadFaultSiteRule(FlowRule):
    """R012: every ``faults.KNOWN_SITES`` entry must be referenced by a
    ``fault_point("site")`` or ``plan.check("site")`` call somewhere in
    the linted project. The registry exists so that R003 can reject
    typo'd site strings; a registered site that no call references is
    the dual failure — a resilience test can arm it and pass without
    ever injecting anything. The rule reads ``KNOWN_SITES`` from the
    linted ``faults`` module's own AST (not the installed package), so
    fixtures are self-contained and the rule is silent when the faults
    module is outside the lint scope."""

    code = "R012"
    name = "dead-fault-site"
    description = "KNOWN_SITES entries no fault_point()/plan.check() references"

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project.callgraph
        registries: "list[tuple[str, ast.Constant]]" = []
        registry_paths: list[str] = []
        for name, mi in graph.modules.items():
            if _terminal(name) != "faults":
                continue
            for stmt in mi.unit.tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "KNOWN_SITES"
                    and isinstance(stmt.value, (ast.Tuple, ast.List, ast.Set))
                ):
                    registry_paths.append(mi.path)
                    for elt in stmt.value.elts:
                        if isinstance(elt, ast.Constant) and isinstance(
                            elt.value, str
                        ):
                            registries.append((mi.path, elt))
        if not registries:
            return
        referenced: set[str] = set()
        for unit in project.units:
            for node in ast.walk(unit.tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                terminal = _call_terminal(node)
                if terminal not in ("fault_point", "check"):
                    continue
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    referenced.add(first.value)
        for path, const in registries:
            if const.value not in referenced:
                yield self.project_finding(
                    project,
                    path,
                    const,
                    f"fault site '{const.value}' is registered in KNOWN_SITES "
                    "but no fault_point()/plan.check() call references it — "
                    "tests arming it pass vacuously",
                )
