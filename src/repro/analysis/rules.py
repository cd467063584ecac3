"""The single-module lint rules, R001–R004 and R006.

Each rule encodes one convention the engine's correctness depends on
(see ``docs/static-analysis.md`` for the full catalog with examples):

====  ==================================================================
R001  adjacency-mutating graph method missing ``_bump_version()``
R002  direct ``CSRGraph.from_graph`` call outside the snapshot cache
R003  ``fault_point`` site string not registered in ``faults.KNOWN_SITES``
R004  manual ``Lock.acquire()`` without a ``with`` / ``try…finally`` release
R006  pool kernel closure writing shared state without a lock
====  ==================================================================
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import (
    Finding,
    LintRule,
    ModuleUnit,
    register,
)

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _is_self_attr(node: ast.AST, names: "set[str] | None" = None) -> bool:
    """Whether ``node`` is ``self.<attr>`` (optionally with attr in names)."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (names is None or node.attr in names)
    )


def _contains_self_attr(node: ast.AST, names: set[str]) -> bool:
    """Whether any ``self.<watched>`` access appears in ``node``'s subtree."""
    return any(_is_self_attr(sub, names) for sub in ast.walk(node))


def _base_name(base: ast.expr) -> str:
    """The terminal name of a base-class expression (``x.Y`` -> ``Y``)."""
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return ""


def _call_attr(node: ast.AST) -> str:
    """The attribute name of a ``<expr>.<attr>(...)`` call, else ``""``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


# ----------------------------------------------------------------------
# R001 — graph mutations must bump the snapshot version
# ----------------------------------------------------------------------

_GRAPH_BASES = {
    "GraphBase",
    "DirectedGraph",
    "UndirectedGraph",
    "Network",
    "DirectedMultigraph",
}
# The structural state whose mutation invalidates CSR snapshots.
# Attribute stores (``_node_attrs`` etc.) are deliberately absent:
# attribute-only updates must NOT bump the version.
_STRUCTURAL_ATTRS = {"_nodes", "_edge_src", "_edge_dst", "_deleted", "_num_edges"}
_MUTATOR_METHODS = {
    "append", "add", "remove", "pop", "clear", "extend",
    "update", "discard", "insert", "setdefault", "popitem",
}


@register
class BumpVersionRule(LintRule):
    """R001: a graph method mutating adjacency must call ``_bump_version()``.

    The versioned snapshot cache (:mod:`repro.graphs.snapshot`) detects
    staleness by one integer compare of ``graph.version``; a mutation
    path that skips the bump silently serves stale CSR arrays to every
    algorithm afterwards.
    """

    code = "R001"
    name = "bump-version"
    description = "adjacency-mutating graph method missing _bump_version()"

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for cls in ast.walk(unit.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not any(_base_name(b) in _GRAPH_BASES for b in cls.bases):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name == "__init__":
                    continue  # construction establishes state, never mutates it
                if not self._mutates_structure(method):
                    continue
                if self._bumps_version(method):
                    continue
                yield self.finding(
                    unit,
                    method,
                    f"{cls.name}.{method.name} mutates graph structure "
                    f"but never calls self._bump_version(); cached CSR "
                    f"snapshots will go stale",
                )

    @staticmethod
    def _mutates_structure(method: ast.FunctionDef) -> bool:
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    base = target.value if isinstance(target, ast.Subscript) else target
                    if _is_self_attr(base, _STRUCTURAL_ATTRS):
                        return True
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    base = target.value if isinstance(target, ast.Subscript) else target
                    if _is_self_attr(base, _STRUCTURAL_ATTRS):
                        return True
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and _contains_self_attr(node.func.value, _STRUCTURAL_ATTRS)
            ):
                return True
        return False

    @staticmethod
    def _bumps_version(method: ast.FunctionDef) -> bool:
        return any(
            isinstance(node, ast.Call)
            and _is_self_attr(node.func, {"_bump_version"})
            for node in ast.walk(method)
        )


# ----------------------------------------------------------------------
# R002 — CSR conversion must route through the snapshot cache
# ----------------------------------------------------------------------

_R002_ALLOWED_SUFFIXES = (("graphs", "snapshot.py"), ("graphs", "csr.py"))


@register
class FromGraphRule(LintRule):
    """R002: call ``as_csr``/``csr_snapshot``, not ``CSRGraph.from_graph``.

    A direct conversion bypasses the versioned cache — it is both a
    wasted O(V+E) rebuild on warm graphs and invisible to the cache's
    hit/byte accounting. Only the cache itself (and the CSR module) may
    call the raw constructor.
    """

    code = "R002"
    name = "csr-via-cache"
    description = "direct CSRGraph.from_graph call outside graphs/snapshot.py"

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        parts = unit.parts
        if any(parts[-len(suffix):] == suffix for suffix in _R002_ALLOWED_SUFFIXES):
            return
        for node in ast.walk(unit.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_graph"
                and isinstance(node.func.value, (ast.Name, ast.Attribute))
                and _base_name(node.func.value) == "CSRGraph"
            ):
                yield self.finding(
                    unit,
                    node,
                    "direct CSRGraph.from_graph bypasses the versioned "
                    "snapshot cache; use repro.algorithms.common.as_csr or "
                    "repro.graphs.snapshot.csr_snapshot",
                )


# ----------------------------------------------------------------------
# R003 — fault-site strings must be registered
# ----------------------------------------------------------------------


@register
class KnownFaultSiteRule(LintRule):
    """R003: ``fault_point(<literal>)`` must name a registered site.

    Sites are wired by bare strings; a typo'd or unregistered name is a
    fault hook that silently never fires — the resilience test armed
    against it passes vacuously.
    """

    code = "R003"
    name = "known-fault-site"
    description = "fault-site string literal not registered in faults.KNOWN_SITES"

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.parts[-1:] == ("faults.py",):
            return  # the registry module itself (doctest demo sites)
        from repro.faults import KNOWN_SITES

        known = set(KNOWN_SITES)
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name != "fault_point" or not node.args:
                continue
            site = node.args[0]
            if isinstance(site, ast.Constant) and isinstance(site.value, str):
                if site.value not in known:
                    yield self.finding(
                        unit,
                        node,
                        f"fault site {site.value!r} is not in "
                        f"repro.faults.KNOWN_SITES; register it or fix the "
                        f"typo (tests arming it would never fire)",
                    )


# ----------------------------------------------------------------------
# R004 — no bare Lock.acquire without a guaranteed release
# ----------------------------------------------------------------------


@register
class LockDisciplineRule(LintRule):
    """R004: manual ``.acquire()`` needs a ``try…finally`` release.

    An exception between ``acquire()`` and ``release()`` wedges every
    other thread forever — in an interactive session that is a hang, not
    a crash. ``with lock:`` (or acquire directly followed by
    ``try…finally: release()``) is the only accepted shape.
    """

    code = "R004"
    name = "lock-discipline"
    description = "manual Lock.acquire() without with/finally release"

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if _call_attr(node) != "acquire":
                continue
            if self._released_on_all_paths(unit, node):
                continue
            yield self.finding(
                unit,
                node,
                "manual .acquire() with no try/finally .release(); an "
                "exception here deadlocks every other thread — use "
                "`with lock:` instead",
            )

    def _released_on_all_paths(self, unit: ModuleUnit, call: ast.Call) -> bool:
        # Accept (a) acquire inside a Try whose finalbody releases, and
        # (b) the classic `lock.acquire()` statement immediately followed
        # by a Try whose finalbody releases.
        node: ast.AST = call
        statement: "ast.stmt | None" = None
        while node is not None:
            parent = unit.parent(node)
            if isinstance(node, ast.stmt) and statement is None:
                statement = node
            if isinstance(parent, ast.Try) and node in parent.body:
                if self._finally_releases(parent):
                    return True
            node = parent
        if statement is not None:
            parent = unit.parent(statement)
            for block_name in ("body", "orelse", "finalbody"):
                block = getattr(parent, block_name, None)
                if isinstance(block, list) and statement in block:
                    index = block.index(statement)
                    if (
                        index + 1 < len(block)
                        and isinstance(block[index + 1], ast.Try)
                        and self._finally_releases(block[index + 1])
                    ):
                        return True
        return False

    @staticmethod
    def _finally_releases(try_node: ast.Try) -> bool:
        return any(
            _call_attr(node) == "release"
            for stmt in try_node.finalbody
            for node in ast.walk(stmt)
        )


# ----------------------------------------------------------------------
# R006 — pool kernels must not write shared state unsynchronized
# ----------------------------------------------------------------------

_POOL_METHOD = "map_chunks"
_SYNC_NAME_HINT = "lock"


@register
class SharedKernelStateRule(LintRule):
    """R006: a pool kernel closure writing captured state needs a lock.

    ``WorkerPool`` runs kernels on real threads; a closure that mutates
    a captured dict/list/counter without a lock races its siblings. The
    safe patterns are per-partition return values (combined by the
    caller), **disjoint-span writes** — a subscript store whose index
    derives from the kernel's own partition parameters
    (``arr[lo:hi] = ...``, the paper's §2.5 pattern, which this rule
    recognises and accepts) — or explicit synchronisation.
    """

    code = "R006"
    name = "kernel-shared-state"
    description = (
        "worker-pool kernel closure writes shared mutable state "
        "without a lock"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for scope in ast.walk(unit.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_defs = {
                stmt.name: stmt
                for stmt in ast.walk(scope)
                if isinstance(stmt, ast.FunctionDef) and stmt is not scope
            }
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call) or _call_attr(node) != _POOL_METHOD:
                    continue
                kernel = self._kernel_expr(node)
                if kernel is None:
                    continue
                body: "ast.AST | None" = None
                if isinstance(kernel, ast.Lambda):
                    body = kernel
                elif isinstance(kernel, ast.Name) and kernel.id in local_defs:
                    body = local_defs[kernel.id]
                if body is None:
                    continue
                written = self._unsynchronized_captured_writes(body)
                if written:
                    yield self.finding(
                        unit,
                        node,
                        f"kernel passed to .{_POOL_METHOD}() writes captured "
                        f"state ({', '.join(sorted(written))}) with no "
                        f"lock; return per-partition results "
                        f"or synchronise the writes",
                    )

    @staticmethod
    def _kernel_expr(call: ast.Call) -> "ast.expr | None":
        if len(call.args) > 1:
            return call.args[1]
        for keyword in call.keywords:
            if keyword.arg == "kernel":
                return keyword.value
        return None

    def _unsynchronized_captured_writes(self, kernel: ast.AST) -> set[str]:
        bound = self._locally_bound(kernel)
        derived = self._partition_derived(kernel)
        written: set[str] = set()
        synchronized = False
        for node in ast.walk(kernel):
            if isinstance(node, ast.With):
                synchronized = True
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                receiver = node.func.value
                if attr == "fetch_add" or attr == "acquire":
                    synchronized = True
                elif (
                    isinstance(receiver, ast.Name)
                    and _SYNC_NAME_HINT in receiver.id.lower()
                ):
                    synchronized = True
                elif (
                    attr in _MUTATOR_METHODS
                    and isinstance(receiver, ast.Name)
                    and receiver.id not in bound
                ):
                    written.add(receiver.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id not in bound
                        and not self._index_is_partition_local(target, derived)
                    ):
                        written.add(target.value.id)
        return set() if synchronized else written

    @staticmethod
    def _partition_derived(kernel: ast.AST) -> set[str]:
        """Names whose values derive from the kernel's own parameters.

        A write indexed by such a name targets this partition's disjoint
        span (``for i in range(lo, hi): arr[i] = ...``) — the §2.5
        no-contention pattern — and is not shared-state mutation.
        """
        if isinstance(kernel, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            derived = {arg.arg for arg in kernel.args.args}
            derived.update(arg.arg for arg in kernel.args.posonlyargs)
        else:
            return set()

        def mentions(node: ast.AST) -> bool:
            return any(
                isinstance(sub, ast.Name) and sub.id in derived
                for sub in ast.walk(node)
            )

        # Two propagation passes cover the chains real kernels use
        # (param -> loop index -> offset pair); a full fixpoint is not
        # worth the cost in a linter.
        for _ in range(2):
            for node in ast.walk(kernel):
                if isinstance(node, ast.Assign) and mentions(node.value):
                    for target in node.targets:
                        for sub in ast.walk(target):
                            if isinstance(sub, ast.Name) and isinstance(
                                sub.ctx, ast.Store
                            ):
                                derived.add(sub.id)
                elif isinstance(node, ast.For) and mentions(node.iter):
                    for sub in ast.walk(node.target):
                        if isinstance(sub, ast.Name):
                            derived.add(sub.id)
        return derived

    @staticmethod
    def _index_is_partition_local(target: ast.Subscript, derived: set[str]) -> bool:
        return any(
            isinstance(sub, ast.Name) and sub.id in derived
            for sub in ast.walk(target.slice)
        )

    @staticmethod
    def _locally_bound(kernel: ast.AST) -> set[str]:
        bound: set[str] = set()
        if isinstance(kernel, ast.Lambda):
            args = kernel.args
        elif isinstance(kernel, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = kernel.args
        else:
            return bound
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            bound.add(arg.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
        for node in ast.walk(kernel):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.comprehension):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        bound.add(sub.id)
        return bound
