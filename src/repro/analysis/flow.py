"""Per-function control-flow graphs with exceptional-edge path queries.

The resource-lifecycle conventions this project depends on — a lock
released on every path, a WAL append followed by a catalog publish, a checkpoint temp directory
either committed or removed — are all statements about *paths*, not
about lines. This module builds the CFG those rules query:

* every statement becomes a node; ``normal`` edges follow execution
  order, ``exception`` edges jump from statements that can raise to
  the innermost handler/finally (or to a synthetic ``raise-exit``);
* ``try``/``except``/``else``/``finally`` are modeled with the finally
  body *conflated*: its exit fans out to every continuation the
  protected region could take (fall-through, re-raise, return, break,
  continue). That over-approximates paths — safe for must-pass
  queries, which only ever report a violation when some path avoids
  the settling statement;
* a statement's *own* exception edge is treated as pre-effect by
  :meth:`CFG.find_escape`: if ``lock.acquire()`` itself raises, the
  lock was never held, so that edge is not a leak path;
* a modest reaching-definitions pass answers "which assignment could
  this name hold here" (used to recognise freshly-built WAL names and
  temp-dir derivations).

>>> import ast
>>> src = (
...     "def f(lock):\\n"
...     "    lock.acquire()\\n"
...     "    work()\\n"
...     "    lock.release()\\n"
... )
>>> fn = ast.parse(src).body[0]
>>> cfg = build_cfg(fn)
>>> settles = lambda node: node.stmt is not None and node.source.endswith(
...     "release()")
>>> cfg.find_escape(fn.body[0], settles, include_exceptional=False) is None
True
>>> escape = cfg.find_escape(fn.body[0], settles)  # work() may raise first
>>> escape.kind
'raise-exit'
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

NORMAL = "normal"
EXCEPTION = "exception"


@dataclass
class CFGNode:
    """One CFG node: a statement, or a synthetic entry/exit/join point."""

    idx: int
    kind: str  # "stmt" | "entry" | "exit" | "raise-exit" | "join"
    stmt: "ast.AST | None" = None
    succs: "list[tuple[int, str]]" = field(default_factory=list)

    @property
    def source(self) -> str:
        """Best-effort source text of the statement (for messages)."""
        if self.stmt is None:
            return f"<{self.kind}>"
        try:
            return ast.unparse(self.stmt)
        except Exception:  # pragma: no cover - malformed AST
            return f"<{self.kind}>"

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


@dataclass
class _Ctx:
    """Where each kind of control transfer lands, at this nesting level."""

    next: int
    exc: int
    ret: int
    brk: "int | None" = None
    cont: "int | None" = None


class CFG:
    """A per-function control-flow graph (see module docstring)."""

    def __init__(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        self.fn = fn
        self.nodes: list[CFGNode] = []
        self.exit = self._new("exit")
        self.raise_exit = self._new("raise-exit")
        self._stmt_nodes: dict[int, int] = {}
        ctx = _Ctx(next=self.exit, exc=self.raise_exit, ret=self.exit)
        first = self._block(fn.body, ctx)
        self.entry = self._new("entry")
        self.nodes[self.entry].succs.append((first, NORMAL))
        self._reaching: "dict[int, dict[str, set[int]]] | None" = None

    # -- construction --------------------------------------------------

    def _new(self, kind: str, stmt: "ast.AST | None" = None) -> int:
        node = CFGNode(idx=len(self.nodes), kind=kind, stmt=stmt)
        self.nodes.append(node)
        if stmt is not None:
            self._stmt_nodes[id(stmt)] = node.idx
        return node.idx

    def _block(self, stmts: "list[ast.stmt]", ctx: _Ctx) -> int:
        entry = ctx.next
        for stmt in reversed(stmts):
            entry = self._stmt(
                stmt,
                _Ctx(
                    next=entry,
                    exc=ctx.exc,
                    ret=ctx.ret,
                    brk=ctx.brk,
                    cont=ctx.cont,
                ),
            )
        return entry

    def _stmt(self, stmt: ast.stmt, ctx: _Ctx) -> int:
        if isinstance(stmt, ast.If):
            return self._if(stmt, ctx)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, ctx)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, ctx)
        node = self._new("stmt", stmt)
        succs = self.nodes[node].succs
        if isinstance(stmt, ast.Return):
            succs.append((ctx.ret, NORMAL))
            if stmt.value is not None and _may_raise_expr(stmt.value):
                succs.append((ctx.exc, EXCEPTION))
        elif isinstance(stmt, ast.Raise):
            succs.append((ctx.exc, EXCEPTION))
        elif isinstance(stmt, ast.Break):
            succs.append((ctx.brk if ctx.brk is not None else ctx.next, NORMAL))
        elif isinstance(stmt, ast.Continue):
            succs.append((ctx.cont if ctx.cont is not None else ctx.next, NORMAL))
        elif isinstance(stmt, ast.Assert):
            succs.append((ctx.next, NORMAL))
            succs.append((ctx.exc, EXCEPTION))
        else:
            succs.append((ctx.next, NORMAL))
            if _may_raise_stmt(stmt):
                succs.append((ctx.exc, EXCEPTION))
        return node

    def _if(self, stmt: ast.If, ctx: _Ctx) -> int:
        node = self._new("stmt", stmt)
        body = self._block(stmt.body, ctx)
        orelse = self._block(stmt.orelse, ctx) if stmt.orelse else ctx.next
        succs = self.nodes[node].succs
        succs.append((body, NORMAL))
        if orelse != body:
            succs.append((orelse, NORMAL))
        if _may_raise_expr(stmt.test):
            succs.append((ctx.exc, EXCEPTION))
        return node

    def _loop(self, stmt: "ast.While | ast.For | ast.AsyncFor", ctx: _Ctx) -> int:
        head = self._new("stmt", stmt)
        after = self._block(stmt.orelse, ctx) if stmt.orelse else ctx.next
        body_ctx = _Ctx(next=head, exc=ctx.exc, ret=ctx.ret, brk=ctx.next, cont=head)
        body = self._block(stmt.body, body_ctx)
        succs = self.nodes[head].succs
        succs.append((body, NORMAL))
        succs.append((after, NORMAL))
        head_expr = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        if _may_raise_expr(head_expr):
            succs.append((ctx.exc, EXCEPTION))
        return head

    def _with(self, stmt: "ast.With | ast.AsyncWith", ctx: _Ctx) -> int:
        node = self._new("stmt", stmt)
        body = self._block(stmt.body, ctx)
        succs = self.nodes[node].succs
        succs.append((body, NORMAL))
        if any(_may_raise_expr(item.context_expr) for item in stmt.items):
            succs.append((ctx.exc, EXCEPTION))
        return node

    def _try(self, stmt: ast.Try, ctx: _Ctx) -> int:
        has_finally = bool(stmt.finalbody)
        if has_finally:
            # The finally body runs on every way out of the protected
            # region; its exit fans out to every continuation that
            # region could take (conflated — see module docstring).
            join = self._new("join")
            targets: list[tuple[int, str]] = [(ctx.next, NORMAL), (ctx.exc, EXCEPTION)]
            protected = stmt.body + stmt.orelse + [
                s for handler in stmt.handlers for s in handler.body
            ]
            flags = _transfer_kinds(protected)
            if "return" in flags:
                targets.append((ctx.ret, NORMAL))
            if "break" in flags and ctx.brk is not None:
                targets.append((ctx.brk, NORMAL))
            if "continue" in flags and ctx.cont is not None:
                targets.append((ctx.cont, NORMAL))
            for target in targets:
                if target not in self.nodes[join].succs:
                    self.nodes[join].succs.append(target)
            fin_ctx = _Ctx(next=join, exc=ctx.exc, ret=ctx.ret, brk=ctx.brk, cont=ctx.cont)
            fin_entry = self._block(stmt.finalbody, fin_ctx)
            after, exc_after, ret_after = fin_entry, fin_entry, fin_entry
            brk_after = fin_entry if ctx.brk is not None else None
            cont_after = fin_entry if ctx.cont is not None else None
        else:
            after, exc_after, ret_after = ctx.next, ctx.exc, ctx.ret
            brk_after, cont_after = ctx.brk, ctx.cont

        handler_entries: list[int] = []
        for handler in stmt.handlers:
            h_ctx = _Ctx(next=after, exc=exc_after, ret=ret_after,
                         brk=brk_after, cont=cont_after)
            h_body = self._block(handler.body, h_ctx)
            h_node = self._new("stmt", handler)
            self.nodes[h_node].succs.append((h_body, NORMAL))
            handler_entries.append(h_node)

        if handler_entries:
            dispatch = self._new("join")
            for entry in handler_entries:
                self.nodes[dispatch].succs.append((entry, EXCEPTION))
            # An exception matching no handler propagates outward —
            # unless some handler is a catch-all (bare ``except`` /
            # ``except BaseException`` / ``except Exception``).
            if not any(_is_catch_all(h) for h in stmt.handlers):
                self.nodes[dispatch].succs.append((exc_after, EXCEPTION))
            body_exc = dispatch
        else:
            body_exc = exc_after

        else_entry = (
            self._block(
                stmt.orelse,
                _Ctx(next=after, exc=exc_after, ret=ret_after,
                     brk=brk_after, cont=cont_after),
            )
            if stmt.orelse
            else after
        )
        body_ctx = _Ctx(next=else_entry, exc=body_exc, ret=ret_after,
                        brk=brk_after, cont=cont_after)
        return self._block(stmt.body, body_ctx)

    # -- queries -------------------------------------------------------

    def node_for(self, stmt: ast.AST) -> "CFGNode | None":
        idx = self._stmt_nodes.get(id(stmt))
        return self.nodes[idx] if idx is not None else None

    def find_escape(
        self,
        start: ast.AST,
        settles: "Callable[[CFGNode], bool]",
        include_exceptional: bool = True,
    ) -> "CFGNode | None":
        """First exit reachable from ``start`` without passing a settler.

        Returns None when every path from ``start`` hits a node for
        which ``settles`` is true before leaving the function. The
        start statement's own exception edge is pre-effect and never
        followed; with ``include_exceptional=False``, no exception
        edge is.
        """
        node = self.node_for(start)
        if node is None:
            return None
        seen: set[int] = set()
        work: list[int] = []
        for succ, edge in node.succs:
            if edge == EXCEPTION:
                continue  # pre-effect: the acquisition itself failed
            work.append(succ)
        while work:
            idx = work.pop()
            if idx in seen:
                continue
            seen.add(idx)
            current = self.nodes[idx]
            if settles(current):
                continue
            if current.kind == "exit":
                return current
            if current.kind == "raise-exit":
                if include_exceptional:
                    return current
                continue
            for succ, edge in current.succs:
                if edge == EXCEPTION and not include_exceptional:
                    continue
                work.append(succ)
        return None

    def reaching_definitions(self) -> "dict[int, dict[str, set[int]]]":
        """IN-set per node: name -> CFG node indices that may define it."""
        if self._reaching is not None:
            return self._reaching
        gen: dict[int, set[str]] = {}
        for node in self.nodes:
            if node.stmt is not None:
                gen[node.idx] = set(assigned_names(node.stmt))
        preds: dict[int, list[int]] = {node.idx: [] for node in self.nodes}
        for node in self.nodes:
            for succ, _ in node.succs:
                preds[succ].append(node.idx)
        ins: dict[int, dict[str, set[int]]] = {n.idx: {} for n in self.nodes}
        outs: dict[int, dict[str, set[int]]] = {n.idx: {} for n in self.nodes}
        changed = True
        while changed:
            changed = False
            for node in self.nodes:
                new_in: dict[str, set[int]] = {}
                for pred in preds[node.idx]:
                    for name, sites in outs[pred].items():
                        new_in.setdefault(name, set()).update(sites)
                new_out = {name: set(sites) for name, sites in new_in.items()}
                for name in gen.get(node.idx, ()):
                    new_out[name] = {node.idx}
                if new_in != ins[node.idx] or new_out != outs[node.idx]:
                    ins[node.idx], outs[node.idx] = new_in, new_out
                    changed = True
        self._reaching = ins
        return ins

    def definitions_at(self, stmt: ast.AST, name: str) -> "list[ast.AST]":
        """The assignment statements that may define ``name`` at ``stmt``."""
        node = self.node_for(stmt)
        if node is None:
            return []
        ins = self.reaching_definitions()
        return [
            self.nodes[idx].stmt
            for idx in sorted(ins.get(node.idx, {}).get(name, ()))
            if self.nodes[idx].stmt is not None
        ]

    def statements(self) -> Iterator[ast.AST]:
        for node in self.nodes:
            if node.stmt is not None and node.kind == "stmt":
                yield node.stmt


def assigned_names(stmt: ast.AST) -> Iterator[str]:
    """Names a statement (re)binds, including loop/with targets."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets.extend(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets.append(stmt.target)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets.append(stmt.target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets.extend(
            item.optional_vars
            for item in stmt.items
            if item.optional_vars is not None
        )
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                yield node.id
    for node in ast.walk(stmt) if not isinstance(stmt, (ast.For, ast.AsyncFor)) else []:
        if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            yield node.target.id


def _may_raise_expr(expr: "ast.expr | None") -> bool:
    if expr is None:
        return False
    return any(
        isinstance(node, (ast.Call, ast.Await, ast.Subscript, ast.Attribute))
        for node in ast.walk(expr)
    )


def _may_raise_stmt(stmt: ast.stmt) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Call, ast.Await, ast.Raise, ast.Assert)):
            return True
    return False


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    """Whether ``handler`` matches every exception that reaches it.

    ``except Exception`` is treated as catch-all even though
    ``KeyboardInterrupt``/``SystemExit`` bypass it — for path-sensitive
    cleanup rules the interesting escapes are ordinary errors.
    """
    if handler.type is None:
        return True
    if isinstance(handler.type, ast.Name):
        return handler.type.id in {"BaseException", "Exception"}
    if isinstance(handler.type, ast.Attribute):
        return handler.type.attr in {"BaseException", "Exception"}
    if isinstance(handler.type, ast.Tuple):
        return any(
            (isinstance(e, ast.Name) and e.id in {"BaseException", "Exception"})
            or (isinstance(e, ast.Attribute) and e.attr in {"BaseException", "Exception"})
            for e in handler.type.elts
        )
    return False


def _transfer_kinds(stmts: "Iterable[ast.stmt]") -> set[str]:
    """Which control transfers (`return`/`break`/`continue`) appear."""
    kinds: set[str] = set()

    def visit(node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.Return):
                kinds.add("return")
            elif isinstance(child, ast.Break) and not in_loop:
                kinds.add("break")
            elif isinstance(child, ast.Continue) and not in_loop:
                kinds.add("continue")
            visit(
                child,
                in_loop or isinstance(child, (ast.While, ast.For, ast.AsyncFor)),
            )

    for stmt in stmts:
        if isinstance(stmt, ast.Return):
            kinds.add("return")
        elif isinstance(stmt, ast.Break):
            kinds.add("break")
        elif isinstance(stmt, ast.Continue):
            kinds.add("continue")
        visit(stmt, isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)))
    return kinds


def build_cfg(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> CFG:
    """Build the control-flow graph of one function definition."""
    return CFG(fn)
