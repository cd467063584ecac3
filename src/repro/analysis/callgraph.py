"""Project-wide call graph with module-level name resolution.

The single-module rules (R001–R004, R006) see one AST at a time, so a bug
that spans a call boundary — a blocking call two frames below an
``async def``, a lock acquired by a helper while the caller holds
another — is invisible to them. This module builds the interprocedural
substrate the flow rules (R008–R012) stand on:

* **indexing** — every module handed in is indexed for imports (with
  relative-import resolution), module-level functions, classes with
  their methods, and attribute/variable type sources;
* **type resolution** — a modest, flow-insensitive resolver maps
  expressions to types using constructor assignments
  (``self.executor = ThreadPoolExecutor(...)``), annotations
  (``manager: "SessionManager | None"``), and return annotations
  (``def snapshot_cache() -> SnapshotCache``), so method calls through
  ``self`` and attribute chains resolve;
* **honesty** — every call site lands in exactly one of three buckets:
  resolved-internal (a function in the project), resolved-external
  (a dotted name rooted outside it, including builtins), or
  *unresolved*. :meth:`CallGraph.resolution_rate` reports the resolved
  fraction, and a test enforces a floor so the graph cannot silently
  rot into guesswork.

>>> from repro.analysis.lint import ModuleUnit
>>> util = ModuleUnit("pkg/util.py", "def helper():\\n    return 1\\n")
>>> main = ModuleUnit(
...     "pkg/main.py",
...     "from util import helper\\n\\ndef run():\\n    return helper()\\n",
... )
>>> graph = build_callgraph([util, main])
>>> [site.callee for site in graph.calls_from("main.run")]
['util.helper']
>>> graph.resolution_rate()
1.0
"""

from __future__ import annotations

import ast
import builtins as _builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.lint import ModuleUnit

INTERNAL = "internal"
EXTERNAL = "external"
UNRESOLVED = "unresolved"

_BUILTIN_NAMES = frozenset(dir(_builtins))
_MAX_TYPE_DEPTH = 8


def module_name_for(path: str) -> str:
    """Dotted module name for a file path (``src/repro/x.py`` -> ``repro.x``)."""
    p = Path(path)
    parts = list(p.parts[:-1]) + [p.stem]
    if "src" in p.parts:
        rel = parts[p.parts.index("src") + 1 :]
    elif "repro" in p.parts:
        rel = parts[p.parts.index("repro") :]
    else:
        rel = [p.stem]
    if rel and rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel) or p.stem


@dataclass(frozen=True)
class TypeRef:
    """A resolved type: ``kind`` is ``instance``, ``class``, or ``module``."""

    kind: str
    name: str


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qualname: str
    module: str
    path: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    is_async: bool
    class_qualname: "str | None" = None


@dataclass
class ClassInfo:
    """One class: methods, raw base expressions, and attribute type sources."""

    qualname: str
    module: str
    node: ast.ClassDef
    base_exprs: "list[ast.expr]" = field(default_factory=list)
    methods: "dict[str, FunctionInfo]" = field(default_factory=dict)
    # attr -> ("ann" | "value", expr) — the source an attribute's type
    # is inferred from (annotation wins over a constructor assignment).
    attr_sources: "dict[str, tuple[str, ast.expr]]" = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression, attributed to its enclosing function."""

    caller: str
    node: ast.Call
    path: str
    line: int
    col: int
    attr: str
    kind: str = UNRESOLVED
    callee: "str | None" = None

    @property
    def resolved(self) -> bool:
        return self.kind != UNRESOLVED


class ModuleIndex:
    """Per-module symbol table: imports, functions, classes, var types."""

    def __init__(self, unit: "ModuleUnit") -> None:
        self.unit = unit
        self.path = unit.path
        self.name = module_name_for(unit.path)
        self.imports: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.var_sources: dict[str, tuple[str, ast.expr]] = {}
        self._index()

    def _index(self) -> None:
        for stmt in self.unit.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    root = alias.name.split(".")[0]
                    self.imports[alias.asname or root] = (
                        alias.name if alias.asname else root
                    )
            elif isinstance(stmt, ast.ImportFrom):
                base = self._import_base(stmt)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.imports[alias.asname or alias.name] = target
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{self.name}.{stmt.name}",
                    module=self.name,
                    path=self.path,
                    node=stmt,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                )
                self.functions[stmt.name] = info
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = self._index_class(stmt)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self.var_sources[target.id] = ("value", stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.var_sources[stmt.target.id] = ("ann", stmt.annotation)

    def _import_base(self, stmt: ast.ImportFrom) -> str:
        if not stmt.level:
            return stmt.module or ""
        # Relative import: strip `level` trailing components from this
        # module's dotted name (the module itself counts as one).
        parts = self.name.split(".")[: -stmt.level]
        if stmt.module:
            parts.append(stmt.module)
        return ".".join(parts)

    def _index_class(self, node: ast.ClassDef) -> ClassInfo:
        info = ClassInfo(
            qualname=f"{self.name}.{node.name}",
            module=self.name,
            node=node,
            base_exprs=list(node.bases),
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = FunctionInfo(
                    qualname=f"{info.qualname}.{stmt.name}",
                    module=self.name,
                    path=self.path,
                    node=stmt,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                    class_qualname=info.qualname,
                )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                info.attr_sources[stmt.target.id] = ("ann", stmt.annotation)
        for method in info.methods.values():
            self._harvest_attr_sources(info, method.node)
        return info

    def _harvest_attr_sources(
        self, info: ClassInfo, fn: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        """Record ``self.X = ...`` assignments as attribute type sources."""
        param_anns = {
            arg.arg: arg.annotation
            for arg in list(fn.args.args) + list(fn.args.kwonlyargs)
            if arg.annotation is not None
        }
        for node in ast.walk(fn):
            target: "ast.expr | None" = None
            source: "tuple[str, ast.expr] | None" = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, source = node.targets[0], ("value", node.value)
                # `self.x = param` with an annotated parameter: the
                # annotation is a better type source than the Name.
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in param_anns
                ):
                    source = ("ann", param_anns[node.value.id])
            elif isinstance(node, ast.AnnAssign):
                target, source = node.target, ("ann", node.annotation)
            if (
                target is not None
                and source is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                # Annotations win; first value assignment otherwise.
                prior = info.attr_sources.get(target.attr)
                if prior is None or (source[0] == "ann" and prior[0] == "value"):
                    info.attr_sources[target.attr] = source


class _Scope:
    """Resolution context for one function (or a module's top level)."""

    def __init__(
        self,
        graph: "CallGraph",
        mi: ModuleIndex,
        ci: "ClassInfo | None" = None,
        local_sources: "dict[str, tuple[str, ast.expr]] | None" = None,
        local_imports: "dict[str, str] | None" = None,
    ) -> None:
        self.graph = graph
        self.mi = mi
        self.ci = ci
        self.local_sources = local_sources or {}
        self.local_imports = local_imports or {}
        # Names currently being resolved — breaks `x = x.strip()` cycles.
        self._resolving: set[str] = set()

    # -- name bindings -------------------------------------------------

    def import_target(self, name: str) -> "str | None":
        return self.local_imports.get(name) or self.mi.imports.get(name)

    # -- type resolution -----------------------------------------------

    def source_type(
        self, source: "tuple[str, ast.expr]", depth: int
    ) -> "TypeRef | None":
        kind, expr = source
        if kind == "ann":
            return self.annotation_type(expr, depth + 1)
        return self.expr_type(expr, depth + 1)

    def _guarded_source_type(
        self, name: str, source: "tuple[str, ast.expr]", depth: int
    ) -> "TypeRef | None":
        if name in self._resolving:
            return None
        self._resolving.add(name)
        try:
            return self.source_type(source, depth)
        finally:
            self._resolving.discard(name)

    def annotation_type(self, ann: "ast.expr | None", depth: int = 0) -> "TypeRef | None":
        """Type denoted by an annotation (instances, Optional unwrapped)."""
        if ann is None or depth > _MAX_TYPE_DEPTH:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            for side in (ann.left, ann.right):
                if not (isinstance(side, ast.Constant) and side.value is None):
                    return self.annotation_type(side, depth + 1)
            return None
        if isinstance(ann, ast.Subscript):
            base = self.annotation_type(ann.value, depth + 1)
            if base is not None and base.name.rsplit(".", 1)[-1] == "Optional":
                return self.annotation_type(ann.slice, depth + 1)
            # dict[str, X] and friends: the container type is the value.
            return base
        ref = self.expr_type(ann, depth + 1)
        if ref is not None and ref.kind == "class":
            return TypeRef("instance", ref.name)
        return ref

    def expr_type(self, expr: "ast.expr | None", depth: int = 0) -> "TypeRef | None":
        """Best-effort type of an expression; None when unknown."""
        if expr is None or depth > _MAX_TYPE_DEPTH:
            return None
        graph = self.graph
        if isinstance(expr, ast.Name):
            name = expr.id
            if name == "self" and self.ci is not None:
                return TypeRef("instance", self.ci.qualname)
            if name == "cls" and self.ci is not None:
                return TypeRef("class", self.ci.qualname)
            if name in self.local_sources:
                return self._guarded_source_type(name, self.local_sources[name], depth)
            target = self.import_target(name)
            if target is not None:
                return graph.dotted_type(target)
            if name in self.mi.classes:
                return TypeRef("class", self.mi.classes[name].qualname)
            if name in self.mi.var_sources:
                return self._guarded_source_type(name, self.mi.var_sources[name], depth)
            if name in _BUILTIN_NAMES:
                value = getattr(_builtins, name, None)
                if isinstance(value, type):
                    return TypeRef("class", f"builtins.{name}")
            return None
        if isinstance(expr, ast.Constant):
            if expr.value is None:
                return None
            return TypeRef("instance", f"builtins.{type(expr.value).__name__}")
        if isinstance(expr, ast.JoinedStr):
            return TypeRef("instance", "builtins.str")
        if isinstance(expr, (ast.List, ast.ListComp)):
            return TypeRef("instance", "builtins.list")
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return TypeRef("instance", "builtins.dict")
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return TypeRef("instance", "builtins.set")
        if isinstance(expr, ast.Tuple):
            return TypeRef("instance", "builtins.tuple")
        if isinstance(expr, ast.Await):
            return self.expr_type(expr.value, depth + 1)
        if isinstance(expr, ast.Call):
            return self.call_result_type(expr, depth)
        if isinstance(expr, ast.Attribute):
            return self.attribute_type(expr, depth)
        return None

    def call_result_type(self, call: ast.Call, depth: int) -> "TypeRef | None":
        kind, target = self.resolve_call(call, depth + 1)
        if target is None:
            return None
        if kind == INTERNAL:
            ci = self.graph.classes.get(target)
            if ci is not None:
                return TypeRef("instance", ci.qualname)
            fn = self.graph.functions.get(target)
            if fn is not None and fn.node.returns is not None:
                owner = self.graph.scope_for_definition(fn)
                return owner.annotation_type(fn.node.returns, depth + 1)
            return None
        if kind == EXTERNAL:
            terminal = target.rsplit(".", 1)[-1]
            # CamelCase terminal => constructor call (threading.Lock()).
            if terminal[:1].isupper():
                return TypeRef("instance", target)
        return None

    def attribute_type(self, expr: ast.Attribute, depth: int) -> "TypeRef | None":
        base = self.expr_type(expr.value, depth + 1)
        if base is None:
            return None
        graph = self.graph
        if base.kind == "module":
            return graph.dotted_type(f"{base.name}.{expr.attr}")
        if base.name in graph.classes:
            source = graph.find_attr_source(base.name, expr.attr)
            if source is not None:
                owner_qualname, src = source
                owner = graph.class_scope(owner_qualname)
                return owner.source_type(src, depth)
            return None
        # External receiver: attribute types are unknowable statically.
        return None

    # -- call resolution -----------------------------------------------

    def resolve_call(
        self, call: ast.Call, depth: int = 0
    ) -> "tuple[str, str | None]":
        """Classify a call: (internal|external|unresolved, target)."""
        func = call.func
        graph = self.graph
        if depth > _MAX_TYPE_DEPTH:
            return UNRESOLVED, None
        if isinstance(func, ast.Name):
            name = func.id
            if name == "super":
                return EXTERNAL, "builtins.super"
            if name in self.local_sources:
                ref = self._guarded_source_type(name, self.local_sources[name], depth)
                if ref is not None and ref.kind == "class":
                    if ref.name in graph.classes:
                        return INTERNAL, ref.name
                    return EXTERNAL, ref.name
                return UNRESOLVED, None
            if name in self.mi.functions:
                return INTERNAL, self.mi.functions[name].qualname
            if name in self.mi.classes:
                return INTERNAL, self.mi.classes[name].qualname
            target = self.import_target(name)
            if target is not None:
                return graph.dotted_call_target(target)
            if name in self.mi.var_sources:
                ref = self._guarded_source_type(name, self.mi.var_sources[name], depth)
                if ref is not None and ref.kind == "class":
                    if ref.name in graph.classes:
                        return INTERNAL, ref.name
                    return EXTERNAL, ref.name
                return UNRESOLVED, None
            if name in _BUILTIN_NAMES:
                return EXTERNAL, f"builtins.{name}"
            return UNRESOLVED, None
        if isinstance(func, ast.Attribute):
            # super().method(...)
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and self.ci is not None
            ):
                for base_qualname in graph.resolved_bases(self.ci.qualname):
                    method = graph.find_method(base_qualname, func.attr)
                    if method is not None:
                        return INTERNAL, method.qualname
                return UNRESOLVED, None
            base = self.expr_type(func.value, depth + 1)
            if base is None:
                return UNRESOLVED, None
            if base.kind == "module":
                return graph.dotted_call_target(f"{base.name}.{func.attr}")
            if base.name in graph.classes:
                method = graph.find_method(base.name, func.attr)
                if method is not None:
                    return INTERNAL, method.qualname
                return UNRESOLVED, None
            return EXTERNAL, f"{base.name}.{func.attr}"
        return UNRESOLVED, None


class CallGraph:
    """The project call graph: indexed modules plus resolved call sites."""

    def __init__(self, units: "Iterable[ModuleUnit]") -> None:
        self.modules: dict[str, ModuleIndex] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.calls: dict[str, list[CallSite]] = {}
        self._scopes: dict[str, _Scope] = {}
        self._method_cache: dict[tuple[str, str], "FunctionInfo | None"] = {}
        self._bases_cache: dict[str, list[str]] = {}
        for unit in units:
            mi = ModuleIndex(unit)
            self.modules[mi.name] = mi
        self.package_roots = {name.split(".")[0] for name in self.modules}
        for mi in self.modules.values():
            self._register_definitions(mi)
        for mi in self.modules.values():
            self._collect_calls(mi)

    # -- construction --------------------------------------------------

    def _register_definitions(self, mi: ModuleIndex) -> None:
        for fn in mi.functions.values():
            self.functions[fn.qualname] = fn
        for ci in mi.classes.values():
            self.classes[ci.qualname] = ci
            for method in ci.methods.values():
                self.functions[method.qualname] = method
        # Nested defs: indexed as callers/callees but not name bindings.
        for owner_qualname, owner_node, class_qualname in self._def_nodes(mi):
            for child in ast.walk(owner_node):
                if child is owner_node or not isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                qualname = f"{owner_qualname}.<locals>.{child.name}"
                if qualname not in self.functions:
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname,
                        module=mi.name,
                        path=mi.path,
                        node=child,
                        is_async=isinstance(child, ast.AsyncFunctionDef),
                        class_qualname=class_qualname,
                    )

    def _def_nodes(
        self, mi: ModuleIndex
    ) -> "Iterator[tuple[str, ast.AST, str | None]]":
        for fn in mi.functions.values():
            yield fn.qualname, fn.node, None
        for ci in mi.classes.values():
            for method in ci.methods.values():
                yield method.qualname, method.node, ci.qualname

    def _collect_calls(self, mi: ModuleIndex) -> None:
        # Module top level (decorators, constants, __main__ blocks).
        module_caller = f"{mi.name}.<module>"
        top_stmts = [
            stmt
            for stmt in mi.unit.tree.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        scope = _Scope(self, mi)
        self._scopes[module_caller] = scope
        sites = self.calls.setdefault(module_caller, [])
        for stmt in top_stmts:
            for call in self._own_calls(stmt):
                sites.append(self._resolve_site(module_caller, call, mi, scope))
        for fn in sorted(
            (f for f in self.functions.values() if f.module == mi.name),
            key=lambda f: f.qualname,
        ):
            self._collect_function(mi, fn)

    def _collect_function(self, mi: ModuleIndex, fn: FunctionInfo) -> None:
        ci = self.classes.get(fn.class_qualname) if fn.class_qualname else None
        local_sources: dict[str, tuple[str, ast.expr]] = {}
        local_imports: dict[str, str] = {}
        args = fn.node.args
        for arg in list(args.args) + list(args.kwonlyargs) + (
            [args.vararg] if args.vararg else []
        ) + ([args.kwarg] if args.kwarg else []):
            if arg is not None and arg.annotation is not None:
                local_sources[arg.arg] = ("ann", arg.annotation)
        for node in self._own_nodes(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and target.id not in local_sources:
                    local_sources[target.id] = ("value", node.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                local_sources[node.target.id] = ("ann", node.annotation)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        local_sources.setdefault(
                            item.optional_vars.id, ("value", item.context_expr)
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    local_imports[alias.asname or root] = (
                        alias.name if alias.asname else root
                    )
            elif isinstance(node, ast.ImportFrom):
                base = mi._import_base(node)
                for alias in node.names:
                    if alias.name != "*":
                        target_name = (
                            f"{base}.{alias.name}" if base else alias.name
                        )
                        local_imports[alias.asname or alias.name] = target_name
        scope = _Scope(self, mi, ci, local_sources, local_imports)
        self._scopes[fn.qualname] = scope
        sites = self.calls.setdefault(fn.qualname, [])
        for node in self._own_nodes(fn.node):
            if isinstance(node, ast.Call):
                sites.append(self._resolve_site(fn.qualname, node, mi, scope))

    def _resolve_site(
        self, caller: str, call: ast.Call, mi: ModuleIndex, scope: _Scope
    ) -> CallSite:
        func = call.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
        elif isinstance(func, ast.Name):
            attr = func.id
        else:
            attr = "<expr>"
        kind, target = scope.resolve_call(call)
        return CallSite(
            caller=caller,
            node=call,
            path=mi.path,
            line=call.lineno,
            col=call.col_offset,
            attr=attr,
            kind=kind,
            callee=target,
        )

    @staticmethod
    def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
        """Walk a function body without descending into nested defs."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _own_calls(cls, stmt: ast.AST) -> Iterator[ast.Call]:
        if isinstance(stmt, ast.Call):
            yield stmt
        for node in cls._own_nodes(stmt):
            if isinstance(node, ast.Call):
                yield node

    # -- lookup helpers ------------------------------------------------

    def dotted_type(self, dotted: str) -> "TypeRef | None":
        """Type of a dotted name binding (import target or module attr)."""
        if dotted in self.classes:
            return TypeRef("class", dotted)
        if dotted in self.functions:
            return None  # a function reference, not a typed value
        if dotted in self.modules or any(
            name.startswith(dotted + ".") for name in self.modules
        ):
            return TypeRef("module", dotted)
        root = dotted.split(".")[0]
        if root in self.package_roots:
            return None  # project-rooted but unknown: stay honest
        terminal = dotted.rsplit(".", 1)[-1]
        if terminal[:1].isupper():
            return TypeRef("class", dotted)
        return TypeRef("module", dotted)

    def dotted_call_target(self, dotted: str) -> "tuple[str, str | None]":
        """Resolve calling a dotted name (import binding or module attr)."""
        if dotted in self.functions:
            return INTERNAL, dotted
        if dotted in self.classes:
            return INTERNAL, dotted
        if dotted in self.modules:
            return UNRESOLVED, None  # calling a module object
        root = dotted.split(".")[0]
        if root in self.package_roots:
            # Project-rooted but not found: a re-export or dynamic name.
            return UNRESOLVED, None
        return EXTERNAL, dotted

    def scope_for_definition(self, fn: FunctionInfo) -> _Scope:
        """A scope suitable for resolving annotations in ``fn``'s module."""
        mi = self.modules[fn.module]
        ci = self.classes.get(fn.class_qualname) if fn.class_qualname else None
        return _Scope(self, mi, ci)

    def class_scope(self, class_qualname: str) -> _Scope:
        ci = self.classes[class_qualname]
        return _Scope(self, self.modules[ci.module], ci)

    def resolved_bases(self, class_qualname: str) -> list[str]:
        """Internal base-class qualnames of a class, in MRO-ish order."""
        cached = self._bases_cache.get(class_qualname)
        if cached is not None:
            return cached
        self._bases_cache[class_qualname] = []  # cycle guard
        out: list[str] = []
        ci = self.classes.get(class_qualname)
        if ci is not None:
            scope = self.class_scope(class_qualname)
            for base in ci.base_exprs:
                ref = scope.expr_type(base)
                if ref is not None and ref.kind == "class" and ref.name in self.classes:
                    if ref.name not in out:
                        out.append(ref.name)
                        for upper in self.resolved_bases(ref.name):
                            if upper not in out:
                                out.append(upper)
        self._bases_cache[class_qualname] = out
        return out

    def base_names(self, class_qualname: str) -> list[str]:
        """Raw dotted text of a class's base expressions (internal or not)."""
        ci = self.classes.get(class_qualname)
        if ci is None:
            return []
        names = []
        for base in ci.base_exprs:
            try:
                names.append(ast.unparse(base))
            except ValueError:  # pragma: no cover - malformed AST
                pass
        return names

    def find_method(
        self, class_qualname: str, name: str
    ) -> "FunctionInfo | None":
        key = (class_qualname, name)
        if key in self._method_cache:
            return self._method_cache[key]
        self._method_cache[key] = None  # cycle guard
        ci = self.classes.get(class_qualname)
        found: "FunctionInfo | None" = None
        if ci is not None:
            if name in ci.methods:
                found = ci.methods[name]
            else:
                for base in self.resolved_bases(class_qualname):
                    base_ci = self.classes.get(base)
                    if base_ci is not None and name in base_ci.methods:
                        found = base_ci.methods[name]
                        break
        self._method_cache[key] = found
        return found

    def find_attr_source(
        self, class_qualname: str, attr: str
    ) -> "tuple[str, tuple[str, ast.expr]] | None":
        """(owning class, type source) for an attribute, searching bases."""
        for owner in [class_qualname] + self.resolved_bases(class_qualname):
            ci = self.classes.get(owner)
            if ci is not None and attr in ci.attr_sources:
                return owner, ci.attr_sources[attr]
        return None

    def scope_for(self, caller: str) -> "_Scope | None":
        return self._scopes.get(caller)

    def expr_type(self, caller: str, expr: ast.expr) -> "TypeRef | None":
        """Type of an expression evaluated in ``caller``'s scope."""
        scope = self._scopes.get(caller)
        return scope.expr_type(expr) if scope is not None else None

    # -- queries -------------------------------------------------------

    def calls_from(self, caller: str) -> list[CallSite]:
        return self.calls.get(caller, [])

    def all_sites(self) -> Iterator[CallSite]:
        for sites in self.calls.values():
            yield from sites

    def unresolved_sites(self) -> list[CallSite]:
        return [site for site in self.all_sites() if not site.resolved]

    def resolution_rate(self) -> float:
        """Fraction of call sites resolved (internally or externally)."""
        total = resolved = 0
        for site in self.all_sites():
            total += 1
            resolved += 1 if site.resolved else 0
        return resolved / total if total else 1.0


def build_callgraph(units: "Iterable[ModuleUnit]") -> CallGraph:
    """Index ``units`` and resolve every call site into a :class:`CallGraph`."""
    return CallGraph(units)
