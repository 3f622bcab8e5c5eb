"""Project-wide call graph for the flow analysis stage.

Resolution is name-based per module: a function body's calls are resolved
through (in order) the defining module's own classes/functions, its import
table, and — as a last resort — a unique project-wide name match.  Method
calls resolve through a class-attribute type map (``self._checkpoints =
CheckpointCollector(...)`` in ``__init__`` makes ``self._checkpoints.add``
resolve to ``CheckpointCollector.add``), parameter annotations, and local
constructor assignments.

Everything unresolvable stays unresolved; the flow rules treat unresolved
calls as opaque no-ops, which keeps the analysis sound against false
positives at the cost of missing flows through dynamic dispatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from repro.lint.engine import FileContext, Project
from repro.lint.flow.walk import body_nodes
from repro.lint.rules.protocol import CODEC_BASES, is_dataclass_def

#: Attribute roots on ``self`` that never hold protocol state (counters,
#: tracing, and the runtime handle are observability/IO, not replica state).
OBSERVABILITY_ATTRS = frozenset({"stats", "tracer", "env"})


@dataclass
class FunctionInfo:
    """One top-level function or class method."""

    key: str                      # "module:Class.method" or "module:func"
    module: str
    path: str
    name: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[str] = field(default_factory=list)   # includes "self"
    param_types: dict[str, str] = field(default_factory=dict)  # name -> class key

    @property
    def anchor(self) -> str:
        """Structural identity used for line-stable fingerprints."""
        return self.key

    def param_index(self, name: str) -> int | None:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One class definition plus the facts method resolution needs."""

    key: str                      # "module:Name"
    module: str
    path: str
    name: str
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)     # name -> function key
    attr_types: dict[str, str] = field(default_factory=dict)  # self.X -> class key


def _annotation_names(annotation: ast.AST | None) -> list[str]:
    """Candidate class names from an annotation (``X``, ``"X"``, ``X | None``)."""
    if annotation is None:
        return []
    if isinstance(annotation, ast.Name):
        return [annotation.id]
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        name = annotation.value.strip("'\"")
        return [name] if name.isidentifier() else []
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_names(annotation.left) + _annotation_names(annotation.right)
    return []


class CallGraph:
    """Indexed view of every class, method, and module function in a run."""

    def __init__(self, project: Project) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: module -> local alias -> dotted import target
        self.imports: dict[str, dict[str, str]] = {}
        #: "module:NAME" -> integer value, for size-constant resolution
        self.int_constants: dict[str, int] = {}
        self._class_by_name: dict[str, list[str]] = {}
        self._func_by_name: dict[str, list[str]] = {}
        self._const_by_name: dict[str, list[str]] = {}
        self._local_types: dict[str, dict[str, str]] = {}
        self._calls: dict[ast.AST, dict[ast.Call, FunctionInfo]] = {}
        for ctx in project.files:
            self._index_file(ctx)
        for fn in self.functions.values():
            fn.param_types = self._infer_param_types(fn)
        for cls in self.classes.values():
            self._infer_attr_types(cls)

    # -- indexing ---------------------------------------------------------------

    def _index_file(self, ctx: FileContext) -> None:
        module = ctx.module
        imports = self.imports.setdefault(module, {})
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        imports[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(ctx, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._register_class(ctx, stmt)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if (isinstance(target, ast.Name)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, int)
                        and not isinstance(stmt.value.value, bool)):
                    key = f"{module}:{target.id}"
                    self.int_constants[key] = stmt.value.value
                    self._const_by_name.setdefault(target.id, []).append(key)

    def _register_function(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> None:
        qual = f"{class_name}.{node.name}" if class_name else node.name
        key = f"{ctx.module}:{qual}"
        params = [arg.arg for arg in node.args.posonlyargs + node.args.args]
        info = FunctionInfo(
            key=key, module=ctx.module, path=ctx.path, name=node.name,
            class_name=class_name, node=node, params=params,
        )
        self.functions[key] = info
        if class_name is None:
            self._func_by_name.setdefault(node.name, []).append(key)

    def _register_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        key = f"{ctx.module}:{node.name}"
        info = ClassInfo(
            key=key, module=ctx.module, path=ctx.path, name=node.name, node=node,
            base_names=[base.id for base in node.bases if isinstance(base, ast.Name)],
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(ctx, stmt, class_name=node.name)
                info.methods[stmt.name] = f"{ctx.module}:{node.name}.{stmt.name}"
        self.classes[key] = info
        self._class_by_name.setdefault(node.name, []).append(key)

    # -- name resolution --------------------------------------------------------

    def resolve_class(self, module: str, name: str) -> str | None:
        key = f"{module}:{name}"
        if key in self.classes:
            return key
        target = self.imports.get(module, {}).get(name)
        if target and "." in target:
            target_module, _, symbol = target.rpartition(".")
            imported = f"{target_module}:{symbol}"
            if imported in self.classes:
                return imported
        candidates = self._class_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def resolve_module_function(self, module: str, name: str) -> str | None:
        key = f"{module}:{name}"
        if key in self.functions:
            return key
        target = self.imports.get(module, {}).get(name)
        if target and "." in target:
            target_module, _, symbol = target.rpartition(".")
            imported = f"{target_module}:{symbol}"
            if imported in self.functions:
                return imported
        candidates = self._func_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def resolve_int_constant(self, module: str, name: str) -> int | None:
        key = f"{module}:{name}"
        if key in self.int_constants:
            return self.int_constants[key]
        target = self.imports.get(module, {}).get(name)
        if target and "." in target:
            target_module, _, symbol = target.rpartition(".")
            imported = f"{target_module}:{symbol}"
            if imported in self.int_constants:
                return self.int_constants[imported]
        candidates = self._const_by_name.get(name, [])
        if len(candidates) == 1:
            return self.int_constants[candidates[0]]
        return None

    @cached_property
    def codec_classes(self) -> set[str]:
        """Keys of the wire codec classes: dataclasses under a codec base.

        A base counts by name (``WireStruct``, ``SignedStruct`` — the codec
        module itself need not be in the run) or by being a codec class.
        """
        codecs: set[str] = set()
        candidates = [cls for cls in self.classes.values() if is_dataclass_def(cls.node)]
        grew = True
        while grew:
            grew = False
            for cls in candidates:
                if cls.key not in codecs and any(
                    base in CODEC_BASES or self.resolve_class(cls.module, base) in codecs
                    for base in cls.base_names
                ):
                    codecs.add(cls.key)
                    grew = True
        return codecs

    def lineage(self, class_key: str) -> Iterator[ClassInfo]:
        """A class, then its project-resolvable bases, breadth first."""
        seen: set[str] = set()
        queue = [class_key]
        while queue:
            current = queue.pop(0)
            cls = self.classes.get(current)
            if current in seen or cls is None:
                continue
            seen.add(current)
            yield cls
            queue.extend(resolved for base in cls.base_names
                         if (resolved := self.resolve_class(cls.module, base)) is not None)

    def method_on(self, class_key: str, method: str) -> FunctionInfo | None:
        """Look up ``method`` on a class, walking project-resolvable bases."""
        for cls in self.lineage(class_key):
            if method in cls.methods:
                return self.functions.get(cls.methods[method])
        return None

    # -- type inference ---------------------------------------------------------

    def _class_of_value(
        self,
        module: str,
        value: ast.AST,
        enclosing: ast.FunctionDef | ast.AsyncFunctionDef | None = None,
    ) -> str | None:
        """Class key a value expression constructs or denotes, if inferable."""
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                resolved = self.resolve_class(module, func.id)
                if resolved is not None:
                    return resolved
                if enclosing is not None:
                    default = self._param_default(enclosing, func.id)
                    if isinstance(default, ast.Name):
                        return self.resolve_class(module, default.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                # ClassName.classmethod(...) is taken to build a ClassName.
                return self.resolve_class(module, func.value.id)
        return None

    @staticmethod
    def _param_default(
        fn: ast.FunctionDef | ast.AsyncFunctionDef, name: str
    ) -> ast.AST | None:
        args = fn.args.posonlyargs + fn.args.args
        defaults = fn.args.defaults
        offset = len(args) - len(defaults)
        for index, arg in enumerate(args):
            if arg.arg == name and index >= offset:
                return defaults[index - offset]
        return None

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        for fn_key in cls.methods.values():
            fn = self.functions.get(fn_key)
            if fn is None:
                continue
            for node in ast.walk(fn.node):
                targets: list[ast.AST] = []
                value: ast.AST | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                    value = node.value
                    names = _annotation_names(node.annotation)
                    if names and _is_self_attr(node.target):
                        resolved = self.resolve_class(cls.module, names[0])
                        if resolved is not None:
                            cls.attr_types.setdefault(node.target.attr, resolved)
                if value is None:
                    continue
                inferred = self._class_of_value(cls.module, value, fn.node)
                if inferred is None and isinstance(value, ast.Name):
                    inferred = fn.param_types.get(value.id) or self._annotated_param(
                        fn, value.id, cls.module
                    )
                if inferred is None:
                    continue
                for target in targets:
                    if _is_self_attr(target):
                        cls.attr_types.setdefault(target.attr, inferred)

    def _annotated_param(
        self, fn: FunctionInfo, name: str, module: str
    ) -> str | None:
        for arg in fn.node.args.posonlyargs + fn.node.args.args:
            if arg.arg == name:
                for candidate in _annotation_names(arg.annotation):
                    resolved = self.resolve_class(module, candidate)
                    if resolved is not None:
                        return resolved
        return None

    def _infer_param_types(self, fn: FunctionInfo) -> dict[str, str]:
        types: dict[str, str] = {}
        for arg in fn.node.args.posonlyargs + fn.node.args.args:
            for candidate in _annotation_names(arg.annotation):
                resolved = self.resolve_class(fn.module, candidate)
                if resolved is not None:
                    types[arg.arg] = resolved
                    break
        return types

    def local_types(self, fn: FunctionInfo) -> dict[str, str]:
        """Locals with inferable class types (constructor calls, annotations).

        Memoized per function key: the function set is fixed for the
        lifetime of the graph.
        """
        cached = self._local_types.get(fn.key)
        if cached is not None:
            return cached
        types = self._compute_local_types(fn)
        self._local_types[fn.key] = types
        return types

    def _compute_local_types(self, fn: FunctionInfo) -> dict[str, str]:
        types: dict[str, str] = dict(fn.param_types)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._class_of_value(fn.module, node.value, fn.node)
                    if inferred is not None:
                        types[target.id] = inferred
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                for candidate in _annotation_names(node.annotation):
                    resolved = self.resolve_class(fn.module, candidate)
                    if resolved is not None:
                        types[node.target.id] = resolved
                        break
        return types

    # -- call resolution --------------------------------------------------------

    def calls(self, fn: FunctionInfo) -> dict[ast.Call, FunctionInfo]:
        """Every call in ``fn``'s own body that resolves, mapped to its callee.

        Resolved once per function per lint run; the statement walkers and
        the fixpoint's call edges all read this map.  A nested closure that
        is not a graph function resolves through its parameter types only.
        """
        sites = self._calls.get(fn.node)
        if sites is None:
            types = self.local_types(fn) if self.functions.get(fn.key) is fn else fn.param_types
            sites = {}
            for node in body_nodes(fn.node):
                if isinstance(node, ast.Call):
                    callee = self.resolve_call(fn, node, types)
                    if callee is not None:
                        sites[node] = callee
            self._calls[fn.node] = sites
        return sites

    def resolve_call(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        local_types: dict[str, str] | None = None,
    ) -> FunctionInfo | None:
        """The project function a call lands in, or None when opaque."""
        func = call.func
        types = local_types if local_types is not None else fn.param_types
        if isinstance(func, ast.Name):
            fn_key = self.resolve_module_function(fn.module, func.id)
            if fn_key is not None:
                return self.functions[fn_key]
            class_key = self.resolve_class(fn.module, func.id)
            if class_key is not None:
                return self.method_on(class_key, "__init__")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        method = func.attr
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and fn.class_name is not None:
                own = f"{fn.module}:{fn.class_name}"
                return self.method_on(own, method)
            receiver_type = types.get(receiver.id)
            if receiver_type is not None:
                return self.method_on(receiver_type, method)
            class_key = self.resolve_class(fn.module, receiver.id)
            if class_key is not None:
                return self.method_on(class_key, method)
            target = self.imports.get(fn.module, {}).get(receiver.id)
            if target is not None:
                fn_key = f"{target}:{method}"
                return self.functions.get(fn_key)
            return None
        if (isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and fn.class_name is not None):
            own = self.classes.get(f"{fn.module}:{fn.class_name}")
            if own is not None:
                attr_type = self._attr_type_with_bases(own, receiver.attr)
                if attr_type is not None:
                    return self.method_on(attr_type, method)
        return None

    def _attr_type_with_bases(self, cls: ClassInfo, attr: str) -> str | None:
        return next((info.attr_types[attr] for info in self.lineage(cls.key)
                     if attr in info.attr_types), None)


def _type_call_subject(value: ast.AST) -> str | None:
    """``x`` when ``value`` is ``type(x)`` or ``<table>[type(x)]``."""
    if isinstance(value, ast.Subscript):
        value = value.slice
    if (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name) and value.func.id == "type"
            and len(value.args) == 1 and isinstance(value.args[0], ast.Name)):
        return value.args[0].id
    return None


def type_tests(nodes: Iterable[ast.AST]) -> list[tuple[str, list[ast.AST]]]:
    """Every test of a name's type among one function's ``nodes``: (name, type exprs).

    Two shapes dispatch on what a message is.  The ladder::

        if isinstance(message, T): ...            # or (T1, T2)

    and the kind idiom of :class:`repro.util.dispatch.KindMap`::

        kind = self.KINDS[type(message)]          # or: kind = type(message)
        if kind is T: ...

    where ``kind`` is a local bound *only* from such expressions over one
    name.  Both report ``message`` as the tested name, so dispatcher
    detection, entry-point seeding and FLOW003's consumed set read a
    handler the same way whichever shape it is written in.
    """
    nodes = list(nodes)
    kind_of: dict[str, str | None] = {}
    for node in nodes:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            local = node.targets[0].id
            subject = _type_call_subject(node.value)
            kind_of[local] = subject if kind_of.get(local, subject) == subject else None
    tests: list[tuple[str, list[ast.AST]]] = []
    for node in nodes:
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2 and isinstance(node.args[0], ast.Name)):
            types = node.args[1]
            elements = types.elts if isinstance(types, (ast.Tuple, ast.List)) else [types]
            tests.append((node.args[0].id, list(elements)))
        elif (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], ast.Is)
                and isinstance(node.left, ast.Name)
                and isinstance(node.comparators[0], (ast.Name, ast.Attribute))):
            subject = kind_of.get(node.left.id)
            if subject is not None:
                tests.append((subject, [node.comparators[0]]))
    return tests


def _is_self_attr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def build_call_graph(project: Project) -> CallGraph:
    """Build (or fetch the cached) call graph for this lint run."""
    graph = project.cache.get("flow.callgraph")
    if graph is None:
        graph = CallGraph(project)
        project.cache["flow.callgraph"] = graph
    return graph
