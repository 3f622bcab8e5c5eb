"""Async facts for the aio analysis stage.

The concurrency rules need three interprocedural facts the flow stage
does not compute:

* **may_suspend** — calling this function can yield control back to the
  event loop.  An ``await`` is *not* automatically a suspension point:
  awaiting a project coroutine that never reaches a true suspension
  primitive runs to completion synchronously, so no interleaving can
  happen across it.  The shared fixpoint starts every project coroutine
  at "does not suspend" and grows monotonically; anything the call graph
  cannot resolve (asyncio primitives, stream methods, dynamic dispatch)
  is conservatively treated as suspending at the use site.
* **blocking** — the set of event-loop-blocking calls (``time.sleep``,
  sync socket/DNS/subprocess work, heavy key-derivation crypto) reachable
  from this function through resolved sync *or* async callees.  Stored as
  ``(description, via)`` pairs where ``via`` is the first callee on the
  path (or ``None`` for a direct call), which keeps the lattice finite
  under recursion.
* **lock attributes** — ``self.X = asyncio.Lock()`` (or Semaphore /
  Condition) assignments per class, so the atomicity rule can recognize
  ``async with self._lock:`` regions as protected.

Nested ``async def`` closures (the TCP runtime's connection handler) are
not registered in the call graph; :func:`iter_async_functions` finds them
per file and synthesizes a :class:`~repro.lint.flow.callgraph.FunctionInfo`
with the enclosing class context so ``self.…`` calls still resolve.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.lint.astutil import call_name, terminal_name
from repro.lint.engine import FileContext, Project
from repro.lint.flow.callgraph import CallGraph, FunctionInfo, build_call_graph
from repro.lint.flow.walk import body_nodes, fixpoint

#: Event-loop-blocking calls, by statically resolvable dotted name.
BLOCKING_CALLS = {
    "time.sleep": "time.sleep()",
    "socket.create_connection": "sync socket connect",
    "socket.getaddrinfo": "sync DNS lookup",
    "socket.gethostbyname": "sync DNS lookup",
    "subprocess.run": "subprocess.run()",
    "subprocess.call": "subprocess.call()",
    "subprocess.check_call": "subprocess.check_call()",
    "subprocess.check_output": "subprocess.check_output()",
    "os.system": "os.system()",
    "os.popen": "os.popen()",
    "urllib.request.urlopen": "sync HTTP request",
    "requests.get": "sync HTTP request",
    "requests.post": "sync HTTP request",
    "requests.put": "sync HTTP request",
    "requests.delete": "sync HTTP request",
    "requests.request": "sync HTTP request",
    "hashlib.pbkdf2_hmac": "heavy key-derivation crypto",
    "hashlib.scrypt": "heavy key-derivation crypto",
}

#: asyncio lock-family constructors whose instances guard await spans.
_LOCK_CONSTRUCTORS = {"Lock", "Semaphore", "BoundedSemaphore", "Condition"}

#: Fragments identifying a lock-like receiver when no constructor
#: assignment is visible (``async with job_lock:``).
_LOCK_NAME_HINTS = ("lock", "mutex", "sem")


@dataclass
class AsyncFacts:
    """Interprocedural async facts about one registered function."""

    is_async: bool = False
    may_suspend: bool = False
    #: (blocking-call description, first callee on the path or None).
    blocking: frozenset = frozenset()

    def joined(self, new: "AsyncFacts") -> "AsyncFacts":
        return AsyncFacts(is_async=self.is_async,
                          may_suspend=self.may_suspend or new.may_suspend,
                          blocking=self.blocking | new.blocking)


@dataclass
class AioAnalysis:
    """Everything the ASYNC rules need, computed once per lint run."""

    graph: CallGraph
    facts: dict[str, AsyncFacts]
    lock_attrs: dict[str, frozenset]    # class key -> {attr names}
    async_functions: list[AsyncFunction] = field(default_factory=list)

    # -- suspension classification ------------------------------------------

    def call_may_suspend(self, fn: FunctionInfo, call: ast.Call) -> bool:
        """Does ``await call`` yield control?  Unresolvable ⇒ yes."""
        callee = self.graph.calls(fn).get(call)
        if callee is None:
            return True
        facts = self.facts.get(callee.key)
        if facts is None:
            return True
        if not facts.is_async:
            # Awaiting a resolved sync function is a bug in its own right
            # (ASYNC005 territory), not a suspension point.
            return False
        return facts.may_suspend

    def is_lock_receiver(self, fn: FunctionInfo, node: ast.AST) -> bool:
        """Is ``node`` (an ``async with`` context) a lock-family object?"""
        current = node
        # async with self._lock.acquire()-style wrappers never appear in
        # this codebase; handle the two real shapes: a bare receiver and
        # a receiver attribute on self.
        if isinstance(current, ast.Call):
            current = current.func
        if (isinstance(current, ast.Attribute)
                and isinstance(current.value, ast.Name)
                and current.value.id == "self"
                and fn.class_name is not None):
            owned = self.lock_attrs.get(f"{fn.module}:{fn.class_name}", frozenset())
            if current.attr in owned:
                return True
        name = terminal_name(current)
        if name is None:
            return False
        lowered = name.lower()
        return any(hint in lowered for hint in _LOCK_NAME_HINTS)


def _suspension_candidates(fn: FunctionInfo) -> Iterator[ast.AST]:
    """AST nodes in ``fn``'s own body that *may* be suspension points."""
    for node in body_nodes(fn.node):
        if isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            yield node
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            if any(gen.is_async for gen in node.generators):
                yield node


def node_suspends(analysis: AioAnalysis, fn: FunctionInfo, node: ast.AST) -> bool:
    """Does one candidate node actually suspend, given current facts?"""
    if isinstance(node, ast.Await):
        if isinstance(node.value, ast.Call):
            return analysis.call_may_suspend(fn, node.value)
        return True  # awaiting a task/future always may suspend
    return True      # async for / async with / async comprehension


def _direct_blocking(fn: FunctionInfo) -> frozenset:
    found = set()
    for node in body_nodes(fn.node):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name in BLOCKING_CALLS:
            found.add((BLOCKING_CALLS[name], None))
        elif (isinstance(node.func, ast.Name) and node.func.id == "open"
                and isinstance(fn.node, ast.AsyncFunctionDef)):
            found.add(("sync file I/O (open())", None))
    return frozenset(found)


def _collect_lock_attrs(graph: CallGraph) -> dict[str, frozenset]:
    """Per class: self attrs assigned an asyncio lock-family constructor."""
    by_class: dict[str, set] = {}
    for cls in graph.classes.values():
        attrs: set = set()
        for fn_key in cls.methods.values():
            fn = graph.functions.get(fn_key)
            if fn is None:
                continue
            for node in body_nodes(fn.node):
                if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                    continue
                ctor = terminal_name(node.value.func)
                if ctor not in _LOCK_CONSTRUCTORS:
                    continue
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        attrs.add(target.attr)
        if attrs:
            by_class[cls.key] = attrs
    return {key: frozenset(attrs) for key, attrs in by_class.items()}


def compute_async_facts(graph: CallGraph) -> dict[str, AsyncFacts]:
    """may_suspend and the blocking-call closure, solved over the call graph.

    Solved for ``repro.*`` only: no ASYNC rule reports elsewhere and no
    ``repro.*`` function calls into ``tests.*``.
    """
    analyzable = {
        key: fn for key, fn in graph.functions.items()
        if fn.module.startswith("repro.")
    }

    def transfer(key: str, facts: dict[str, AsyncFacts]) -> AsyncFacts:
        fn = analyzable[key]
        old = facts[key]
        current = AioAnalysis(graph=graph, facts=facts, lock_attrs={})
        suspend = old.may_suspend or old.is_async and any(
            node_suspends(current, fn, node) for node in _suspension_candidates(fn))
        blocking = set(_direct_blocking(fn))
        for callee in graph.calls(fn).values():
            sub = facts.get(callee.key)
            if sub is not None:
                blocking.update((desc, via or callee.name) for desc, via in sub.blocking)
        return AsyncFacts(is_async=old.is_async, may_suspend=suspend,
                          blocking=frozenset(blocking))

    return fixpoint(
        analyzable,
        {key: [callee.key for callee in graph.calls(fn).values()]
         for key, fn in analyzable.items()},
        start=lambda key: AsyncFacts(
            is_async=isinstance(analyzable[key].node, ast.AsyncFunctionDef)),
        transfer=transfer,
        join=AsyncFacts.joined,
    )


def aio_analysis(project: Project) -> AioAnalysis:
    """Build (or fetch the cached) aio analysis for this lint run.

    Reuses the one call graph cached on ``project.cache``.
    """
    analysis = project.cache.get("aio.analysis")
    if analysis is None:
        graph = build_call_graph(project)
        analysis = AioAnalysis(
            graph=graph,
            facts=compute_async_facts(graph),
            lock_attrs=_collect_lock_attrs(graph),
            async_functions=list(iter_async_functions(project, graph)),
        )
        project.cache["aio.analysis"] = analysis
    return analysis


@dataclass
class AsyncFunction:
    """One async function to analyze: registered method or nested closure."""

    info: FunctionInfo          # synthetic for nested defs
    ctx: FileContext


def iter_async_functions(project: Project, graph: CallGraph) -> Iterator[AsyncFunction]:
    """Every ``async def`` in analyzable modules, nested closures included.

    Nested defs get a synthetic :class:`FunctionInfo` carrying the
    nearest enclosing graph function's class, so ``self.…`` resolution
    works inside closures that capture ``self`` (the TCP connection
    handler does exactly this).
    """
    by_node = {fn.node: fn for fn in graph.functions.values()}
    for ctx in project.files:
        if not ctx.module.startswith("repro."):
            continue
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            info = by_node.get(node)
            if info is None:
                enclosing = ctx.parents.get(node)
                while enclosing is not None and enclosing not in by_node:
                    enclosing = ctx.parents.get(enclosing)
                outer = by_node.get(enclosing)
                info = FunctionInfo(
                    key=f"{outer.key if outer is not None else ctx.module + ':'}.<{node.name}>",
                    module=ctx.module,
                    path=ctx.path,
                    name=node.name,
                    class_name=outer.class_name if outer is not None else None,
                    node=node,
                    params=[arg.arg for arg in node.args.posonlyargs + node.args.args],
                )
            yield AsyncFunction(info=info, ctx=ctx)
