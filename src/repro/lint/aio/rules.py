"""ASYNC001–ASYNC006: asyncio concurrency rules (the aio stage).

These are project-scope rules sharing one :class:`AioAnalysis` (and,
through it, the same call graph the flow stage uses) via
``project.cache``.  The connecting thread: ZugChain's juridical
guarantees assume each replica handles a message atomically, but the
TCP runtime multiplexes handlers on one event loop — every ``await`` is
a point where another handler can observe or mutate shared state.

=========  ==============================================================
ASYNC001   read-modify-write of ``self.*`` state spanning a suspension
           point without an ``asyncio.Lock`` (interprocedural: awaiting
           a callee that transitively suspends counts)
ASYNC002   fire-and-forget task — ``create_task`` result dropped, so
           exceptions vanish and the task is garbage-collectable
ASYNC003   event-loop-blocking call reachable from an async function
ASYNC004   resource acquired then awaited without try/finally release
           (cancellation leaks the writer/lock)
ASYNC005   coroutine called but never awaited
ASYNC006   unbounded ``asyncio.Queue`` — unbackpressured ingest buffer
=========  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import call_name, dotted_name, enclosing_function, terminal_name
from repro.lint.engine import FileContext, Finding, Project, Rule, register_rule
from repro.lint.flow.callgraph import OBSERVABILITY_ATTRS, FunctionInfo
from repro.lint.flow.summaries import MUTATING_METHODS, _attr_chain
from repro.lint.flow.walk import StatementWalker, body_nodes

from .facts import (
    BLOCKING_CALLS,
    AioAnalysis,
    aio_analysis,
    node_suspends,
    _suspension_candidates,
)

#: create_task-family entry points whose return value must be kept.
_TASK_SPAWNERS = {"create_task", "ensure_future"}

#: Task-group receivers own their children; dropping the handle is fine.
_GROUP_HINTS = ("group", "nursery")

#: asyncio module-level coroutine functions (awaiting is mandatory).
_ASYNCIO_COROUTINES = {
    "asyncio.sleep", "asyncio.gather", "asyncio.wait", "asyncio.wait_for",
    "asyncio.open_connection", "asyncio.start_server", "asyncio.to_thread",
    "asyncio.shield",
}

_QUEUE_CONSTRUCTORS = {"Queue", "PriorityQueue", "LifoQueue"}


def _analyzed_module(module: str) -> bool:
    return module.startswith("repro.")


# ---------------------------------------------------------------------------
# ASYNC001 — await-atomicity
# ---------------------------------------------------------------------------


class _Region:
    """May-state for the atomicity walk: reads before/after a suspension.

    ``pending`` holds reads not yet separated from here by an ``await``;
    a suspension promotes them to ``stale``.  A write to a stale attr is
    a read-modify-write whose invariant another handler can break.
    Values are ``(read_lineno, read_locked, suspend_lineno)``.
    """

    __slots__ = ("pending", "stale")

    def __init__(self, pending=None, stale=None):
        self.pending: dict = dict(pending or {})
        self.stale: dict = dict(stale or {})

    def copy(self) -> "_Region":
        return _Region(self.pending, self.stale)

    def merged(self, other: "_Region") -> "_Region":
        """Union of may-states; an unlocked sighting beats a locked one."""
        result = self.copy()
        for mine, theirs in ((result.pending, other.pending), (result.stale, other.stale)):
            for attr, entry in theirs.items():
                seen = mine.get(attr)
                if seen is None or (seen[1] and not entry[1]):
                    mine[attr] = entry
        return result


class _AtomicityWalker(StatementWalker):
    """Branch-sensitive may-walk of one async function body for ASYNC001.

    Two passes over a loop body expose loop-carried hazards (a read at the
    bottom of iteration N is stale for the write at the top of iteration
    N+1); the violation dict dedupes repeats.
    """

    MAY = True
    LOOP_PASSES = 2

    def __init__(self, analysis: AioAnalysis, fn: FunctionInfo) -> None:
        self.analysis = analysis
        self.fn = fn
        self.lock_depth = 0
        self._locks: list[bool] = []
        self.state = _Region()
        self.violations: dict[tuple, tuple] = {}  # (attr, write line) -> info
        owned = frozenset()
        if fn.class_name is not None:
            owned = analysis.lock_attrs.get(
                f"{fn.module}:{fn.class_name}", frozenset())
        self.ignored_attrs = OBSERVABILITY_ATTRS | owned

    def run(self) -> list[tuple]:
        self.block(self.fn.node.body, _Region())
        return [self.violations[key] for key in sorted(self.violations)]

    # -- walker hooks ---------------------------------------------------------

    def fork(self, state: _Region) -> _Region:
        return state.copy()

    def join(self, first: _Region, second: _Region) -> _Region:
        return first.merged(second)

    def enter(self, stmt: ast.stmt, state: _Region) -> _Region:
        self.state = state
        if isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._expr(item.context_expr)
        elif isinstance(stmt, ast.AsyncWith):
            lockish = False
            for item in stmt.items:
                self._expr(item.context_expr)
                if self.analysis.is_lock_receiver(self.fn, item.context_expr):
                    lockish = True
            self._suspend(stmt)  # __aenter__ may suspend
            self._locks.append(lockish)
            self.lock_depth += lockish
        return self.state

    def leave(self, stmt: ast.stmt, state: _Region) -> _Region:
        self.state = state
        if isinstance(stmt, ast.AsyncWith):
            self.lock_depth -= self._locks.pop()
            self._suspend(stmt)  # __aexit__ may suspend
        return self.state

    def iterate(self, loop: ast.stmt, state: _Region) -> _Region:
        self.state = state
        if isinstance(loop, ast.AsyncFor):
            self._suspend(loop)
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            self._write_target(loop.target)
        return self.state

    def simple(self, stmt: ast.stmt, state: _Region) -> _Region:
        self.state = state
        if isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            for target in stmt.targets:
                self._write_target(target)
        elif isinstance(stmt, ast.AnnAssign):
            self._expr(stmt.value)
            self._write_target(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            chain = _attr_chain(stmt.target)
            if chain and chain[0] == "self" and len(chain) >= 2:
                # x += ... loads the old value before evaluating the rhs.
                self._read(chain[1], stmt.target)
            self._expr(stmt.value)
            self._write_target(stmt.target)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            self._expr(getattr(stmt, "value", None) or getattr(stmt, "exc", None))
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._write_target(target)
        else:
            self._expr(stmt)
        return self.state

    # -- events -------------------------------------------------------------

    def _read(self, attr: str, node: ast.AST) -> None:
        if attr in self.ignored_attrs:
            return
        self.state.pending[attr] = (node.lineno, self.lock_depth > 0, None)

    def _write(self, attr: str, node: ast.AST) -> None:
        if attr in self.ignored_attrs:
            return
        entry = self.state.stale.get(attr)
        if entry is not None:
            read_line, read_locked, suspend_line = entry
            if not (read_locked and self.lock_depth > 0):
                key = (attr, node.lineno)
                self.violations.setdefault(
                    key, (attr, node, read_line, suspend_line))
        self.state.stale.pop(attr, None)
        self.state.pending.pop(attr, None)

    def _suspend(self, node: ast.AST) -> None:
        for attr, (read_line, locked, _first) in self.state.pending.items():
            if attr not in self.state.stale:
                self.state.stale[attr] = (read_line, locked, node.lineno)
        self.state.pending.clear()

    # -- expressions --------------------------------------------------------

    def _expr(self, node: ast.AST | None) -> None:
        if node is None:
            return
        if isinstance(node, ast.Await):
            if isinstance(node.value, ast.Call):
                self._call(node.value)
                if self.analysis.call_may_suspend(self.fn, node.value):
                    self._suspend(node)
            else:
                self._expr(node.value)
                self._suspend(node)
            return
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if chain and chain[0] == "self" and len(chain) >= 2:
                self._read(chain[1], node)
            for child in ast.iter_child_nodes(node):
                self._expr(child)
            return
        if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            if any(gen.is_async for gen in node.generators):
                self._suspend(node)
        for child in ast.iter_child_nodes(node):
            self._expr(child)

    def _call(self, node: ast.Call) -> None:
        func = node.func
        chain = _attr_chain(func) if isinstance(func, ast.Attribute) else None
        if chain and chain[0] == "self" and len(chain) >= 3:
            # Method call on a state attribute: the receiver is read, and
            # a mutating method writes it back.
            self._expr(func.value)
            if func.attr in MUTATING_METHODS:
                for arg in node.args:
                    self._expr(arg)
                for kw in node.keywords:
                    self._expr(kw.value)
                self._write(chain[1], node)
                return
        elif not (chain and chain[0] == "self" and len(chain) == 2):
            self._expr(func)
        for arg in node.args:
            self._expr(arg)
        for kw in node.keywords:
            self._expr(kw.value)

    # -- writes -------------------------------------------------------------

    def _write_target(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._write_target(elt)
        elif isinstance(target, ast.Starred):
            self._write_target(target.value)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            if isinstance(target, ast.Subscript):
                self._expr(target.slice)
            chain = _attr_chain(target)
            if chain and chain[0] == "self" and len(chain) >= 2:
                self._write(chain[1], target)


@register_rule
class AwaitAtomicity(Rule):
    code = "ASYNC001"
    name = "await-atomicity-violation"
    description = (
        "read-modify-write of shared self.* state spans an await without "
        "an asyncio.Lock; another handler can interleave and fork state"
    )
    scope = "project"
    stage = "aio"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = aio_analysis(project)
        for afn in analysis.async_functions:
            fn = afn.info
            walker = _AtomicityWalker(analysis, fn)
            for attr, node, read_line, suspend_line in walker.run():
                where = (f"awaits at line {suspend_line}"
                         if suspend_line is not None else "awaits")
                yield Finding(
                    code=self.code,
                    message=(
                        f"'self.{attr}' is read at line {read_line} and "
                        f"written here, but the function {where} in "
                        f"between without holding an asyncio.Lock — a "
                        f"concurrent handler can interleave"
                    ),
                    path=fn.path,
                    line=node.lineno,
                    col=node.col_offset,
                    anchor=f"{fn.anchor}.{attr}",
                )


# ---------------------------------------------------------------------------
# ASYNC002 — fire-and-forget tasks
# ---------------------------------------------------------------------------


def _is_task_spawn(node: ast.Call) -> bool:
    name = terminal_name(node.func)
    if name not in _TASK_SPAWNERS:
        return False
    if isinstance(node.func, ast.Attribute):
        receiver = terminal_name(node.func.value)
        if receiver is not None:
            lowered = receiver.lower()
            if lowered == "tg" or any(h in lowered for h in _GROUP_HINTS):
                return False  # TaskGroup-style owners keep their children
    return True


def _loaded_names(scope: ast.AST) -> set[str]:
    """Every name read anywhere in ``scope``."""
    return {node.id for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@register_rule
class FireAndForgetTask(Rule):
    code = "ASYNC002"
    name = "fire-and-forget-task"
    description = (
        "create_task result is dropped: exceptions vanish and the event "
        "loop may garbage-collect the running task"
    )
    scope = "project"
    stage = "aio"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for ctx in project.files:
            if not _analyzed_module(ctx.module):
                continue
            loaded: dict[ast.AST, set[str]] = {}  # enclosing scope -> names it reads
            for stmt in ast.walk(ctx.tree):
                call: ast.Call | None = None
                dropped = None
                if (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Call)):
                    call, dropped = stmt.value, "discarded"
                elif (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and isinstance(stmt.value, ast.Call)):
                    target = stmt.targets[0].id
                    if target == "_":
                        call, dropped = stmt.value, "assigned to '_'"
                    elif _is_task_spawn(stmt.value):
                        scope = enclosing_function(stmt, ctx.parents) or ctx.tree
                        if scope not in loaded:
                            loaded[scope] = _loaded_names(scope)
                        if target not in loaded[scope]:
                            call, dropped = stmt.value, f"bound to unused '{target}'"
                if call is None or not _is_task_spawn(call):
                    continue
                spawner = call_name(call) or terminal_name(call.func)
                yield Finding(
                    code=self.code,
                    message=(
                        f"task from {spawner}() is {dropped} — store it, "
                        f"await it, or add a done-callback so failures "
                        f"surface"
                    ),
                    path=ctx.path,
                    line=call.lineno,
                    col=call.col_offset,
                    anchor=_stmt_anchor(ctx, stmt, "spawn"),
                )


def _stmt_anchor(ctx: FileContext, stmt: ast.AST, kind: str) -> str:
    fn = enclosing_function(stmt, ctx.parents)
    where = fn.name if fn is not None else "<module>"
    return f"{ctx.module}:{where}.{kind}"


# ---------------------------------------------------------------------------
# ASYNC003 — blocking calls in async context
# ---------------------------------------------------------------------------


@register_rule
class BlockingInAsync(Rule):
    code = "ASYNC003"
    name = "blocking-call-in-async"
    description = (
        "event-loop-blocking call (sleep, sync I/O, heavy crypto) reached "
        "from an async function, directly or through sync callees"
    )
    scope = "project"
    stage = "aio"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = aio_analysis(project)
        for afn in analysis.async_functions:
            fn = afn.info
            if not _analyzed_module(fn.module):
                continue
            calls = analysis.graph.calls(fn)
            seen: set[tuple] = set()
            for node in body_nodes(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                for desc, message in self._blocking(analysis, fn, calls.get(node), node):
                    if (node.lineno, desc) not in seen:
                        seen.add((node.lineno, desc))
                        yield self._finding(fn, node, message, desc)

    @staticmethod
    def _blocking(analysis: AioAnalysis, fn: FunctionInfo, callee: FunctionInfo | None,
                  node: ast.Call) -> list[tuple[str, str]]:
        """(description, message) of each blocking call ``node`` is or reaches."""
        where = f"async function '{fn.name}'"
        name = call_name(node)
        if name in BLOCKING_CALLS:
            desc = BLOCKING_CALLS[name]
            return [(desc, f"{desc} blocks the event loop inside {where}")]
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            return [("sync file I/O (open())",
                     f"open() is synchronous file I/O inside {where}")]
        sub = analysis.facts.get(callee.key) if callee is not None else None
        if sub is None or sub.is_async:
            return []  # async callees are flagged at their own site
        return [(desc, f"call to {callee.name}() reaches {desc}"
                       f"{f' (via {via})' if via else ''} from {where}")
                for desc, via in sorted(sub.blocking)]

    def _finding(self, fn: FunctionInfo, node: ast.Call, message: str,
                 desc: str) -> Finding:
        slug = desc.split("(")[0].strip().replace(" ", "-")
        return Finding(
            code=self.code, message=message, path=fn.path,
            line=node.lineno, col=node.col_offset,
            anchor=f"{fn.anchor}.{slug}",
        )


# ---------------------------------------------------------------------------
# ASYNC004 — cancellation-unsafe resources
# ---------------------------------------------------------------------------

_RELEASE_METHODS = {"close", "release", "wait_closed", "unlock", "aclose"}


def _acquisitions(fn: FunctionInfo, analysis: AioAnalysis) -> list[tuple]:
    """(resource name, kind, acquisition stmt) triples in ``fn``'s body."""
    out = []
    for stmt in body_nodes(fn.node):
        if not (isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Await)
                and isinstance(stmt.value.value, ast.Call)):
            continue
        call = stmt.value.value
        name = terminal_name(call.func)
        if name == "open_connection" and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Tuple) and target.elts:
                last = target.elts[-1]
                if isinstance(last, ast.Name):
                    out.append((last.id, "stream writer", stmt))
            elif isinstance(target, ast.Name):
                out.append((target.id, "stream writer", stmt))
        elif (name == "acquire"
                and isinstance(call.func, ast.Attribute)
                and analysis.is_lock_receiver(fn, call.func.value)):
            receiver = dotted_name(call.func.value)
            if receiver is not None:
                out.append((receiver, "lock", stmt))
    return out


def _escape_line(fn: FunctionInfo, resource: str) -> int | None:
    """Line where the resource is stored/returned (ownership transferred)."""
    earliest: int | None = None
    for node in body_nodes(fn.node):
        moved = False
        if isinstance(node, ast.Assign):
            if (isinstance(node.value, ast.Name) and node.value.id == resource
                    and any(not isinstance(t, ast.Name) for t in node.targets)):
                moved = True
            elif (isinstance(node.value, ast.Tuple)
                    and any(isinstance(e, ast.Name) and e.id == resource
                            for e in node.value.elts)):
                moved = True
        elif isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name) and sub.id == resource:
                    moved = True
                    break
        if moved and (earliest is None or node.lineno < earliest):
            earliest = node.lineno
    return earliest


def _releases(block: list[ast.stmt], resource: str) -> bool:
    for stmt in block:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _RELEASE_METHODS
                    and dotted_name(node.func.value) == resource):
                return True
    return False


def _protected(ctx: FileContext, fn: FunctionInfo, suspension: ast.AST,
               resource: str) -> bool:
    current: ast.AST | None = suspension
    while current is not None and current is not fn.node:
        parent = ctx.parents.get(current)
        if isinstance(parent, ast.Try):
            if _releases(parent.finalbody, resource):
                return True
            for handler in parent.handlers:
                if _releases(handler.body, resource):
                    return True
        current = parent
    return False


@register_rule
class CancellationUnsafeResource(Rule):
    code = "ASYNC004"
    name = "cancellation-unsafe-resource"
    description = (
        "resource acquired, then awaited without try/finally release: "
        "cancellation at the await leaks the writer/lock"
    )
    scope = "project"
    stage = "aio"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = aio_analysis(project)
        for afn in analysis.async_functions:
            fn = afn.info
            if not _analyzed_module(fn.module):
                continue
            for resource, kind, acq in _acquisitions(fn, analysis):
                escape = _escape_line(fn, resource)
                acq_end = acq.end_lineno or acq.lineno
                exposed = None
                for node in _suspension_candidates(fn):
                    line = node.lineno
                    if line <= acq_end:
                        continue
                    if escape is not None and line >= escape:
                        continue
                    if not node_suspends(analysis, fn, node):
                        continue
                    if _protected(afn.ctx, fn, node, resource):
                        continue
                    exposed = node
                    break
                if exposed is None:
                    continue
                yield Finding(
                    code=self.code,
                    message=(
                        f"{kind} '{resource}' is acquired here but the "
                        f"function awaits at line {exposed.lineno} without "
                        f"a try/finally (or except) releasing it — "
                        f"cancellation at that await leaks the {kind}"
                    ),
                    path=fn.path,
                    line=acq.lineno,
                    col=acq.col_offset,
                    anchor=f"{fn.anchor}.{resource.replace('.', '_')}",
                )


# ---------------------------------------------------------------------------
# ASYNC005 — unawaited coroutines
# ---------------------------------------------------------------------------


@register_rule
class UnawaitedCoroutine(Rule):
    code = "ASYNC005"
    name = "unawaited-coroutine"
    description = (
        "calling a coroutine function without awaiting it creates a "
        "coroutine object that never runs"
    )
    scope = "project"
    stage = "aio"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = aio_analysis(project)
        by_path = {ctx.path: ctx for ctx in project.files}
        for key, fn in sorted(analysis.graph.functions.items()):
            if not _analyzed_module(fn.module):
                continue
            ctx = by_path.get(fn.path)
            if ctx is None:
                continue
            calls = analysis.graph.calls(fn)
            for stmt in body_nodes(fn.node):
                if not (isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Call)):
                    continue
                call = stmt.value
                name = call_name(call)
                callee = calls.get(call)
                is_coro = False
                label = name or terminal_name(call.func) or "<dynamic>"
                if callee is not None:
                    sub = analysis.facts.get(callee.key)
                    if sub is not None and sub.is_async:
                        is_coro = True
                        label = callee.name
                elif name in _ASYNCIO_COROUTINES:
                    is_coro = True
                if not is_coro:
                    continue
                yield Finding(
                    code=self.code,
                    message=(
                        f"coroutine '{label}' is called but never awaited "
                        f"— the body will not run"
                    ),
                    path=fn.path,
                    line=call.lineno,
                    col=call.col_offset,
                    anchor=f"{fn.anchor}.{label}",
                )


# ---------------------------------------------------------------------------
# ASYNC006 — unbounded queues
# ---------------------------------------------------------------------------


def _queue_constructor(ctx_module: str, node: ast.Call,
                       imports: dict[str, str]) -> str | None:
    name = call_name(node)
    if name is not None and "." in name:
        head, _, tail = name.rpartition(".")
        if head == "asyncio" and tail in _QUEUE_CONSTRUCTORS:
            return name
        return None
    if isinstance(node.func, ast.Name):
        target = imports.get(node.func.id)
        if target is not None and target.startswith("asyncio."):
            tail = target.rpartition(".")[2]
            if tail in _QUEUE_CONSTRUCTORS:
                return target
    return None


def _is_unbounded(node: ast.Call) -> bool:
    if node.args:
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, int):
            return first.value <= 0
        return False  # a computed bound is a bound
    for kw in node.keywords:
        if kw.arg == "maxsize":
            if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, int):
                return kw.value.value <= 0
            return False
    return True  # default maxsize=0 is unbounded


@register_rule
class UnboundedQueue(Rule):
    code = "ASYNC006"
    name = "unbounded-asyncio-queue"
    description = (
        "asyncio.Queue with no maxsize grows without backpressure; a slow "
        "consumer turns ingest bursts into unbounded memory growth"
    )
    scope = "project"
    stage = "aio"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = aio_analysis(project)
        for ctx in project.files:
            if not _analyzed_module(ctx.module):
                continue
            imports = analysis.graph.imports.get(ctx.module, {})
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                ctor = _queue_constructor(ctx.module, node, imports)
                if ctor is None or not _is_unbounded(node):
                    continue
                yield Finding(
                    code=self.code,
                    message=(
                        f"{ctor}() has no maxsize — producers outrunning "
                        f"the consumer grow this buffer without bound; "
                        f"give it a maxsize so put() applies backpressure"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    anchor=_stmt_anchor(ctx, node, "queue"),
                )
