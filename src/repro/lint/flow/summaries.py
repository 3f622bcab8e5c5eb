"""Per-function summaries and the fixpoint for the flow rules.

Each project function gets a :class:`FunctionSummary` describing how data
and authority move through it:

* ``returns_value_taint`` / ``returns_order_taint`` — the return value
  carries a nondeterministic value (wall clock, ambient RNG, ``id()``)
  or a set-iteration-order-dependent one;
* ``param_to_return`` — parameter indices whose taint flows to the return;
* ``param_sinks`` — parameter indices that reach a protocol-visible sink
  (hash, codec, emission, or replica-state write) inside the function;
* ``performs_verify`` — the body evaluates a signature/membership guard
  (:func:`is_verify_guard`);
* ``mutates`` — the body writes replica/protocol state (directly or via a
  resolved callee);
* ``verify_gate`` — every mutation path is preceded by a guard, i.e. the
  function is safe to hand unverified input.

Summaries depend on callees, so they are solved by
:func:`~repro.lint.flow.walk.fixpoint` (see :meth:`FunctionSummary.joined`
for why it terminates).

Two deliberate weakenings keep the must-analysis practical:

* a statement *containing* a guard call marks all subsequent statements
  verified — rejection bookkeeping inside the guard-failure branch
  (``self.stats.rejected += 1; return``) is therefore allowed;
* unresolved calls are opaque no-ops: they neither taint, verify, nor
  mutate.  Dynamic dispatch can hide flows, but never invents findings.

Order-taint is separate from value-taint because order-insensitive
reductions (``sorted``, ``len``, ``max``, ``min``, ``sum``, ``any``,
``all``) launder iteration order but not nondeterministic values.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.astutil import call_name, terminal_name
from repro.lint.engine import Project
from repro.lint.flow.callgraph import (
    OBSERVABILITY_ATTRS,
    CallGraph,
    FunctionInfo,
    build_call_graph,
    type_tests,
)
from repro.lint.flow.walk import StatementWalker, body_nodes, fixpoint
from repro.lint.rules.determinism import (
    _AMBIENT_RANDOM_FUNCS,
    _ORDER_SINKS,
    _RNG_EXEMPT_MODULE,
    _WALL_CLOCK_CALLS,
    _WALL_CLOCK_EXEMPT_PREFIX,
)

#: Protocol-visible sinks: the DET003 order sinks plus the remaining codec
#: writers and the fan-out emission helper.  Constructing a wire struct is a
#: sink too (``_constructs_wire_struct``): its fields are written as they are.
TAINT_SINKS = frozenset(_ORDER_SINKS) | {"put_uint", "put_str", "put_fixed", "put_struct", "send_many"}

#: Ambient entropy calls beyond the wall clock / random module.
_ENTROPY_CALLS = {
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
}

#: Builtins through which taint flows from arguments to the result.
_PASSTHROUGH_BUILTINS = {
    "int", "float", "str", "bytes", "bytearray", "bool", "abs", "round",
    "divmod", "pow", "repr", "format", "tuple", "list", "dict", "zip",
    "enumerate", "reversed", "next", "iter",
}

#: Order-insensitive reductions: drop order-taint, keep value-taint.
_ORDER_SANITIZERS = {"sorted", "len", "max", "min", "sum", "any", "all"}

#: Method names that mutate their receiver when the call cannot be
#: resolved to a project function.
MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "extend", "insert", "remove", "discard",
    "pop", "popitem", "popleft", "clear", "update", "setdefault", "cancel",
    "install", "push", "write", "writelines", "put", "acquire", "release",
    "reset", "record", "set", "delete", "prune", "prune_below", "sort",
    "reverse", "try_acquire", "release_digest", "fast_forward",
    "discard_below",
})

_GUARD_NAMES = frozenset({"verify", "is_member"})

#: Modules whose functions are exempt from taint sourcing and findings.
_TAINT_EXEMPT_PREFIXES = (_WALL_CLOCK_EXEMPT_PREFIX,)
_TAINT_EXEMPT_MODULES = (_RNG_EXEMPT_MODULE,)


def taint_exempt_module(module: str) -> bool:
    return module.startswith(_TAINT_EXEMPT_PREFIXES) or module in _TAINT_EXEMPT_MODULES


def is_verify_guard(
    call: ast.Call, callee: FunctionInfo | None, summaries: dict[str, "FunctionSummary"]
) -> bool:
    """The signature/membership guard of FLOW002 and the sm stage.

    ``verify(...)``, ``is_member(...)``, ``verify_*(...)``, or a resolved
    call into a function that performs one.
    """
    name = terminal_name(call.func) or ""
    if name in _GUARD_NAMES or name.startswith("verify_"):
        return True
    summary = summaries.get(callee.key) if callee is not None else None
    return summary is not None and summary.performs_verify


#: A taint provenance or sink plus the callees it came through:
#: ``("wall clock time.time()", "m:f", "m:C.g")`` reads
#: ``"wall clock time.time() via f() via g()"``.
Trail = tuple


def _via(trail: Trail, callee: FunctionInfo) -> Trail:
    """``trail`` one call further out.

    A callee already on the trail is not added again, so a recursive cycle
    cannot grow a trail without bound.
    """
    return trail if callee.key in trail[1:] else trail + (callee.key,)


def _render(trail: Trail) -> str:
    hops = (key.rpartition(":")[2].rpartition(".")[2] for key in trail[1:])
    return trail[0] + "".join(f" via {name}()" for name in hops)


@dataclass
class Tv:
    """Taint value of one expression: provenance plus parameter deps."""

    value: frozenset[Trail] = frozenset()   # nondeterministic-value provenances
    order: frozenset[Trail] = frozenset()   # iteration-order provenances
    params: frozenset[int] = frozenset()    # parameter indices feeding the value

    def merged(self, *others: "Tv") -> "Tv":
        value, order, params = self.value, self.order, self.params
        for other in others:
            value |= other.value
            order |= other.order
            params |= other.params
        return Tv(value=value, order=order, params=params)

    @property
    def tainted(self) -> bool:
        return bool(self.value or self.order)


_CLEAN = Tv()
_SET_ORDER = frozenset({("set iteration order",)})


@dataclass
class FunctionSummary:
    """Interprocedural facts about one function, grown monotonically."""

    returns_value_taint: frozenset[Trail] = frozenset()
    returns_order_taint: frozenset[Trail] = frozenset()
    param_to_return: frozenset[int] = frozenset()
    param_sinks: dict[int, Trail] = field(default_factory=dict)
    performs_verify: bool = False
    mutates: bool = False
    verify_gate: bool = True

    def joined(self, new: "FunctionSummary") -> "FunctionSummary":
        """The join of the fixpoint: facts only grow.

        Taint and parameter sinks accumulate (a parameter keeps the first
        sink found for it), and a gate once broken stays broken.  Trails
        are finite (:func:`_via`), so the lattice is finite.
        """
        return FunctionSummary(
            returns_value_taint=self.returns_value_taint | new.returns_value_taint,
            returns_order_taint=self.returns_order_taint | new.returns_order_taint,
            param_to_return=self.param_to_return | new.param_to_return,
            param_sinks={**new.param_sinks, **self.param_sinks},
            performs_verify=self.performs_verify or new.performs_verify,
            mutates=self.mutates or new.mutates,
            verify_gate=self.verify_gate and new.verify_gate,
        )


@dataclass
class TaintFinding:
    node: ast.AST
    message: str
    sink: str


@dataclass
class GateViolation:
    node: ast.AST
    target: str      # dotted description of what is mutated
    message: str


def _mentions_self(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == "self"
        for sub in body_nodes(node)
    )


def _attr_chain(node: ast.AST) -> list[str] | None:
    """``self.builder._pending`` → ["self", "builder", "_pending"]."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Subscript):
        current = current.value
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
        while isinstance(current, ast.Subscript):
            current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        parts.reverse()
        return parts
    return None


class _TaintWalker(StatementWalker):
    """Taint and sinks of one function body (flow-insensitive locals)."""

    LOOP_PASSES = 2

    def __init__(
        self,
        fn: FunctionInfo,
        graph: CallGraph,
        summaries: dict[str, FunctionSummary],
        emit: bool,
    ) -> None:
        self.fn = fn
        self.graph = graph
        self.calls = graph.calls(fn)
        self.summaries = summaries
        self.emit = emit
        self.locals: dict[str, Tv] = {}
        self.summary = FunctionSummary()
        self.findings: list[TaintFinding] = []
        self._reported: set[tuple[int, str]] = set()

    def run(self) -> None:
        self.block(self.fn.node.body, None)

    # -- walker hooks -------------------------------------------------------------

    def join(self, first, second):
        return None

    def enter(self, stmt: ast.stmt, state):
        if isinstance(stmt, (ast.If, ast.While)):
            self._check_sinks(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_sinks(stmt.iter)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._check_sinks(item.context_expr)
        return state

    def iterate(self, loop: ast.stmt, state):
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            self._bind_target(loop.target, self.eval(loop.iter))
        return state

    def simple(self, stmt: ast.stmt, state):
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_sinks(stmt.value)  # ``return Message(field=tainted)``
                result = self.eval(stmt.value)
                self.summary.returns_value_taint |= result.value
                self.summary.returns_order_taint |= result.order
                self.summary.param_to_return |= result.params
            return state
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._handle_assign(stmt)
        self._check_sinks(stmt)
        return state

    # -- expression taint --------------------------------------------------------

    def eval(self, node: ast.AST) -> Tv:
        if node is None or isinstance(node, (ast.Constant, ast.Lambda, ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
            return _CLEAN
        if isinstance(node, ast.Name):
            known = self.locals.get(node.id)
            if known is not None:
                return known
            index = self.fn.param_index(node.id)
            if index is not None and node.id != "self":
                return Tv(params=frozenset({index}))
            return _CLEAN
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.Set, ast.SetComp)):
            return self._merge_children(node).merged(Tv(order=_SET_ORDER))
        if isinstance(node, ast.Compare):
            # Comparison results are order-insensitive but value-dependent.
            merged = self._merge_children(node)
            return Tv(value=merged.value, params=merged.params)
        if isinstance(node, ast.IfExp):
            # Implicit flows through the condition are out of scope.
            return self.eval(node.body).merged(self.eval(node.orelse))
        if isinstance(node, ast.Attribute):
            return self.eval(node.value)
        return self._merge_children(node)

    def _merge_children(self, node: ast.AST) -> Tv:
        result = _CLEAN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword)):
                result = result.merged(self.eval(
                    child.value if isinstance(child, ast.keyword) else child
                ))
        return result

    def _eval_call(self, call: ast.Call) -> Tv:
        source = self._taint_source(call)
        args = [call.args] + [[kw.value for kw in call.keywords if kw.value is not None]]
        arg_taints = [self.eval(arg) for group in args for arg in group]
        if source is not None:
            return Tv(value=frozenset({(source,)}))
        name = terminal_name(call.func)
        if name in _ORDER_SANITIZERS and isinstance(call.func, ast.Name):
            merged = _CLEAN.merged(*arg_taints) if arg_taints else _CLEAN
            return Tv(value=merged.value, params=merged.params)
        if name in {"set", "frozenset"} and isinstance(call.func, ast.Name):
            merged = _CLEAN.merged(*arg_taints) if arg_taints else _CLEAN
            return merged.merged(Tv(order=_SET_ORDER))
        callee = self.calls.get(call)
        if callee is not None:
            summary = self.summaries.get(callee.key)
            if summary is not None:
                result = Tv(
                    value=frozenset(_via(t, callee) for t in summary.returns_value_taint),
                    order=frozenset(_via(t, callee) for t in summary.returns_order_taint),
                )
                positional = self._positional_args(call, callee)
                for index, arg in positional.items():
                    if index in summary.param_to_return:
                        result = result.merged(self.eval(arg))
                return result
            return _CLEAN
        if isinstance(call.func, ast.Name) and call.func.id in _PASSTHROUGH_BUILTINS:
            return _CLEAN.merged(*arg_taints) if arg_taints else _CLEAN
        if isinstance(call.func, ast.Attribute):
            # Method call on a tainted receiver (``ts.to_bytes()``, ``.hex()``).
            receiver = self.eval(call.func.value)
            if receiver.tainted or receiver.params:
                return receiver.merged(*arg_taints) if arg_taints else receiver
        return _CLEAN

    def _taint_source(self, call: ast.Call) -> str | None:
        if taint_exempt_module(self.fn.module):
            return None
        name = call_name(call)
        if name in _WALL_CLOCK_CALLS:
            return f"wall clock {name}()"
        if name in _ENTROPY_CALLS:
            return f"ambient entropy {name}()"
        if name is not None and "." in name:
            root, _, leaf = name.rpartition(".")
            if root == "random" and leaf in _AMBIENT_RANDOM_FUNCS:
                return f"ambient RNG random.{leaf}()"
        if (isinstance(call.func, ast.Name) and call.func.id == "id"
                and len(call.args) == 1):
            return "id() value"
        return None

    def _positional_args(
        self, call: ast.Call, callee: FunctionInfo
    ) -> dict[int, ast.AST]:
        """Map callee parameter index -> argument expression."""
        offset = 1 if callee.params and callee.params[0] == "self" else 0
        mapping: dict[int, ast.AST] = {}
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            mapping[position + offset] = arg
        for keyword in call.keywords:
            if keyword.arg is None:
                continue
            index = callee.param_index(keyword.arg)
            if index is not None:
                mapping[index] = keyword.value
        return mapping

    # -- statements --------------------------------------------------------------

    def _handle_assign(self, stmt: ast.stmt) -> None:
        value = stmt.value
        if value is None:
            return
        self._check_sinks(value)
        result = self.eval(value)
        if isinstance(stmt, ast.AugAssign):
            result = result.merged(self.eval(stmt.target))
            targets = [stmt.target]
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            targets = stmt.targets
        for target in targets:
            self._bind_target(target, result)

    def _bind_target(self, target: ast.AST, result: Tv) -> None:
        if isinstance(target, ast.Name):
            if result.tainted or result.params:
                self.locals[target.id] = result
            else:
                self.locals.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, result)
            return
        chain = _attr_chain(target)
        if chain and chain[0] == "self" and len(chain) > 1:
            if chain[1] in OBSERVABILITY_ATTRS:
                return
            sink = (f"state write {'.'.join(chain)}",)
            for index in result.params:
                self.summary.param_sinks.setdefault(index, sink)
            # Storing a set is fine; only *iterating* one into an ordered
            # sink diverges.  State writes therefore flag value-taint only.
            self._report_taint(
                target, Tv(value=result.value, params=result.params),
                (f"replica state ({'.'.join(chain)})",),
            )

    def _check_sinks(self, node: ast.AST) -> None:
        for call in body_nodes(node):
            if not isinstance(call, ast.Call):
                continue
            callee = self.calls.get(call)
            if callee is None:
                sink = terminal_name(call.func)
                if sink in TAINT_SINKS or self._constructs_wire_struct(call):
                    for arg in list(call.args) + [kw.value for kw in call.keywords]:
                        if isinstance(arg, ast.Starred):
                            arg = arg.value
                        result = self.eval(arg)
                        for index in result.params:
                            self.summary.param_sinks.setdefault(index, (f"{sink}()",))
                        self._report_taint(arg, result, (f"{sink}()",))
                continue
            summary = self.summaries.get(callee.key)
            if summary is None or not summary.param_sinks:
                continue
            for index, arg in self._positional_args(call, callee).items():
                deep_sink = summary.param_sinks.get(index)
                if deep_sink is None:
                    continue
                result = self.eval(arg)
                if deep_sink[0].startswith("state write"):
                    result = Tv(value=result.value, params=result.params)
                outer = _via(deep_sink, callee)
                for param in result.params:
                    self.summary.param_sinks.setdefault(param, outer)
                self._report_taint(arg, result, outer)

    def _constructs_wire_struct(self, call: ast.Call) -> bool:
        """``Message(...)``: a wire struct's fields are its bytes, so a sink."""
        return (isinstance(call.func, ast.Name)
                and self.graph.resolve_class(self.fn.module, call.func.id)
                in self.graph.codec_classes)

    def _report_taint(self, node: ast.AST, result: Tv, sink: Trail) -> None:
        if not self.emit or not result.tainted:
            return
        lineno = getattr(node, "lineno", self.fn.node.lineno)
        provenance = sorted(map(_render, result.value)) + sorted(map(_render, result.order))
        key = (lineno, _render(sink))
        if key in self._reported:
            return
        self._reported.add(key)
        kind = "nondeterministic value" if result.value else "iteration-order-dependent value"
        self.findings.append(TaintFinding(
            node=node,
            sink=key[1],
            message=f"{kind} ({provenance[0]}) reaches {key[1]}",
        ))


class _GateWalker(StatementWalker):
    """Verify-before-mutate walk over one function; the state is "verified"."""

    def __init__(
        self,
        fn: FunctionInfo,
        graph: CallGraph,
        summaries: dict[str, FunctionSummary],
        skip_keys: frozenset[str] = frozenset(),
    ) -> None:
        self.fn = fn
        self.calls = graph.calls(fn)
        self.summaries = summaries
        #: Callee keys whose own bodies are reported independently (entry
        #: points): suppress the caller-side duplicate of their findings.
        self.skip_keys = skip_keys
        self.state_derived: set[str] = set()
        self.mutates = False
        self.performs_verify = False
        self.violations: list[GateViolation] = []
        self._reported: set[tuple[int, str]] = set()

    def run(self) -> bool:
        """Walk the body; returns True when every mutation is guarded."""
        self.block(self.fn.node.body, False)
        return not self.violations

    # -- walker hooks -------------------------------------------------------------

    def join(self, first: bool, second: bool) -> bool:
        return first and second

    def enter(self, stmt: ast.stmt, verified: bool) -> bool:
        if isinstance(stmt, (ast.If, ast.While)):
            guard_in_test = self._contains_guard(stmt.test)
            self._check_expr(stmt.test, verified)
            return verified or guard_in_test
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_expr(stmt.iter, verified)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._check_expr(item.context_expr, verified)
        return verified

    def iterate(self, loop: ast.stmt, verified: bool) -> bool:
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            self._note_state_derived_target(loop.target, loop.iter)
        return verified

    def simple(self, stmt: ast.stmt, verified: bool) -> bool:
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                # ``return message.verify(...)`` still performs the guard —
                # record it so callers crediting this callee see it.
                self._contains_guard(stmt.value)
                self._check_expr(stmt.value, verified)
            return verified
        if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
            return verified
        # Assignments, expression calls, delete, assert.
        guarded = self._contains_guard(stmt)
        self._check_simple(stmt, verified)
        return verified or guarded

    # -- guards -------------------------------------------------------------------

    def _contains_guard(self, node: ast.AST) -> bool:
        found = any(
            is_verify_guard(call, self.calls.get(call), self.summaries)
            for call in body_nodes(node) if isinstance(call, ast.Call)
        )
        if found:
            self.performs_verify = True
        return found

    # -- mutations ----------------------------------------------------------------

    def _check_simple(self, stmt: ast.stmt, verified: bool) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                self._check_mutation_target(target, stmt, verified)
            if isinstance(stmt, ast.Assign) and stmt.value is not None:
                for target in stmt.targets:
                    self._note_state_derived_target(target, stmt.value)
            self._check_expr(stmt.value, verified)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._check_mutation_target(target, stmt, verified)
            return
        self._check_expr(stmt, verified)

    def _note_state_derived_target(self, target: ast.AST, value: ast.AST | None) -> None:
        if not isinstance(target, ast.Name) or value is None:
            return
        if _mentions_self(value) or any(
            isinstance(sub, ast.Name) and sub.id in self.state_derived
            for sub in body_nodes(value)
        ):
            self.state_derived.add(target.id)
        else:
            self.state_derived.discard(target.id)

    def _state_root(self, chain: list[str] | None) -> str | None:
        """Dotted target description when the chain is protocol state."""
        if not chain:
            return None
        root = chain[0]
        if root == "self":
            if len(chain) >= 2 and chain[1] in OBSERVABILITY_ATTRS:
                return None
            return ".".join(chain)
        if root in self.state_derived:
            return ".".join(chain)
        return None

    def _check_mutation_target(self, target: ast.AST, stmt: ast.stmt, verified: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_mutation_target(element, stmt, verified)
            return
        if isinstance(target, ast.Name):
            return  # rebinding a local is not a state mutation
        described = self._state_root(_attr_chain(target))
        if described is None:
            return
        self.mutates = True
        if not verified:
            self._violate(stmt, described, f"writes {described} before any verify/is_member guard")

    def _check_expr(self, node: ast.AST | None, verified: bool) -> None:
        if node is None:
            return
        for call in body_nodes(node):
            if not isinstance(call, ast.Call):
                continue
            if not isinstance(call.func, ast.Attribute):
                continue
            chain = _attr_chain(call.func.value)
            described = self._state_root(chain)
            if described is None and not (
                isinstance(call.func.value, ast.Name) and call.func.value.id == "self"
            ):
                continue
            method = call.func.attr
            callee = self.calls.get(call)
            if callee is not None:
                summary = self.summaries.get(callee.key)
                if summary is None or not summary.mutates:
                    continue
                self.mutates = True
                if not verified and not summary.verify_gate \
                        and callee.key not in self.skip_keys:
                    self._violate(
                        call, f"{'.'.join(chain or ['self'])}.{method}",
                        f"calls {callee.name}() (which mutates protocol state) "
                        "before any verify/is_member guard",
                    )
            elif described is not None and method in MUTATING_METHODS:
                self.mutates = True
                if not verified:
                    self._violate(
                        call, f"{described}.{method}",
                        f"mutating call {described}.{method}() before any "
                        "verify/is_member guard",
                    )

    def _violate(self, node: ast.AST, target: str, message: str) -> None:
        self.mutates = True
        key = (getattr(node, "lineno", 0), target)
        if key in self._reported:
            return
        self._reported.add(key)
        self.violations.append(GateViolation(node=node, target=target, message=message))


@dataclass
class FlowAnalysis:
    """Everything the FLOW rules need, computed once per lint run."""

    graph: CallGraph
    summaries: dict[str, FunctionSummary]
    dispatchers: dict[str, str]         # function key -> dispatched param name
    entry_points: set[str]              # function keys fed unverified messages


def _analyzable(fn: FunctionInfo) -> bool:
    return fn.module.startswith("repro.")


def _dispatch_param(fn: FunctionInfo) -> str | None:
    """Parameter whose type is tested (``type_tests``) two or more times, if any."""
    counts: dict[str, int] = {}
    for name, _types in type_tests(body_nodes(fn.node)):
        if name in fn.params and name != "self":
            counts[name] = counts.get(name, 0) + 1
    for name, count in counts.items():
        if count >= 2:
            return name
    return None


def _find_dispatch(graph: CallGraph) -> tuple[dict[str, str], set[str]]:
    dispatchers: dict[str, str] = {}
    entries: set[str] = set()
    for key, fn in graph.functions.items():
        if not _analyzable(fn):
            continue
        param = _dispatch_param(fn)
        if param is None:
            continue
        dispatchers[key] = param
        entries.add(key)
        for node, callee in graph.calls(fn).items():
            passes_param = any(
                isinstance(arg, ast.Name) and arg.id == param
                for arg in node.args
            ) or any(
                isinstance(kw.value, ast.Name) and kw.value.id == param
                for kw in node.keywords
            )
            if passes_param and _analyzable(callee):
                entries.add(callee.key)
    return dispatchers, entries


def summarize(
    fn: FunctionInfo, graph: CallGraph, summaries: dict[str, FunctionSummary]
) -> FunctionSummary:
    """One function's summary, given its callees' current summaries."""
    taint = _TaintWalker(fn, graph, summaries, emit=False)
    taint.run()
    summary = taint.summary
    if taint_exempt_module(fn.module):
        # Sanctioned wall-clock/RNG use never leaks taint outward.
        summary.returns_value_taint = frozenset()
        summary.returns_order_taint = frozenset()
        summary.param_sinks = {}
    gate = _GateWalker(fn, graph, summaries)
    summary.verify_gate = gate.run()
    summary.performs_verify = gate.performs_verify
    summary.mutates = gate.mutates
    return summary


def compute_summaries(graph: CallGraph) -> dict[str, FunctionSummary]:
    """Summaries of every analyzable function, solved over the call graph."""
    functions = {key: fn for key, fn in graph.functions.items() if _analyzable(fn)}
    return fixpoint(
        functions,
        {key: [callee.key for callee in graph.calls(fn).values()]
         for key, fn in functions.items()},
        start=lambda key: FunctionSummary(),
        transfer=lambda key, summaries: summarize(functions[key], graph, summaries),
        join=FunctionSummary.joined,
    )


def flow_analysis(project: Project) -> FlowAnalysis:
    """Build (or fetch the cached) flow analysis for this lint run."""
    analysis = project.cache.get("flow.analysis")
    if analysis is None:
        graph = build_call_graph(project)
        summaries = compute_summaries(graph)
        dispatchers, entries = _find_dispatch(graph)
        analysis = FlowAnalysis(
            graph=graph, summaries=summaries,
            dispatchers=dispatchers, entry_points=entries,
        )
        project.cache["flow.analysis"] = analysis
    return analysis


def taint_findings(analysis: FlowAnalysis, fn: FunctionInfo) -> list[TaintFinding]:
    """FLOW001 findings for one function (emit pass with stable summaries)."""
    walker = _TaintWalker(fn, analysis.graph, analysis.summaries, emit=True)
    walker.run()
    return walker.findings


def gate_violations(analysis: FlowAnalysis, fn: FunctionInfo) -> list[GateViolation]:
    """FLOW002 violations for one entry-point function.

    Other entry points are suppressed as callees here: each is walked on
    its own, so a dispatcher forwarding to an unguarded handler yields
    exactly one finding — at the handler, where the fix belongs.
    """
    walker = _GateWalker(
        fn, analysis.graph, analysis.summaries,
        skip_keys=frozenset(analysis.entry_points),
    )
    walker.run()
    return walker.violations
