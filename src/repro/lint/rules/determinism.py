"""DET00x — determinism rules.

The simulation's central invariant is bit-for-bit reproducibility: the
same seed must produce the same chain, the same latencies, the same
export payloads.  Every rule here flags a construct that silently breaks
that invariant — wall clocks, ambient randomness, unordered iteration
feeding hashes or wire bytes, identity-based ordering, and exact float
comparison on virtual-time deadlines.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import call_name, dotted_name, terminal_name
from repro.lint.engine import FileContext, Finding, Rule, register_rule

#: Modules in which real wall-clock access is the whole point (the asyncio
#: runtime bridges virtual time to real sockets).
_WALL_CLOCK_EXEMPT_PREFIX = "repro.runtime"

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
    "date.today",
}

#: ``random.<fn>()`` module-level calls that draw from the ambient,
#: process-global RNG.  (Type annotations like ``rng: random.Random`` are
#: not calls and are never flagged.)
_AMBIENT_RANDOM_FUNCS = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "seed",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}

_RNG_EXEMPT_MODULE = "repro.util.rng"

#: Callees whose argument order becomes protocol-visible: hashes, Merkle
#: commitments, wire writers, message emission.
_ORDER_SINKS = {
    "sha256",
    "sha512",
    "blake2b",
    "merkle_root",
    "encode_message",
    "put_structs",
    "put_bytes",
    "sign",
    "send",
    "broadcast",
}

#: Names that denote an absolute point in virtual time.
_DEADLINE_HINTS = ("deadline", "expiry", "expires", "fire_at", "due_at")


@register_rule
class WallClockRule(Rule):
    code = "DET001"
    name = "wall-clock"
    description = (
        "wall-clock access (time.time/monotonic/perf_counter, datetime.now, ...) "
        "outside repro.runtime; simulated code must use env.now()"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module.startswith(_WALL_CLOCK_EXEMPT_PREFIX):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            if callee in _WALL_CLOCK_CALLS:
                yield Finding(
                    code=self.code,
                    message=(
                        f"wall-clock call {callee}() breaks determinism; "
                        "take time from env.now() / the kernel clock"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                )


@register_rule
class AmbientRandomRule(Rule):
    code = "DET002"
    name = "ambient-random"
    description = (
        "module-level random.* calls or unseeded random.Random() outside "
        "repro.util.rng; randomness must come from seeded RngRegistry streams"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module == _RNG_EXEMPT_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                continue
            if func.attr == "Random" and not node.args and not node.keywords:
                message = (
                    "unseeded random.Random() is seeded from the OS; "
                    "derive streams via repro.util.rng.RngRegistry"
                )
            elif func.attr == "SystemRandom":
                message = "random.SystemRandom() is nondeterministic by design"
            elif func.attr in _AMBIENT_RANDOM_FUNCS:
                message = (
                    f"module-level random.{func.attr}() uses the ambient global RNG; "
                    "draw from a named RngRegistry stream instead"
                )
            else:
                continue
            yield Finding(
                code=self.code,
                message=message,
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
            )


def _is_unordered_iterable(node: ast.AST) -> bool:
    """Does ``node`` produce elements in hash order (sets, dict views)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("keys", "values", "items"):
            return True
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
    return False


def _comprehension_over_unordered(node: ast.AST) -> bool:
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return any(_is_unordered_iterable(gen.iter) for gen in node.generators)
    return False


def _sink_callee(node: ast.Call) -> str | None:
    name = terminal_name(node.func)
    return name if name in _ORDER_SINKS else None


@register_rule
class UnorderedIterationRule(Rule):
    code = "DET003"
    name = "unordered-iteration"
    description = (
        "iteration over a set or dict view feeding a hash, codec writer, or "
        "message emission without sorted(); replicas diverge silently"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                sink = _sink_callee(node)
                if sink is None:
                    continue
                args: list[ast.AST] = list(node.args)
                args.extend(
                    kw.value for kw in node.keywords if kw.arg != "domain"
                )
                for arg in args:
                    inner = arg.value if isinstance(arg, ast.Starred) else arg
                    if _is_unordered_iterable(inner) or _comprehension_over_unordered(inner):
                        yield Finding(
                            code=self.code,
                            message=(
                                f"unordered set/dict iteration feeds {sink}(); "
                                "wrap the iterable in sorted(...) for a canonical order"
                            ),
                            path=ctx.path,
                            line=inner.lineno,
                            col=inner.col_offset,
                        )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if not _is_unordered_iterable(node.iter):
                    continue
                for inner in node.body:
                    for sub in ast.walk(inner):
                        if isinstance(sub, ast.Call) and (sink := _sink_callee(sub)):
                            yield Finding(
                                code=self.code,
                                message=(
                                    f"loop over unordered set/dict view calls {sink}(); "
                                    "iterate sorted(...) so emission order is canonical"
                                ),
                                path=ctx.path,
                                line=node.lineno,
                                col=node.col_offset,
                            )
                            break
                    else:
                        continue
                    break


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def _contains_id_call(node: ast.AST) -> bool:
    return any(_is_id_call(sub) for sub in ast.walk(node))


@register_rule
class IdOrderingRule(Rule):
    code = "DET004"
    name = "id-ordering"
    description = (
        "ordering by id() — CPython addresses vary run to run, so any "
        "id()-keyed sort or comparison is nondeterministic"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                ordering_ops = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
                if any(isinstance(op, ordering_ops) for op in node.ops) and any(
                    _is_id_call(operand) for operand in operands
                ):
                    yield Finding(
                        code=self.code,
                        message="ordering comparison on id(); use a stable key instead",
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                    )
            elif isinstance(node, ast.keyword) and node.arg == "key":
                value = node.value
                keyed_by_id = (
                    isinstance(value, ast.Name) and value.id == "id"
                ) or (isinstance(value, ast.Lambda) and _contains_id_call(value.body))
                if keyed_by_id:
                    yield Finding(
                        code=self.code,
                        message="sort key uses id(); object addresses differ across runs",
                        path=ctx.path,
                        line=value.lineno,
                        col=value.col_offset,
                    )


def _mentions_deadline(node: ast.AST) -> bool:
    name = terminal_name(node)
    if name is not None:
        lowered = name.lower()
        if any(hint in lowered for hint in _DEADLINE_HINTS):
            return True
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee is not None and callee.split(".")[-1] == "now":
            return True
    return False


def _imports_asyncio_sleep(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "asyncio":
            if any(alias.name == "sleep" for alias in node.names):
                return True
    return False


@register_rule
class EventLoopClockRule(Rule):
    code = "DET006"
    name = "event-loop-clock"
    description = (
        "event-loop time reads (loop.time(), asyncio.sleep with a literal "
        "delay) in protocol code outside the runtime adapters, and the "
        "deprecated ambient asyncio.get_event_loop() anywhere in repro.*; "
        "protocol code must take time from env.now() and delays from "
        "env.set_timer()"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro."):
            return
        in_runtime = ctx.module.startswith(_WALL_CLOCK_EXEMPT_PREFIX)
        sleep_imported = _imports_asyncio_sleep(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            # The deprecated ambient loop lookup is flagged even inside the
            # runtime adapters: the sanctioned APIs are get_running_loop()
            # or an explicitly passed loop.
            if callee in ("asyncio.get_event_loop", "get_event_loop"):
                yield Finding(
                    code=self.code,
                    message=(
                        "asyncio.get_event_loop() is deprecated and binds an "
                        "ambient loop; use asyncio.get_running_loop() or "
                        "accept an explicit loop"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                )
                continue
            if in_runtime:
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "time":
                receiver = terminal_name(func.value)
                if receiver is not None and "loop" in receiver.lower():
                    yield Finding(
                        code=self.code,
                        message=(
                            f"{receiver}.time() reads the event-loop clock in "
                            "protocol code; take time from env.now()"
                        ),
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                    continue
            is_sleep = callee == "asyncio.sleep" or (
                callee == "sleep" and sleep_imported
            )
            if is_sleep and node.args:
                delay = node.args[0]
                if (
                    isinstance(delay, ast.Constant)
                    and isinstance(delay.value, (int, float))
                    and not isinstance(delay.value, bool)
                    and delay.value > 0
                ):
                    yield Finding(
                        code=self.code,
                        message=(
                            f"asyncio.sleep({delay.value}) hard-codes a wall-clock "
                            "delay in protocol code; arm env.set_timer() so the "
                            "simulator and transports share one timebase"
                        ),
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                    )


#: Receiver attribute names that identify metric write calls.
_METRIC_WRITE_ATTRS = ("observe", "inc")

#: Receiver name fragments that identify a metric object.
_METRIC_RECEIVER_HINTS = ("counter", "gauge", "histogram", "metric")


def _is_tracer_emit(node: ast.Call) -> bool:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
        return False
    receiver = terminal_name(func.value)
    return receiver is not None and "tracer" in receiver.lower()


def _is_metric_write(node: ast.Call) -> bool:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in _METRIC_WRITE_ATTRS):
        return False
    receiver = terminal_name(func.value)
    return receiver is not None and any(
        hint in receiver.lower() for hint in _METRIC_RECEIVER_HINTS
    )


def _ambient_format_target(node: ast.AST) -> str | None:
    """Describe ``node`` if formatting it has no canonical rendering."""
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "a dict display"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set display"
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        if name in ("set", "frozenset", "dict", "vars", "locals", "globals"):
            return f"{name}()"
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "keys", "values", "items",
        ):
            return f".{node.func.attr}()"
    return None


def _emission_args(node: ast.Call) -> Iterator[ast.AST]:
    yield from node.args
    for keyword in node.keywords:
        yield keyword.value


@register_rule
class ObservabilityEmissionRule(Rule):
    code = "DET007"
    name = "obs-emission"
    description = (
        "trace/metric emission reading the wall clock or formatting an "
        "ambient object (f-string/str/repr over a dict, set, or vars()); "
        "trace fields must be scalars derived from protocol state and "
        "timestamps must come from env.now()"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            is_trace = _is_tracer_emit(node)
            if not is_trace and not _is_metric_write(node):
                continue
            for arg in _emission_args(node):
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Call) and call_name(sub) in _WALL_CLOCK_CALLS:
                        yield Finding(
                            code=self.code,
                            message=(
                                f"{call_name(sub)}() inside trace/metric emission; "
                                "stamp events with env.now() so identical-seed "
                                "runs emit identical records"
                            ),
                            path=ctx.path,
                            line=sub.lineno,
                            col=sub.col_offset,
                        )
                    elif isinstance(sub, ast.FormattedValue):
                        target = _ambient_format_target(sub.value)
                        if target is not None:
                            yield Finding(
                                code=self.code,
                                message=(
                                    f"f-string formats {target} in a trace/metric "
                                    "field; container renderings are not canonical "
                                    "— emit sorted scalars instead"
                                ),
                                path=ctx.path,
                                line=sub.lineno,
                                col=sub.col_offset,
                            )
                    elif (
                        is_trace
                        and isinstance(sub, ast.Call)
                        and terminal_name(sub.func) in ("str", "repr", "format")
                        and sub.args
                    ):
                        target = _ambient_format_target(sub.args[0])
                        if target is not None:
                            yield Finding(
                                code=self.code,
                                message=(
                                    f"{terminal_name(sub.func)}() over {target} in a "
                                    "trace field has no canonical rendering; emit "
                                    "sorted scalars instead"
                                ),
                                path=ctx.path,
                                line=sub.lineno,
                                col=sub.col_offset,
                            )


#: Modules allowed to mint contexts and mutate causal clocks: the emission
#: funnel and the transports (``repro.runtime``) and the causal machinery
#: itself (``repro.obs`` — stamp/merge/observe and the codecs).
_CAUSAL_EXEMPT_PREFIXES = ("repro.runtime", "repro.obs")

#: CausalClock state only the funnel/receive path may assign.
_CAUSAL_CLOCK_ATTRS = {"origin", "lamport", "events", "last_event", "inbound", "carry"}

#: Tracer-computed causal annotations protocol code must never pass.
_CAUSAL_EMIT_KWARGS = {"idx", "lamport", "cause"}


def _causal_receiver(node: ast.AST) -> str | None:
    """The receiver's dotted name, if it names a causal clock."""
    name = dotted_name(node) or terminal_name(node)
    if name is None:
        return None
    lowered = name.lower()
    if "causal" in lowered or "clock" in lowered:
        return name
    return None


@register_rule
class CausalFunnelRule(Rule):
    code = "DET008"
    name = "causal-funnel"
    description = (
        "CausalContext construction or CausalClock mutation outside the "
        "emission funnel (repro.runtime) and the causal machinery "
        "(repro.obs); contexts are minted by BaseEnv._emit only and clock "
        "state is owned by stamp/merge/observe — protocol code forging "
        "either breaks happens-before"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro."):
            return
        if ctx.module.startswith(_CAUSAL_EXEMPT_PREFIXES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    if target.attr not in _CAUSAL_CLOCK_ATTRS:
                        continue
                    receiver = _causal_receiver(target.value)
                    if receiver is None:
                        continue
                    yield Finding(
                        code=self.code,
                        message=(
                            f"assignment to {receiver}.{target.attr} outside the "
                            "emission funnel; CausalClock state is owned by "
                            "BaseEnv._emit / run_inbound and the bound tracer"
                        ),
                        path=ctx.path,
                        line=target.lineno,
                        col=target.col_offset,
                    )
            elif isinstance(node, ast.Call):
                if terminal_name(node.func) == "CausalContext":
                    yield Finding(
                        code=self.code,
                        message=(
                            "CausalContext constructed outside the emission "
                            "funnel; contexts are minted by CausalClock.stamp() "
                            "inside BaseEnv._emit only"
                        ),
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                elif _is_tracer_emit(node):
                    for keyword in node.keywords:
                        if keyword.arg in _CAUSAL_EMIT_KWARGS:
                            yield Finding(
                                code=self.code,
                                message=(
                                    f"tracer.emit(..., {keyword.arg}=...) forges a "
                                    "causal annotation; idx/lamport/cause are "
                                    "assigned by the bound CausalClock"
                                ),
                                path=ctx.path,
                                line=keyword.value.lineno,
                                col=keyword.value.col_offset,
                            )


@register_rule
class FloatDeadlineEqualityRule(Rule):
    code = "DET005"
    name = "float-deadline-eq"
    description = (
        "exact float ==/!= against a timer deadline or now(); float "
        "arithmetic makes exact hits unreliable — compare with <=/>="
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_mentions_deadline(operand) for operand in operands):
                yield Finding(
                    code=self.code,
                    message=(
                        "exact equality on a virtual-time deadline; "
                        "use an ordering comparison (<=, >=) or an epsilon"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                )
