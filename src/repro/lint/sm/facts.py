"""Protocol state-machine & quorum-safety analysis (the ``sm`` stage).

PBFT-style safety rests on arithmetic nothing in Python enforces: commit
and checkpoint decisions need ``2f+1`` *distinct* signers, reply matching
needs ``f+1``, phase flags (`prepared`, `committed`, `certified`) may only
flip behind the matching quorum check, and view/sequence counters must
never move backwards outside a sanctioned view-change/state-sync path.
This module extracts those facts once per lint run with the shared
statement walker and fixpoint (:mod:`repro.lint.flow.walk`) over the flow
stage's call graph and summaries, and the SM rules in :mod:`.rules`
report on them.

The analysis follows the flow stage's soundness policy: everything
unresolvable stays unresolved and is treated as opaque, so the stage
prefers missed findings over false positives.
"""

from __future__ import annotations

import ast
import re
import weakref
from dataclasses import dataclass, field

from repro.lint.astutil import terminal_name
from repro.lint.engine import Project
from repro.lint.flow.callgraph import CallGraph, ClassInfo, FunctionInfo
from repro.lint.flow.summaries import (
    FlowAnalysis,
    _attr_chain,
    flow_analysis,
    is_verify_guard,
)
from repro.lint.flow.walk import StatementWalker, body_nodes, fixpoint

#: Modules the sm stage analyzes: the consensus core plus everything that
#: handles protocol messages or feeds the evidence chain.
SM_PREFIXES = ("repro.bft", "repro.core", "repro.export", "repro.chain", "repro.wire")

#: Packages whose ``raise`` statements SM006 treats as message-path
#: validation.  Raises authored in data-structure modules (``repro.chain``
#: accessors, ``repro.wire`` codecs) are precondition guards on arguments
#: the caller already bounds; flagging them drowns the real escapes.
RAISE_ORIGIN_PREFIXES = ("repro.bft", "repro.core", "repro.export")

#: Collection names that denote vote/endorsement sets for quorum purposes.
_VOTEISH_RE = re.compile(
    r"vote|prepare|commit|checkpoint|signer|signature|repl(?:y|ies)"
    r"|ack|view_change|vouch|endorse"
)

#: Phase flags a replica may only flip behind the matching quorum check.
PHASE_FLAGS = frozenset({"pre_prepared", "prepared", "committed", "certified"})

#: ``self.X`` attributes that must be non-decreasing (SM004).
_MONOTONIC_RE = re.compile(r"^view$|(?:^|_)(?:seq|sn|exec)$")

#: Function names sanctioned to rewind/reset monotonic state.
_SANCTIONED_FN_RE = re.compile(
    r"__init__|view_change|new_view|enter_view|fast_forward|sync|install|reset"
)

#: Integer-kind lattice for SM005 (name pattern -> kind).
_KIND_PATTERNS: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("view", re.compile(r"^(?:new_|target_|old_)?view$|_view$")),
    ("seq", re.compile(r"^(?:seq|seqno|sn)$|_(?:seq|sn)$|(?:^|_)exec$")),
    ("tag", re.compile(r"^tag$|_tag$")),
    ("id", re.compile(r"_id$")),
    ("height", re.compile(r"^height$|_height$")),
)

_CATCH_ALL = frozenset({"*", "Exception", "BaseException"})


def _kind_of_name(name: str | None) -> str | None:
    if not name:
        return None
    for kind, pattern in _KIND_PATTERNS:
        if pattern.search(name):
            return kind
    return None


# -- threshold classification (SM001) -----------------------------------------


@dataclass(frozen=True)
class Threshold:
    """Provenance class of a quorum-gate threshold expression."""

    kind: str       # "quorum" | "f_plus" | "bare_f" | "literal" | "derived" | "unknown"
    label: str
    value: int | None = None


_UNKNOWN = Threshold("unknown", "?")


def _is_fault_operand(node: ast.AST) -> bool:
    """``f``-flavoured operand: the fault bound being re-derived locally."""
    if isinstance(node, ast.Name):
        return node.id == "f" or "fault" in node.id
    chain = _attr_chain(node)
    if chain:
        return chain[-1] == "f" or "fault" in chain[-1]
    return False


def classify_threshold(
    expr: ast.AST, locals_map: dict[str, ast.AST], depth: int = 0
) -> Threshold:
    """Where a quorum-comparison threshold flows from."""
    if depth > 6:
        return _UNKNOWN
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, int) and not isinstance(expr.value, bool):
            return Threshold("literal", repr(expr.value), expr.value)
        return _UNKNOWN
    chain = _attr_chain(expr)
    if chain is not None and isinstance(expr, (ast.Attribute, ast.Name)):
        last = chain[-1]
        dotted = ".".join(chain)
        if isinstance(expr, ast.Name) and expr.id in locals_map:
            # What the local is *bound to* beats what it is named: a local
            # ``quorum = 2 * self.config.f + 1`` is still re-derived.  The
            # label stays the local's name — it is what the source spells.
            inner = classify_threshold(locals_map[expr.id], locals_map, depth + 1)
            if inner.kind != "unknown":
                return Threshold(inner.kind, expr.id, inner.value)
        if "quorum" in last:
            return Threshold("quorum", dotted)
        if last == "f" and len(chain) >= 2:
            return Threshold("bare_f", dotted)
        if isinstance(expr, ast.Name) and expr.id == "f":
            return Threshold("bare_f", expr.id)
        return _UNKNOWN
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub)):
        left = classify_threshold(expr.left, locals_map, depth + 1)
        right = classify_threshold(expr.right, locals_map, depth + 1)
        sides = {left.kind, right.kind}
        if "derived" in sides:
            return Threshold("derived", f"{left.label} ± {right.label}")
        for main, const in ((left, expr.right), (right, expr.left)):
            if not (isinstance(const, ast.Constant) and isinstance(const.value, int)):
                continue
            if main.kind == "quorum":
                return Threshold("quorum", main.label)
            if main.kind == "bare_f":
                if isinstance(expr.op, ast.Add) and const.value >= 1:
                    return Threshold("f_plus", f"{main.label} + {const.value}")
                return Threshold("derived", f"{main.label} - {const.value}")
        return _UNKNOWN
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Mult):
        if _is_fault_operand(expr.left) or _is_fault_operand(expr.right):
            return Threshold("derived", "k * f")
        inner = classify_threshold(expr.left, locals_map, depth + 1)
        if inner.kind == "unknown":
            inner = classify_threshold(expr.right, locals_map, depth + 1)
        if inner.kind in ("quorum", "bare_f", "f_plus"):
            return Threshold("derived", f"k * {inner.label}")
        return _UNKNOWN
    return _UNKNOWN


# -- counted-collection classification (SM001/SM002) ---------------------------


@dataclass(frozen=True)
class Counted:
    """A vote-set count appearing on one side of a comparison."""

    label: str            # best-effort display name of the counted collection
    dedup: str            # "deduped" | "duplicable" | "unknown"
    voteish: bool


class _CollectionResolver:
    """Resolves the dedup discipline of a counted collection expression."""

    def __init__(
        self,
        graph: CallGraph,
        fn: FunctionInfo,
        locals_map: dict[str, ast.AST],
    ) -> None:
        self.graph = graph
        self.fn = fn
        self.locals_map = locals_map
        self.local_types = graph.local_types(fn)

    def resolve(self, expr: ast.AST, depth: int = 0) -> tuple[list[str], str]:
        """Returns (candidate names, dedup class) for a collection expr."""
        if depth > 6:
            return [], "unknown"
        if isinstance(expr, (ast.Set, ast.SetComp)):
            names: list[str] = []
            if isinstance(expr, ast.SetComp):
                names, _ = self.resolve(expr.generators[0].iter, depth + 1)
            return names, "deduped"
        if isinstance(expr, ast.Dict):
            return [], "deduped"
        if isinstance(expr, (ast.List, ast.Tuple)):
            return [], "duplicable"
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            names, dedup = self.resolve(expr.generators[0].iter, depth + 1)
            return names, dedup
        if isinstance(expr, ast.Call):
            return self._resolve_call(expr, depth)
        if isinstance(expr, ast.Name):
            names = [expr.id]
            value = self.locals_map.get(expr.id)
            if value is not None:
                inner_names, dedup = self.resolve(value, depth + 1)
                return names + inner_names, dedup
            return names, "unknown"
        if isinstance(expr, ast.Attribute):
            return self._resolve_attr(expr)
        return [], "unknown"

    def _resolve_call(self, call: ast.Call, depth: int) -> tuple[list[str], str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in ("set", "frozenset", "dict"):
                names: list[str] = []
                if call.args:
                    names, _ = self.resolve(call.args[0], depth + 1)
                return names, "deduped"
            if func.id in ("list", "tuple", "sorted") and call.args:
                return self.resolve(call.args[0], depth + 1)
            return [], "unknown"
        if isinstance(func, ast.Attribute):
            receiver_names, receiver_dedup = self.resolve(func.value, depth + 1)
            if func.attr in ("values", "keys", "items"):
                # Dict views over per-sender keys are deduplicated by key.
                return receiver_names, "deduped"
            if func.attr in ("setdefault", "get") and len(call.args) >= 2:
                _, default_dedup = self.resolve(call.args[1], depth + 1)
                return receiver_names, default_dedup
            if func.attr == "copy":
                return receiver_names, receiver_dedup
        return [], "unknown"

    def _resolve_attr(self, expr: ast.Attribute) -> tuple[list[str], str]:
        chain = _attr_chain(expr)
        names = [expr.attr] if chain is None else [part for part in chain if part != "self"]
        owner = self._owner_class(expr)
        if owner is not None:
            kind = _field_collection_kind(self.graph, owner, expr.attr)
            if kind in ("dict", "set", "frozenset"):
                return names, "deduped"
            if kind in ("list", "tuple"):
                return names, "duplicable"
        return names, "unknown"

    def _owner_class(self, expr: ast.Attribute) -> str | None:
        receiver = expr.value
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and self.fn.class_name is not None:
                return f"{self.fn.module}:{self.fn.class_name}"
            return self.local_types.get(receiver.id)
        if (isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and self.fn.class_name is not None):
            own = self.graph.classes.get(f"{self.fn.module}:{self.fn.class_name}")
            if own is not None:
                return self.graph._attr_type_with_bases(own, receiver.attr)
        return None


def _annotation_collection(annotation: ast.AST | None) -> str | None:
    """``tuple[Vote, ...]`` -> "tuple"; ``dict[str, Vote]`` -> "dict"."""
    root = annotation
    if isinstance(root, ast.Subscript):
        root = root.value
    if isinstance(root, ast.Name) and root.id in (
        "list", "tuple", "dict", "set", "frozenset", "List", "Tuple", "Dict",
        "Set", "FrozenSet",
    ):
        return root.id.lower()
    return None


def _value_collection(value: ast.AST | None) -> str | None:
    if isinstance(value, ast.Dict):
        return "dict"
    if isinstance(value, ast.List):
        return "list"
    if isinstance(value, (ast.Tuple,)):
        return "tuple"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.ListComp):
        return "list"
    if isinstance(value, ast.DictComp):
        return "dict"
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name) and func.id in (
            "dict", "list", "tuple", "set", "frozenset",
        ):
            return func.id
        # dataclasses.field(default_factory=dict) and friends.
        name = terminal_name(func)
        if name == "field":
            for kw in value.keywords:
                if kw.arg == "default_factory" and isinstance(kw.value, ast.Name):
                    if kw.value.id in ("dict", "list", "tuple", "set", "frozenset"):
                        return kw.value.id
    return None


def _field_collection_kind(graph: CallGraph, class_key: str, attr: str) -> str | None:
    """Collection kind of ``Class.attr``: annotation first, then assignments."""
    return next((kinds[attr] for cls in graph.lineage(class_key)
                 if attr in (kinds := _field_kind_on_class(cls))), None)


# Keyed by the AST node itself (weakly): id()-keyed caches are unsound
# here because collected nodes free their ids for unrelated classes.
_FIELD_KIND_CACHE: "weakref.WeakKeyDictionary[ast.AST, dict[str, str]]" = (
    weakref.WeakKeyDictionary()
)


def _field_kind_on_class(cls: ClassInfo) -> dict[str, str]:
    cached = _FIELD_KIND_CACHE.get(cls.node)
    if cached is not None:
        return cached
    kinds: dict[str, str] = {}
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotated = _annotation_collection(stmt.annotation)
            if annotated is not None:
                kinds.setdefault(stmt.target.id, annotated)
            elif stmt.value is not None:
                valued = _value_collection(stmt.value)
                if valued is not None:
                    kinds.setdefault(stmt.target.id, valued)
    for stmt in cls.node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(stmt):
            target: ast.AST | None = None
            value: ast.AST | None = None
            annotation: ast.AST | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            annotated = _annotation_collection(annotation)
            inferred = annotated or _value_collection(value)
            if inferred is not None:
                kinds.setdefault(target.attr, inferred)
    _FIELD_KIND_CACHE[cls.node] = kinds
    return kinds


# -- event records --------------------------------------------------------------


@dataclass(frozen=True)
class QuorumGate:
    """One comparison gating a counted set against a threshold."""

    lineno: int
    col: int
    op: str                 # normalized: count OP threshold; ">=", ">", "<", "<="
    counted: Counted
    threshold: Threshold
    in_config: bool         # inside a *Config class / config module


@dataclass(frozen=True)
class PhaseSet:
    """``X.prepared = True``-style phase-flag flip.

    ``guarded`` means *quorum*-dominated: a verify-style signature check
    alone is not sufficient evidence to advance phase (that asymmetry is
    the whole point of SM003 vs FLOW002).
    """

    attr: str
    lineno: int
    col: int
    guarded: bool


@dataclass(frozen=True)
class CallSite:
    """One resolvable call, with the guard state it executes under.

    ``guarded`` tracks verify-style guards (used by SM006 to discharge
    guard-conditional raises); ``quorum_guarded`` tracks quorum checks
    (used by SM003 to telescope phase transitions through helpers).
    """

    callee: str
    lineno: int
    guarded: bool
    quorum_guarded: bool
    compare_attrs: frozenset[str]
    caught: frozenset[str]


@dataclass(frozen=True)
class RaiseFact:
    """An exception that can leave the function it originates in."""

    exc: str
    origin: str             # function key of the raise statement
    lineno: int
    guard_conditional: bool  # only reachable when a verify-style guard fails


@dataclass(frozen=True)
class MonoEvent:
    """Assignment to monotonic state (``self.view``, ``self._next_seq``...)."""

    attr: str
    lineno: int
    col: int
    proved: bool            # provably non-decreasing in-function


@dataclass(frozen=True)
class KindConflict:
    """Cross-kind integer comparison/arithmetic (seq vs view vs id...)."""

    lineno: int
    col: int
    left: str
    right: str
    kinds: tuple[str, str]
    operation: str          # "compare" | "arith"


@dataclass
class SmFunction:
    """Per-function facts the SM rules consume."""

    fn: FunctionInfo
    gates: list[QuorumGate] = field(default_factory=list)
    phase_sets: list[PhaseSet] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)
    raises: list[RaiseFact] = field(default_factory=list)
    mono_events: list[MonoEvent] = field(default_factory=list)
    kind_conflicts: list[KindConflict] = field(default_factory=list)


# -- the branch-sensitive walker ------------------------------------------------


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

_OP_TEXT = {ast.Gt: ">", ast.GtE: ">=", ast.Lt: "<", ast.LtE: "<="}


def _simple_locals(fn_node: ast.AST) -> dict[str, ast.AST]:
    """First simple assignment per local name (``x = expr``)."""
    locals_map: dict[str, ast.AST] = {}
    for node in body_nodes(fn_node):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                locals_map.setdefault(target.id, node.value)
    return locals_map


class _SmWalker(StatementWalker):
    """One branch-sensitive pass collecting every SM event in a function.

    Shares the flow stage's must-walk — an ``if`` whose test contains a
    guard protects both branches; a guard-return pattern (``if not ok():
    return``) leaves the continuation protected — but its state is *two*
    independent guard flags ``(verified, quorum)``:

    * ``verified`` — a verify/is_member-style signature check ran
      (FLOW002's notion; SM006 uses it to discharge raises).
    * ``quorum`` — a sanctioned quorum comparison ran, directly or inside
      a resolvable callee (``CommitCert.verify`` counting its signers).
      Only this state sanctions a phase-flag flip: a signature check
      alone is *not* evidence of 2f+1 agreement.

    The attrs compared by enclosing tests (SM004), the guard depth (SM006)
    and the exceptions caught around a ``try`` body are lexical: pushed in
    :meth:`enter` and popped in :meth:`leave`.
    """

    def __init__(
        self,
        fn: FunctionInfo,
        graph: CallGraph,
        flow: FlowAnalysis,
    ) -> None:
        self.fn = fn
        self.flow = flow
        self.calls = graph.calls(fn)
        self.locals_map = _simple_locals(fn.node)
        self.resolver = _CollectionResolver(graph, fn, self.locals_map)
        self.facts = SmFunction(fn=fn)
        #: Function keys that perform a sanctioned quorum comparison,
        #: directly or transitively; injected by :func:`sm_analysis`
        #: before :meth:`run` (a fixpoint over the whole graph).
        self.quorum_performers: frozenset[str] = frozenset()
        self._caught: list[frozenset[str]] = []
        self._seen_compares: set[int] = set()
        #: Terminal attr names compared by the enclosing if/while tests.
        self._cmp_attrs: frozenset[str] = frozenset()
        #: >0 while walking a branch whose test contains a verify-style or
        #: quorum guard: raises there only fire when the guard fails, so a
        #: caller that already verified the message discharges them.
        self._guard_depth = 0
        self._scopes: list[tuple[frozenset[str], int]] = []

    # -- public ------------------------------------------------------------------

    def run(self) -> SmFunction:
        self.block(self.fn.node.body, (False, False))
        self._scan_kinds()
        return self.facts

    def has_direct_quorum_gate(self) -> bool:
        """A sanctioned quorum comparison appears anywhere in the body."""
        for sub in body_nodes(self.fn.node):
            if isinstance(sub, ast.Compare):
                if self._sanctioned_gate(self._classify_compare(sub)):
                    return True
        return False

    # -- gates -------------------------------------------------------------------

    def _classify_compare(self, node: ast.Compare) -> QuorumGate | None:
        if len(node.ops) != 1 or len(node.comparators) != 1:
            return None
        op_type = type(node.ops[0])
        if op_type not in _OP_TEXT:
            return None
        left, right = node.left, node.comparators[0]
        for count_side, thr_side, op in (
            (left, right, _OP_TEXT[op_type]),
            (right, left, _FLIP[_OP_TEXT[op_type]]),
        ):
            counted = self._counted(count_side)
            if counted is None:
                continue
            threshold = classify_threshold(thr_side, self.locals_map)
            in_config = bool(
                (self.fn.class_name or "").endswith("Config")
                or self.fn.module.endswith(".config")
            )
            return QuorumGate(
                lineno=node.lineno, col=node.col_offset, op=op,
                counted=counted, threshold=threshold, in_config=in_config,
            )
        return None

    def _counted(self, expr: ast.AST, depth: int = 0) -> Counted | None:
        """``len(X)`` / ``sum(.. for .. in X)`` / a local bound to one."""
        if depth > 4:
            return None
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id == "len" and len(expr.args) == 1:
                return self._collection_counted(expr.args[0])
            if expr.func.id == "sum" and expr.args:
                arg = expr.args[0]
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    return self._collection_counted(arg.generators[0].iter)
                return self._collection_counted(arg)
        if isinstance(expr, ast.Name):
            value = self.locals_map.get(expr.id)
            if value is not None:
                inner = self._counted(value, depth + 1)
                if inner is not None:
                    voteish = inner.voteish or bool(_VOTEISH_RE.search(expr.id))
                    return Counted(inner.label, inner.dedup, voteish)
        return None

    def _collection_counted(self, coll: ast.AST) -> Counted:
        names, dedup = self.resolver.resolve(coll)
        voteish = any(_VOTEISH_RE.search(name) for name in names)
        label = names[0] if names else "<collection>"
        return Counted(label, dedup, voteish)

    def _sanctioned_gate(self, gate: QuorumGate | None) -> bool:
        """A quorum comparison that counts as a phase-transition guard."""
        return gate is not None and gate.threshold.kind in ("quorum", "f_plus")

    def _record_compares(self, node: ast.AST) -> bool:
        """Classify every comparison under ``node``; True if any sanctions."""
        sanctioned = False
        for sub in body_nodes(node):
            if not isinstance(sub, ast.Compare) or id(sub) in self._seen_compares:
                continue
            self._seen_compares.add(id(sub))
            gate = self._classify_compare(sub)
            if gate is not None:
                self.facts.gates.append(gate)
                sanctioned = sanctioned or self._sanctioned_gate(gate)
        return sanctioned

    def _scan(self, node: ast.AST, verified: bool, quorum: bool) -> tuple[bool, bool]:
        """Record the gates and call sites under ``node``, which run in state
        ``(verified, quorum)``; returns the (verify, quorum) guards it holds.

        Quorum credit for calls requires *resolving* the callee to a known
        quorum performer; an opaque ``message.verify(...)`` earns only the
        verify flag, never the quorum one.
        """
        verify_g, quorum_g = False, self._record_compares(node)
        for call in body_nodes(node):
            if not isinstance(call, ast.Call):
                continue
            callee = self.calls.get(call)
            verify_g = verify_g or is_verify_guard(call, callee, self.flow.summaries)
            if callee is not None:
                quorum_g = quorum_g or callee.key in self.quorum_performers
                self.facts.call_sites.append(CallSite(
                    callee=callee.key, lineno=call.lineno, guarded=verified,
                    quorum_guarded=quorum, compare_attrs=self._cmp_attrs,
                    caught=self._caught_now(),
                ))
        return verify_g, quorum_g

    @staticmethod
    def _compare_attrs_in(node: ast.AST) -> frozenset[str]:
        """Terminal attr names compared under ``node`` (for SM004 guards)."""
        attrs: set[str] = set()
        for sub in body_nodes(node):
            if not isinstance(sub, ast.Compare):
                continue
            for side in [sub.left, *sub.comparators]:
                if isinstance(side, ast.Attribute):
                    attrs.add(side.attr)
        return frozenset(attrs)

    # -- walker hooks ------------------------------------------------------------

    def join(self, first: tuple[bool, bool], second: tuple[bool, bool]) -> tuple[bool, bool]:
        return first[0] and second[0], first[1] and second[1]

    def enter(self, stmt: ast.stmt, state: tuple[bool, bool]) -> tuple[bool, bool]:
        verified, quorum = state
        if isinstance(stmt, (ast.If, ast.While)):
            verify_g, quorum_g = self._scan(stmt.test, verified, quorum)
            # Both branches of an ``if`` run under its guard; a ``while``
            # test's compared attrs cover its body only.
            bump = 1 if isinstance(stmt, ast.If) and (verify_g or quorum_g) else 0
            self._scopes.append((self._cmp_attrs, bump))
            self._cmp_attrs = self._cmp_attrs | self._compare_attrs_in(stmt.test)
            self._guard_depth += bump
            return verified or verify_g, quorum or quorum_g
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan(stmt.iter, verified, quorum)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan(item.context_expr, verified, quorum)
        elif isinstance(stmt, ast.Try):
            caught: set[str] = set()
            for handler in stmt.handlers:
                caught.update(_handler_names(handler))
            self._caught.append(frozenset(caught))
        return state

    def leave(self, stmt: ast.stmt, state: tuple[bool, bool]) -> tuple[bool, bool]:
        if isinstance(stmt, (ast.If, ast.While)):
            self._cmp_attrs, bump = self._scopes.pop()
            self._guard_depth -= bump
        elif isinstance(stmt, ast.Try):
            self._caught.pop()
        return state

    def simple(self, stmt: ast.stmt, state: tuple[bool, bool]) -> tuple[bool, bool]:
        verified, quorum = state
        if isinstance(stmt, ast.Raise):
            self._record_raise(stmt)
            return state
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan(stmt.value, verified, quorum)
            return state
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return state
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                self._note_phase_set(target, stmt.value, quorum)
                self._note_mono(stmt, target, stmt.value)
        verify_g, quorum_g = self._scan(stmt, verified, quorum)
        return verified or verify_g, quorum or quorum_g

    # -- event collection --------------------------------------------------------

    def _caught_now(self) -> frozenset[str]:
        merged: set[str] = set()
        for level in self._caught:
            merged.update(level)
        return frozenset(merged)

    def _note_phase_set(
        self, target: ast.AST, value: ast.AST | None, quorum: bool
    ) -> None:
        if not isinstance(target, ast.Attribute) or target.attr not in PHASE_FLAGS:
            return
        if not (isinstance(value, ast.Constant) and value.value is True):
            return
        self.facts.phase_sets.append(PhaseSet(
            attr=target.attr, lineno=target.lineno, col=target.col_offset,
            guarded=quorum,
        ))

    def _note_mono(self, stmt: ast.stmt, target: ast.AST, value: ast.AST | None) -> None:
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return
        if not _MONOTONIC_RE.search(target.attr):
            return
        if isinstance(stmt, ast.AugAssign):
            proved = (isinstance(stmt.op, ast.Add)
                      and isinstance(value, ast.Constant)
                      and isinstance(value.value, int) and value.value >= 0)
        else:
            proved = (
                target.attr in self._cmp_attrs
                or self._nondecreasing(value, ("self", target.attr))
            )
        self.facts.mono_events.append(MonoEvent(
            attr=target.attr, lineno=target.lineno, col=target.col_offset,
            proved=proved,
        ))

    def _nondecreasing(
        self,
        value: ast.AST | None,
        target_chain: tuple[str, str],
        depth: int = 0,
    ) -> bool:
        """Value provably >= current ``self.X`` (max(), self.X + k, ...)."""
        if value is None or depth > 6:
            return False
        chain = _attr_chain(value)
        if chain is not None and tuple(chain) == target_chain:
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id == "max":
                return any(
                    self._nondecreasing(arg, target_chain, depth + 1)
                    for arg in value.args
                )
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
            for main, const in ((value.left, value.right),
                                (value.right, value.left)):
                if (isinstance(const, ast.Constant)
                        and isinstance(const.value, int) and const.value >= 0
                        and self._nondecreasing(main, target_chain, depth + 1)):
                    return True
        if isinstance(value, ast.Name):
            bound = self.locals_map.get(value.id)
            if bound is not None:
                return self._nondecreasing(bound, target_chain, depth + 1)
        return False

    def _record_raise(self, stmt: ast.Raise) -> None:
        # Escape depends on guard *branches*, not the verified state: a
        # raise after successful verification is content validation, not
        # a signature guard, and stays live for SM006.
        exc = stmt.exc
        if exc is None:
            return  # bare re-raise inside an except block
        name = terminal_name(exc.func) if isinstance(exc, ast.Call) else terminal_name(exc)
        if not name:
            return
        caught = self._caught_now()
        if name in caught or caught & _CATCH_ALL:
            return
        self.facts.raises.append(RaiseFact(
            exc=name, origin=self.fn.key, lineno=stmt.lineno,
            guard_conditional=self._guard_depth > 0,
        ))

    # -- kind lattice (SM005) ----------------------------------------------------

    def _scan_kinds(self) -> None:
        local_kinds: dict[str, str] = {}
        for name, value in self.locals_map.items():
            own = _kind_of_name(name)
            kind = own or self._kind_of(value, {})
            if kind is not None:
                local_kinds[name] = kind
        for node in body_nodes(self.fn.node):
            if isinstance(node, ast.Compare):
                if len(node.ops) != 1 or len(node.comparators) != 1:
                    continue
                if not isinstance(node.ops[0], (
                        ast.Eq, ast.NotEq, ast.Gt, ast.GtE, ast.Lt, ast.LtE)):
                    continue
                self._note_conflict(
                    node, node.left, node.comparators[0], local_kinds, "compare")
            elif isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub)):
                self._note_conflict(
                    node, node.left, node.right, local_kinds, "arith")

    def _note_conflict(
        self,
        node: ast.AST,
        left: ast.AST,
        right: ast.AST,
        local_kinds: dict[str, str],
        operation: str,
    ) -> None:
        lk = self._kind_of(left, local_kinds)
        rk = self._kind_of(right, local_kinds)
        if lk is None or rk is None or lk == rk:
            return
        self.facts.kind_conflicts.append(KindConflict(
            lineno=node.lineno, col=node.col_offset,
            left=_describe(left), right=_describe(right),
            kinds=(lk, rk), operation=operation,
        ))

    def _kind_of(
        self, expr: ast.AST | None, local_kinds: dict[str, str], depth: int = 0
    ) -> str | None:
        if expr is None or depth > 4:
            return None
        if isinstance(expr, ast.Name):
            return local_kinds.get(expr.id) or _kind_of_name(expr.id)
        if isinstance(expr, ast.Attribute):
            return _kind_of_name(expr.attr)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub)):
            lk = self._kind_of(expr.left, local_kinds, depth + 1)
            rk = self._kind_of(expr.right, local_kinds, depth + 1)
            if lk is not None and rk is not None and lk != rk:
                return None  # already reported as its own conflict
            return lk or rk
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("max", "min") and expr.args:
                kinds = {
                    self._kind_of(arg, local_kinds, depth + 1)
                    for arg in expr.args
                }
                kinds.discard(None)
                if len(kinds) == 1:
                    return kinds.pop()
        return None


def _describe(node: ast.AST) -> str:
    chain = _attr_chain(node)
    if chain is not None:
        return ".".join(chain)
    if isinstance(node, ast.Constant):
        return repr(node.value)
    return type(node).__name__.lower()


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return {"*"}
    names: set[str] = set()
    types = (handler.type.elts
             if isinstance(handler.type, ast.Tuple) else [handler.type])
    for node in types:
        name = terminal_name(node)
        if name:
            names.add(name)
        else:
            names.add("*")
    return names


# -- the analysis ---------------------------------------------------------------


@dataclass
class SmAnalysis:
    """Everything the SM rules need, computed once per lint run."""

    graph: CallGraph
    flow: FlowAnalysis
    functions: dict[str, SmFunction]
    reverse_calls: dict[str, list[CallSite]]     # callee key -> caller sites
    escapes: dict[str, list[RaiseFact]]          # dispatch root -> escaping


def _analyzable(fn: FunctionInfo) -> bool:
    return fn.module.startswith("repro.")


def sm_analysis(project: Project) -> SmAnalysis:
    """Build (or fetch the cached) state-machine analysis for this run."""
    analysis = project.cache.get("sm.analysis")
    if analysis is None:
        flow = flow_analysis(project)
        graph = flow.graph
        walkers: dict[str, _SmWalker] = {}
        for key in sorted(graph.functions):
            fn = graph.functions[key]
            if _analyzable(fn):
                walkers[key] = _SmWalker(fn, graph, flow)
        performers = _quorum_performers(graph, walkers)
        functions: dict[str, SmFunction] = {}
        for key, walker in walkers.items():
            walker.quorum_performers = performers
            functions[key] = walker.run()
        reverse: dict[str, list[CallSite]] = {}
        for facts in functions.values():
            for site in facts.call_sites:
                reverse.setdefault(site.callee, []).append(site)
        escapes = _propagate_raises(flow, functions)
        analysis = SmAnalysis(
            graph=graph, flow=flow, functions=functions,
            reverse_calls=reverse, escapes=escapes,
        )
        project.cache["sm.analysis"] = analysis
    return analysis


def _quorum_performers(graph: CallGraph, walkers: dict[str, _SmWalker]) -> frozenset[str]:
    """Functions that run a sanctioned quorum check, transitively.

    Direct: the body contains a comparison against config.quorum-flavoured
    or ``f + k`` thresholds.  Transitive: any resolvable callee does
    (``CommitCert.verify`` counting its signers credits every caller) —
    mirroring how the flow stage's ``performs_verify`` telescopes.
    """
    callees = {key: [c.key for c in graph.calls(walker.fn).values()]
               for key, walker in walkers.items()}
    performs = fixpoint(
        walkers, callees,
        start=lambda key: False,
        transfer=lambda key, facts: walkers[key].has_direct_quorum_gate()
        or any(facts.get(callee) for callee in callees[key]),
        join=lambda old, new: old or new,
    )
    return frozenset(key for key, performer in performs.items() if performer)


def _propagate_raises(
    flow: FlowAnalysis, functions: dict[str, SmFunction]
) -> dict[str, list[RaiseFact]]:
    """Which raise facts can escape each function, solved over call sites.

    A callee's fact is discharged at a call site when the surrounding
    ``try`` catches the exception, or when the fact is guard-conditional
    (only reachable on verification failure) and the site runs in
    verified state.  Dispatch roots keep whatever survives.
    """
    def escaping(key: str, facts: dict[str, frozenset[RaiseFact]]) -> frozenset[RaiseFact]:
        merged = set(functions[key].raises)
        for site in functions[key].call_sites:
            for fact in facts.get(site.callee, ()):
                if fact.exc in site.caught or site.caught & _CATCH_ALL:
                    continue
                if fact.guard_conditional and site.guarded:
                    continue
                merged.add(fact)
        return frozenset(merged)

    facts = fixpoint(
        functions,
        {key: [site.callee for site in fn.call_sites] for key, fn in functions.items()},
        start=lambda key: frozenset(),
        transfer=escaping,
        join=frozenset.union,
    )
    escapes: dict[str, list[RaiseFact]] = {}
    for root in sorted(flow.dispatchers):
        fn = functions.get(root)
        if fn is None or not fn.fn.module.startswith(RAISE_ORIGIN_PREFIXES):
            continue
        relevant = [
            fact for fact in facts.get(root, frozenset())
            if _origin_module(fact, functions).startswith(RAISE_ORIGIN_PREFIXES)
        ]
        if relevant:
            # One fact per (exception, origin): the first raise line.
            unique: dict[tuple[str, str], RaiseFact] = {}
            for fact in sorted(relevant, key=lambda f: (f.lineno, f.guard_conditional)):
                unique.setdefault((fact.exc, fact.origin), fact)
            escapes[root] = [unique[k] for k in sorted(unique)]
    return escapes


def _origin_module(fact: RaiseFact, functions: dict[str, SmFunction]) -> str:
    origin = functions.get(fact.origin)
    return origin.fn.module if origin is not None else ""
