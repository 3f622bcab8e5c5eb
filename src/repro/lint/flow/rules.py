"""FLOW001–FLOW003 — interprocedural rules built on the flow analysis.

* **FLOW001** nondeterminism taint: wall-clock / ambient-RNG / ``id()`` /
  set-iteration-order values reaching hash, codec, emission, or
  replica-state sinks through any call depth — the interprocedural
  closure of DET001–DET004.
* **FLOW002** verify-before-mutate: a dispatcher-fed handler path that
  writes protocol state before the message's ``verify(...)`` /
  ``is_member(...)`` guards (must-analysis; cf. the guard idiom in
  ``repro.bft.core.ReplicaCore._on_preprepare``).
* **FLOW003** handler coverage: every registered wire tag is reachable
  from some backend's dispatch set (directly or as a field of a
  dispatched struct), and every dispatched codec class has a wire tag —
  the cross-module dual of PROTO001.

All three set :attr:`Finding.anchor` to a structural identity (function
key or class name) so fingerprints survive unrelated-line insertion and
file reordering.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.engine import Finding, Project, Rule, register_rule
from repro.lint.flow.callgraph import CallGraph, build_call_graph, type_tests
from repro.lint.flow.summaries import (
    flow_analysis,
    gate_violations,
    taint_exempt_module,
    taint_findings,
)
from repro.lint.flow.walk import body_nodes
from repro.lint.rules.protocol import _HANDLER_NAME_RE, wire_tag

_MESSAGE_TYPES_RE = re.compile(r"MESSAGE_TYPES")


@register_rule
class InterproceduralTaintRule(Rule):
    code = "FLOW001"
    name = "nondeterminism-taint"
    description = (
        "a wall-clock, ambient-RNG, id(), or set-iteration-order value "
        "flows (through any call depth) into a hash, codec, emission, or "
        "replica-state sink — replicas would diverge on identical input"
    )
    scope = "project"
    stage = "flow"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = flow_analysis(project)
        for key in sorted(analysis.graph.functions):
            fn = analysis.graph.functions[key]
            if not fn.module.startswith("repro.") or taint_exempt_module(fn.module):
                continue
            for found in taint_findings(analysis, fn):
                yield Finding(
                    code=self.code,
                    message=f"{found.message} (in {fn.key})",
                    path=fn.path,
                    line=getattr(found.node, "lineno", fn.node.lineno),
                    col=getattr(found.node, "col_offset", 0),
                    anchor=f"{fn.key}#{found.sink}",
                )


@register_rule
class VerifyBeforeMutateRule(Rule):
    code = "FLOW002"
    name = "verify-before-mutate"
    description = (
        "a handler reachable from a message dispatcher mutates protocol "
        "state before any verify()/is_member() guard has run — unverified "
        "input can corrupt replica, chain, or export state"
    )
    scope = "project"
    stage = "flow"

    #: Packages holding protocol state machines; runtime/sim/obs mutate
    #: their own bookkeeping freely and are out of scope.
    _PREFIXES = ("repro.bft", "repro.core", "repro.export", "repro.chain", "repro.wire")

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = flow_analysis(project)
        for key in sorted(analysis.entry_points):
            fn = analysis.graph.functions.get(key)
            if fn is None or not fn.module.startswith(self._PREFIXES):
                continue
            for violation in gate_violations(analysis, fn):
                yield Finding(
                    code=self.code,
                    message=(
                        f"handler {fn.key} {violation.message}; run the "
                        "signature/membership checks first"
                    ),
                    path=fn.path,
                    line=getattr(violation.node, "lineno", fn.node.lineno),
                    col=getattr(violation.node, "col_offset", 0),
                    anchor=f"{fn.key}#{violation.target}",
                )


def _consumed_classes(project: Project, graph: CallGraph) -> dict[str, tuple[str, int]]:
    """Class keys dispatched on, mapped to (path, line) of first evidence.

    Evidence is a ``*MESSAGE_TYPES*`` tuple or a type test
    (:func:`~repro.lint.flow.callgraph.type_tests`: ``isinstance`` or the
    ``kind is T`` idiom) in a handler-named function.
    """
    consumed: dict[str, tuple[str, int]] = {}

    def note(class_key: str | None, ctx_path: str, lineno: int) -> None:
        if class_key is not None and class_key not in consumed:
            consumed[class_key] = (ctx_path, lineno)

    for ctx in project.files:
        if not ctx.module.startswith("repro."):
            continue
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                names = [
                    t.id if isinstance(t, ast.Name) else t.attr
                    for t in node.targets
                    if isinstance(t, (ast.Name, ast.Attribute))
                ]
                if not any(_MESSAGE_TYPES_RE.search(n) for n in names):
                    continue
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    for element in node.value.elts:
                        if isinstance(element, ast.Name):
                            note(graph.resolve_class(ctx.module, element.id),
                                 ctx.path, element.lineno)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _HANDLER_NAME_RE.search(node.name)):
                # Only type tests inside handler-named functions count.
                for _name, types in type_tests(body_nodes(node)):
                    for element in types:
                        if isinstance(element, ast.Name):
                            note(graph.resolve_class(ctx.module, element.id),
                                 ctx.path, element.lineno)
    return consumed


def _field_closure(graph: CallGraph, roots: set[str]) -> set[str]:
    """Classes reachable from ``roots`` through codec field annotations.

    ``StateReply.blocks: tuple[Block, ...]`` makes ``Block`` reachable: the
    derived reader builds one per item, so its tag is justified even though
    no dispatcher tests ``isinstance(msg, Block)``.
    """
    reachable = set(roots)
    worklist = list(roots)
    while worklist:
        cls = graph.classes.get(worklist.pop())
        if cls is None or cls.key not in graph.codec_classes:
            continue
        for base in cls.base_names:  # inherited fields are fields too
            inherited = graph.resolve_class(cls.module, base)
            if inherited is not None and inherited not in reachable:
                worklist.append(inherited)
        for stmt in cls.node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            for node in ast.walk(stmt.annotation):
                if not isinstance(node, ast.Name):
                    continue
                target = graph.resolve_class(cls.module, node.id)
                if target in graph.codec_classes and target not in reachable:
                    reachable.add(target)
                    worklist.append(target)
    return reachable


@register_rule
class HandlerCoverageRule(Rule):
    code = "FLOW003"
    name = "handler-coverage"
    description = (
        "wire-registry/dispatch mismatch: a codec class some handler "
        "dispatches on has no wire tag (it cannot arrive off the wire), or "
        "a registered tag is unreachable from every dispatch set and "
        "the fields of what it dispatches (dead tag, or a missing handler branch)"
    )
    scope = "project"
    stage = "flow"

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = build_call_graph(project)
        registered = {key: cls for key, cls in graph.classes.items()
                      if cls.module.startswith("repro.") and wire_tag(cls.node) is not None}
        consumed = _consumed_classes(project, graph)
        if not registered or not consumed:
            # Partial invocations (single files, synthetic crates without a
            # tagged class) can't make coverage claims; stay silent.
            return

        for class_key in sorted(consumed):
            if class_key not in graph.codec_classes:
                continue
            if class_key in registered:
                continue
            cls = graph.classes[class_key]
            path, line = consumed[class_key]
            yield Finding(
                code=self.code,
                message=(
                    f"handler dispatches on {cls.name} ({cls.module}) but it is "
                    "never registered with a wire tag — it can never arrive "
                    "off the wire"
                ),
                path=path,
                line=line,
                anchor=f"dispatched-unregistered:{cls.module}.{cls.name}",
            )

        reachable = _field_closure(graph, set(consumed))
        for class_key in sorted(registered):
            if class_key in reachable:
                continue
            cls = registered[class_key]
            tag = wire_tag(cls.node)
            tag_text = (f"tag {tag.value}" if isinstance(tag, ast.Constant)
                        and isinstance(tag.value, int) else "a wire tag")
            yield Finding(
                code=self.code,
                message=(
                    f"{tag_text} registers {cls.name} but no dispatcher tests for it "
                    "and no dispatched struct has it as a field — dead tag or "
                    "missing handler branch"
                ),
                path=cls.path,
                line=cls.node.lineno,
                anchor=f"registered-unreachable:{cls.name}",
            )
