"""SM001–SM006 — protocol state-machine & quorum-safety rules.

* **SM001** quorum-threshold provenance: a comparison gating a
  vote/prepare/commit/checkpoint set must flow from ``config.quorum`` /
  ``prepared_quorum`` / ``f``-derived expressions.  Raw integer literals,
  off-by-one ``>= f`` where ``f+1`` is meant, and locally re-derived
  ``2*f`` arithmetic bypassing ``BftConfig`` are flagged.
* **SM002** signer-set dedup: quorum counts must be over deduplicated
  signer ids; ``len(list)`` counting that admits duplicate votes from one
  replica is flagged.
* **SM003** phase-transition safety: phase flags (``prepared``,
  ``committed``, ``certified``) may only flip behind the matching quorum
  check — in-function or at every resolvable call site (telescoping with
  FLOW002's verify-before-mutate).
* **SM004** view/seq monotonicity: assignments to view/sequence state
  must be provably non-decreasing or sit on a view-change/state-sync
  sanctioned path.
* **SM005** integer-kind confusion: a lightweight kind lattice (seq vs
  view vs node-id vs wire-tag vs height) flags cross-kind comparison and
  additive arithmetic.
* **SM006** handler exception-escape: exceptions that can propagate out
  of an isinstance-dispatch path wedge the node on Byzantine input —
  the dual of PROTO003's swallowed-exception check.

All six anchor findings to structural identities (function key plus the
gate/attr/exception involved) so fingerprints survive line insertion and
file reordering.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.engine import Finding, Project, Rule, register_rule
from repro.lint.sm.facts import (
    SM_PREFIXES,
    SmAnalysis,
    _SANCTIONED_FN_RE,
    sm_analysis,
)


def _scoped(analysis: SmAnalysis):
    for key in sorted(analysis.functions):
        facts = analysis.functions[key]
        if facts.fn.module.startswith(SM_PREFIXES):
            yield facts


def _is_quorum_gate(gate) -> bool:
    """The comparison is (at least trying to be) a quorum decision."""
    if not gate.counted.voteish:
        return False
    threshold = gate.threshold
    if threshold.kind in ("quorum", "f_plus", "bare_f", "derived"):
        return True
    return threshold.kind == "literal" and (threshold.value or 0) >= 2


@register_rule
class QuorumProvenanceRule(Rule):
    code = "SM001"
    name = "quorum-threshold-provenance"
    description = (
        "a comparison gating a vote/prepare/commit/checkpoint set does not "
        "flow from config.quorum/prepared_quorum/f-derived expressions — "
        "raw literals, off-by-one >= f, or locally re-derived 2*f "
        "arithmetic silently weakens BFT safety"
    )
    scope = "project"
    stage = "sm"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = sm_analysis(project)
        for facts in _scoped(analysis):
            fn = facts.fn
            for gate in facts.gates:
                if not gate.counted.voteish:
                    continue
                problem = self._problem(gate)
                if problem is None:
                    continue
                yield Finding(
                    code=self.code,
                    message=(
                        f"quorum gate in {fn.key} compares "
                        f"{gate.counted.label} {gate.op} "
                        f"{gate.threshold.label}: {problem}"
                    ),
                    path=fn.path,
                    line=gate.lineno,
                    col=gate.col,
                    anchor=f"{fn.key}#{gate.counted.label}{gate.op}{gate.threshold.label}",
                )

    @staticmethod
    def _problem(gate) -> str | None:
        threshold = gate.threshold
        if threshold.kind == "literal" and (threshold.value or 0) >= 2:
            return (
                "raw integer literal instead of a BftConfig-derived "
                "threshold; the bound silently diverges when n or f change"
            )
        if threshold.kind == "bare_f" and gate.op in (">=", "<"):
            return (
                "off-by-one against the bare fault bound f — f matching "
                "messages may all come from faulty replicas; f+1 is the "
                "smallest set guaranteed to contain a correct one"
            )
        if threshold.kind == "derived" and not gate.in_config:
            return (
                "locally re-derived quorum arithmetic bypasses BftConfig; "
                "use config.quorum/prepared_quorum so every site agrees"
            )
        return None


@register_rule
class SignerDedupRule(Rule):
    code = "SM002"
    name = "signer-set-dedup"
    description = (
        "a quorum decision counts a duplicable sequence (list/tuple) "
        "rather than a deduplicated signer set — one replica voting twice "
        "counts twice, so f faulty replicas can fake a quorum"
    )
    scope = "project"
    stage = "sm"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = sm_analysis(project)
        for facts in _scoped(analysis):
            fn = facts.fn
            for gate in facts.gates:
                if not _is_quorum_gate(gate):
                    continue
                if gate.counted.dedup != "duplicable":
                    continue
                yield Finding(
                    code=self.code,
                    message=(
                        f"quorum count in {fn.key} measures "
                        f"len({gate.counted.label}) over a list/tuple that "
                        "admits duplicate votes — count distinct signer ids "
                        "(set or per-sender dict) instead"
                    ),
                    path=fn.path,
                    line=gate.lineno,
                    col=gate.col,
                    anchor=f"{fn.key}#dedup:{gate.counted.label}",
                )


@register_rule
class PhaseTransitionRule(Rule):
    code = "SM003"
    name = "phase-transition-safety"
    description = (
        "a protocol phase flag (prepared/committed/certified) flips "
        "without the matching quorum check dominating it, in-function or "
        "at every resolvable call site — the replica advances phase on "
        "insufficient evidence"
    )
    scope = "project"
    stage = "sm"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = sm_analysis(project)
        for facts in _scoped(analysis):
            fn = facts.fn
            unguarded = [ps for ps in facts.phase_sets if not ps.guarded]
            if not unguarded:
                continue
            sites = analysis.reverse_calls.get(fn.key, [])
            is_root = fn.key in analysis.flow.dispatchers
            if not is_root:
                if sites and all(site.quorum_guarded for site in sites):
                    continue  # every caller ran the quorum check first
                if not sites:
                    continue  # opaque callers: stay silent, not wrong
            for ps in unguarded:
                yield Finding(
                    code=self.code,
                    message=(
                        f"{fn.key} sets .{ps.attr} = True without a "
                        "dominating quorum check"
                        + ("" if is_root else
                           " and at least one call site is unguarded")
                        + " — gate the transition on the matching "
                        "config.quorum comparison"
                    ),
                    path=fn.path,
                    line=ps.lineno,
                    col=ps.col,
                    anchor=f"{fn.key}#phase:{ps.attr}",
                )


@register_rule
class MonotonicityRule(Rule):
    code = "SM004"
    name = "view-seq-monotonicity"
    description = (
        "view/sequence state is assigned a value not provably "
        "non-decreasing, outside any view-change/state-sync sanctioned "
        "path — a replayed or Byzantine message could rewind the replica"
    )
    scope = "project"
    stage = "sm"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = sm_analysis(project)
        for facts in _scoped(analysis):
            fn = facts.fn
            if _SANCTIONED_FN_RE.search(fn.name):
                continue
            unproved = [ev for ev in facts.mono_events if not ev.proved]
            if not unproved:
                continue
            is_root = fn.key in analysis.flow.dispatchers
            sites = analysis.reverse_calls.get(fn.key, [])
            for ev in unproved:
                if not is_root:
                    if not sites:
                        continue  # opaque callers: stay silent
                    if all(ev.attr in site.compare_attrs for site in sites):
                        continue  # every caller compares the counter first
                yield Finding(
                    code=self.code,
                    message=(
                        f"{fn.key} assigns self.{ev.attr} a value not "
                        "provably >= its current value; guard with a "
                        "comparison or use max(), or move the write onto a "
                        "view-change/state-sync path"
                    ),
                    path=fn.path,
                    line=ev.lineno,
                    col=ev.col,
                    anchor=f"{fn.key}#mono:{ev.attr}",
                )


@register_rule
class KindConfusionRule(Rule):
    code = "SM005"
    name = "integer-kind-confusion"
    description = (
        "cross-kind integer comparison or arithmetic (seq vs view vs "
        "node-id vs wire-tag vs height) — the interpreter can't catch it, "
        "and such confusions silently corrupt protocol decisions"
    )
    scope = "project"
    stage = "sm"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = sm_analysis(project)
        for facts in _scoped(analysis):
            fn = facts.fn
            for conflict in facts.kind_conflicts:
                yield Finding(
                    code=self.code,
                    message=(
                        f"{fn.key} mixes integer kinds in a "
                        f"{conflict.operation}: {conflict.left} is "
                        f"{conflict.kinds[0]}-kinded but {conflict.right} "
                        f"is {conflict.kinds[1]}-kinded"
                    ),
                    path=fn.path,
                    line=conflict.lineno,
                    col=conflict.col,
                    anchor=f"{fn.key}#kind:{conflict.left}:{conflict.right}",
                )


@register_rule
class HandlerEscapeRule(Rule):
    code = "SM006"
    name = "handler-exception-escape"
    description = (
        "an exception raised on the message path can propagate out of an "
        "isinstance-dispatch handler — one malformed or Byzantine message "
        "wedges the whole node; catch it at the dispatch boundary and "
        "count it instead"
    )
    scope = "project"
    stage = "sm"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analysis = sm_analysis(project)
        for root in sorted(analysis.escapes):
            facts = analysis.functions[root]
            fn = facts.fn
            for fact in analysis.escapes[root]:
                origin = analysis.functions.get(fact.origin)
                origin_line = fact.lineno
                where = (
                    f"{fact.origin} (line {origin_line})"
                    if origin is not None else fact.origin
                )
                yield Finding(
                    code=self.code,
                    message=(
                        f"{fact.exc} raised in {where} can escape the "
                        f"dispatch path {fn.key} — a hostile message "
                        "crashes the node instead of being counted and "
                        "dropped"
                    ),
                    path=fn.path,
                    line=fn.node.lineno,
                    col=fn.node.col_offset,
                    anchor=f"{fn.key}#{fact.exc}@{fact.origin}",
                )
