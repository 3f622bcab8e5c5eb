"""The one statement walker and the one fixpoint behind the flow, aio and sm stages.

* :func:`body_nodes` walks a function's own nodes and never enters a
  nested def or lambda.
* :class:`StatementWalker` is the branch-sensitive skeleton.  It owns
  control flow — statement dispatch, exits, and the joins after
  ``if``/``else``, loops, ``try`` and ``with`` — and a subclass supplies
  only its state and transfer hooks.
* :func:`fixpoint` solves per-function facts over the call graph,
  callees first.  A function is re-walked only when a callee's fact
  changed, and each new fact is joined with the old one, so facts only
  grow and the loop ends when no fact changes.
"""

from __future__ import annotations

import ast
import heapq
from typing import Iterator

_LAMBDA_OR_DEF = (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_EXITS = (ast.Return, ast.Raise, ast.Break, ast.Continue)
_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_WITHS = (ast.With, ast.AsyncWith)


def body_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into lambdas or nested defs."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if not isinstance(child, _LAMBDA_OR_DEF):
                stack.append(child)


class StatementWalker:
    """Branch-sensitive walk of one function body.

    A *must* walker (the default) follows each path to its end: a
    ``return``, ``raise``, ``break`` or ``continue`` ends the path, a loop
    or ``try`` body is taken to run to completion, and only the paths
    that reach a point join there.  A *may* walker (``MAY = True``) keeps
    every path prefix: an exit does not end the walk, a loop may run zero
    times and a ``try`` body may stop anywhere, so the state from before
    such a body joins the state after it.

    Hooks (all but :meth:`join` default to passing the state through):

    * :meth:`fork` copies a state that two paths start from;
    * :meth:`join` merges the states of two paths that meet;
    * :meth:`enter` / :meth:`leave` bracket the blocks of a compound
      statement: ``enter`` evaluates its head (an ``if``/``while`` test, a
      ``for`` iterable, ``with`` items) and returns the state the guarded
      blocks start from;
    * :meth:`iterate` runs before each pass over a loop body (binding the
      ``for`` target);
    * :meth:`simple` handles every other statement, exits included.
    """

    MAY = False
    #: Walks over each loop body per visit; two expose loop-carried facts.
    LOOP_PASSES = 1

    def fork(self, state):
        return state

    def join(self, first, second):
        raise NotImplementedError

    def enter(self, stmt: ast.stmt, state):
        return state

    def leave(self, stmt: ast.stmt, state):
        return state

    def iterate(self, loop: ast.stmt, state):
        return state

    def simple(self, stmt: ast.stmt, state):
        return state

    # -- skeleton ----------------------------------------------------------------

    def block(self, stmts: list[ast.stmt], state) -> tuple[object, bool]:
        """Walk ``stmts``; returns (state after, whether the path ended)."""
        for stmt in stmts:
            state, ended = self.stmt(stmt, state)
            if ended:
                return state, True
        return state, False

    def stmt(self, stmt: ast.stmt, state) -> tuple[object, bool]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, state)
        if isinstance(stmt, _LOOPS):
            return self._loop(stmt, state), False
        if isinstance(stmt, ast.Try):
            return self._try(stmt, state)
        if isinstance(stmt, _WITHS):
            state, ended = self.block(stmt.body, self.enter(stmt, state))
            return self.leave(stmt, state), ended
        if isinstance(stmt, _NESTED):
            return state, False
        return self.simple(stmt, state), not self.MAY and isinstance(stmt, _EXITS)

    def _if(self, stmt: ast.If, state) -> tuple[object, bool]:
        branch = self.enter(stmt, state)
        body, body_ended = self.block(stmt.body, self.fork(branch))
        orelse, else_ended = self.block(stmt.orelse, self.fork(branch))
        ended = body_ended and else_ended
        if ended:
            state = branch
        elif body_ended:
            state = orelse
        elif else_ended:
            state = body
        else:
            state = self.join(body, orelse)
        return self.leave(stmt, state), ended

    def _loop(self, stmt: ast.For | ast.AsyncFor | ast.While, state):
        start = self.enter(stmt, state)
        after = self.fork(start)
        for _ in range(self.LOOP_PASSES):
            after, _ = self.block(stmt.body, self.iterate(stmt, after))
        after = self.leave(stmt, after)
        if self.MAY:
            after = self.join(after, start)
        return self.block(stmt.orelse, after)[0]

    def _try(self, stmt: ast.Try, state) -> tuple[object, bool]:
        body, _ = self.block(stmt.body, self.enter(stmt, self.fork(state)))
        body = self.leave(stmt, body)
        if self.MAY:
            # The body may stop anywhere, so a handler and what follows the
            # try see the state from before it as well as after it.
            merged = self.join(state, body)
            for handler in stmt.handlers:
                merged = self.join(merged, self.block(handler.body, self.fork(merged))[0])
            merged = self.join(merged, self.block(stmt.orelse, self.fork(body))[0])
        else:
            exits = [self.block(handler.body, self.fork(state))[0] for handler in stmt.handlers]
            merged = self.block(stmt.orelse, body)[0]
            for handled in exits:
                merged = self.join(merged, handled)
        final, ended = self.block(stmt.finalbody, merged)
        return final, ended and bool(stmt.finalbody)


def fixpoint(keys, callees, start, transfer, join) -> dict:
    """Per-function facts over the call graph, grown until none changes.

    ``transfer(key, facts)`` computes one function's fact from its
    callees' current facts, and ``join(old, new)`` merges it into the old
    one; ``join`` must grow facts in a finite lattice.  The worklist always
    takes the pending function earliest in a callees-first DFS post-order,
    so a function outside any cycle is walked exactly once, with its
    callees final, and a cycle settles before any caller outside it runs.
    A function is walked again only when a callee's fact changed.
    """
    facts = {key: start(key) for key in keys}
    edges = {key: [callee for callee in callees[key] if callee in facts] for key in facts}
    callers: dict = {key: set() for key in facts}
    for key, targets in edges.items():
        for callee in targets:
            callers[callee].add(key)
    rank = _postorder(edges)
    work = sorted((rank[key], key) for key in facts)
    queued = set(facts)
    while work:
        _, key = heapq.heappop(work)
        queued.discard(key)
        new = join(facts[key], transfer(key, facts))
        if new != facts[key]:
            facts[key] = new
            for caller in callers[key] - queued:
                heapq.heappush(work, (rank[caller], caller))
                queued.add(caller)
    return facts


def _postorder(edges: dict) -> dict:
    """Each key's position in a DFS post-order over ``edges`` (callees first)."""
    rank: dict = {}
    seen: set = set()
    for root in sorted(edges):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(edges[root]))]
        while stack:
            node, todo = stack[-1]
            for callee in todo:
                if callee not in seen:
                    seen.add(callee)
                    stack.append((callee, iter(edges[callee])))
                    break
            else:
                stack.pop()
                rank[node] = len(rank)
    return rank
