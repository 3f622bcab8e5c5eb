"""PROTO00x — protocol-safety rules.

Replicated-state-machine deployments fail less from clever Byzantine
attacks than from mundane serialization gaps: a message type that has no
wire tag, a handler that swallows a decode error and desynchronizes one
replica.  These rules catch those gaps at build time instead of a night run.
Two classes sharing a tag needs no rule: the second class statement raises
``CodecError`` when its module is imported.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.astutil import enclosing_function, terminal_name
from repro.lint.engine import FileContext, Finding, Rule, register_rule

#: What makes a class a wire codec: a dataclass under one of these bases of
#: ``repro.wire.codec`` (directly, or through another codec class).  Its field
#: list is its wire layout, so there is no method to look for.
CODEC_BASES = frozenset({"WireStruct", "SignedStruct"})

#: Modules whose codec classes are messages, so must carry a wire tag.
_MESSAGE_MODULE_RE = re.compile(r"^repro\.(bft|core|export|wire)\.messages$")

_HANDLER_NAME_RE = re.compile(r"^(on_|_on_|handle_|_handle_?)|receive|deliver|dispatch")

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque", "OrderedDict"}


def is_dataclass_def(node: ast.ClassDef) -> bool:
    return any(
        terminal_name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
        for dec in node.decorator_list
    )


def wire_tag(node: ast.ClassDef) -> ast.expr | None:
    """The ``tag=`` keyword of a class statement: ``class Ping(WireStruct, tag=7)``."""
    return next((keyword.value for keyword in node.keywords if keyword.arg == "tag"), None)


def _codec_classes(ctx: FileContext) -> Iterator[ast.ClassDef]:
    """Public dataclasses under a codec base, or under a codec class above them."""
    codecs = set(CODEC_BASES)
    for node in ctx.tree.body:
        if not isinstance(node, ast.ClassDef) or not is_dataclass_def(node):
            continue
        if codecs.isdisjoint(terminal_name(base) for base in node.bases):
            continue
        codecs.add(node.name)
        if not node.name.startswith("_"):
            yield node


@register_rule
class UnregisteredCodecRule(Rule):
    code = "PROTO001"
    name = "unregistered-codec"
    description = (
        "a WireStruct dataclass in a repro.*.messages module whose class "
        "statement declares no wire tag — it cannot cross a process "
        "boundary and silently escapes round-trip tests"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not _MESSAGE_MODULE_RE.match(ctx.module):
            return
        for cls in _codec_classes(ctx):
            if wire_tag(cls) is None:
                yield Finding(
                    code=self.code,
                    message=(
                        f"codec class {cls.name} is a WireStruct dataclass but declares "
                        f"no wire tag (class {cls.name}(..., tag=N))"
                    ),
                    path=ctx.path,
                    line=cls.lineno,
                    col=cls.col_offset,
                )


def _is_trivial_body(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


@register_rule
class SwallowedExceptionRule(Rule):
    code = "PROTO003"
    name = "swallowed-exception"
    description = (
        "bare except, or except Exception with an empty body — in a message "
        "handler this turns a decode/verify failure into silent replica "
        "divergence"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield Finding(
                    code=self.code,
                    message="bare except catches everything including KeyboardInterrupt; name the exception",
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                )
                continue
            broad = terminal_name(node.type) in ("Exception", "BaseException")
            if broad and _is_trivial_body(node.body):
                func = enclosing_function(node, ctx.parents)
                where = (
                    f"in handler {func.name}()"
                    if func is not None and _HANDLER_NAME_RE.search(func.name)
                    else "here"
                )
                yield Finding(
                    code=self.code,
                    message=(
                        f"except {terminal_name(node.type)}: pass {where} swallows failures "
                        "silently; log, re-raise, or narrow the exception"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                )


@register_rule
class MutableDefaultRule(Rule):
    code = "PROTO004"
    name = "mutable-default"
    description = (
        "mutable default argument ([], {}, set(), ...) — shared across calls, "
        "a classic source of state bleeding between nodes in one process"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is None:
                    continue
                mutable = isinstance(
                    default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
                ) or (
                    isinstance(default, ast.Call)
                    and terminal_name(default.func) in _MUTABLE_CONSTRUCTORS
                )
                if mutable:
                    yield Finding(
                        code=self.code,
                        message=(
                            "mutable default argument is evaluated once and shared "
                            "across calls; default to None and create inside"
                        ),
                        path=ctx.path,
                        line=default.lineno,
                        col=default.col_offset,
                    )
