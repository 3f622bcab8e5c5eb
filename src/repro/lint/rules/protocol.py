"""PROTO00x — protocol-safety rules.

Replicated-state-machine deployments fail less from clever Byzantine
attacks than from mundane serialization gaps: a message type that was
never registered, two types silently sharing a wire tag, a handler that
swallows a decode error and desynchronizes one replica.  These rules
cross-check the codec surface (`repro.wire.registry`) against the message
modules so those gaps fail the build instead of a night run.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.astutil import enclosing_function, terminal_name
from repro.lint.engine import FileContext, Finding, Project, Rule, register_rule

#: What makes a class a wire codec: a dataclass under one of these bases of
#: ``repro.wire.codec`` (directly, or through another codec class).  Its field
#: list is its wire layout, so there is no method to look for.
CODEC_BASES = frozenset({"WireStruct", "SignedStruct"})

#: Modules whose codec classes must be registered with the wire envelope
#: registry.
_MESSAGE_MODULE_RE = re.compile(r"^repro\.(bft|core|export|wire)\.messages$")

#: The canonical tag table and the registration entry point.
_TAG_TABLE_NAME = "WIRE_TAGS"
_REGISTER_FUNC = "register_message_type"

_HANDLER_NAME_RE = re.compile(r"^(on_|_on_|handle_|_handle_?)|receive|deliver|dispatch")

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque", "OrderedDict"}


def is_dataclass_def(node: ast.ClassDef) -> bool:
    return any(
        terminal_name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
        for dec in node.decorator_list
    )


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


def _dict_table_entries(value: ast.Dict) -> list[tuple[int | None, str, int]]:
    entries: list[tuple[int | None, str, int]] = []
    for key, val in zip(value.keys, value.values):
        tag = key.value if isinstance(key, ast.Constant) and isinstance(key.value, int) else None
        name = terminal_name(val)
        if name is not None:
            entries.append((tag, name, (key or val).lineno))
    return entries


def _items_receiver(node: ast.expr) -> str | None:
    """Name ``T`` when ``node`` is the expression ``T.items()``."""
    if (
        isinstance(node, ast.Call)
        and not node.args
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "items"
        and isinstance(node.func.value, ast.Name)
    ):
        return node.func.value.id
    return None


def _iter_table_names(node: ast.expr) -> list[str]:
    """Module-level table names a registration loop iterates over.

    Understands ``TABLE.items()`` (dict tables), bare ``TABLE`` sequence
    iteration, and the computed-tag idioms ``enumerate(TABLE, start=...)``
    and ``zip(TAGS, CLASSES)``.
    """
    receiver = _items_receiver(node)
    if receiver is not None:
        return [receiver]
    if isinstance(node, ast.Name):
        return [node.id]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("enumerate", "zip")
    ):
        return [arg.id for arg in node.args if isinstance(arg, ast.Name)]
    return []


def _registration_driven_tables(tree: ast.Module) -> tuple[set[str], set[int]]:
    """Tables consumed by a ``register_message_type`` loop/comprehension.

    Recognizes the driven-registration idioms::

        for tag, cls in TABLE.items():
            register_message_type(tag, cls)

        for offset, cls in enumerate(MESSAGE_TYPES):
            register_message_type(BASE_TAG + offset, cls)

        for tag, cls in zip(TAGS, MESSAGE_TYPES):
            register_message_type(tag, cls)

    and their comprehension forms, for *any* table name.  A table that is
    merely defined but never fed to the registrar yields no facts (no junk
    entries from unrelated dicts of classes).  Returns the consumed table
    names plus the ids of the register calls inside those loops, so the
    direct-call scan does not re-yield them with loop-variable "classes".
    """
    consumed: set[str] = set()
    driven_calls: set[int] = set()

    def _register_calls(node: ast.AST) -> list[ast.Call]:
        return [
            sub for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and terminal_name(sub.func) == _REGISTER_FUNC
        ]

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            tables = _iter_table_names(node.iter)
            if not tables:
                continue
            calls = [call for stmt in node.body for call in _register_calls(stmt)]
            if calls:
                consumed.update(tables)
                driven_calls.update(id(call) for call in calls)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            calls = _register_calls(node.elt)
            if not calls:
                continue
            for gen in node.generators:
                tables = _iter_table_names(gen.iter)
                if tables:
                    consumed.update(tables)
                    driven_calls.update(id(call) for call in calls)
    return consumed, driven_calls


def _registrations(ctx: FileContext) -> Iterator[tuple[int | None, str, int]]:
    """Yield ``(tag, class_name, lineno)`` registration facts in one file.

    Facts come from three statically visible shapes:

    - the canonical literal ``WIRE_TAGS = {tag: Class}`` table,
    - any dict-literal table consumed by a ``register_message_type``
      loop or comprehension over ``TABLE.items()``,
    - list/tuple class tables fed through ``enumerate``/``zip``/plain
      iteration into the registrar — the tags are computed at runtime, so
      these yield ``tag=None`` (registered, tag value unknown),
    - direct ``register_message_type(tag, Class)`` calls.

    Registrations computed beyond that (tags from expressions, classes
    behind aliases) are invisible to static analysis and intentionally
    ignored.
    """
    driven, driven_calls = _registration_driven_tables(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if isinstance(node.value, ast.Dict):
                if _TAG_TABLE_NAME in targets or any(t in driven for t in targets):
                    yield from _dict_table_entries(node.value)
            elif isinstance(node.value, (ast.List, ast.Tuple, ast.Set)):
                if any(t in driven for t in targets):
                    for elt in node.value.elts:
                        name = terminal_name(elt)
                        if name is not None:
                            yield None, name, elt.lineno
        elif isinstance(node, ast.Call) and id(node) not in driven_calls:
            callee = terminal_name(node.func)
            if callee == _REGISTER_FUNC and len(node.args) >= 2:
                tag_node, cls_node = node.args[0], node.args[1]
                tag = tag_node.value if isinstance(tag_node, ast.Constant) and isinstance(tag_node.value, int) else None
                name = terminal_name(cls_node)
                if name is not None:
                    yield tag, name, node.lineno


@register_rule
class UnregisteredCodecRule(Rule):
    code = "PROTO001"
    name = "unregistered-codec"
    description = (
        "a WireStruct dataclass in a repro.*.messages module that is never "
        "registered with register_message_type — it cannot cross a process "
        "boundary and silently escapes round-trip tests"
    )
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Finding]:
        registered: set[str] = set()
        saw_registry = False
        for ctx in project.files:
            for _tag, name, _line in _registrations(ctx):
                registered.add(name)
                saw_registry = True
        if not saw_registry:
            # Single-file invocations can't see wire/tags.py; stay silent
            # rather than flag every message class in sight.
            return
        for ctx in project.files:
            if not _MESSAGE_MODULE_RE.match(ctx.module):
                continue
            for cls in _codec_classes(ctx):
                if cls.name not in registered:
                    yield Finding(
                        code=self.code,
                        message=(
                            f"codec class {cls.name} is a WireStruct dataclass but is never "
                            "passed to register_message_type (wire/tags.py)"
                        ),
                        path=ctx.path,
                        line=cls.lineno,
                        col=cls.col_offset,
                    )


@register_rule
class DuplicateWireTagRule(Rule):
    code = "PROTO002"
    name = "duplicate-wire-tag"
    description = (
        "the same wire tag statically assigned to two different classes "
        "(across WIRE_TAGS tables and register_message_type calls)"
    )
    scope = "project"

    def check_project(self, project: Project) -> Iterator[Finding]:
        first_owner: dict[int, tuple[str, str, int]] = {}
        for ctx in project.files:
            for tag, name, lineno in _registrations(ctx):
                if tag is None:
                    continue
                owner = first_owner.get(tag)
                if owner is None:
                    first_owner[tag] = (name, ctx.path, lineno)
                elif owner[0] != name:
                    yield Finding(
                        code=self.code,
                        message=(
                            f"wire tag {tag} assigned to {name} but already owned by "
                            f"{owner[0]} ({owner[1]}:{owner[2]}); tags are stable API"
                        ),
                        path=ctx.path,
                        line=lineno,
                        col=0,
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
