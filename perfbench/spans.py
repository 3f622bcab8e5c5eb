"""Span recording from the benchmark's own files.

A span is the list ``[id, parent, layer, name, start, end, digest]``:
``id`` is its index in the recorder, ``parent`` the id of the span that
was open when it began (-1 at the top), ``digest`` the hex request digest
when the call carries one, so spans of one request share an identifier.
Spans stay in memory until :func:`write_jsonl`.

:func:`patched` installs wrappers on class (or module) attributes for the
duration of one traced repeat and puts the original objects back, also
when the repeat raises.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

ID, PARENT, LAYER, NAME, START, END, DIGEST = range(7)


class SpanRecorder:
    """Collects spans; ``wrap`` turns a function into one that records itself."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        digest_of: Callable[[tuple], bytes] | None = None,
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` with a span around each call.

        ``digest_of(args)`` names the request the call is about;
        ``observe(args, result)`` runs after the span closed, for counts
        that must be taken where the work happens.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, layer, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if digest_of is not None:
                span[DIGEST] = digest_of(args).hex()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[span[ID]] for span in spans]


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0   # children included
    self_s: float = 0.0


def aggregate(spans: list[list]) -> dict[tuple[str, str], Aggregate]:
    """Calls, inclusive time and self time per (layer, name)."""
    table: dict[tuple[str, str], Aggregate] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = table.setdefault((span[LAYER], span[NAME]), Aggregate())
        entry.calls += 1
        entry.total_s += span[END] - span[START]
        entry.self_s += own
    return table


@dataclass(frozen=True)
class Point:
    """One boundary to wrap: attribute ``attr`` of a class or module."""

    owner: Any
    attr: str
    layer: str
    digest_of: Callable[[tuple], bytes] | None = None
    observe: Callable[[tuple, Any], None] | None = None


def _defining_owner(owner: Any, attr: str) -> Any:
    """The class in ``owner``'s MRO (or the module) whose dict holds ``attr``."""
    for candidate in getattr(owner, "__mro__", (owner,)):
        if attr in vars(candidate):
            return candidate
    raise AttributeError(f"{owner!r} has no attribute {attr!r}")


@contextmanager
def patched(recorder: SpanRecorder, points: list[Point]) -> Iterator[None]:
    """Wrap every point for the body's duration, then restore the originals."""
    saved: list[tuple[Any, str, Any]] = []
    seen: set[tuple[int, str]] = set()
    try:
        for point in points:
            owner = _defining_owner(point.owner, point.attr)
            if (id(owner), point.attr) in seen:
                continue  # inherited by several listed classes: wrap it once
            seen.add((id(owner), point.attr))
            raw = vars(owner)[point.attr]
            # A module-level function keeps its bare name, so an alias
            # imported into another module lands in the same row.
            name = (point.attr if isinstance(owner, ModuleType)
                    else f"{owner.__name__}.{point.attr}")
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(recorder.wrap(raw.__func__, point.layer, name,
                                              point.digest_of, point.observe))
            else:
                new = recorder.wrap(raw, point.layer, name, point.digest_of, point.observe)
            saved.append((owner, point.attr, raw))
            setattr(owner, point.attr, new)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def write_jsonl(spans: list[list], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(
                ("id", "parent", "layer", "name", "start", "end", "digest"), span))))
            handle.write("\n")
