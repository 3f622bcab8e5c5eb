"""Which of a dispatcher's message kinds a message is, found once per class."""

from __future__ import annotations

from typing import Iterable


class KindMap(dict):
    """``kinds[type(message)]``: the handled kind ``message`` is an instance of.

    Maps a class to the first of ``kinds`` it is or derives from — exactly
    what an ``isinstance`` ladder over ``kinds`` in that order would match —
    and to ``None`` when it derives from none of them.  A class is resolved
    on its first lookup and kept, so a dispatcher pays one dict read per
    message however long the ladder would have been; the table can only
    grow by classes that exist in the program, never by what a peer sends.

    Dispatchers test the result with ``kind is T`` and call the handler
    directly, which keeps the calls visible to the lint's call graph
    (:func:`repro.lint.flow.callgraph.type_tests` reads this shape).
    """

    def __init__(self, kinds: Iterable[type]) -> None:
        super().__init__()
        self.kinds = tuple(kinds)

    def __missing__(self, cls: type) -> type | None:
        kind = self[cls] = next(
            (kind for kind in self.kinds if issubclass(cls, kind)), None
        )
        return kind
