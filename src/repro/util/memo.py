"""A lock-free ``cached_property`` for values derived from frozen fields."""

from __future__ import annotations


class memoized:
    """Compute on first read, then keep the value in the instance ``__dict__``.

    A non-data descriptor storing under the decorated function's name: after
    the first read the instance attribute shadows it and later reads never reach
    ``__get__``.  Unlike :func:`functools.cached_property` on Python < 3.12
    it takes no lock — two racing first reads would both compute, which is
    harmless for the pure functions of frozen fields it is used on.  The
    value is not a dataclass field, so ``==``/``hash``/``repr`` ignore it and
    ``dataclasses.replace`` copies start cold.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
