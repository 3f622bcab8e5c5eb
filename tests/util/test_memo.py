"""The lock-free ``memoized`` descriptor that replaced ``functools.cached_property``."""

import dataclasses
import pathlib

import repro
from repro.util.memo import memoized


@dataclasses.dataclass(frozen=True)
class Square:
    side: int
    calls: list = dataclasses.field(default_factory=list, compare=False, repr=False)

    @memoized
    def area(self) -> int:
        """Side times side."""
        self.calls.append(self.side)
        return self.side * self.side


def test_computed_once_and_kept_under_its_own_name_in_the_instance_dict():
    square = Square(3)
    assert "area" not in vars(square)
    assert square.area == 9 and square.area == 9
    assert square.calls == [3]
    assert vars(square)["area"] == 9


def test_works_on_a_frozen_dataclass_without_touching_its_value_semantics():
    cold, warm = Square(4), Square(4)
    assert warm.area == 16
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)


def test_copies_made_by_replace_start_cold():
    original = Square(2)
    assert original.area == 4
    same = dataclasses.replace(original)
    bigger = dataclasses.replace(original, side=5)
    assert "area" not in vars(same) and "area" not in vars(bigger)
    assert same.area == 4 and bigger.area == 25


def test_falsy_and_none_values_are_memoised_too():
    calls = []

    class Holder:
        @memoized
        def nothing(self):
            calls.append(1)
            return None

    holder = Holder()
    assert holder.nothing is None and holder.nothing is None
    assert calls == [1]


def test_class_access_returns_the_descriptor_with_the_docstring():
    assert isinstance(Square.area, memoized)
    assert Square.area.__doc__ == "Side times side."


def test_no_cached_property_import_is_left_outside_the_linter():
    root = pathlib.Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if "lint" not in path.relative_to(root).parts
        and "functools import cached_property" in path.read_text()
    ]
    assert offenders == []
