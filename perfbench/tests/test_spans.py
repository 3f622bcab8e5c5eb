"""Span arithmetic on a fake clock, and the patch/restore guarantee."""

import pytest

from perfbench.layers import Observations, boundary_points
from perfbench.spans import (
    DIGEST, NAME, PARENT, Point, SpanRecorder, _defining_owner, aggregate, patched, self_times,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_and_sibling_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def spend(seconds):
        clock.now += seconds

    leaf = recorder.wrap(spend, "wire", "leaf")

    def middle_body():
        spend(1.0)
        leaf(2.0)          # nested two deep
        spend(0.5)

    middle = recorder.wrap(middle_body, "bft", "middle")

    def root_body():
        spend(1.0)
        middle()           # 3.5 inclusive
        leaf(4.0)          # sibling of middle
        spend(0.25)

    recorder.wrap(root_body, "sim", "root")()

    spans = recorder.spans
    assert [span[NAME] for span in spans] == ["root", "middle", "leaf", "leaf"]
    assert [span[PARENT] for span in spans] == [-1, 0, 1, 0]
    assert self_times(spans) == pytest.approx([1.25, 1.5, 2.0, 4.0])
    table = aggregate(spans)
    assert table[("wire", "leaf")].calls == 2
    assert table[("wire", "leaf")].self_s == pytest.approx(6.0)
    assert table[("bft", "middle")].total_s == pytest.approx(3.5)
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(self_times(spans)) == pytest.approx(8.75)


def test_span_closes_and_stack_unwinds_when_the_call_raises():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap(boom, "bft", "boom")()
    recorder.wrap(lambda: None, "sim", "after")()
    assert self_times(recorder.spans) == pytest.approx([1.0, 0.0])
    assert recorder.spans[1][PARENT] == -1


def test_digest_and_observe_hooks():
    class Carrier:
        digest = b"\xab\xcd"

    seen = []
    recorder = SpanRecorder(FakeClock())
    wrapped = recorder.wrap(lambda self, request: 7, "core", "receive",
                            digest_of=lambda args: args[1].digest,
                            observe=lambda args, result: seen.append(result))
    assert wrapped(None, Carrier()) == 7
    assert recorder.spans[0][DIGEST] == "abcd"
    assert seen == [7]


def _originals(points):
    return [(owner, point.attr, vars(owner)[point.attr])
            for point in points
            for owner in [_defining_owner(point.owner, point.attr)]]


@pytest.mark.parametrize("raises", [False, True])
def test_every_patched_attribute_is_the_identical_object_again(raises):
    points = boundary_points(Observations())
    before = _originals(points)
    assert len(before) > 100          # every registered wire type contributes three
    try:
        with patched(SpanRecorder(), points):
            assert all(vars(owner)[attr] is not raw for owner, attr, raw in before)
            if raises:
                raise RuntimeError("the traced repeat failed")
    except RuntimeError:
        assert raises
    assert all(vars(owner)[attr] is raw for owner, attr, raw in before)


def test_classmethods_and_inherited_methods_are_wrapped_once_and_restored():
    class Base:
        @classmethod
        def decode(cls, data):
            return cls.__name__ + data

        def size(self):
            return 1

    class Child(Base):
        pass

    raw_decode, raw_size = vars(Base)["decode"], vars(Base)["size"]
    recorder = SpanRecorder(FakeClock())
    points = [Point(Base, "decode", "wire"), Point(Child, "decode", "wire"),
              Point(Child, "size", "wire")]
    with patched(recorder, points):
        assert Child.decode("x") == "Childx"
        assert Child().size() == 1
        assert "size" not in vars(Child)      # patched where it is defined
    assert [span[NAME] for span in recorder.spans] == ["Base.decode", "Base.size"]
    assert vars(Base)["decode"] is raw_decode and vars(Base)["size"] is raw_size
