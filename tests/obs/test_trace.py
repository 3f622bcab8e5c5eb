"""Tracer unit tests: scalar-only fields, sequencing, null fast path."""

import ast
import pathlib

import pytest

import repro
from repro.obs import EVENT_TAXONOMY, NULL_TRACER, NullTracer, RecordingTracer, Tracer
from repro.util.errors import ProtocolError


def test_recording_tracer_orders_by_emission():
    tracer = RecordingTracer()
    tracer.emit("bus.rx", 1.0, "node-0", digest="aa")
    tracer.emit("bft.commit", 1.5, "node-1", seq=1)
    tracer.emit("req.logged", 2.0, "node-0", digest="aa", seq=1)
    assert [e.seq for e in tracer.events] == [0, 1, 2]
    assert [e.name for e in tracer.events] == ["bus.rx", "bft.commit", "req.logged"]
    assert len(tracer) == 3


def test_fields_are_sorted_regardless_of_keyword_order():
    tracer = RecordingTracer()
    tracer.emit("bft.preprepare", 1.0, "node-0", view=0, digest="ab", seq=3)
    (event,) = tracer.events
    assert event.fields == (("digest", "ab"), ("seq", 3), ("view", 0))
    assert event.get("seq") == 3
    assert event.get("missing", "x") == "x"


def test_non_scalar_fields_are_rejected():
    tracer = RecordingTracer()
    with pytest.raises(ProtocolError):
        tracer.emit("bus.rx", 1.0, "node-0", digest=b"raw-bytes")
    with pytest.raises(ProtocolError):
        tracer.emit("bus.rx", 1.0, "node-0", views={0, 1})


def test_null_tracer_is_disabled_and_silent():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    # No-op emit must accept anything without recording or raising.
    NULL_TRACER.emit("bus.rx", 1.0, "node-0", digest=b"even-bytes")
    assert RecordingTracer.enabled is True
    assert Tracer.enabled is False


def test_empty_recording_tracer_is_falsy_but_still_a_tracer():
    # Components must wire `tracer if tracer is not None else NULL_TRACER`;
    # `tracer or NULL_TRACER` silently discards a fresh recording tracer.
    tracer = RecordingTracer()
    assert not tracer            # __len__ == 0 makes it falsy
    assert tracer.enabled        # yet it must still record
    tracer.emit("bus.rx", 0.0, "node-0")
    assert len(tracer) == 1


def test_events_named_and_clear():
    tracer = RecordingTracer()
    tracer.emit("bus.rx", 1.0, "node-0")
    tracer.emit("bus.rx", 2.0, "node-1")
    tracer.emit("bft.commit", 3.0, "node-0")
    assert len(tracer.events_named("bus.rx")) == 2
    tracer.clear()
    assert len(tracer) == 0


def test_taxonomy_is_exactly_what_the_instrumentation_emits():
    # Every string literal passed first to an ``.emit(`` call under src/repro.
    emitted = set()
    for path in (pathlib.Path(repro.__file__).parent).rglob("*.py"):
        for call in ast.walk(ast.parse(path.read_text())):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "emit" and call.args
                    and isinstance(call.args[0], ast.Constant)
                    and isinstance(call.args[0].value, str)):
                emitted.add(call.args[0].value)
    assert len(set(EVENT_TAXONOMY)) == len(EVENT_TAXONOMY)
    assert emitted == set(EVENT_TAXONOMY)
