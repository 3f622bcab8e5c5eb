"""FLOW001: interprocedural nondeterminism taint (DET001–004 closure).

The crates here are *evasions* of the intraprocedural DET rules: the
nondeterministic source and the protocol sink live in different
functions, so only call-graph propagation can connect them.
"""

import textwrap

from repro.lint import lint_sources


def run(sources, select=("FLOW001",)):
    return lint_sources(
        {path: textwrap.dedent(text) for path, text in sources.items()},
        select=list(select),
    )


# A wall-clock read laundered through two helper calls before it becomes a
# wire struct's field — invisible to DET001, which only sees one body at a
# time.  The struct's field list is its wire layout, so constructing it is
# where the value reaches the codec.
CLOCK_CRATE = {
    "src/repro/core/stamp.py": """
    import time
    from dataclasses import dataclass

    from repro.wire.codec import WireStruct

    @dataclass(frozen=True)
    class Stamp(WireStruct):
        at_us: int

    def _now_us():
        return int(time.time() * 1e6)

    def _freshness():
        return _now_us() + 1

    class Stamper:
        def stamp(self):
            return Stamp(at_us=_freshness())
    """,
}


def test_cross_function_clock_taint_reaches_codec_sink():
    findings = run(CLOCK_CRATE)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.code == "FLOW001"
    assert "wall clock time.time()" in finding.message
    assert "Stamp()" in finding.message
    assert finding.anchor is not None
    assert finding.anchor.startswith("src/repro/core/stamp.py") is False
    assert "Stamper.stamp" in finding.anchor


def test_constructing_a_plain_dataclass_is_not_a_codec_sink():
    plain = {
        "src/repro/core/stamp.py": CLOCK_CRATE["src/repro/core/stamp.py"].replace(
            "class Stamp(WireStruct):", "class Stamp:"),
    }
    assert run(plain) == []


def test_direct_writer_calls_remain_sinks():
    # Payload builders outside the structs (bus.reception) drive a Writer by
    # hand; a tainted value handed to put_* is still protocol-visible.
    crate = {
        "src/repro/bus/payload.py": """
        import time

        def _now_us():
            return int(time.time() * 1e6)

        def encode_payload(writer):
            writer.put_uint(_now_us())
            return writer.getvalue()
        """,
    }
    findings = run(crate)
    assert len(findings) == 1
    assert "put_uint()" in findings[0].message


def test_same_crate_clean_in_runtime_exempt_module():
    # repro.runtime* owns the sanctioned wall-clock bridge; the identical
    # code there must not be flagged.
    exempt = {
        path.replace("src/repro/core/", "src/repro/runtime/"): text
        for path, text in CLOCK_CRATE.items()
    }
    assert run(exempt) == []


# Taint entering replica state through a helper's parameter: the write
# happens in _store, the nondeterministic value originates in rearm.
STATE_CRATE = {
    "src/repro/bft/backoff.py": """
    import time

    class Backoff:
        def _store(self, value):
            self._delay = value

        def rearm(self):
            self._store(time.monotonic())
    """,
}


def test_taint_through_parameter_into_state_write():
    findings = run(STATE_CRATE)
    assert len(findings) == 1
    assert "wall clock time.monotonic()" in findings[0].message
    assert "state write self._delay" in findings[0].message
    assert "_store" in findings[0].message


# Set-iteration order returned from a helper and frozen into a wire
# struct's list field.
ORDER_CRATE = {
    "src/repro/core/members.py": """
    from dataclasses import dataclass

    from repro.wire.codec import WireStruct

    @dataclass(frozen=True)
    class Roster(WireStruct):
        members: tuple[str, ...]

    def _active(ids):
        return set(ids)

    def roster_of(ids):
        return Roster(members=tuple(_active(ids)))
    """,
}


def test_order_taint_propagates_through_helper_return():
    findings = run(ORDER_CRATE)
    assert len(findings) == 1
    assert "iteration-order" in findings[0].message
    assert "Roster()" in findings[0].message


def test_sorted_launders_order_taint():
    clean = {
        "src/repro/core/members.py": ORDER_CRATE[
            "src/repro/core/members.py"
        ].replace("tuple(_active(ids))", "tuple(sorted(_active(ids)))"),
    }
    assert run(clean) == []


def test_suppression_comment_silences_flow_finding():
    crate = {
        "src/repro/core/stamp.py": CLOCK_CRATE["src/repro/core/stamp.py"].replace(
            "return Stamp(at_us=_freshness())",
            "return Stamp(at_us=_freshness())  # zuglint: disable=FLOW001",
        ),
    }
    assert run(crate) == []
