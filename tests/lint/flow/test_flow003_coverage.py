"""FLOW003: wire tags vs dispatch-set coverage (PROTO001's dual)."""

import textwrap
from pathlib import Path

import repro.core.messages
import repro.core.node
from repro.lint import lint_sources


def run(sources, select=("FLOW003",)):
    return lint_sources(
        {path: textwrap.dedent(text) for path, text in sources.items()},
        select=list(select),
    )


MESSAGES = """
from dataclasses import dataclass
from repro.wire.codec import WireStruct

@dataclass(frozen=True)
class Ping(WireStruct, tag=1):
    seq: int

@dataclass(frozen=True)
class Pong(WireStruct, tag=2):
    seq: int

@dataclass(frozen=True)
class Loose(WireStruct):
    seq: int
"""

HANDLER = """
from repro.core.cratemsgs import Ping, Pong, Loose

class Backend:
    def handle_message(self, src, message):
        if isinstance(message, Ping):
            return 1
        if isinstance(message, Loose):
            return 2
"""


def crate(handler=HANDLER, messages=MESSAGES):
    return {
        "src/repro/core/cratemsgs.py": messages,
        "src/repro/core/cratebackend.py": handler,
    }


def test_dispatched_but_unregistered_and_dead_tag_are_both_found():
    findings = run(crate())
    assert len(findings) == 2
    by_anchor = {finding.anchor: finding for finding in findings}
    unregistered = by_anchor["dispatched-unregistered:repro.core.cratemsgs.Loose"]
    assert "never registered" in unregistered.message
    dead = by_anchor["registered-unreachable:Pong"]
    assert "tag 2" in dead.message
    assert "dead tag" in dead.message
    # The dead tag is reported where it is declared: Pong's class statement.
    assert (dead.path, dead.line) == ("src/repro/core/cratemsgs.py", 10)


def test_decode_closure_justifies_registered_tag():
    # Pong is a field of Ping, so the derived reader builds it: its tag is
    # reachable even though no dispatcher tests isinstance(message, Pong).
    messages = MESSAGES.replace(
        "class Ping(WireStruct, tag=1):\n    seq: int",
        "class Ping(WireStruct, tag=1):\n    seq: int\n    inner: Pong",
    )
    findings = run(crate(messages=messages))
    assert [finding.anchor for finding in findings] == [
        "dispatched-unregistered:repro.core.cratemsgs.Loose"
    ]


def test_decode_closure_reads_through_lists_options_and_inherited_fields():
    # The ReadReply shape: the nested class sits inside ``tuple[X, ...]`` or
    # ``X | None``, and the field may be declared on a private base.
    for annotation in ("tuple[Pong, ...]", "Pong | None", "Annotated[Pong, Inline]"):
        messages = MESSAGES.replace(
            "class Ping(WireStruct, tag=1):\n    seq: int",
            f"class _Carrier(WireStruct):\n    inner: {annotation}\n\n"
            "@dataclass(frozen=True)\nclass Ping(_Carrier, tag=1):\n    seq: int",
        )
        findings = run(crate(messages=messages))
        assert [finding.anchor for finding in findings] == [
            "dispatched-unregistered:repro.core.cratemsgs.Loose"
        ], annotation


def test_message_types_tuple_counts_as_dispatch_evidence():
    handler = """
    from repro.core.cratemsgs import Ping, Pong

    class Backend:
        MESSAGE_TYPES = (Ping, Pong)

        def handle_message(self, src, message):
            if isinstance(message, self.MESSAGE_TYPES):
                return 1
    """
    findings = run(crate(handler=handler))
    assert findings == []


def test_dynamic_range_registration_covers_dispatched_classes():
    # Computed tags: each class derives its tag from a range base at import.
    # Ping/Pong count as tagged (with tags unknown statically), so only the
    # truly untagged Loose is flagged, and the dead-tag finding renders
    # "a wire tag" instead of a number.
    messages = (MESSAGES.replace("tag=1", "tag=BASE_TAG").replace("tag=2", "tag=BASE_TAG + 1")
                .replace("from repro.wire.codec import WireStruct\n",
                         "from repro.wire.codec import WireStruct\n\nBASE_TAG = 0x10\n"))
    findings = run(crate(messages=messages))
    by_anchor = {finding.anchor: finding for finding in findings}
    assert sorted(by_anchor) == [
        "dispatched-unregistered:repro.core.cratemsgs.Loose",
        "registered-unreachable:Pong",
    ]
    assert "a wire tag" in by_anchor["registered-unreachable:Pong"].message


def test_silent_without_registrations_in_view():
    untagged = MESSAGES.replace(", tag=1", "").replace(", tag=2", "")
    assert run(crate(messages=untagged)) == []


def test_real_codec_classes_are_recognised():
    # The rule finds codec classes by the construction's shape (a dataclass
    # under WireStruct, tagged on its class statement).  Run it over the real
    # message and dispatcher modules with ZugForward's tag taken off: if the
    # shape moves and the predicate does not, this fails instead of the rule
    # going silently vacuous.
    source = Path(repro.core.messages.__file__).read_text()
    untagged = source.replace("class ZugForward(WireStruct, tag=31):",
                              "class ZugForward(WireStruct):")
    assert untagged != source
    findings = lint_sources(
        {
            "src/repro/core/messages.py": untagged,
            "src/repro/core/node.py": Path(repro.core.node.__file__).read_text(),
        },
        select=["FLOW003"],
    )
    assert [finding.anchor for finding in findings] == [
        "dispatched-unregistered:repro.core.messages.ZugForward"
    ]
