"""PROTO00x rules: one triggering and one clean fixture per code."""

import textwrap
from pathlib import Path

import repro.core.messages
from repro.lint import lint_sources


def run(sources, select=None):
    return lint_sources(
        {path: textwrap.dedent(source) for path, source in sources.items()},
        select=select,
    )


def codes(findings):
    return [finding.code for finding in findings]


MESSAGE_MODULE = "src/repro/export/messages.py"


# --- PROTO001: codec class without a wire tag -----------------------------

def test_proto001_flags_unregistered_codec_class():
    findings = run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct):
                seq: int

            @dataclass(frozen=True)
            class Pong(WireStruct, tag=1):
                seq: int

            @dataclass(frozen=True)
            class _Scaffold(WireStruct):
                seq: int

            @dataclass(frozen=True)
            class Vote(_Scaffold):
                pass

            @dataclass(frozen=True)
            class Ballot(_Scaffold, tag=2):
                pass

            class Framer:
                def write_to(self, writer):
                    writer.put_uint(self.seq)

                @classmethod
                def decode(cls, data):
                    return cls()
            """,
        },
        select=["PROTO001"],
    )
    # Ping is flagged, and Vote through its private base; the tagged Pong and
    # Ballot are not, nor the private _Scaffold itself, nor a class that
    # merely has codec-named methods without being a WireStruct dataclass.
    assert codes(findings) == ["PROTO001", "PROTO001"]
    assert [finding.message.split()[2] for finding in findings] == ["Ping", "Vote"]


def test_proto001_recognises_the_real_message_modules():
    # The predicate follows the codec's construction (a dataclass under
    # WireStruct, tagged on its class statement).  If the construction moves
    # again and the rule is not moved with it, this goes red where the
    # synthetic fixtures would stay green and vacuous.
    source = Path(repro.core.messages.__file__).read_text()
    assert not lint_sources({"src/repro/core/messages.py": source}, select=["PROTO001"])
    untagged = source.replace("class ZugForward(WireStruct, tag=31):",
                              "class ZugForward(WireStruct):")
    assert untagged != source
    findings = lint_sources({"src/repro/core/messages.py": untagged}, select=["PROTO001"])
    assert codes(findings) == ["PROTO001"]
    assert "ZugForward" in findings[0].message


def test_proto001_clean_when_registered_and_without_registry_in_view():
    # The tag is on the class statement, so one file is the whole evidence:
    # no tag table has to be in view for a clean verdict.
    assert not run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct, tag=BASE_TAG + 1):
                seq: int
            """
        },
        select=["PROTO001"],
    )


def test_proto001_ignores_tables_never_fed_to_the_registrar():
    # A dict of classes elsewhere is not a tag, even one that looks like the
    # old registration table: it must not silence a real finding.
    findings = run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct, tag=1):
                seq: int

            @dataclass(frozen=True)
            class Pong(WireStruct):
                seq: int
            """,
            "src/repro/wire/tags.py": """
            WIRE_TAGS = {2: Pong}

            for _tag, _cls in WIRE_TAGS.items():
                register_message_type(_tag, _cls)
            """,
        },
        select=["PROTO001"],
    )
    assert codes(findings) == ["PROTO001"]
    assert "Pong" in findings[0].message


# --- PROTO003: swallowed exceptions --------------------------------------

def test_proto003_flags_bare_except_and_silent_handler():
    findings = run(
        {
            "src/repro/core/node.py": """
            def on_request(node, raw):
                try:
                    node.deliver(raw)
                except Exception:
                    pass

            def probe(node):
                try:
                    node.poke()
                except:
                    return None
            """
        },
        select=["PROTO003"],
    )
    assert codes(findings) == ["PROTO003", "PROTO003"]
    assert "on_request" in findings[0].message


def test_proto003_clean_for_narrow_or_handled_exceptions():
    assert not run(
        {
            "src/repro/core/node.py": """
            def on_request(node, raw):
                try:
                    node.deliver(raw)
                except ValueError:
                    pass

            def probe(node, log):
                try:
                    node.poke()
                except Exception as exc:
                    log.warning("poke failed: %s", exc)
                    raise
            """
        },
        select=["PROTO003"],
    )


# --- PROTO004: mutable default arguments ---------------------------------

def test_proto004_flags_mutable_defaults():
    findings = run(
        {
            "src/repro/core/layer.py": """
            def enqueue(item, queue=[], index={}, seen=set()):
                queue.append(item)
            """
        },
        select=["PROTO004"],
    )
    assert codes(findings) == ["PROTO004"] * 3


def test_proto004_clean_for_immutable_defaults():
    assert not run(
        {
            "src/repro/core/layer.py": """
            def enqueue(item, queue=None, links=(), name="mvb0"):
                if queue is None:
                    queue = []
                queue.append(item)
            """
        },
        select=["PROTO004"],
    )
