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
TAG_TABLE = "src/repro/wire/tags.py"


# --- PROTO001: codec class never registered ------------------------------

def test_proto001_flags_unregistered_codec_class():
    findings = run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct):
                seq: int

            @dataclass(frozen=True)
            class _Scaffold(WireStruct):
                seq: int

            @dataclass(frozen=True)
            class Vote(_Scaffold):
                pass

            class Framer:
                def write_to(self, writer):
                    writer.put_uint(self.seq)

                @classmethod
                def decode(cls, data):
                    return cls()
            """,
            TAG_TABLE: """
            WIRE_TAGS = {1: Pong}

            for _tag, _cls in WIRE_TAGS.items():
                register_message_type(_tag, _cls)
            """,
        },
        select=["PROTO001"],
    )
    # Ping is flagged, and Vote through its private base; the private
    # _Scaffold itself is not, nor is a class that merely has codec-named
    # methods without being a WireStruct dataclass.
    assert codes(findings) == ["PROTO001", "PROTO001"]
    assert [finding.message.split()[2] for finding in findings] == ["Ping", "Vote"]


def test_proto001_recognises_the_real_message_modules():
    # The predicate follows the codec's construction (a dataclass under
    # WireStruct).  If the construction moves again and the rule is not moved
    # with it, this goes red where the synthetic fixtures would stay green
    # and vacuous.
    findings = lint_sources(
        {
            "src/repro/core/messages.py": Path(repro.core.messages.__file__).read_text(),
            TAG_TABLE: textwrap.dedent("""
            WIRE_TAGS = {30: ZugBroadcast}

            for _tag, _cls in WIRE_TAGS.items():
                register_message_type(_tag, _cls)
            """),
        },
        select=["PROTO001"],
    )
    assert codes(findings) == ["PROTO001"]
    assert "ZugForward" in findings[0].message


def test_proto001_clean_when_registered_and_without_registry_in_view():
    registered = run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct):
                seq: int
            """,
            TAG_TABLE: """
            WIRE_TAGS = {1: Ping}
            register_message_type(1, Ping)
            """,
        },
        select=["PROTO001"],
    )
    assert not registered
    # Single-file run without the tag table in scope: rule stays silent
    # instead of flagging every message class.
    partial = run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct):
                seq: int
            """
        },
        select=["PROTO001"],
    )
    assert not partial


def test_proto001_understands_loop_driven_registration_tables():
    # The driven idiom with a non-canonical table name: the loop feeding
    # register_message_type makes every table entry a registration fact.
    findings = run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct):
                seq: int

            @dataclass(frozen=True)
            class Orphan(WireStruct):
                seq: int
            """,
            TAG_TABLE: """
            _TABLE = {1: Ping}

            for _tag, _cls in _TABLE.items():
                register_message_type(_tag, _cls)
            """,
        },
        select=["PROTO001"],
    )
    assert codes(findings) == ["PROTO001"]
    assert "Orphan" in findings[0].message


def test_proto001_understands_comprehension_driven_registration():
    findings = run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct):
                seq: int
            """,
            TAG_TABLE: """
            _TABLE = {1: Ping}

            [register_message_type(tag, cls) for tag, cls in _TABLE.items()]
            """,
        },
        select=["PROTO001"],
    )
    assert not findings


def test_proto001_ignores_tables_never_fed_to_the_registrar():
    # A dict of classes that is NOT consumed by a registration loop must
    # not count as registrations (it would silence real findings).
    findings = run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct):
                seq: int

            @dataclass(frozen=True)
            class Pong(WireStruct):
                seq: int
            """,
            TAG_TABLE: """
            _DISPLAY_NAMES = {1: Pong}

            register_message_type(1, Ping)
            """,
        },
        select=["PROTO001"],
    )
    assert codes(findings) == ["PROTO001"]
    assert "Pong" in findings[0].message


def test_proto001_understands_enumerate_driven_computed_tags():
    # Dynamic wire-type registration: tags computed from a range base over
    # a plain class sequence.  The tags are unknowable statically, but the
    # classes are registered and must not be flagged.
    findings = run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct):
                seq: int

            @dataclass(frozen=True)
            class Pong(WireStruct):
                seq: int

            @dataclass(frozen=True)
            class Orphan(WireStruct):
                seq: int
            """,
            TAG_TABLE: """
            BASE_TAG = 0x40

            MESSAGE_TYPES = [Ping, Pong]

            for _offset, _cls in enumerate(MESSAGE_TYPES):
                register_message_type(BASE_TAG + _offset, _cls)
            """,
        },
        select=["PROTO001"],
    )
    assert codes(findings) == ["PROTO001"]
    assert "Orphan" in findings[0].message


def test_proto001_understands_zip_driven_registration():
    findings = run(
        {
            MESSAGE_MODULE: """
            @dataclass(frozen=True)
            class Ping(WireStruct):
                seq: int
            """,
            TAG_TABLE: """
            _TAGS = [0x41]
            _CLASSES = (Ping,)

            [register_message_type(tag, cls)
             for tag, cls in zip(_TAGS, _CLASSES)]
            """,
        },
        select=["PROTO001"],
    )
    assert not findings


def test_registrations_yield_none_tags_for_computed_ranges():
    import textwrap as _textwrap

    from repro.lint.engine import FileContext
    from repro.lint.rules.protocol import _registrations

    ctx = FileContext.parse(TAG_TABLE, _textwrap.dedent("""
        MESSAGE_TYPES = (Ping, Pong)

        for offset, cls in enumerate(MESSAGE_TYPES, start=0x20):
            register_message_type(offset, cls)
    """))
    facts = list(_registrations(ctx))
    assert sorted(name for _tag, name, _line in facts) == ["Ping", "Pong"]
    assert all(tag is None for tag, _name, _line in facts)


def test_registrations_yield_table_facts_not_loop_variables():
    import textwrap as _textwrap

    from repro.lint.engine import FileContext
    from repro.lint.rules.protocol import _registrations

    ctx = FileContext.parse(TAG_TABLE, _textwrap.dedent("""
        _TABLE = {1: Ping, 2: Pong}

        for _tag, _cls in _TABLE.items():
            register_message_type(_tag, _cls)
    """))
    facts = list(_registrations(ctx))
    assert sorted(name for _tag, name, _line in facts) == ["Ping", "Pong"]
    assert sorted(tag for tag, _name, _line in facts) == [1, 2]


# --- PROTO002: duplicate wire tags ---------------------------------------

def test_proto002_flags_same_tag_for_two_classes():
    within_table = run(
        {TAG_TABLE: "WIRE_TAGS = {1: Ping, 1: Pong}\n"},
        select=["PROTO002"],
    )
    assert codes(within_table) == ["PROTO002"]
    assert "tag 1" in within_table[0].message

    across_files = run(
        {
            "src/repro/wire/tags.py": "register_message_type(5, Ping)\n",
            "src/repro/export/extra_tags.py": "register_message_type(5, Pong)\n",
        },
        select=["PROTO002"],
    )
    assert codes(across_files) == ["PROTO002"]


def test_proto002_clean_for_unique_and_idempotent_tags():
    assert not run(
        {
            "src/repro/wire/tags.py": "WIRE_TAGS = {1: Ping, 2: Pong}\n",
            "src/repro/export/extra_tags.py": "register_message_type(1, Ping)\n",
        },
        select=["PROTO002"],
    )


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
