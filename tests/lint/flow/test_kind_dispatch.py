"""The ``kind is T`` dispatch idiom is as visible to the lint as an isinstance ladder.

The replicas and nodes dispatch on ``kind = self.KINDS[type(message)]``
(:class:`repro.util.dispatch.KindMap`).  Each seeded crate of the FLOW002,
FLOW003 and SM006 suites is rewritten into that shape here and must produce
the findings its isinstance original does — a dispatch form that hid the
handlers would print "clean" for the wrong reason.
"""

import ast
import re
import textwrap

import pytest

from repro.lint import lint_sources
from repro.lint.flow.callgraph import type_tests
from tests.lint.flow.test_flow002_gate import BACKEND
from tests.lint.flow.test_flow003_coverage import HANDLER, crate
from tests.lint.sm.test_sm_rules import ESCAPE_CRATE, SAFE_ESCAPE_CRATE


def kind_idiom(source: str) -> str:
    """Every ``isinstance(message, T)`` ladder, rewritten to the kind idiom."""
    bound = re.sub(
        r"^(\s*)(if isinstance\(message, )",
        r"\1kind = self.KINDS[type(message)]\n\1\2", source, flags=re.M,
    )
    rewritten = re.sub(r"isinstance\(message, (\w+)\)", r"kind is \1", bound)
    assert "isinstance" not in rewritten and "kind is" in rewritten
    return rewritten


def findings(sources, select):
    return [
        (finding.code, finding.anchor)
        for finding in lint_sources(
            {path: textwrap.dedent(text) for path, text in sources.items()},
            select=list(select),
        )
    ]


@pytest.mark.parametrize("sources, select", [
    ({"src/repro/bft/crate.py": BACKEND}, ["FLOW002"]),
    ({"src/repro/bft/crate.py": ESCAPE_CRATE}, ["SM006"]),
    (crate(), ["FLOW003"]),
], ids=["flow002", "sm006", "flow003"])
def test_seeded_violations_fire_through_the_kind_idiom(sources, select):
    expected = findings(sources, select)
    assert expected, "the seeded crate must fire in its original shape"
    rewritten = {path: kind_idiom(text) if "isinstance(message" in text else text
                 for path, text in sources.items()}
    assert rewritten != sources
    assert findings(rewritten, select) == expected


def test_the_safe_crates_stay_clean_in_either_shape():
    safe = {"src/repro/bft/crate.py": kind_idiom(SAFE_ESCAPE_CRATE)}
    assert findings(safe, ["SM006"]) == []
    covered = crate(handler=kind_idiom(HANDLER).replace("Loose", "Pong"))
    assert findings(covered, ["FLOW003"]) == []


def tests_in(source: str):
    function = ast.parse(textwrap.dedent(source)).body[0]
    return [(name, [ast.unparse(kind) for kind in kinds])
            for name, kinds in type_tests(ast.walk(function))]


def test_type_tests_reads_both_shapes():
    assert tests_in("""
    def on_message(self, src, message):
        kind = self.KINDS[type(message)]
        if kind is Commit or kind is codec.Vote:
            pass
        elif isinstance(src, (str, bytes)):
            pass
    """) == [("message", ["Commit"]), ("message", ["codec.Vote"]),
             ("src", ["str", "bytes"])]


def test_a_local_is_a_kind_only_if_every_binding_takes_the_type_of_one_name():
    assert tests_in("""
    def on_message(self, src, message):
        kind = type(message)
        if kind is Commit:
            pass
        kind = src
        if kind is Prepare:
            pass
        other = type(message)
        other = type(src)
        if other is Commit or kind is not None:
            pass
    """) == []
