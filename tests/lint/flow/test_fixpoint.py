"""The shared fixpoint: it ends because no fact changes, not at a pass cap.

A parameter that reaches a ``self.*`` write through the mutual recursion
``a ↔ b`` used to grow its sink path by one ``via`` hop per pass, so the
summaries never settled.  A hop is not repeated on a path, so one more
pass over the finished summaries changes nothing and the FLOW001 message
names each function on the cycle once.
"""

import textwrap

from repro.lint import lint_sources
from repro.lint.engine import FileContext, Project
from repro.lint.flow.summaries import flow_analysis, summarize
from repro.lint.flow.walk import fixpoint

RING = {
    "src/repro/core/ring.py": """
    import time

    class Ring:
        def a(self, value, depth):
            if depth:
                self.b(value, depth - 1)
            self.last = value

        def b(self, value, depth):
            self.a(value, depth)

        def tick(self):
            self.b(time.time(), 3)
    """,
}


def _project(sources):
    return Project(files=[
        FileContext.parse(path, textwrap.dedent(text)) for path, text in sources.items()
    ])


def test_one_more_pass_over_finished_summaries_changes_nothing():
    analysis = flow_analysis(_project(RING))
    for key, summary in analysis.summaries.items():
        again = summarize(analysis.graph.functions[key], analysis.graph, analysis.summaries)
        assert summary.joined(again) == summary, key


def test_recursive_sink_path_names_each_function_once():
    findings = lint_sources(
        {path: textwrap.dedent(text) for path, text in RING.items()}, select=["FLOW001"])
    assert [f.message for f in findings] == [
        "nondeterministic value (wall clock time.time()) reaches state write "
        "self.last via a() via b() (in repro.core.ring:Ring.tick)",
    ]


def test_fixpoint_walks_acyclic_functions_once_and_settles_cycles():
    callees = {"top": ["mid"], "mid": ["leaf", "loop"], "leaf": [], "loop": ["mid"]}
    walked = []

    def transfer(key, facts):
        walked.append(key)
        return frozenset({key}).union(*(facts[callee] for callee in callees[key]))

    facts = fixpoint(callees, callees, start=lambda key: frozenset(),
                     transfer=transfer, join=frozenset.union)
    assert facts["top"] == {"top", "mid", "leaf", "loop"}
    assert facts["loop"] == {"loop", "mid", "leaf"}
    assert walked.count("leaf") == 1 and walked.count("top") == 1
    assert walked.index("leaf") < walked.index("mid") < walked.index("top")
