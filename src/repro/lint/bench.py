"""Wall-time measurement of the zuglint stages (``repro bench --suite lint``).

Quantifies what the shared-``Project`` architecture buys: the flow, aio,
and sm stages all consume the same call graph and flow summaries, so in
a combined run only the first project-scope stage pays the build cost
and every later stage is incremental.  Each stage is timed twice:

* **standalone** — a fresh :class:`Project` per stage, the cost of
  running ``--stage X`` on its own (flow/aio/sm each rebuild the graph);
* **shared** — one project threaded through the stages in order, the
  cost each stage adds to a combined ``--stage ast,flow,aio,sm`` run.

Timing covers rule execution only (no reporting).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.lint.engine import (
    STAGES,
    FileContext,
    Project,
    _selected_rules,
    iter_python_files,
)
from repro.runtime.wallclock import wall_timer


def _parse_tree(paths: Iterable[str]) -> list[FileContext]:
    contexts: list[FileContext] = []
    for filepath in iter_python_files(paths):
        with open(filepath, encoding="utf-8") as handle:
            source = handle.read()
        try:
            contexts.append(FileContext.parse(filepath, source))
        except SyntaxError:
            continue  # the CLI reports E999; timing skips the file
    return contexts


def _run_stage(stage: str, project: Project, contexts: list[FileContext]) -> int:
    """Execute one stage's rules against ``project``; returns finding count."""
    count = 0
    for rule in _selected_rules(None, None, [stage]):
        if rule.scope == "project":
            count += sum(1 for _ in rule.check_project(project))
        else:
            for ctx in contexts:
                count += sum(1 for _ in rule.check_file(ctx))
    return count


def measure_lint_stages(
    paths: Iterable[str] = ("src", "tests"),
    timer: Callable[[], float] | None = None,
) -> dict:
    """Per-stage wall times, standalone vs shared-call-graph.

    Returns ``{"files": N, "parse_s": float, "stages": {stage: {
    "standalone_s": float, "shared_s": float, "findings": int}}}`` with
    stages in execution order.
    """
    timer = timer or wall_timer()
    start = timer()
    contexts = _parse_tree(paths)
    parse_s = timer() - start

    stages: dict[str, dict] = {}
    for stage in STAGES:
        project = Project(files=contexts)  # cold cache: full build cost
        start = timer()
        findings = _run_stage(stage, project, contexts)
        stages[stage] = {"standalone_s": timer() - start, "findings": findings}

    shared_project = Project(files=contexts)  # one cache across all stages
    for stage in STAGES:
        start = timer()
        _run_stage(stage, shared_project, contexts)
        stages[stage]["shared_s"] = timer() - start

    return {"files": len(contexts), "parse_s": parse_s, "stages": stages}
