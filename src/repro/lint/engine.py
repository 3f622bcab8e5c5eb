"""zuglint core: findings, rule registry, suppressions, and the runner.

Two rule scopes exist:

* ``file`` rules see one parsed module at a time (:class:`FileContext`);
* ``project`` rules see every file in the run (:class:`Project`) and can
  cross-check facts between modules — e.g. "is this codec class ever
  registered?" needs both the message module and ``wire/tags.py``.

Findings carry a stable ``fingerprint`` (an anchor, not a line number,
where the rule has one) that SARIF consumers use to follow a finding
across unrelated edits.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

#: Code attached to files the linter could not parse.
SYNTAX_ERROR_CODE = "E999"

_SUPPRESS_RE = re.compile(
    r"#\s*zuglint:\s*(?P<kind>disable-file|disable)\s*=\s*(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


class LintError(Exception):
    """Raised for unusable linter invocations (bad path, bad rule code)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific location.

    ``anchor`` is an optional structural identity (e.g. a dotted function
    path like ``repro.core.node:ZugChainNode.handle_message``).  Rules that
    set it get fingerprints that survive unrelated-line insertion and file
    reordering; rules that leave it ``None`` keep the historical
    line-number fingerprint.
    """

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    anchor: str | None = None

    @property
    def fingerprint(self) -> str:
        """Stable identity, SARIF's ``partialFingerprints``."""
        if self.anchor is not None:
            return f"{self.path}::{self.code}::{self.anchor}"
        return f"{self.path}::{self.code}::{self.line}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def module_name_for_path(path: str) -> str:
    """Best-effort dotted module name for ``path``.

    Rules scope exemptions by module (wall clocks are legal inside
    ``repro.runtime``), so the name must survive being invoked as
    ``src/repro/...``, ``repro/...``, or an absolute path.
    """
    parts = list(os.path.normpath(path).split(os.sep))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    for anchor in ("src",):
        if anchor in parts:
            parts = parts[len(parts) - parts[::-1].index(anchor):]
            break
    else:
        for root in ("repro", "tests"):
            if root in parts:
                parts = parts[parts.index(root):]
                break
        else:
            parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


@dataclass
class FileContext:
    """One parsed source file plus the metadata rules need."""

    path: str
    source: str
    tree: ast.Module
    module: str
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)
    _parents: dict[ast.AST, ast.AST] | None = None

    @classmethod
    def parse(cls, path: str, source: str, module: str | None = None) -> "FileContext":
        tree = ast.parse(source, filename=path)
        line_supp, file_supp = _parse_suppressions(source)
        return cls(
            path=path,
            source=source,
            tree=tree,
            module=module if module is not None else module_name_for_path(path),
            line_suppressions=line_supp,
            file_suppressions=file_supp,
        )

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child → parent map over the whole tree, built on first use."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def suppressed(self, finding: Finding) -> bool:
        if {"all", finding.code} & self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(finding.line, set())
        return bool({"all", finding.code} & on_line)


def _parse_suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    line_supp: dict[int, set[str]] = {}
    file_supp: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        codes = {code.strip() for code in match.group("codes").split(",") if code.strip()}
        if match.group("kind") == "disable-file":
            file_supp |= codes
        else:
            line_supp.setdefault(lineno, set()).update(codes)
    return line_supp, file_supp


@dataclass
class Project:
    """All files of one lint run, for cross-module rules.

    ``cache`` lets expensive cross-module analyses (the flow pass builds a
    call graph and fixpoint summaries) run once per lint invocation and be
    shared by every rule that needs them.
    """

    files: list[FileContext]
    cache: dict = field(default_factory=dict)

    def by_module(self, module: str) -> FileContext | None:
        for ctx in self.files:
            if ctx.module == module:
                return ctx
        return None


#: Analysis stages, in pipeline order.  ``ast`` rules are single-pass
#: syntactic checks (DET/PROTO), ``flow`` rules run the interprocedural
#: dataflow analysis (FLOW), ``aio`` rules run the async concurrency
#: analysis (ASYNC), ``sm`` rules run the protocol state-machine and
#: quorum-safety analysis (SM).  ``--stage`` on the CLI selects subsets.
STAGES = ("ast", "flow", "aio", "sm")


class Rule:
    """Base class for lint rules; subclasses self-register via ``register_rule``."""

    code: str = ""
    name: str = ""
    description: str = ""
    scope: str = "file"  # "file" or "project"
    stage: str = "ast"   # one of STAGES

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(())


_RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``cls`` to the global registry."""
    if not cls.code:
        raise LintError(f"rule {cls.__name__} has no code")
    if cls.code in _RULES:
        raise LintError(f"duplicate rule code {cls.code}")
    if cls.stage not in STAGES:
        raise LintError(f"rule {cls.code} has unknown stage {cls.stage!r}")
    _RULES[cls.code] = cls()
    return cls


def all_rules() -> list[Rule]:
    return [_RULES[code] for code in sorted(_RULES)]


def rule_for_code(code: str) -> Rule:
    try:
        return _RULES[code]
    except KeyError:
        raise LintError(f"unknown rule code {code!r}") from None


def _selected_rules(
    select: Iterable[str] | None,
    ignore: Iterable[str] | None,
    stages: Iterable[str] | None = None,
) -> list[Rule]:
    rules = all_rules()
    if stages:
        wanted_stages = {stage.strip() for stage in stages}
        for stage in wanted_stages:
            if stage not in STAGES:
                raise LintError(
                    f"unknown stage {stage!r} (choose from {', '.join(STAGES)})"
                )
        rules = [rule for rule in rules if rule.stage in wanted_stages]
    if select:
        wanted = {code.strip() for code in select}
        for code in wanted:
            rule_for_code(code)  # validate
        rules = [rule for rule in rules if rule.code in wanted]
    if ignore:
        dropped = {code.strip() for code in ignore}
        for code in dropped:
            rule_for_code(code)
        rules = [rule for rule in rules if rule.code not in dropped]
    return rules


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a deterministic list of ``.py`` files."""
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__" and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            raise LintError(f"no such file or directory: {path}")


def lint_contexts(
    contexts: list[FileContext],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    stages: Iterable[str] | None = None,
) -> list[Finding]:
    """Run the (filtered) rule set over already-parsed contexts.

    All project-scope rules share one :class:`Project` (and therefore one
    ``project.cache``), so the call graph and the flow/aio analyses are
    built exactly once per invocation regardless of how many stages run.
    """
    rules = _selected_rules(select, ignore, stages)
    project = Project(files=contexts)
    findings: list[Finding] = []
    for rule in rules:
        if rule.scope == "project":
            raw: Iterable[Finding] = rule.check_project(project)
            per_path = {ctx.path: ctx for ctx in contexts}
            for finding in raw:
                ctx = per_path.get(finding.path)
                if ctx is None or not ctx.suppressed(finding):
                    findings.append(finding)
        else:
            for ctx in contexts:
                for finding in rule.check_file(ctx):
                    if not ctx.suppressed(finding):
                        findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_sources(
    sources: dict[str, str] | list[tuple[str, str]],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    stages: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint in-memory sources (used heavily by the test suite).

    ``sources`` maps a pretend path (which also determines the module name,
    e.g. ``src/repro/sim/foo.py`` → ``repro.sim.foo``) to source text.
    """
    items = sources.items() if isinstance(sources, dict) else sources
    contexts = [FileContext.parse(path, text) for path, text in items]
    return lint_contexts(contexts, select=select, ignore=ignore, stages=stages)


def lint_paths(
    paths: Iterable[str],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    stages: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint files/directories on disk; unparsable files yield ``E999``."""
    contexts: list[FileContext] = []
    findings: list[Finding] = []
    for filepath in iter_python_files(paths):
        try:
            with open(filepath, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise LintError(f"cannot read {filepath}: {exc}") from exc
        try:
            contexts.append(FileContext.parse(filepath, source))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    code=SYNTAX_ERROR_CODE,
                    message=f"syntax error: {exc.msg}",
                    path=filepath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                )
            )
    findings.extend(lint_contexts(contexts, select=select, ignore=ignore, stages=stages))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
