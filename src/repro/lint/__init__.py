"""zuglint — repo-specific determinism & protocol-safety static analysis.

The reproduction rests on two contracts nothing else enforces:

* **Determinism** — simulated components take time from ``env.now()`` and
  randomness from :mod:`repro.util.rng` seeded streams.  A single
  ``time.time()`` or module-level ``random.random()`` makes runs
  irreproducible; an unsorted ``set`` feeding a hash makes replicas
  diverge silently.
* **Protocol safety** — every message that crosses a process boundary
  declares a wire tag on its class statement (unique by construction: a
  taken tag fails at import) and has a round-trippable codec.

zuglint walks Python ASTs and flags violations of both families.  Rules
are small plugins registered by code (``DET00x`` determinism, ``PROTO00x``
protocol safety); findings can be suppressed inline with
``# zuglint: disable=CODE``.

Run it as ``python -m repro.lint src/ tests/`` or via the ``repro-lint``
console script.
"""

from repro.lint.engine import (
    FileContext,
    Finding,
    LintError,
    Project,
    Rule,
    all_rules,
    lint_paths,
    lint_sources,
    register_rule,
    rule_for_code,
)

# Importing the rule modules registers every shipped rule (the flow
# package carries the interprocedural FLOW001-FLOW003 stage, the aio
# package the async concurrency ASYNC001-ASYNC006 stage, the sm package
# the protocol state-machine SM001-SM006 stage).
import repro.lint.rules  # noqa: E402,F401  (import for side effect)
import repro.lint.flow  # noqa: E402,F401  (import for side effect)
import repro.lint.aio  # noqa: E402,F401  (import for side effect)
import repro.lint.sm  # noqa: E402,F401  (import for side effect)

__all__ = [
    "FileContext",
    "Finding",
    "LintError",
    "Project",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_sources",
    "register_rule",
    "rule_for_code",
]
