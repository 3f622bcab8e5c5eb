"""repro.lint.flow — the interprocedural analysis stage.

Layered on the ``Project``/``Rule`` engine: :mod:`callgraph` builds a
name-resolved project call graph, :mod:`walk` holds the statement walker
and the fixpoint that the flow, aio and sm stages share, :mod:`summaries`
computes per-function taint/guard summaries with them, and :mod:`rules`
turns the results into the FLOW001–FLOW003 rule families.  Importing this
package registers all three rules.
"""

from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.summaries import FlowAnalysis, FunctionSummary, flow_analysis

# Importing the rule module registers FLOW001-FLOW003.
import repro.lint.flow.rules  # noqa: E402,F401  (import for side effect)

__all__ = [
    "CallGraph",
    "FlowAnalysis",
    "FunctionSummary",
    "build_call_graph",
    "flow_analysis",
]
