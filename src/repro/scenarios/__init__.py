"""Scenarios: a complete deployment from one config, on any runtime.

:class:`~repro.scenarios.recipe.ScenarioConfig` describes a run,
:func:`~repro.scenarios.cluster.run_scenario` executes it on one of
``RUNTIMES`` — the deterministic simulator, real TCP sockets, one OS
process per node — and returns a
:class:`~repro.scenarios.recipe.ScenarioResult`.
:class:`~repro.scenarios.cluster.SimulatedCluster` assembles the testbed of
§V-A — four recorder nodes on a 100 Mbit/s consensus Ethernet, an MVB with
a train-dynamics signal source, and either the ZugChain stack or the
traditional-client baseline — and exposes the measurements the evaluation
reports (latency, network utilization, CPU, memory).
"""

from repro.scenarios.cluster import RUNTIMES, SimulatedCluster, run_scenario
from repro.scenarios.recipe import NodeRecipe, ScenarioConfig, ScenarioResult

__all__ = [
    "RUNTIMES",
    "NodeRecipe",
    "ScenarioConfig",
    "ScenarioResult",
    "SimulatedCluster",
    "run_scenario",
]
