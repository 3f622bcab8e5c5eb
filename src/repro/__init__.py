"""ZugChain reproduction: blockchain-based juridical data recording for railways.

A from-scratch Python implementation of *ZugChain* (Rüsch et al., DSN
2022): a permissioned, PBFT-based blockchain that replaces a train's
centralized juridical recording unit, plus every substrate the paper's
evaluation depends on — an MVB bus simulator, a deterministic
discrete-event network/CPU model standing in for the M-COM testbed, the
traditional-client PBFT baseline, and the secure data-center export
protocol.

Quick start::

    from repro import ScenarioConfig, SimulatedCluster

    cluster = SimulatedCluster(ScenarioConfig(system="zugchain"))
    result = cluster.run(duration_s=60.0, warmup_s=5.0)
    print(result.summary_row())

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
scripts that regenerate every figure and table of the paper's evaluation.
"""

__version__ = "1.0.0"

#: Where each re-export lives.  Resolved on first access (PEP 562, as in
#: :mod:`repro.runtime`): importing any ``repro.x`` submodule runs this file
#: first, and a sweep worker that wants the cluster should not pay for the
#: export scenario and the JRU model on the way.
_LAZY = {
    "ScenarioConfig": "repro.scenarios",
    "ScenarioResult": "repro.scenarios",
    "SimulatedCluster": "repro.scenarios",
    "ZugChainConfig": "repro.core",
    "ZugChainLayer": "repro.core",
    "ZugChainNode": "repro.core",
    "BaselineNode": "repro.core",
    "BftConfig": "repro.bft",
    "PbftReplica": "repro.bft",
    "Block": "repro.chain",
    "Blockchain": "repro.chain",
    "BlockStore": "repro.chain",
    "ExportScenario": "repro.export.scenario",
    "ExportScenarioConfig": "repro.export.scenario",
    "check_requirements": "repro.jru",
    "survival_probability": "repro.jru",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
