"""Guards: a scenario is one config, one recipe, one result — and stays so.

The three runtimes once each carried their own ``*ScenarioConfig``,
``*ScenarioResult``, key-derivation loop, node construction call and
``_payload`` stamp.  These tests walk ``src/repro`` so a second copy of any
of them fails here, by name and line, instead of drifting for ten PRs.
"""

import ast
import dataclasses
import functools
import pathlib

import repro
from repro.scenarios import ScenarioConfig, ScenarioResult

SRC = pathlib.Path(repro.__file__).parent
NODE_CONSTRUCTORS = {"ZugChainNode", "make_zugchain_node", "BaselineNode", "FabricatingNode"}
#: The Byzantine wrappers: ``make_zugchain_node`` picks the node class there.
EXEMPT = {"faults/behaviors.py"}


@functools.lru_cache(maxsize=None)
def _modules() -> tuple[tuple[str, ast.Module], ...]:
    """Every module of ``src/repro``, parsed once for all the guards."""
    return tuple((path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))
                 for path in sorted(SRC.rglob("*.py")))


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _scope_calls(module: str, tree: ast.AST) -> list[tuple[str, str, frozenset[str]]]:
    """(module, function, names it calls) for every function, nested ones too.

    One walk of the tree: a function's calls include those of the
    functions nested in it.
    """
    scopes = []

    def visit(node: ast.AST) -> set[str]:
        called = {_callee(node)} if isinstance(node, ast.Call) else set()
        for child in ast.iter_child_nodes(node):
            inner = visit(child)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((module, child.name, frozenset(inner)))
            called |= inner
        return called

    visit(tree)
    return scopes


@functools.lru_cache(maxsize=None)
def _src_scopes() -> tuple[tuple[str, str, frozenset[str]], ...]:
    return tuple(scope for module, tree in _modules() for scope in _scope_calls(module, tree))


def call_sites(names: set[str], extra=()) -> set[str]:
    """``module:function`` of every function in ``src/repro`` (plus ``extra``
    ``(module, tree)`` pairs) that calls one of ``names``."""
    scopes = [*_src_scopes(), *(scope for module, tree in extra
                                for scope in _scope_calls(module, tree))]
    return {f"{module}:{function}" for module, function, called in scopes
            if module not in EXEMPT and called & names}


def test_nodes_are_constructed_in_one_place():
    assert call_sites(NODE_CONSTRUCTORS) == {"scenarios/recipe.py:build_node"}


def test_the_guard_sees_a_second_construction_site():
    rogue = ast.parse(
        "def make_node(env):\n"
        "    return ZugChainNode(env=env, bft_config=BFT, zug_config=ZUG,\n"
        "                        keypair=KEYS[env.node_id], keystore=STORE, nsdb=NSDB)\n"
    )
    assert call_sites(NODE_CONSTRUCTORS, [("runtime/tcp_scenario.py", rogue)]) == {
        "scenarios/recipe.py:build_node", "runtime/tcp_scenario.py:make_node"}


def test_keys_are_derived_in_one_loop():
    assert call_sites({"derive_keypair"}) == {"crypto/keys.py:derive_keys"}
    assert call_sites({"derive_keys"}) == {
        "scenarios/recipe.py:__init__", "export/scenario.py:__init__"}


def test_no_second_scenario_config_result_or_payload_stamp():
    classes, functions = set(), set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.add(node.name)
    scenario_classes = {name for name in classes
                        if name.endswith(("ScenarioConfig", "ScenarioResult"))}
    assert scenario_classes == {"ScenarioConfig", "ScenarioResult", "ExportScenarioConfig"}
    assert not {"_payload", "run_tcp_scenario", "run_multiprocess_scenario"} & functions
    assert not (SRC / "runtime" / "tcp_scenario.py").exists()


def test_scenario_config_kept_its_seventeen_fields():
    assert [field.name for field in dataclasses.fields(ScenarioConfig)] == [
        "system", "n", "seed", "cycle_time_s", "payload_bytes", "block_size",
        "soft_timeout_s", "hard_timeout_s", "view_change_timeout_s", "retention_s",
        "sample_interval_s", "preprepare_cancels_soft", "filtering_enabled",
        "max_open_per_node", "bft_backend", "bus_faults", "byzantine",
    ]


# -- heads_consistent: agreement is about equal heights ---------------------------


def result_with(chain_heights, head_hashes, **facts) -> ScenarioResult:
    return ScenarioResult(
        system="zugchain", cycle_time_s=0.064, payload_bytes=1024, duration_s=1.0,
        mean_latency_s=0.0, p99_latency_s=0.0, max_latency_s=0.0,
        requests_logged=0, requests_expected=0,
        network_utilization=None, cpu_utilization=None,
        memory_mean_bytes=None, memory_peak_bytes=None, view_changes=0,
        chain_heights=chain_heights, head_hashes=head_hashes, **facts,
    )


def test_equal_heights_must_agree():
    heights = {"node-0": 3, "node-1": 3, "node-2": 3, "node-3": 3}
    assert result_with(heights, dict.fromkeys(heights, "aa")).heads_consistent
    assert not result_with(heights, {**dict.fromkeys(heights, "aa"), "node-2": "bb"}
                           ).heads_consistent


def test_a_node_one_block_behind_is_lag_not_divergence():
    lagging = result_with(
        {"node-0": 3, "node-1": 3, "node-2": 2, "node-3": 3},
        {"node-0": "aa", "node-1": "aa", "node-2": "99", "node-3": "aa"},
        completed=False,
    )
    assert lagging.heads_consistent and not lagging.completed
    # ...but two laggards at one height answer to each other.
    assert not result_with(
        {"node-0": 3, "node-1": 2, "node-2": 2, "node-3": 3},
        {"node-0": "aa", "node-1": "99", "node-2": "77", "node-3": "aa"},
    ).heads_consistent


def test_empty_chains_and_missing_nodes_do_not_count():
    assert result_with({}, {}).heads_consistent
    assert result_with({"node-0": 0, "node-1": 0, "node-2": 1},
                       {"node-0": "", "node-1": "", "node-2": "aa"}).heads_consistent
