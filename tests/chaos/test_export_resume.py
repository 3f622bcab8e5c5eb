"""Export under crash chaos: sessions resume and retries stay bounded."""

from repro.export.scenario import ExportScenario, ExportScenarioConfig


def crash_during_export(recover_at=30.0, n_blocks=30):
    scenario = ExportScenario(ExportScenarioConfig(n_blocks=n_blocks))
    dc = scenario.datacenters["dc-0"]
    # The designated full-block replica is down when the round starts; the
    # round wedges (no full blocks) until the replica announces recovery —
    # well before the 600 s timeout would rotate away from it.
    scenario.crash_replica("node-0")
    round_ = dc.start_export(full_from="node-0")
    scenario.kernel.schedule(recover_at, lambda: scenario.recover_replica("node-0"))
    deadline = scenario.kernel.now + 7200
    while not round_.complete and scenario.kernel.now < deadline:
        if not scenario.kernel.step():
            break
    return scenario, dc, round_


def test_session_resume_completes_the_wedged_round():
    scenario, dc, round_ = crash_during_export()
    assert round_.complete
    assert dc.archive.height == 30
    dc.archive.verify()
    metrics = scenario.collect_metrics()
    assert metrics.node("dc-0").counter_values().get("export.resumes_accepted", 0) >= 1
    assert metrics.node("node-0").counter_values().get("export.sessions_resumed", 0) == 1
    # One replica resume is one announced session, however many DCs accept it.
    assert metrics.aggregate().counter_values()["export.sessions_resumed"] == 1


def test_retries_stay_within_the_configured_bound():
    scenario, dc, round_ = crash_during_export()
    assert 1 <= round_.retries <= dc.config.max_round_retries
    metrics = scenario.collect_metrics()
    assert metrics.node("dc-0").counter_values().get("export.rounds_aborted", 0) == 0


def test_stale_resume_incarnation_is_dropped():
    scenario, dc, _ = crash_during_export()
    before = dc.stats.resumes_accepted
    # Replaying the same incarnation must not count as a new session.
    scenario.handlers["node-0"].resume_sessions(
        ["dc-0"], incarnation=scenario.handlers["node-0"].incarnation
    )
    scenario.kernel.run(max_events=10_000)
    assert dc.stats.resumes_accepted == before
