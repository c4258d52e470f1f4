"""The final lint reuses the certificate's union proof without changing
a verdict.

When every live table equals a certified old or new table, the
orchestrator accepts the fleet without re-linting it; any other table
sends the fleet through the full ``lint_tables``. Across seeded chaos
schedules — partial batches, crashes, duplicates, reorders, wedged
switches, rollbacks and agents that lose removes — the report must read
exactly as it does when every rollout ends in a full lint.
"""

import pytest

import repro.deploy.orchestrator as orchestrator_module
from repro.core.elp import UpDownElpProvider
from repro.core.replan import IncrementalPlanner
from repro.core.rules import RuleTable, diff_tables
from repro.deploy import (
    FAILED,
    RolloutConfig,
    RolloutOrchestrator,
    fleet_from_tables,
    random_fault_plan,
    transition_queue_map,
)
from repro.fuzz.faults import deploy_lost_remove
from repro.lint import lint_tables
from repro.topology.clos import testbed_clos
from repro.topology.failures import TopologyDelta

SEEDS = range(40)

CONFIGS = {
    "quarantine": RolloutConfig(),
    "rollback": RolloutConfig(
        max_attempts=2, breaker_threshold=2, quarantine=False
    ),
}


@pytest.fixture(scope="module")
def transitions(transition):
    """The L1-S1 flap both ways (removes only, adds only) and a swap of
    the failed link from L1-S1 to L2-S2 (adds and removes)."""
    planner = IncrementalPlanner(testbed_clos(), UpDownElpProvider())
    planner.apply(TopologyDelta.link_down("L1", "S1"))
    l1s1 = _copy(planner.plan.tables)
    planner.apply(TopologyDelta.link_up("L1", "S1"))
    planner.apply(TopologyDelta.link_down("L2", "S2"))
    topo, old, new = transition
    return {
        "flap": (topo, old, new),
        "flap-back": (topo, new, old),
        "swap": (planner.topo, l1s1, _copy(planner.plan.tables)),
    }


def _copy(tables):
    return {
        switch: RuleTable(switch=switch, rules=dict(table.rules))
        for switch, table in tables.items()
    }


@pytest.fixture
def full_lints(monkeypatch):
    """Counts the orchestrator's full final-lint passes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lint_tables(*args, **kwargs)

    monkeypatch.setattr(orchestrator_module, "lint_tables", counting)
    return calls


def _rollout(topo, old, new, config, seed, lost_remove, always_full_lint):
    agents = fleet_from_tables(
        old, extra_switches=tuple(sorted(set(new) - set(old)))
    )
    if lost_remove:
        deploy_lost_remove(agents)
    faults = random_fault_plan(
        sorted(diff_tables(old, new)), seed=seed, rate=0.5, stuck_prob=0.2
    )
    orch = RolloutOrchestrator(
        topo, old, new, config=config, faults=faults, agents=agents
    )
    if always_full_lint:
        orch._is_certified = lambda switch, rules: False
    return orch, orch.run()


def _verdict(report):
    blob = report.to_dict()
    del blob["timings"]
    return blob


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("lost_remove", [False, True])
@pytest.mark.parametrize("name", ["flap", "flap-back", "swap"])
def test_final_lint_matches_full_lint(
    transitions, full_lints, config_name, lost_remove, name
):
    topo, old, new = transitions[name]
    config = CONFIGS[config_name]
    queue_map = transition_queue_map(old, new)
    skipped = 0
    for seed in SEEDS:
        before = len(full_lints)
        orch, report = _rollout(
            topo, old, new, config, seed, lost_remove, False
        )
        skipped += len(full_lints) == before
        assert report.final_lint_ok == lint_tables(
            topo, orch.final_tables(), queue_map
        ).ok
        _, reference = _rollout(
            topo, old, new, config, seed, lost_remove, True
        )
        assert _verdict(report) == _verdict(reference), f"seed {seed}"
    # Both paths ran: the proof for fleets of certified tables, the
    # full lint once lost removes leave a swap's stale keys behind.
    assert skipped > 0
    if lost_remove and name == "swap":
        assert skipped < len(SEEDS)


def test_rule_in_neither_plan_gets_the_full_lint(transition, full_lints):
    """A tag-decreasing rule the rollout never touches, on a switch
    outside the diff, is caught: the full lint runs and fails the run."""
    topo, old, new = transition
    bystander = sorted(set(old) - set(diff_tables(old, new)))[0]
    ports = sorted(topo.ports(bystander))
    agents = fleet_from_tables(old)
    agents[bystander].rules[(2, ports[0], ports[1])] = 1

    orch = RolloutOrchestrator(topo, old, new, agents=agents)
    report = orch.run()

    assert len(full_lints) == 1
    full = lint_tables(
        topo, orch.final_tables(), transition_queue_map(old, new)
    )
    assert not full.ok and not report.final_lint_ok
    assert report.outcome == FAILED
    assert report.detail == "final tables fail lint: " + "; ".join(
        d.render() for d in full.errors[:3]
    )
    assert "T002" in report.detail
