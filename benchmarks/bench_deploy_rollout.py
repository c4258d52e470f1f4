"""Rollout perf — what a certified fleet-wide deployment costs.

The transitional-safety verifier is the rollout's only pre-RPC cost
that scales with fabric size (one union graph build and verification,
plus one per-switch lint per distinct table), so this benchmark pins
its stage timings next to the planner's: a leaf-spine link-down is
re-planned incrementally on a 16-ToR Clos, then the resulting diff is
rolled onto a fault-free agent fleet and, separately, swept through
seeded chaos schedules. The fault-free run's stage split
(``plan-waves`` / ``certify`` / ``execute`` / ``verify-final``) is
recorded into ``BENCH_pipeline.json`` as the ``deploy`` entry.
"""

import time

from conftest import format_table
from repro.core import IncrementalPlanner, UpDownElpProvider, diff_tables
from repro.deploy import SAFE_OUTCOMES, random_fault_plan, run_rollout
from repro.topology import ClosParams, TopologyDelta, clos3

#: 4 pods x 4 ToRs = 16 ToRs; 28 switches. Big enough that certify
#: dominates execute, small enough to stay a sub-second benchmark.
CLOS16 = ClosParams(
    num_pods=4,
    tors_per_pod=4,
    leaves_per_pod=2,
    num_spines=2,
    hosts_per_tor=1,
)

FLAP = ("L1", "S1")
CHAOS_RUNS = 40


def build_transition():
    topo = clos3(CLOS16)
    planner = IncrementalPlanner(topo, UpDownElpProvider())
    old = {
        switch: table.__class__(
            switch=switch, rules=dict(table.rules), policy=table.policy
        )
        for switch, table in planner.plan.tables.items()
    }
    planner.apply(TopologyDelta.link_down(*FLAP))
    return planner.topo, old, dict(planner.plan.tables)


def test_deploy_rollout_baseline(report, baseline_entry):
    topo, old, new = build_transition()
    diffs = diff_tables(old, new)

    clean = run_rollout(topo, old, new)
    assert clean.outcome == "converged", clean.detail
    assert clean.final_lint_ok and clean.final_matches_target

    start = time.perf_counter()
    outcomes = {}
    for index in range(CHAOS_RUNS):
        faults = random_fault_plan(
            sorted(diffs), seed=index, rate=0.35, stuck_prob=0.1
        )
        result = run_rollout(topo, old, new, faults=faults)
        assert result.outcome in SAFE_OUTCOMES, result.detail
        assert result.final_lint_ok
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
    chaos_seconds = time.perf_counter() - start

    baseline_entry(
        "deploy",
        clean.timings,
        switches=len(topo.switches),
        diff_switches=len(diffs),
        waves=len(clean.waves),
        rpcs=clean.rpc_count,
        states_covered=clean.certificate.states_covered,
        chaos_runs=CHAOS_RUNS,
        chaos_ms_per_run=round(chaos_seconds / CHAOS_RUNS * 1000.0, 2),
    )

    rows = [
        (stage, f"{seconds * 1000.0:.2f}")
        for stage, seconds in clean.timings.items()
    ]
    rows.append(("chaos sweep (per run)",
                 f"{chaos_seconds / CHAOS_RUNS * 1000.0:.2f}"))
    report(
        "deploy_rollout",
        format_table(("stage", "ms"), rows)
        + f"\nchaos outcomes over {CHAOS_RUNS} seeded schedules: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(outcomes.items())),
    )
