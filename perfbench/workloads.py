"""The benchmark workloads, their output checks and their metrics.

Every workload is a closed loop with one caller: the next operation
starts only after the previous one returns, in one process, with no
threads or worker processes. Inputs come from the workload seed alone;
the program under test only ever receives the generated inputs.

Each workload returns a :class:`Result` holding every metric it
computed by name. ``run.py`` picks the end-to-end or per-layer set that
``BENCHMARK.json`` lists and fills a per-layer metric the workload did
not compute with 0, which means that layer did no work in the workload.
"""

import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import (
    IncrementalPlanner,
    RuleTable,
    TaggerPlan,
    UpDownElpProvider,
    tables_equal,
)
from repro.deploy import random_fault_plan, run_rollout
from repro.detect import RecoveryArbiter, RecoveryCoordinator
from repro.fuzz import FuzzConfig, run_fuzz
from repro.fuzz.scenarios import ScenarioGenerator
from repro.lint import lint_plan
from repro.obs import Telemetry, sample_queue_gauges
from repro.obs.events import EV_SIM_DELIVER, EV_SIM_INJECT
from repro.routing import install_loop, shortest_path_tables
from repro.routing.reroute import apply_local_reroute
from repro.simulator import (
    DROP_LOSSLESS,
    DROP_LOSSY,
    DeadlockDetector,
    Flow,
    SimNetwork,
    find_deadlock_cycle,
)
from repro.simulator.packet import SimConfig
from repro.topology import ClosParams, TopologyDelta, clos3
from repro.topology.failures import apply_delta

from tracing import NullTracer, Tracer, profile_simulator

NULL = NullTracer()


@dataclass(frozen=True)
class Profile:
    """Workload sizes. ``FULL`` is the benchmark; ``SMOKE`` its tests."""

    clos: ClosParams
    senders: int
    sim_duration: float
    fuzz_iterations: int


#: The 64-ToR Clos of the repository's scale benchmarks (100 switches).
FULL = Profile(
    clos=ClosParams(num_pods=8, tors_per_pod=8, leaves_per_pod=4,
                    num_spines=4, hosts_per_tor=1),
    senders=16,
    sim_duration=0.005,
    fuzz_iterations=20,
)

SMOKE = Profile(
    clos=ClosParams(num_pods=2, tors_per_pod=4, leaves_per_pod=2,
                    num_spines=2, hosts_per_tor=1),
    senders=4,
    sim_duration=0.001,
    fuzz_iterations=3,
)

#: Campaign seed of ``fuzz-campaign``. Fixed: the scenario mix a campaign
#: seed draws changes its cost two- to four-fold, which would swamp any
#: change the workload exists to show.
FUZZ_SEED = 7

#: Fault schedule density of the churn rollouts (as in the repository's
#: deploy benchmark): retries, quarantines and rollbacks all occur.
FAULT_RATE = 0.35
STUCK_PROB = 0.1

#: Seeded faults the benchmark's own tests inject, by workload.
FAULTS = {
    "sim-pfc-clos64": ("lossless-drop",),
    "e2e-tagger-clos64": ("lossless-drop", "lint-error"),
    "churn-clos64": ("lint-error",),
    "fuzz-campaign": ("fuzz-violation",),
}


@dataclass
class Result:
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Headline figures of this workload by their own names (sim_pps,
    #: workflow_s, ...): name -> (value, unit).
    headline: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None


class Ledger:
    """Output checks, failure counts and repeat-determinism of one run."""

    def __init__(self) -> None:
        self.result = Result()
        self._fingerprints: Dict[str, Any] = {}

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.result.problems.append(what)
        return ok

    def same(self, key: str, fingerprint: Any) -> None:
        """Repeats of one seed must reproduce ``fingerprint`` exactly."""
        first = self._fingerprints.setdefault(key, fingerprint)
        self.check(first == fingerprint,
                   f"{key}: repeat differs from first run: {fingerprint} != {first}")


class Loop:
    """Closed-loop runner: operations back to back for ``seconds``.

    In a traced run even-numbered operations are traced and odd ones are
    not, so the same run measures the tracing overhead, as the difference
    within each adjacent traced/untraced pair (which cancels slow drift in
    machine speed).
    """

    def __init__(self, seconds: float, trace: bool, min_ops: int = 2) -> None:
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.min_ops = min_ops
        self.walls: List[float] = []

    def run(self, op: Callable[[int, Any], None]) -> None:
        start = time.perf_counter()
        index = 0
        while index < self.min_ops or time.perf_counter() - start < self.seconds:
            tracer = NULL
            if self.tracer is not None and index % 2 == 0:
                tracer = self.tracer
                tracer.op = index
            began = time.perf_counter()
            tracer.call("bench", "op", op, index, tracer)
            self.walls.append(time.perf_counter() - began)
            index += 1

    @property
    def traced_ops(self) -> int:
        return len(self.walls[0::2])

    def trace_metrics(self) -> Dict[str, float]:
        pairs = list(zip(self.walls[0::2], self.walls[1::2]))
        metrics = {
            "trace.overhead_ms": statistics.median(t - u for t, u in pairs) * 1000.0,
            "trace.overhead_share": statistics.median((t - u) / u for t, u in pairs),
            "trace.spans_per_op": len(self.tracer.spans) / self.traced_ops,
        }
        for layer, seconds in self.tracer.self_seconds().items():
            metrics[f"layer.{layer}.self_ms"] = seconds * 1000.0 / self.traced_ops
        return metrics


def median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1000.0


def switches_of_layer(topo, layer: int) -> List[str]:
    return sorted(s for s in topo.switches if topo.node(s).layer == layer)


def neighbors_of_layer(topo, switch: str, layer: int) -> List[str]:
    return sorted(n for n in topo.neighbors(switch) if topo.node(n).layer == layer)


# ----------------------------------------------------------------------
# Traffic shared by both simulator workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Traffic:
    """A many-to-one incast of 4 KB packets over an all-hosts ring of 1 KB."""

    sink: str
    senders: Tuple[str, ...]
    ring: Tuple[Tuple[str, str], ...]
    sim_seed: int


def make_traffic(rng: random.Random, profile: Profile) -> Traffic:
    topo = clos3(profile.clos)
    hosts = sorted(topo.hosts, key=lambda h: int(h[1:]))
    sink = rng.choice(hosts)
    senders = tuple(rng.sample([h for h in hosts if h != sink], profile.senders))
    # Every ring peer sits in another pod, so each ring flow crosses the
    # spine layer whatever the offset.
    per_pod = profile.clos.tors_per_pod * profile.clos.hosts_per_tor
    offset = rng.randrange(per_pod, len(hosts) - per_pod + 1)
    ring = tuple(
        (src, hosts[(i + offset) % len(hosts)]) for i, src in enumerate(hosts)
    )
    return Traffic(sink, senders, ring, rng.randrange(1, 2**31))


def add_traffic(tracer, net: SimNetwork, traffic: Traffic) -> None:
    flow_id = 1
    for src in traffic.senders:
        tracer.call("simulator", "SimNetwork.add_flow", net.add_flow, Flow(
            src=src, dst=traffic.sink, packet_size=4096, window=8,
            flow_id=flow_id))
        flow_id += 1
    for src, dst in traffic.ring:
        tracer.call("simulator", "SimNetwork.add_flow", net.add_flow, Flow(
            src=src, dst=dst, packet_size=1000, window=8, flow_id=flow_id))
        flow_id += 1


def sim_fingerprint(net: SimNetwork) -> Tuple[Any, ...]:
    metrics = net.metrics
    return (
        sum(metrics.delivered_packets.values()),
        tuple(sorted(metrics.drops.items())),
        metrics.pfc.pause_count,
        metrics.pfc.resume_count,
        net.sim.now,
        net.sim.total_events_run,
    )


def sim_counters(net: SimNetwork) -> Dict[str, float]:
    metrics = net.metrics
    delivered = sum(metrics.delivered_packets.values())
    events = net.sim.total_events_run
    return {
        "simulator.events": events,
        "simulator.delivered": delivered,
        "simulator.events_per_packet": events / delivered if delivered else 0.0,
        "simulator.pauses": metrics.pfc.pause_count,
        "simulator.resumes": metrics.pfc.resume_count,
        "simulator.drops_lossy": metrics.drops.get(DROP_LOSSY, 0),
        "simulator.drops_lossless": metrics.drops.get(DROP_LOSSLESS, 0),
        "simulator.demotions": sum(metrics.demotions.values()),
    }


def sim_config(traffic: Traffic, fault: Optional[str]) -> SimConfig:
    if fault == "lossless-drop":
        # No headroom above XOFF: packets in flight when PAUSE goes out
        # overflow the lossless queue.
        return SimConfig(seed=traffic.sim_seed, headroom_bytes=0)
    return SimConfig(seed=traffic.sim_seed)


def rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# sim-pfc-clos64
# ----------------------------------------------------------------------
def sim_pfc(profile: Profile, seed: int, seconds: float, trace: bool,
            fault: Optional[str] = None) -> Result:
    traffic = make_traffic(random.Random(seed), profile)
    ledger = Ledger()
    result = ledger.result
    loop = Loop(seconds, trace)
    builds: List[float] = []
    runs: List[float] = []
    delivered_total = 0
    last: Dict[str, Any] = {}

    def build(tracer) -> SimNetwork:
        topo = tracer.call("topology", "clos3", clos3, profile.clos)
        table = tracer.call("routing", "shortest_path_tables", shortest_path_tables, topo)
        net = tracer.call("simulator", "SimNetwork", SimNetwork, topo, table,
                          config=sim_config(traffic, fault))
        add_traffic(tracer, net, traffic)
        return net

    def op(index: int, tracer) -> None:
        nonlocal delivered_total
        began = time.perf_counter()
        net = build(tracer)
        built = time.perf_counter()
        tracer.call("simulator", "SimNetwork.run", net.run, profile.sim_duration)
        ended = time.perf_counter()
        builds.append(built - began)
        runs.append(ended - built)
        delivered = sum(net.metrics.delivered_packets.values())
        delivered_total += delivered

        fingerprint = sim_fingerprint(net)
        ledger.same("simulated fingerprint", fingerprint)
        ledger.check(delivered > 0, "no traffic delivered")
        ledger.check(net.metrics.pfc.pause_count > 0, "PFC never fired")
        lossless_drops = net.metrics.drops.get(DROP_LOSSLESS, 0)
        ledger.check(lossless_drops == 0, f"{lossless_drops} lossless drop(s) under PFC")
        result.attempted += sum(net.metrics.injected_packets.values())
        result.failed += lossless_drops
        last["net"] = net

    loop.run(op)
    metrics = result.metrics
    metrics.update(sim_counters(last["net"]))
    metrics.update({
        "setup_s": statistics.median(builds),
        "op_p50_ms": median_ms(runs),
        "rate_per_s": delivered_total / sum(runs),
        "simulator.build_s": statistics.median(builds),
        "simulator.run_s": statistics.median(runs),
    })
    if trace:
        metrics.update(loop.trace_metrics())
        net = build(NULL)
        metrics.update(profile_simulator(
            lambda: net.run(profile.sim_duration),
            lambda: sum(net.metrics.delivered_packets.values()),
        ))
        ledger.same("simulated fingerprint", sim_fingerprint(net))
    metrics["peak_rss_mb"] = rss_mb()
    result.headline = {
        "setup_s": (metrics["setup_s"], "s"),
        "sim_pps": (metrics["rate_per_s"], "1/s"),
    }
    result.tracer = loop.tracer
    return result


# ----------------------------------------------------------------------
# e2e-tagger-clos64
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workflow:
    traffic: Traffic
    failed_link: Tuple[str, str]
    loop_dst: str
    loop_pair: Tuple[str, str]


def make_workflow(rng: random.Random, profile: Profile) -> Workflow:
    traffic = make_traffic(rng, profile)
    topo = clos3(profile.clos)
    tor = rng.choice(switches_of_layer(topo, 0))
    leaf = rng.choice(neighbors_of_layer(topo, tor, 1))
    loop_dst = rng.choice(sorted(topo.hosts))
    loop_tor = topo.host_tor(loop_dst)
    loop_leaf = rng.choice(
        [n for n in neighbors_of_layer(topo, loop_tor, 1)
         if {loop_tor, n} != {tor, leaf}]
    )
    return Workflow(traffic, (tor, leaf), loop_dst, (loop_tor, loop_leaf))


@dataclass
class WorkflowRun:
    """Everything one pass of the user workflow produced."""

    plan: TaggerPlan
    lint: Any
    net: SimNetwork
    telemetry: Telemetry
    detector: DeadlockDetector
    coordinator: RecoveryCoordinator
    snapshot: Dict[str, Any]
    prometheus: str
    cycle: Any
    #: Seconds spent per workflow stage, in order.
    stages: Dict[str, float]


def run_workflow(tracer, profile: Profile, workflow: Workflow, topo, table,
                 fault: Optional[str]) -> WorkflowRun:
    """plan -> lint -> fail a link and reroute -> simulate -> stats -> check."""
    stages: Dict[str, float] = {}
    mark = time.perf_counter()

    def stage(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stages[name] = now - mark
        mark = now

    plan = tracer.call("core", "TaggerPlan.for_clos", TaggerPlan.for_clos,
                       topo, max_bounces=1)
    stage("plan")
    lint = tracer.call("lint", "lint_plan", lint_plan, plan,
                       tcam_budget=1 if fault == "lint-error" else None)
    stage("lint")
    tracer.call("topology", "Topology.fail_link", topo.fail_link, *workflow.failed_link)
    tracer.call("routing", "apply_local_reroute", apply_local_reroute,
                topo, table, workflow.failed_link)
    telemetry = Telemetry()
    net = tracer.call("simulator", "SimNetwork.with_plan", SimNetwork.with_plan,
                      topo, table, plan, config=sim_config(workflow.traffic, fault),
                      telemetry=telemetry)
    detector = tracer.call("detect", "DeadlockDetector", DeadlockDetector, net)
    coordinator = tracer.call("detect", "RecoveryCoordinator", RecoveryCoordinator,
                              net, arbiter=RecoveryArbiter())
    detector.on_confirm = coordinator.on_confirm
    tracer.call("detect", "DeadlockDetector.install", detector.install)
    add_traffic(tracer, net, workflow.traffic)
    tracer.call("simulator", "SimNetwork.at", net.at, profile.sim_duration / 2,
                lambda: install_loop(net.table, workflow.loop_dst, *workflow.loop_pair))
    stage("build")
    tracer.call("simulator", "SimNetwork.run", net.run, profile.sim_duration)
    stage("run")
    tracer.call("obs", "sample_queue_gauges", sample_queue_gauges, telemetry.registry, net)
    snapshot = tracer.call("obs", "Telemetry.snapshot", telemetry.snapshot)
    prometheus = tracer.call("obs", "Telemetry.render_prometheus", telemetry.render_prometheus)
    stage("stats")
    cycle = tracer.call("detect", "find_deadlock_cycle", find_deadlock_cycle, net)
    return WorkflowRun(plan, lint, net, telemetry, detector, coordinator,
                       snapshot, prometheus, cycle, stages)


def e2e_tagger(profile: Profile, seed: int, seconds: float, trace: bool,
               fault: Optional[str] = None) -> Result:
    workflow = make_workflow(random.Random(seed), profile)
    ledger = Ledger()
    result = ledger.result
    loop = Loop(seconds, trace)
    samples: Dict[str, List[float]] = {"setup": [], "workflow": [], "delivered": []}
    last: Dict[str, WorkflowRun] = {}

    def setup(tracer):
        topo = tracer.call("topology", "clos3", clos3, profile.clos)
        table = tracer.call("routing", "shortest_path_tables", shortest_path_tables, topo)
        return topo, table

    def op(index: int, tracer) -> None:
        began = time.perf_counter()
        topo, table = setup(tracer)
        started = time.perf_counter()
        run = run_workflow(tracer, profile, workflow, topo, table, fault)
        samples["setup"].append(started - began)
        samples["workflow"].append(time.perf_counter() - started)
        for name, seconds_taken in run.stages.items():
            samples.setdefault(name, []).append(seconds_taken)

        metrics = run.net.metrics
        bus = run.telemetry.bus
        delivered = sum(metrics.delivered_packets.values())
        injected = sum(metrics.injected_packets.values())
        lossless_drops = metrics.drops.get(DROP_LOSSLESS, 0)
        samples["delivered"].append(delivered)
        ledger.same("simulated fingerprint", sim_fingerprint(run.net))
        ledger.same("workflow counters", (
            run.plan.total_rules, tuple(sorted(run.lint.stats.items())),
            len(run.lint.errors), run.detector.triggers_originated,
            run.detector.suspects_raised, run.detector.confirms,
            len(run.coordinator.quarantines), bus.total_emitted,
        ))
        ledger.check(delivered > 0, "no traffic delivered")
        ledger.check(run.lint.ok, f"lint found {len(run.lint.errors)} error(s) in the Clos plan")
        ledger.check(run.cycle is None, "deadlock left at the end of the run")
        ledger.check(run.detector.confirms == 0,
                     f"detector confirmed {run.detector.confirms} deadlock(s) under Tagger")
        ledger.check(lossless_drops == 0, f"{lossless_drops} lossless drop(s) under Tagger")
        ledger.check(bus.count(EV_SIM_INJECT) == injected,
                     "bus inject count disagrees with MetricsRecorder")
        ledger.check(bus.count(EV_SIM_DELIVER) == delivered,
                     "bus deliver count disagrees with MetricsRecorder")
        ledger.check(run.snapshot["events"]["total"] == bus.total_emitted
                     and bool(run.prometheus),
                     "telemetry snapshot or Prometheus text incomplete")
        result.attempted += injected
        result.failed += (lossless_drops + (run.cycle is not None)
                          + (run.detector.confirms > 0) + (not run.lint.ok))
        last["run"] = run

    loop.run(op)
    run = last["run"]
    metrics = result.metrics
    metrics.update(sim_counters(run.net))
    metrics.update(lint_counters(run.lint))
    metrics.update({
        "setup_s": statistics.median(samples["setup"]),
        "op_p50_ms": median_ms(samples["workflow"]),
        "rate_per_s": sum(samples["delivered"]) / sum(samples["run"]),
        "core.plan_s": statistics.median(samples["plan"]),
        "core.rules": run.plan.total_rules,
        "lint.p50_ms": median_ms(samples["lint"]),
        "simulator.build_s": statistics.median(samples["build"]),
        "simulator.run_s": statistics.median(samples["run"]),
        "detection.triggers": run.detector.triggers_originated,
        "detection.suspects": run.detector.suspects_raised,
        "detection.confirms": run.detector.confirms,
        "detect.quarantines": len(run.coordinator.quarantines),
        "detect.moved": sum(q.moved for q in run.coordinator.quarantines),
        "obs.events": run.telemetry.bus.total_emitted,
        "obs.stats_s": statistics.median(samples["stats"]),
    })
    if trace:
        metrics.update(loop.trace_metrics())
        topo, table = setup(NULL)
        profiled: Dict[str, WorkflowRun] = {}

        def profiled_workflow() -> None:
            profiled["run"] = run_workflow(NULL, profile, workflow, topo, table, fault)

        metrics.update(profile_simulator(
            profiled_workflow,
            lambda: sum(profiled["run"].net.metrics.delivered_packets.values()),
        ))
        ledger.same("simulated fingerprint", sim_fingerprint(profiled["run"].net))
    metrics["peak_rss_mb"] = rss_mb()
    result.headline = {
        "setup_s": (metrics["setup_s"], "s"),
        "workflow_s": (metrics["op_p50_ms"] / 1000.0, "s"),
        "sim_pps": (metrics["rate_per_s"], "1/s"),
    }
    result.tracer = loop.tracer
    return result


def lint_counters(lint) -> Dict[str, float]:
    rules = lint.stats.get("rules", 0)
    dead = lint.stats.get("dead_rules", 0)
    return {
        "lint.rules": rules,
        "lint.dead_rules": dead,
        "lint.dead_rule_share": dead / rules if rules else 0.0,
        "lint.reachable_states": lint.stats.get("reachable_states", 0),
        "lint.errors": len(lint.errors),
    }


# ----------------------------------------------------------------------
# churn-clos64
# ----------------------------------------------------------------------
def churn_deltas(rng: random.Random, profile: Profile) -> List[TopologyDelta]:
    """One pass of churn: the seed picks the links and switch that flap.

    The mix of event kinds is fixed. ``random_delta_sequence`` draws the
    kinds too, and the median cost of its deltas then moves by 20% between
    seeds, which would hide the changes this workload exists to show. A
    leaf-spine event costs about twice a ToR event on this fabric, so the
    pass holds two of the first and three of the second: the median delta
    is a ToR event on every seed, and the mean counts the spine events.
    The pass ends with a ToR uplink down, so the from-scratch comparison
    at the end of a run is made on a damaged fabric.
    """
    topo = clos3(profile.clos)
    leaf = rng.choice(switches_of_layer(topo, 1))
    spine_link = (leaf, rng.choice(neighbors_of_layer(topo, leaf, 2)))
    tor, drained = rng.sample(switches_of_layer(topo, 0), 2)
    tor_link = (tor, rng.choice(neighbors_of_layer(topo, tor, 1)))
    return [
        TopologyDelta.link_down(*spine_link),
        TopologyDelta.link_down(*tor_link),
        TopologyDelta.drain(drained),
        TopologyDelta.undrain(drained),
        TopologyDelta.link_up(*spine_link),
    ]


def copy_tables(tables: Dict[str, RuleTable]) -> Dict[str, RuleTable]:
    return {
        switch: RuleTable(switch=switch, rules=dict(table.rules), policy=table.policy)
        for switch, table in tables.items()
    }


def churn(profile: Profile, seed: int, seconds: float, trace: bool,
          fault: Optional[str] = None) -> Result:
    rng = random.Random(seed)
    deltas = churn_deltas(rng, profile)
    fault_seeds = [rng.randrange(1, 2**31) for _ in deltas]
    ledger = Ledger()
    result = ledger.result
    loop = Loop(seconds, trace)
    samples: Dict[str, List[float]] = {
        key: [] for key in ("setup", "init", "reconverge", "replan", "lint", "rollout")
    }
    stage_samples: Dict[str, List[float]] = {}
    last: Dict[str, Any] = {}

    def one_pass(index: int, tracer) -> None:
        began = time.perf_counter()
        topo = tracer.call("topology", "clos3", clos3, profile.clos)
        initialized = time.perf_counter()
        planner = tracer.call("core", "IncrementalPlanner", IncrementalPlanner,
                              topo, UpDownElpProvider(), strategy="symmetry")
        ended = time.perf_counter()
        samples["setup"].append(ended - began)
        samples["init"].append(ended - initialized)
        for stage, seconds_taken in planner.initial_timings.items():
            stage_samples.setdefault(f"init.{stage}", []).append(seconds_taken)
        ledger.check(planner.plan.verify().deadlock_free, "cold-start plan fails verify()")
        initial = (planner.plan.meta.get("elp_paths", 0), planner.plan.total_rules)

        pass_counters: List[Dict[str, float]] = []
        lint_stats: List[List[Tuple[str, int]]] = []
        for position, delta in enumerate(deltas):
            old = copy_tables(planner.plan.tables)
            t0 = time.perf_counter()
            replan = tracer.call("core", "IncrementalPlanner.apply", planner.apply, delta)
            t1 = time.perf_counter()
            lint = tracer.call("lint", "lint_plan", lint_plan, planner.plan,
                               tcam_budget=1 if fault == "lint-error" else None)
            t2 = time.perf_counter()
            faults = random_fault_plan(sorted(replan.diffs), seed=fault_seeds[position],
                                       rate=FAULT_RATE, stuck_prob=STUCK_PROB)
            t3 = time.perf_counter()
            rollout = tracer.call("deploy", "run_rollout", run_rollout, planner.topo,
                                  old, dict(planner.plan.tables), faults=faults)
            t4 = time.perf_counter()
            samples["replan"].append(t1 - t0)
            samples["lint"].append(t2 - t1)
            samples["rollout"].append(t4 - t3)
            samples["reconverge"].append((t2 - t0) + (t4 - t3))
            for stage, seconds_taken in rollout.timings.items():
                stage_samples.setdefault(f"rollout.{stage}", []).append(seconds_taken)

            verified = planner.plan.verify().deadlock_free
            ledger.check(verified, f"{delta.describe()}: plan fails verify()")
            ledger.check(lint.ok, f"{delta.describe()}: lint found {len(lint.errors)} error(s)")
            rolled = rollout.ok and rollout.final_lint_ok
            ledger.check(rolled, f"{delta.describe()}: rollout {rollout.outcome}, "
                                 f"final lint ok={rollout.final_lint_ok}")
            result.attempted += 1
            result.failed += not (verified and lint.ok and rolled)
            pass_counters.append({
                f"core.replan.{replan.mode}": 1,
                "core.replan.dirty_pairs": replan.dirty_pairs,
                "core.replan.changed_paths": replan.changed_paths,
                "core.replan.rule_touches": replan.total_rule_touches,
                f"deploy.{rollout.outcome.replace('-', '_')}": 1,
                "deploy.rpcs": rollout.rpc_count,
                "deploy.retries": rollout.retries,
                "deploy.rollbacks": rollout.rollbacks,
                "deploy.waves": len(rollout.waves),
                "deploy.virtual_time_s": rollout.virtual_time,
            })
            lint_stats.append(sorted(lint.stats.items()))
        ledger.same("churn counters", (initial, pass_counters, lint_stats))
        last.update(planner=planner, initial=initial, counters=pass_counters, lint=lint)

    loop.run(one_pass)

    # Differential check outside the timed region: the incrementally
    # maintained plan must equal a from-scratch plan of the final topology.
    final_topo = clos3(profile.clos)
    for delta in deltas:
        apply_delta(final_topo, delta)
    scratch = TaggerPlan.from_provider(final_topo, UpDownElpProvider())
    ledger.check(tables_equal(last["planner"].plan.tables, scratch.tables),
                 "final incremental plan differs from the from-scratch plan")

    metrics = result.metrics
    elp_paths, rules = last["initial"]
    # Counts are totals over one pass; lint figures are those of its last plan.
    for counters in last["counters"]:
        for name, value in counters.items():
            metrics[name] = metrics.get(name, 0) + value
    metrics.update(lint_counters(last["lint"]))
    metrics.update({
        "setup_s": statistics.median(samples["setup"]),
        "op_p50_ms": median_ms(samples["reconverge"]),
        "rate_per_s": len(samples["reconverge"]) / sum(samples["reconverge"]),
        "core.plan_s": statistics.median(samples["init"]),
        "core.replan_p50_ms": median_ms(samples["replan"]),
        "core.elp_paths": elp_paths,
        "core.rules": rules,
        "lint.p50_ms": median_ms(samples["lint"]),
        "deploy.rollout_p50_ms": median_ms(samples["rollout"]),
    })
    for stage in ("certify", "elp", "bruteforce", "minimize", "verify"):
        metrics[f"core.{stage}_s"] = statistics.median(stage_samples.get(f"init.{stage}", [0.0]))
    for stage, name in (("certify", "certify_s"), ("verify-final", "verify_final_s"),
                        ("execute", "execute_s")):
        metrics[f"deploy.{name}"] = statistics.median(
            stage_samples.get(f"rollout.{stage}", [0.0]))
    if trace:
        metrics.update(loop.trace_metrics())
    metrics["peak_rss_mb"] = rss_mb()
    result.headline = {
        "setup_s": (metrics["setup_s"], "s"),
        "plan_init_s": (metrics["core.plan_s"], "s"),
        "reconverge_p50_ms": (metrics["op_p50_ms"], "ms"),
        "dead_rule_share": (metrics["lint.dead_rule_share"], "ratio"),
    }
    result.tracer = loop.tracer
    return result


# ----------------------------------------------------------------------
# fuzz-campaign
# ----------------------------------------------------------------------
def fuzz_campaign(profile: Profile, seed: int, seconds: float, trace: bool,
                  fault: Optional[str] = None) -> Result:
    config = FuzzConfig(
        seed=FUZZ_SEED,
        iterations=profile.fuzz_iterations,
        oracle_budget=1,
        detect_budget=1,
        shrink=False,
        workers=1,
        inject_fault="skip-r2" if fault == "fuzz-violation" else None,
    )
    ledger = Ledger()
    result = ledger.result
    loop = Loop(seconds, trace)
    samples: Dict[str, List[float]] = {"setup": [], "campaign": [], "scenarios": []}
    last: Dict[str, Any] = {}

    def materialize(tracer) -> None:
        generator = ScenarioGenerator(config.seed)
        for _ in range(config.iterations):
            scenario = next(generator)
            topo = tracer.call("topology", "Scenario.build_topology", scenario.build_topology)
            tracer.call("core", "Scenario.build_elp", scenario.build_elp, topo)

    def op(index: int, tracer) -> None:
        began = time.perf_counter()
        materialize(tracer)
        started = time.perf_counter()
        with spans_inside_fuzz(tracer):
            report = tracer.call("fuzz", "run_fuzz", run_fuzz, config)
        ended = time.perf_counter()
        samples["setup"].append(started - began)
        samples["campaign"].append(ended - started)
        samples["scenarios"].append(report.iterations_run)

        blob = report.to_dict()
        blob.pop("elapsed_seconds", None)
        ledger.same("fuzz report", blob)
        ledger.check(report.ok, f"fuzz report has {len(report.violations)} violation(s)")
        ledger.check(not report.oracle_misses,
                     f"oracle missed on {report.oracle_misses}")
        result.attempted += report.iterations_run
        result.failed += len(report.violations) + len(report.oracle_misses)
        last["report"] = report

    loop.run(op)
    report = last["report"]
    metrics = result.metrics
    metrics.update({
        "setup_s": statistics.median(samples["setup"]),
        "op_p50_ms": median_ms(samples["campaign"]),
        "rate_per_s": sum(samples["scenarios"]) / sum(samples["campaign"]),
        "fuzz.run_s": statistics.median(samples["campaign"]),
        "fuzz.invariant_checks": report.invariant_checks,
        "fuzz.oracle_runs": report.oracle_runs,
        "fuzz.detect_runs": report.detect_runs,
    })
    if trace:
        oracle = sum(end - start for _, name, _, start, end, _ in loop.tracer.spans
                     if name == "run_oracle")
        metrics["simulator.oracle_s"] = oracle / loop.traced_ops
        metrics.update(loop.trace_metrics())
    metrics["peak_rss_mb"] = rss_mb()
    result.headline = {
        "setup_s": (metrics["setup_s"], "s"),
        "scenarios_per_s": (metrics["rate_per_s"], "1/s"),
    }
    result.tracer = loop.tracer
    return result


@contextmanager
def spans_inside_fuzz(tracer):
    """In a traced campaign, span the oracle and detection-matrix calls.

    ``run_fuzz`` is the only call the benchmark makes into the fuzz
    layer; its simulator work runs in ``run_oracle`` and
    ``detection_matrix``. A traced campaign wraps those two public
    functions and restores them when it ends.
    """
    if not tracer.enabled:
        yield
        return
    from repro.detect import matrix
    from repro.fuzz import harness

    run_oracle = harness.run_oracle
    detection_matrix = matrix.detection_matrix
    harness.run_oracle = lambda *args, **kwargs: tracer.call(
        "simulator", "run_oracle", run_oracle, *args, **kwargs)
    matrix.detection_matrix = lambda *args, **kwargs: tracer.call(
        "detect", "detection_matrix", detection_matrix, *args, **kwargs)
    try:
        yield
    finally:
        harness.run_oracle = run_oracle
        matrix.detection_matrix = detection_matrix


#: ``BENCHMARK.json`` lists all but ``sim-pfc-clos64``. On a shared host
#: whose speed swings 1.6x every few seconds, the 20 s runs that four
#: workloads allow spread by up to 36% between runs; three workloads allow
#: 30 s runs. ``sim-pfc-clos64`` stays runnable by name: its simulator
#: layer is also measured by ``e2e-tagger-clos64``.
WORKLOADS: Dict[str, Callable[..., Result]] = {
    "sim-pfc-clos64": sim_pfc,
    "churn-clos64": churn,
    "e2e-tagger-clos64": e2e_tagger,
    "fuzz-campaign": fuzz_campaign,
}
