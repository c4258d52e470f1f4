"""Equivalence of the one-shot union proof with per-boundary certification.

``certify_rollout`` decides clean transitions with a single union-graph
verification plus one per-switch lint per distinct table, and falls back
to the per-boundary diagnosis otherwise. The oracle below is that
per-boundary algorithm run unconditionally — every wave boundary built,
verified and fully linted, every wave union and the global union
verified — and the certificates (or the raised errors) must match it
exactly, on real planner transitions and on unsafe fixtures alike.
"""

import random
from typing import List, Optional, Set

import pytest

from repro.core.elp import ShortestPathElpProvider, UpDownElpProvider
from repro.core.replan import IncrementalPlanner
from repro.core.rules import RuleTable, diff_tables, rules_to_tagged_graph
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.core.verification import VerificationReport, verify_tagged_graph
from repro.deploy import (
    TransitionCertificate,
    certify_rollout,
    mixed_tables,
    plan_waves,
    transition_queue_map,
)
from repro.deploy import verifier as verifier_module
from repro.exceptions import ReproError, VerificationError
from repro.lint import lint_tables
from repro.topology.clos import testbed_clos
from repro.topology.failures import TopologyDelta


def _graph_or_error(topo, tables):
    try:
        return rules_to_tagged_graph(topo, tables), None
    except ReproError as exc:
        return None, f"R2 violated while rebuilding graph: {exc}"


def _union(graphs):
    union = TaggedGraph()
    for graph in graphs:
        for node in graph.nodes:
            union.add_node(node)
        for src, dst in graph.edges():
            union.add_edge(src, dst)
    return union


def _verdict(report):
    if report.deadlock_free:
        return None
    if report.decreasing_edge is not None:
        src, dst = report.decreasing_edge
        return f"R2 violated: edge {src} -> {dst} decreases the tag"
    return f"R1 violated: cycle of {len(report.tag_cycle)} nodes"


def reference_certify(topo, old, new, waves, lint_boundaries=True):
    """Per-boundary certification of every wave ordering state."""
    cert = TransitionCertificate(waves=[list(w) for w in waves])
    cert.switches_touched = sum(len(w) for w in waves)
    queue_map = transition_queue_map(old, new)

    boundary_graphs: List[Optional[TaggedGraph]] = []
    updated: Set[str] = set()
    boundaries = [set(updated)]
    for wave in waves:
        updated = updated | set(wave)
        boundaries.append(set(updated))
    for done in boundaries:
        tables = mixed_tables(old, new, done)
        graph, graph_error = _graph_or_error(topo, tables)
        boundary_graphs.append(graph)
        errors: List[str] = []
        if graph_error is not None:
            errors.append(graph_error)
        elif graph is not None:
            verdict = _verdict(verify_tagged_graph(graph))
            if verdict is not None:
                errors.append(verdict)
        if lint_boundaries and not errors:
            report = lint_tables(topo, tables, queue_map)
            errors.extend(d.render() for d in report.errors)
        cert.boundary_errors.append(errors)

    for k in range(len(waves)):
        before, after = boundary_graphs[k], boundary_graphs[k + 1]
        if before is None or after is None:
            cert.wave_errors.append(
                "boundary graph unavailable (R2 violation upstream)"
            )
            continue
        try:
            union = _union([before, after])
        except ReproError as exc:
            cert.wave_errors.append(f"R2 violated in wave union: {exc}")
            continue
        cert.wave_errors.append(_verdict(verify_tagged_graph(union)))

    old_graph, old_error = _graph_or_error(topo, mixed_tables(old, new, set()))
    new_graph, new_error = _graph_or_error(
        topo, mixed_tables(old, new, set(old) | set(new))
    )
    if old_error or new_error or old_graph is None or new_graph is None:
        cert.global_error = old_error or new_error
    else:
        try:
            cert.global_error = _verdict(
                verify_tagged_graph(_union([old_graph, new_graph]))
            )
        except ReproError as exc:
            cert.global_error = f"R2 violated in global union: {exc}"

    if cert.covers_stragglers:
        cert.states_covered = 2 ** min(cert.switches_touched, 62)
    else:
        cert.states_covered = len(boundaries) + sum(
            2 ** min(len(wave), 62) - 2 for wave in waves if len(wave) > 1
        )
    return cert


def _outcome(certify, *args, **kwargs):
    """Everything observable about one certification (or its error)."""
    try:
        cert = certify(*args, **kwargs)
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (
        cert.to_dict(),
        cert.states_covered,
        cert.switches_touched,
        cert.describe(),
    )


def assert_equivalent(topo, old, new, waves, lint_boundaries=True):
    """Assert certify_rollout matches the oracle; returns the certificate
    (``None`` when both raised)."""
    expected = _outcome(
        reference_certify, topo, old, new, waves, lint_boundaries
    )
    got = _outcome(certify_rollout, topo, old, new, waves, lint_boundaries)
    assert got == expected
    if got[0] == "raised":
        return None
    return certify_rollout(topo, old, new, waves, lint_boundaries)


def _copy(tables):
    return {
        switch: RuleTable(
            switch=switch, rules=dict(table.rules), policy=table.policy
        )
        for switch, table in tables.items()
    }


#: Up-down routing keeps one tag; two shortest paths per pair bounce
#: around failures, giving two-tag plans whose transitions the union
#: proof sometimes cannot certify (the fallback path) or that are unsafe.
PROVIDERS = {
    "updown": UpDownElpProvider,
    "shortest": lambda: ShortestPathElpProvider(per_pair=2),
}


def _seeded_transitions(provider, seed, steps=10):
    """(topo, old, new) after each of ``steps`` seeded planner deltas:
    link flaps and drains on the testbed Clos, undone in LIFO order."""
    rng = random.Random(seed)
    planner = IncrementalPlanner(testbed_clos(), PROVIDERS[provider]())
    down: List[tuple] = []
    drained: List[str] = []
    for _ in range(steps):
        topo = planner.topo
        kind = rng.choice(("down", "up", "drain", "undrain"))
        if kind == "up" and down:
            delta = TopologyDelta.link_up(*down.pop())
        elif kind == "undrain" and drained:
            delta = TopologyDelta.undrain(drained.pop())
        elif kind == "drain" and not drained:
            switch = rng.choice(
                sorted(s for s in topo.switches if topo.layer_of(s) == 1)
            )
            drained.append(switch)
            delta = TopologyDelta.drain(switch)
        else:
            links = sorted(
                (a, b)
                for a in topo.switches
                for b in topo.neighbors(a)
                if a < b and topo.node(b).is_switch
            )
            link = rng.choice(links)
            down.append(link)
            delta = TopologyDelta.link_down(*link)
        old = _copy(planner.plan.tables)
        planner.apply(delta)
        yield planner.topo, old, _copy(planner.plan.tables)


class TestPlannerTransitions:
    @pytest.mark.parametrize("provider", sorted(PROVIDERS))
    @pytest.mark.parametrize("seed", [1, 3, 4])
    @pytest.mark.parametrize("max_wave_size", [1, 8])
    @pytest.mark.parametrize("lint_boundaries", [True, False])
    def test_matches_per_boundary_reference(
        self, provider, seed, max_wave_size, lint_boundaries
    ):
        verdicts = []
        for topo, old, new in _seeded_transitions(provider, seed):
            for before, after in ((old, new), (new, old)):
                waves = plan_waves(
                    topo, diff_tables(before, after), max_wave_size
                )
                cert = assert_equivalent(
                    topo, before, after, waves, lint_boundaries
                )
                verdicts.append((cert.ok, cert.tables_certified))
        if provider == "updown":
            # Always safe, and the union proof, not the fallback, says so.
            assert verdicts == [(True, lint_boundaries)] * 20
        else:
            assert (False, False) in verdicts
            assert (True, lint_boundaries) in verdicts

    def test_waves_need_not_cover_the_diff(self, transition):
        """A changed switch left out of every wave, and an unchanged one
        put into a wave, still match the reference."""
        topo, old, new = transition
        changed = sorted(diff_tables(old, new))
        unchanged = sorted(set(old) - set(changed))
        assert_equivalent(topo, old, new, [changed[:-1]])
        assert_equivalent(topo, old, new, [unchanged[:1], changed])
        assert_equivalent(topo, old, new, [])


def _rule(topo, switch, tag, src, dst, new_tag):
    key = (tag, topo.port_to(switch, src), topo.port_to(switch, dst))
    return RuleTable(switch=switch, rules={key: new_tag})


class TestUnsafeFixtures:
    def test_union_cycle(self, triangle):
        old = {"A": _rule(triangle, "A", INITIAL_TAG, "B", "B", INITIAL_TAG)}
        new = {"B": _rule(triangle, "B", INITIAL_TAG, "A", "A", INITIAL_TAG)}
        for waves in ([["A", "B"]], [["A"], ["B"]], [["B"], ["A"]]):
            for lint in (True, False):
                assert_equivalent(triangle, old, new, waves, lint)

    def test_target_cycle(self, triangle):
        new = {
            "A": _rule(triangle, "A", INITIAL_TAG, "B", "B", INITIAL_TAG),
            "B": _rule(triangle, "B", INITIAL_TAG, "A", "A", INITIAL_TAG),
        }
        for waves in ([["A", "B"]], [["A"], ["B"]]):
            cert = assert_equivalent(triangle, {}, new, waves)
            assert not cert.ok

    def test_tag_decreasing_rule(self, triangle):
        old = {"A": _rule(triangle, "A", 1, "HA", "B", 1)}
        new = {"A": _rule(triangle, "A", 2, "HA", "B", 1)}
        cert = assert_equivalent(triangle, old, new, [["A"]])
        assert not cert.ok and "R2" in cert.first_error()

    def test_unknown_port(self, triangle):
        old = {"A": _rule(triangle, "A", 1, "HA", "B", 1)}
        new = {"A": RuleTable(switch="A", rules={(1, 1, 99): 1})}
        cert = assert_equivalent(triangle, old, new, [["A"]])
        assert not cert.ok

    def test_invalid_tag_only_the_linter_sees(self, triangle):
        """A rule matching the lossy sentinel and demoting adds no graph
        edge, so only the per-switch T003 check can refuse it."""
        old = {"A": _rule(triangle, "A", 1, "HA", "B", 1)}
        new = {"A": _rule(triangle, "A", LOSSY_TAG, "HA", "B", LOSSY_TAG)}
        cert = assert_equivalent(triangle, old, new, [["A"]])
        assert not cert.ok and "T003" in cert.first_error()
        cert = assert_equivalent(triangle, old, new, [["A"]], False)
        assert cert.ok and not cert.tables_certified

    def test_unknown_switch_raises_like_the_reference(self, triangle):
        """Linting a table for a switch the topology lacks raises; the
        proof gives way and the reference raises the same error."""
        new = {"Z": RuleTable(switch="Z", rules={(1, 1, 2): LOSSY_TAG})}
        expected = _outcome(reference_certify, triangle, {}, new, [["Z"]])
        assert expected[0] == "raised"
        assert_equivalent(triangle, {}, new, [["Z"]])

    def test_more_than_eight_tags(self, triangle):
        """Nine lossless tags: the transition queue map widens to fit
        them, so neither path raises and the certificates agree."""
        old = {"A": _rule(triangle, "A", 1, "HA", "B", 1)}
        ha, ab = triangle.port_to("A", "HA"), triangle.port_to("A", "B")
        new = {
            "A": RuleTable(
                switch="A",
                rules={(tag, ha, ab): tag + 1 for tag in range(1, 9)},
            )
        }
        for lint in (True, False):
            cert = assert_equivalent(triangle, old, new, [["A"]], lint)
            assert cert.ok


def test_unsafe_report_without_a_witness_raises():
    """A report that is not deadlock-free must name its violation; one
    that does not is a verifier bug, raised as a typed error (an assert
    would vanish under ``python -O``)."""
    report = VerificationReport(
        deadlock_free=False,
        num_tags=1,
        nodes_per_tag={},
        intra_edges_per_tag={},
        cross_edges=0,
    )
    with pytest.raises(VerificationError, match="names no violation"):
        verifier_module._verdict(report)
