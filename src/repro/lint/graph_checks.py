"""T-family checks: certify Theorem 5.1 from the rule tables alone.

The effective tagged graph is re-derived from the deployed rules via
:func:`repro.core.rules.rules_to_tagged_graph` — no planner state is
consulted — and then:

- **T002 / T003 / T004** validate each rule individually (monotone
  rewrites, valid tag range, existing ports), *before* graph
  construction, because a malformed rule must surface as a diagnostic
  rather than as a reconstruction crash;
- **T001** runs the R1 per-tag cycle search on the reconstructed graph
  (violating rules are excluded from reconstruction so one bad rule
  cannot mask a cycle elsewhere).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.rules import MatchKey, RuleTable, rules_to_tagged_graph
from repro.core.tags import INITIAL_TAG, LOSSY_TAG
from repro.exceptions import TopologyError
from repro.lint.diagnostics import Diagnostic, make_diagnostic
from repro.topology.base import Topology


def check_rules(
    topo: Topology,
    switch: str,
    table: RuleTable,
    diagnostics: List[Diagnostic],
) -> Optional[RuleTable]:
    """T002-T004 on one switch's rules; returns only the well-formed ones.

    ``None`` means the switch itself is unknown (every rule is dropped).
    """
    if switch not in topo.nodes or not topo.node(switch).is_switch:
        diagnostics.append(
            make_diagnostic(
                "T004",
                f"rules installed on unknown switch {switch!r}",
                switch=switch,
            )
        )
        return None
    ports = topo.ports(switch)
    kept = RuleTable(switch=switch)
    for key in sorted(table.rules):
        new_tag = table.rules[key]
        if _check_rule(topo, switch, ports, key, new_tag, diagnostics):
            kept.rules[key] = new_tag
    return kept


def _check_rule(
    topo: Topology,
    switch: str,
    ports: Dict[int, str],
    key: MatchKey,
    new_tag: int,
    diagnostics: List[Diagnostic],
) -> bool:
    tag, in_port, out_port = key
    location = f"({tag},{in_port},{out_port})->{new_tag}"
    ok = True
    if tag < INITIAL_TAG or new_tag < LOSSY_TAG:
        diagnostics.append(
            make_diagnostic(
                "T003",
                f"rule matches tag {tag} / rewrites to {new_tag}; lossless "
                f"tags start at {INITIAL_TAG} and only {LOSSY_TAG} demotes",
                switch=switch,
                location=location,
            )
        )
        ok = False
    for label, port in (("ingress", in_port), ("egress", out_port)):
        if port not in ports:
            diagnostics.append(
                make_diagnostic(
                    "T004",
                    f"rule references {label} port {port}, but {switch!r} "
                    f"has no such port",
                    switch=switch,
                    location=location,
                )
            )
            ok = False
    if ok and new_tag != LOSSY_TAG and new_tag < tag:
        diagnostics.append(
            make_diagnostic(
                "T002",
                f"rewrite decreases the tag ({tag} -> {new_tag}); a packet "
                "could re-enter an earlier priority class and close a "
                "cross-tag buffer dependency cycle",
                switch=switch,
                location=location,
            )
        )
        ok = False
    return ok


def check_cycles(
    topo: Topology, clean: Dict[str, RuleTable]
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """T001 on the graph of the well-formed rules; (diagnostics, stats)."""
    diagnostics: List[Diagnostic] = []
    try:
        graph = rules_to_tagged_graph(topo, clean)
    except TopologyError as exc:  # pragma: no cover - defense in depth
        diagnostics.append(
            make_diagnostic("T004", f"graph reconstruction failed: {exc}")
        )
        return diagnostics, {}
    for tag in graph.tags():
        cycle = graph.find_tag_cycle(tag)
        if cycle is None:
            continue
        pretty = " -> ".join(f"{sw}:{port}" for (sw, port), _ in cycle)
        diagnostics.append(
            make_diagnostic(
                "T001",
                f"tag {tag} subgraph contains the buffer-dependency cycle "
                f"{pretty} -> {cycle[0][0][0]}:{cycle[0][0][1]} "
                "(requirement R1 fails; this is a CBD)",
                switch=cycle[0][0][0],
                location=f"tag {tag}",
            )
        )
    stats = {
        "graph_nodes": graph.num_nodes,
        "graph_edges": graph.num_edges,
        "graph_tags": graph.num_tags,
    }
    return diagnostics, stats


def check_graph(
    topo: Topology, tables: Dict[str, RuleTable]
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """Run the T-family checks; returns (diagnostics, graph stats)."""
    diagnostics: List[Diagnostic] = []
    clean: Dict[str, RuleTable] = {}
    for switch in sorted(tables):
        kept = check_rules(topo, switch, tables[switch], diagnostics)
        if kept is not None:
            clean[switch] = kept
    cycle_diags, stats = check_cycles(topo, clean)
    return diagnostics + cycle_diags, stats
