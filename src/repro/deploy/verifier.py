"""Transitional-safety verification of a rollout wave ordering.

A rollout is never atomic: while wave *k* is in flight, switches in
earlier waves run the new tables, switches in later waves still run the
old ones, and switches inside the wave are anywhere in between — old,
new, or (after a partial batch) a per-key mixture. Deadlocks form
exactly in those windows, so the orchestrator must prove every reachable
mixed state safe **before sending a single RPC**, or refuse the rollout.

The proof leans on one structural fact:

1. In the effective tagged graph (:func:`~repro.core.rules.rules_to_tagged_graph`),
   every edge is derived from exactly *one* switch's rule. The graph of
   any mixed fleet state is therefore the per-switch union of each
   switch's own edges.
2. Requirements R1 (per-tag acyclicity) and R2 (tag monotonicity) are
   *downward closed*: any subgraph of a graph satisfying them satisfies
   them too (removing edges can neither create a cycle nor a decreasing
   edge). Removing a rule only ever demotes packets to the lossy class —
   a coverage loss, never a safety loss.
3. Under idempotent set/remove batches, every intermediate table a
   switch can hold is a per-key choice between its old and new rules, so
   its edge set is a subset of (old edges ∪ new edges) for that switch.

Hence: if the **union graph** — old edges ∪ new edges across the
relevant switches — certifies R1/R2, then *every* reachable transitional
state does, including arbitrary per-key partial batches, reorderings,
and stragglers. :func:`certify_rollout` therefore tries a one-shot
**union proof** first:

1. build the global union graph once — every old table plus the new
   table of each switch whose table changes — and verify R1/R2;
2. run the linter's per-switch checks (:func:`repro.lint.lint_switch`:
   T002–T004, S1xx, B301) once per distinct table, unless
   ``lint_boundaries=False``.

When both pass, every boundary, wave and global verdict is clean: each
mixed state is a subgraph of the union (T001, R1/R2), every table it
holds was linted (the per-switch codes), the R-family only warns, and
B302 cannot fire because :func:`transition_queue_map` makes every tag
either plan uses lossless. Only when the proof does not hold does the
per-boundary diagnosis run, checking

- the **global union** (old ∪ new everywhere): when safe, any
  old/new/partial mixture whatsoever is safe, which is what lets the
  orchestrator quarantine an unreachable switch instead of wedging;
- a **per-wave union** for each wave (prefix new, wave old∪new, suffix
  old): a finer certificate that can pass when the global union fails,
  at the price of requiring the wave barriers to be respected;
- every **wave-boundary fleet state** (a concrete, quiescent table set)
  through the full deployment linter — T001–T004 graph certification
  plus the S/R/B families — reusing :mod:`repro.lint` verbatim.

The certificate is a value: the orchestrator embeds it in its report,
and refuses to execute when :attr:`TransitionCertificate.ok` is false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.pipeline import QueueMap
from repro.core.rules import RuleTable, rules_to_tagged_graph
from repro.core.tags import INITIAL_TAG, LOSSY_TAG, TaggedGraph
from repro.core.verification import VerificationReport, verify_tagged_graph
from repro.exceptions import ReproError, VerificationError
from repro.lint import DeploymentArtifact, lint_switch, lint_tables
from repro.topology.base import Topology

Tables = Dict[str, RuleTable]


def transition_queue_map(old: Tables, new: Tables) -> QueueMap:
    """Identity queue map wide enough for every tag either plan uses."""
    max_tag = INITIAL_TAG
    for tables in (old, new):
        for table in tables.values():
            for key, new_tag in table.rules.items():
                if new_tag != LOSSY_TAG:
                    max_tag = max(max_tag, key[0], new_tag)
    return QueueMap.identity(max_tag, max(8, max_tag))


def mixed_tables(old: Tables, new: Tables, updated: Set[str]) -> Tables:
    """The fleet's table set when exactly ``updated`` run the new plan.

    A switch absent from a plan simply has no table in that state (its
    packets demote via the safeguard — safe by construction).
    """
    tables: Tables = {}
    # Sorted so the mixed table set (and everything downstream of its
    # insertion order: wave reports, lint rendering, union-graph edge
    # order) is independent of hash seeding — pinned by
    # tests/deploy/test_verifier.py::test_mixed_tables_order_pinned.
    for switch in sorted(set(old) | set(new)):
        source = new if switch in updated else old
        table = source.get(switch)
        if table is not None:
            tables[switch] = table
    return tables


def _graph_or_error(
    topo: Topology, tables: Tables
) -> Tuple[Optional[TaggedGraph], Optional[str]]:
    """Effective tagged graph, or the reason it cannot even be built.

    A tag-decreasing rule makes graph reconstruction raise — that *is*
    an R2 violation, reported as such rather than propagated.
    """
    try:
        return rules_to_tagged_graph(topo, tables), None
    except ReproError as exc:
        return None, f"R2 violated while rebuilding graph: {exc}"


def _union(graphs: Sequence[TaggedGraph]) -> TaggedGraph:
    union = TaggedGraph()
    for graph in graphs:
        for node in graph.nodes:
            union.add_node(node)
        for src, dst in graph.edges():
            union.add_edge(src, dst)
    return union


def _verdict(report: VerificationReport) -> Optional[str]:
    if report.deadlock_free:
        return None
    if report.decreasing_edge is not None:
        src, dst = report.decreasing_edge
        return f"R2 violated: edge {src} -> {dst} decreases the tag"
    if report.tag_cycle is None:
        raise VerificationError(
            "verification report is unsafe but names no violation"
        )
    return f"R1 violated: cycle of {len(report.tag_cycle)} nodes"


def _union_proof(
    topo: Topology, old: Tables, new: Tables, lint: bool
) -> bool:
    """Does the one-shot union proof hold (see the module docstring)?

    False means "not proven", never "unsafe": any violation, and any
    error while building or linting, leaves the verdict to the
    per-boundary diagnosis, which reports it exactly.
    """
    changed = {s: t for s, t in new.items() if old.get(s) != t}
    try:
        union = _union(
            [rules_to_tagged_graph(topo, tables) for tables in (old, changed)]
        )
        if not verify_tagged_graph(union).deadlock_free:
            return False
        if lint:
            for tables in (old, changed):
                programs = DeploymentArtifact(topo, tables).ensure_programs()
                for switch, table in tables.items():
                    found = lint_switch(topo, switch, table, programs[switch])
                    if not found.ok:
                        return False
    except ReproError:
        return False
    return True


@dataclass
class TransitionCertificate:
    """Outcome of certifying one wave ordering for one table transition.

    ``ok`` (boundaries lint error-clean + every per-wave union graph
    verifies) is the execution gate. ``covers_stragglers`` (the global
    union verifies) additionally certifies states *outside* the wave
    order — a wedged switch left behind on old or partial rules while
    the rollout proceeds — and is required for quarantine-and-continue.
    """

    waves: List[List[str]] = field(default_factory=list)
    #: Rendered error-severity lint findings per wave boundary k
    #: (boundary k = waves[:k] updated, rest old); length len(waves)+1.
    boundary_errors: List[List[str]] = field(default_factory=list)
    #: Per-wave union-graph verdict (None = safe).
    wave_errors: List[Optional[str]] = field(default_factory=list)
    #: Global union-graph verdict (None = safe).
    global_error: Optional[str] = None
    #: Reachable per-switch old/new state combinations the certificate
    #: covers (every one of them additionally covers all of its per-key
    #: partial-batch refinements).
    states_covered: int = 0
    switches_touched: int = 0
    #: The union proof held with the per-switch lint: every table in
    #: ``old`` and ``new`` is lint-clean on its own and any fleet mixing
    #: them is R1/R2-safe. Not part of :meth:`to_dict`.
    tables_certified: bool = False

    @property
    def ok(self) -> bool:
        return (
            all(not errors for errors in self.boundary_errors)
            and all(error is None for error in self.wave_errors)
        )

    @property
    def covers_stragglers(self) -> bool:
        return self.global_error is None

    def first_error(self) -> Optional[str]:
        for k, errors in enumerate(self.boundary_errors):
            if errors:
                return f"boundary {k}: {errors[0]}"
        for k, error in enumerate(self.wave_errors):
            if error is not None:
                return f"wave {k}: {error}"
        return None

    def describe(self) -> str:
        if not self.ok:
            return f"UNSAFE transition: {self.first_error()}"
        scope = (
            "any straggler mix"
            if self.covers_stragglers
            else "wave-ordered states only"
        )
        return (
            f"certified {self.states_covered} reachable state(s) across "
            f"{len(self.waves)} wave(s), {self.switches_touched} "
            f"switch(es) ({scope})"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "covers_stragglers": self.covers_stragglers,
            "waves": [list(wave) for wave in self.waves],
            "boundary_errors": [list(e) for e in self.boundary_errors],
            "wave_errors": list(self.wave_errors),
            "global_error": self.global_error,
            "states_covered": self.states_covered,
        }


def certify_rollout(
    topo: Topology,
    old: Tables,
    new: Tables,
    waves: Sequence[Sequence[str]],
    lint_boundaries: bool = True,
) -> TransitionCertificate:
    """Certify every state reachable under ``waves`` ordering.

    The union proof decides clean transitions in one pass; any other
    transition gets the per-boundary diagnosis, whose certificate names
    the first failing boundary or wave. ``lint_boundaries=False`` skips
    the per-switch and boundary lints and keeps only the (sound and much
    faster) union-graph R1/R2 certification — the fuzz harness uses it
    for throughput.
    """
    cert = TransitionCertificate(waves=[list(w) for w in waves])
    cert.switches_touched = sum(len(w) for w in waves)
    if _union_proof(topo, old, new, lint_boundaries):
        cert.boundary_errors = [[] for _ in range(len(waves) + 1)]
        cert.wave_errors = [None for _ in waves]
        cert.tables_certified = lint_boundaries
        cert.states_covered = 2 ** min(cert.switches_touched, 62)
        return cert

    # Per-boundary diagnosis: exact verdicts for the refusal message.
    queue_map = transition_queue_map(old, new)

    # Wave-boundary quiescent states: graphs always, full lint optionally.
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

    # Per-wave unions: cover every in-flight subset (and, via per-key
    # subgraph closure, every partial batch) between two boundaries.
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

    # Global union: certifies arbitrary straggler mixes, not just the
    # wave-ordered prefix states.
    old_graph, old_error = _graph_or_error(topo, mixed_tables(old, new, set()))
    new_graph, new_error = _graph_or_error(
        topo, mixed_tables(old, new, set(old) | set(new))
    )
    if old_error or new_error or old_graph is None or new_graph is None:
        cert.global_error = old_error or new_error
    else:
        try:
            union = _union([old_graph, new_graph])
        except ReproError as exc:
            cert.global_error = f"R2 violated in global union: {exc}"
        else:
            cert.global_error = _verdict(verify_tagged_graph(union))

    if cert.covers_stragglers:
        cert.states_covered = 2 ** min(cert.switches_touched, 62)
    else:
        cert.states_covered = len(boundaries) + sum(
            2 ** min(len(wave), 62) - 2 for wave in waves if len(wave) > 1
        )
    return cert
