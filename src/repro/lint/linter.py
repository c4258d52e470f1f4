"""The deployment linter: static certification of compiled rule tables.

:func:`lint_artifact` is the entry point. It consumes a
:class:`~repro.lint.artifact.DeploymentArtifact` — rule tables, ordered
TCAM programs, queue map, topology — and re-derives every safety and
hygiene property from those artifacts alone, without trusting the
planner that produced them:

1. **T-family** (:mod:`repro.lint.graph_checks`) reconstructs the
   effective tagged graph and certifies Theorem 5.1's R1 + R2;
2. **S-family** (:mod:`repro.lint.tcam_checks`) checks first-match TCAM
   order semantics and round-trip equivalence;
3. **R-family** (:mod:`repro.lint.reach_checks`) explores reachable
   packet states to find dead rules, unreachable tags, and lossy dead
   ends;
4. **B-family** (:mod:`repro.lint.budget_checks`) enforces TCAM budgets
   and queue-fit consistency.

A report with zero error-severity findings is a certificate that the
deployed configuration is deadlock-free and faithful to its own
compressed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.compression import TcamEntry
from repro.core.pipeline import QueueMap
from repro.core.rules import RuleTable
from repro.lint.artifact import DeploymentArtifact, TaggerPlanLike
from repro.lint.budget_checks import check_budget, check_queue_fit
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.graph_checks import check_cycles, check_rules
from repro.lint.reach_checks import check_reachability
from repro.lint.tcam_checks import check_program
from repro.topology.base import Topology


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one lint run (all checks on by default)."""

    tcam_budget: Optional[int] = None
    check_tcam: bool = True
    check_reach: bool = True


@dataclass
class SwitchLint:
    """One switch's per-switch findings, by family in report order."""

    #: T002-T004 on the exact rules.
    rules: List[Diagnostic] = field(default_factory=list)
    #: S101-S105 on the ordered TCAM program.
    tcam: List[Diagnostic] = field(default_factory=list)
    #: B301 on the program's entry count.
    budget: List[Diagnostic] = field(default_factory=list)
    #: The well-formed rules T001 runs on (``None``: unknown switch).
    kept: Optional[RuleTable] = None

    @property
    def ok(self) -> bool:
        """No error-severity finding."""
        return not any(
            diag.severity is Severity.ERROR
            for diag in self.rules + self.tcam + self.budget
        )


def lint_switch(
    topo: Topology,
    switch: str,
    table: Optional[RuleTable],
    program: Optional[List[TcamEntry]] = None,
    tcam_budget: Optional[int] = None,
) -> SwitchLint:
    """The checks that read one switch alone: T002-T004, S1xx and B301.

    ``table=None`` skips the rule checks (a program with no table) and
    ``program=None`` the TCAM and budget checks. The findings depend on
    the switch, its rules and its ports only, so a table linted clean
    stays clean in any fleet — the fabric-wide codes (T001, R2xx, B302)
    are what :func:`lint_artifact` adds on top.
    """
    result = SwitchLint()
    if table is not None:
        result.kept = check_rules(topo, switch, table, result.rules)
    if program is not None:
        ports = set(topo.ports(switch)) if switch in topo.nodes else set()
        check_program(
            switch,
            table if table is not None else RuleTable(switch=switch),
            program,
            ports,
            result.tcam,
        )
        result.budget = check_budget({switch: program}, tcam_budget)
    return result


def lint_artifact(
    artifact: DeploymentArtifact, config: Optional[LintConfig] = None
) -> LintReport:
    """Run every check family over a deployment artifact."""
    config = config or LintConfig()
    report = LintReport()
    topo = artifact.topo
    tables = artifact.tables
    report.stats["switches"] = len(tables)
    report.stats["rules"] = sum(len(t.rules) for t in tables.values())

    programs = artifact.ensure_programs() if config.check_tcam else {}
    budget = (
        config.tcam_budget
        if config.tcam_budget is not None
        else artifact.tcam_budget
    )
    per_switch = {
        switch: lint_switch(
            topo, switch, tables.get(switch), programs.get(switch), budget
        )
        for switch in sorted(set(tables) | set(programs))
    }

    for found in per_switch.values():
        report.extend(found.rules)
    graph_diags, graph_stats = check_cycles(
        topo,
        {
            switch: found.kept
            for switch, found in per_switch.items()
            if found.kept is not None
        },
    )
    report.extend(graph_diags)
    report.stats.update(graph_stats)

    if config.check_tcam:
        for found in per_switch.values():
            report.extend(found.tcam)
        report.stats["tcam_entries"] = sum(len(p) for p in programs.values())
        for found in per_switch.values():
            report.extend(found.budget)

    if config.check_reach:
        reach_diags, reach_stats, live_tags = check_reachability(
            topo, tables, artifact.queue_map
        )
        report.extend(reach_diags)
        report.stats.update(reach_stats)
        report.extend(check_queue_fit(live_tags, artifact.queue_map))

    return report


def lint_tables(
    topo: Topology,
    tables: Dict[str, RuleTable],
    queue_map: Optional[QueueMap] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Convenience wrapper: lint bare rule tables."""
    artifact = DeploymentArtifact(
        topo=topo, tables=tables, queue_map=queue_map
    )
    return lint_artifact(artifact, config)


def lint_plan(
    plan: TaggerPlanLike,
    tcam_budget: Optional[int] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint the deployable artifact of a planner result.

    Only the plan's *artifacts* (tables, queue map, topology) are read;
    its tagged graph is deliberately ignored.
    """
    artifact = DeploymentArtifact.from_plan(plan, tcam_budget=tcam_budget)
    return lint_artifact(artifact, config)
