"""S-family checks: first-match order semantics of compressed programs.

A TCAM program is an *ordered* entry list; hardware fires the first
matching entry. The compressor emits non-overlapping entries, so any
order works — but the linter cannot assume it is looking at compressor
output. It therefore checks the program as the hardware would read it:

- **S101** an entry fully covered by a single earlier entry never fires
  (error when the earlier rewrite differs — semantics changed — else a
  redundancy warning);
- **S102** partial overlap with a different rewrite: legal, but the
  entry order silently decides the winner;
- **S103** an entry covered only by the *union* of earlier entries;
- **S104** first-match evaluation must reproduce the exact-match
  reference rules (plus the implicit demote-by-default);
- **S105** the final entry must be a catch-all wildcard demote — the
  paper's safeguard rule, "always the last one in the TCAM rule list".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.compression import TcamEntry, first_match
from repro.core.rules import RuleTable
from repro.core.tags import LOSSY_TAG
from repro.lint.diagnostics import Diagnostic, Severity, make_diagnostic


def _tags_overlap(a: Optional[int], b: Optional[int]) -> bool:
    return a is None or b is None or a == b


def _covers(earlier: TcamEntry, later: TcamEntry) -> bool:
    """Does ``earlier`` match every key ``later`` matches?"""
    tag_covers = earlier.tag is None or earlier.tag == later.tag
    return (
        tag_covers
        and later.in_ports <= earlier.in_ports
        and later.out_ports <= earlier.out_ports
    )


def _overlaps(a: TcamEntry, b: TcamEntry) -> bool:
    return (
        _tags_overlap(a.tag, b.tag)
        and bool(a.in_ports & b.in_ports)
        and bool(a.out_ports & b.out_ports)
    )


def _entry_location(index: int, entry: TcamEntry) -> str:
    tag = "*" if entry.tag is None else str(entry.tag)
    return (
        f"entry#{index}(tag={tag},in={sorted(entry.in_ports)},"
        f"out={sorted(entry.out_ports)})->{entry.new_tag}"
    )


def _check_order(
    switch: str, program: Sequence[TcamEntry], diagnostics: List[Diagnostic]
) -> None:
    """S101/S102/S103 on one ordered program."""
    for j, later in enumerate(program):
        single_cover = False
        for i in range(j):
            earlier = program[i]
            if _covers(earlier, later):
                severity = (
                    Severity.ERROR
                    if earlier.new_tag != later.new_tag
                    else Severity.WARNING
                )
                consequence = (
                    f"its keys rewrite to {earlier.new_tag} instead of "
                    f"{later.new_tag}"
                    if earlier.new_tag != later.new_tag
                    else "it is redundant"
                )
                diagnostics.append(
                    make_diagnostic(
                        "S101",
                        f"shadowed by {_entry_location(i, earlier)}; the "
                        f"entry can never fire and {consequence}",
                        switch=switch,
                        location=_entry_location(j, later),
                        severity=severity,
                    )
                )
                single_cover = True
                break
            if later.tag is None and later.new_tag == LOSSY_TAG:
                # A trailing catch-all demote is *supposed* to overlap
                # every explicit entry; that is its job.
                continue
            if _overlaps(earlier, later) and earlier.new_tag != later.new_tag:
                diagnostics.append(
                    make_diagnostic(
                        "S102",
                        f"partially overlaps {_entry_location(i, earlier)} "
                        "with a different rewrite; first-match order "
                        "decides the overlap",
                        switch=switch,
                        location=_entry_location(j, later),
                    )
                )
        if not single_cover and _union_covered(program, j):
            diagnostics.append(
                make_diagnostic(
                    "S103",
                    "covered by the union of earlier entries (no single "
                    "shadow); the entry can never fire",
                    switch=switch,
                    location=_entry_location(j, program[j]),
                )
            )


def _union_covered(program: Sequence[TcamEntry], j: int) -> bool:
    """Is ``program[j]`` unreachable behind the union of entries 0..j-1?

    Wildcard-tag entries match an unbounded tag space, so they can only
    be union-covered by earlier wildcard entries (exact-tag coverage is
    never exhaustive over all tags).
    """
    later = program[j]
    if later.tag is None:
        earlier_wild = [e for e in program[:j] if e.tag is None]
        return _ports_union_covered(later, earlier_wild)
    relevant = [e for e in program[:j] if _tags_overlap(e.tag, later.tag)]
    return _ports_union_covered(later, relevant)


def _ports_union_covered(
    later: TcamEntry, earlier: Sequence[TcamEntry]
) -> bool:
    if not earlier:
        return False
    for in_port in later.in_ports:
        for out_port in later.out_ports:
            if not any(
                in_port in e.in_ports and out_port in e.out_ports
                for e in earlier
            ):
                return False
    return True


def _check_roundtrip(
    switch: str,
    table: RuleTable,
    program: Sequence[TcamEntry],
    diagnostics: List[Diagnostic],
) -> None:
    """S104: first-match semantics == exact rules + implicit safeguard."""
    reference = table.rules
    mismatches = 0
    first_example: Optional[str] = None

    def observe(key: Tuple[int, int, int], got: Optional[int]) -> None:
        nonlocal mismatches, first_example
        expected = reference.get(key, LOSSY_TAG)
        effective = LOSSY_TAG if got is None else got
        if effective != expected:
            mismatches += 1
            if first_example is None:
                first_example = (
                    f"key {key}: program gives "
                    f"{'no match' if got is None else got}, "
                    f"reference rules give {expected}"
                )

    checked: Set[Tuple[int, int, int]] = set()
    for key in reference:
        checked.add(key)
        observe(key, first_match(program, *key))
    for entry in program:
        if entry.tag is None:
            if entry.new_tag != LOSSY_TAG:
                diagnostics.append(
                    make_diagnostic(
                        "S104",
                        "wildcard-tag entry with a lossless rewrite "
                        f"(-> {entry.new_tag}) promotes unmatched packets; "
                        "the reference semantics demote them",
                        switch=switch,
                        location=_entry_location(
                            list(program).index(entry), entry
                        ),
                    )
                )
            continue
        for in_port in entry.in_ports:
            for out_port in entry.out_ports:
                key = (entry.tag, in_port, out_port)
                if key not in checked:
                    checked.add(key)
                    observe(key, first_match(program, *key))
    if mismatches:
        diagnostics.append(
            make_diagnostic(
                "S104",
                f"{mismatches} match key(s) diverge from the exact-rule "
                f"reference, e.g. {first_example}",
                switch=switch,
            )
        )


def _check_safeguard(
    switch: str,
    program: Sequence[TcamEntry],
    ports: Set[int],
    diagnostics: List[Diagnostic],
) -> None:
    """S105: the last entry must be a catch-all demote over all ports."""
    if not program:
        diagnostics.append(
            make_diagnostic(
                "S105",
                "empty TCAM program: no safeguard default installed",
                switch=switch,
            )
        )
        return
    last = program[-1]
    if (
        last.tag is not None
        or last.new_tag != LOSSY_TAG
        or not ports <= last.in_ports
        or not ports <= last.out_ports
    ):
        diagnostics.append(
            make_diagnostic(
                "S105",
                "final entry is not a catch-all lossy demote over every "
                "port; unmatched packets keep an undefined tag",
                switch=switch,
                location=_entry_location(len(program) - 1, last),
            )
        )


def check_program(
    switch: str,
    table: RuleTable,
    program: Sequence[TcamEntry],
    ports: Set[int],
    diagnostics: List[Diagnostic],
) -> None:
    """S101-S105 on one switch's ordered program."""
    _check_order(switch, program, diagnostics)
    _check_roundtrip(switch, table, program, diagnostics)
    _check_safeguard(switch, program, ports, diagnostics)


def check_tcam(
    topo_ports: Dict[str, Set[int]],
    tables: Dict[str, RuleTable],
    programs: Dict[str, List[TcamEntry]],
) -> Tuple[List[Diagnostic], Dict[str, int]]:
    """Run the S-family checks on every switch's ordered program."""
    diagnostics: List[Diagnostic] = []
    for switch in sorted(programs):
        check_program(
            switch,
            tables.get(switch, RuleTable(switch=switch)),
            programs[switch],
            topo_ports.get(switch, set()),
            diagnostics,
        )
    total_entries = sum(len(program) for program in programs.values())
    return diagnostics, {"tcam_entries": total_entries}
