"""Concurrency rule family: whole-program deadlock analysis + lock hygiene.

Two :class:`~repro.analysis.registry.ProgramRule`s wrap the lock pass in
:mod:`repro.analysis.concurrency` so its findings flow through the same
inline-suppression / baseline triage as every per-file rule, and one
ordinary rule keeps lock *creation* going through the named factories the
pass (and the runtime witness) depend on.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from repro.analysis.astutil import call_name
from repro.analysis.concurrency.locksets import LockReport, analyze_program
from repro.analysis.registry import Finding, ParsedModule, ProgramRule, Rule, register

__all__ = ["LockOrderCycle", "LockHeldBlocking", "LockFactory", "program_report"]

#: One-slot memo so both program rules — and ``repro locks``, which renders
#: the report after triaging its findings — share a single analysis of the
#: same parsed module list.
_MEMO: List[Tuple[Tuple[Tuple[str, int], ...], LockReport]] = []


def program_report(modules: Sequence[ParsedModule]) -> LockReport:
    """The lock analysis of ``modules``, computed once per parsed tree set."""
    key = tuple((module.path, id(module.tree)) for module in modules)
    if _MEMO and _MEMO[0][0] == key:
        return _MEMO[0][1]
    report = analyze_program(modules)
    _MEMO[:] = [(key, report)]
    return report


@register
class LockOrderCycle(ProgramRule):
    rule_id = "lock-order-cycle"
    family = "concurrency"
    summary = "cycle in the whole-program lock-order graph (potential deadlock)"
    rationale = (
        "Two code paths acquire the same locks in opposite orders; under "
        "concurrency each can hold one lock and wait forever on the "
        "other's.  Fix by making every path follow the canonical "
        "hierarchy (repro locks prints it), or restructure so one path "
        "never holds both."
    )

    def check_program(self, modules: Sequence[ParsedModule]) -> List[Finding]:
        report = program_report(modules)
        findings: List[Finding] = []
        for cycle in report.cycles:
            path, line = cycle.anchor
            chain = " -> ".join(cycle.names + (cycle.names[0],))
            sites = "; ".join(
                f"{edge.src}->{edge.dst} at {edge.dst_site[0]}:{edge.dst_site[1]}"
                for edge in cycle.edges[:4]
            )
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=0,
                    rule_id=self.rule_id,
                    message=f"lock-order cycle {chain} ({sites})",
                )
            )
        return findings


@register
class LockHeldBlocking(ProgramRule):
    rule_id = "lock-held-blocking"
    family = "concurrency"
    summary = "lock held across a known-blocking call"
    rationale = (
        "A queue wait, socket send or whole-corpus rebuild under a lock "
        "stalls every thread that needs the lock for as long as the call "
        "blocks — the serving-availability failure the double-buffered "
        "background rebuild exists to prevent.  Move the blocking work "
        "outside the critical section or bound it with a timeout."
    )

    def check_program(self, modules: Sequence[ParsedModule]) -> List[Finding]:
        report = program_report(modules)
        findings: List[Finding] = []
        for site in report.blocking:
            held = ", ".join(
                f"{name} (held since {where[0]}:{where[1]})" for name, where in site.held
            )
            findings.append(
                Finding(
                    path=site.path,
                    line=site.line,
                    col=0,
                    rule_id=self.rule_id,
                    message=f"{site.desc} may block while holding {held}",
                )
            )
        return findings


@register
class LockFactory(Rule):
    rule_id = "lock-factory"
    family = "concurrency"
    summary = "raw threading lock; create via repro.utils.locks factories"
    rationale = (
        "Locks created through make_lock()/make_rlock() carry a stable "
        "order name, which is what makes both the static lock-order graph "
        "and the REPRO_LOCK_WITNESS runtime witness able to identify them. "
        "A raw threading.Lock() is invisible to both."
    )

    _FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})
    #: library code only — tests and fixtures may build raw locks freely.
    scope = ("src/",)
    #: the factory module itself wraps the raw primitives — that is its job.
    _EXEMPT_SUFFIXES = ("utils/locks.py",)

    def applies_to(self, relpath: str) -> bool:
        anchored = relpath.replace("\\", "/")
        if any(anchored.endswith(suffix) for suffix in self._EXEMPT_SUFFIXES):
            return False
        return super().applies_to(relpath)

    @staticmethod
    def _is_threading_primitive(call: ast.Call) -> Optional[str]:
        name = call_name(call)
        if name is None:
            return None
        parts = name.split(".")
        if parts[-1] not in LockFactory._FACTORIES:
            return None
        # Require the threading module (or a bare imported name) so e.g.
        # multiprocessing.Lock() in unrelated code does not false-positive.
        if len(parts) == 1 or parts[0] == "threading":
            return name
        return None

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._is_threading_primitive(node)
            if name is not None:
                findings.append(
                    self.finding(
                        node,
                        relpath,
                        f"{name}() bypasses repro.utils.locks (unnamed in the "
                        "lock-order graph and invisible to the witness)",
                    )
                )
        return findings
