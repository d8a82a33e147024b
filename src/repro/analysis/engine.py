"""The analysis engine: file discovery, rule dispatch, triage.

One :func:`run_analysis` call walks the requested paths, parses each
``.py`` file once into a :class:`~repro.analysis.registry.ParsedModule`,
lets every in-scope **per-file** rule visit its tree, then hands the whole
module list to every **program** rule (whole-program passes like the
concurrency analyzer).  Raw findings from both stages triage three ways:

* **suppressed** — an inline ``# repro: disable=<rule-id>`` covers the line;
* **baselined** — the finding's key is in the committed baseline;
* **new** — everything else; these fail the lint guard.

The run also audits the baseline itself: accepted keys whose file was
scanned but produced no matching finding are reported as **stale** so the
baseline cannot quietly rot as code moves (satellite of PR 9; the tier-1
guard asserts none exist).

Paths inside findings are relative to ``root`` (posix separators) so the
baseline is stable regardless of where the analyzer is invoked from.
"""

from __future__ import annotations

import ast
import os
import subprocess
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.baseline import load_baseline, partition_findings, stale_keys
from repro.analysis.registry import Finding, ParsedModule, ProgramRule, Rule, all_rules
from repro.analysis.suppressions import SuppressionIndex

__all__ = [
    "AnalysisResult",
    "FileReport",
    "run_analysis",
    "iter_python_files",
    "analyze_source",
    "changed_files",
]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "node_modules"}


@dataclass
class FileReport:
    """Raw per-file output before baseline triage."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    error: Optional[str] = None


@dataclass
class AnalysisResult:
    """Triaged output of one analyzer run."""

    new: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    errors: List[FileReport] = field(default_factory=list)
    stale_baseline: List[str] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: int = 0
    #: every parsed module, as the program rules saw them.
    modules: List[ParsedModule] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        """True when nothing new was found (parse errors still fail).

        Stale baseline entries do not flip ``ok`` — they are a warning the
        guard surfaces separately, so a scoped run can't hard-fail on
        baseline keys it merely didn't look at.
        """
        return not self.new and not self.errors

    @property
    def all_findings(self) -> List[Finding]:
        return sorted(self.new + self.baselined)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    seen: Set[str] = set()
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            candidates = [path] if path.endswith(".py") else []
        else:
            candidates = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
                candidates.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        for candidate in candidates:
            resolved = os.path.abspath(candidate)
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return iter(sorted(collected))


def changed_files(base: str = "HEAD", cwd: Optional[str] = None) -> Optional[List[str]]:
    """Python files changed vs ``base`` plus untracked ones, or ``None``.

    ``None`` (not an empty list) means "git unavailable / not a repo" —
    callers fall back to the full sweep.  An empty list is a real answer:
    nothing changed, nothing to lint.
    """
    try:
        diff = subprocess.run(
            ["git", "diff", "--name-only", base, "--"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        )
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    names: List[str] = []
    seen: Set[str] = set()
    for block in (diff.stdout, untracked.stdout):
        for name in block.splitlines():
            name = name.strip()
            if name.endswith(".py") and name not in seen:
                seen.add(name)
                names.append(name)
    return sorted(names)


def _relpath(path: str, root: str) -> str:
    absolute = os.path.abspath(path)
    relative = os.path.relpath(absolute, root)
    if relative.startswith(".."):
        # Outside the root: keep the absolute path rather than a ../ chain
        # that would make baseline keys depend on the invocation directory.
        relative = absolute
    return relative.replace(os.sep, "/")


def _split_rules(rules: Sequence[Rule]) -> Tuple[List[Rule], List[ProgramRule]]:
    per_file = [rule for rule in rules if not isinstance(rule, ProgramRule)]
    program = [rule for rule in rules if isinstance(rule, ProgramRule)]
    return per_file, program


def analyze_source(
    source: str, relpath: str, rules: Optional[Sequence[Rule]] = None
) -> FileReport:
    """Run the rule set over one in-memory module (the unit-test entry).

    Program rules in ``rules`` see a one-module program — exactly what the
    fixture corpus wants, since each fixture file is self-contained.
    """
    rules = list(rules) if rules is not None else all_rules()
    per_file, program = _split_rules(rules)
    report = FileReport(path=relpath)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        report.error = f"syntax error: {exc.msg} (line {exc.lineno})"
        return report
    lines = source.splitlines()
    suppressions = SuppressionIndex(lines, tree=tree)
    module = ParsedModule(path=relpath, tree=tree, lines=lines)
    raw: List[Finding] = []
    for rule in per_file:
        if rule.applies_to(relpath):
            raw.extend(rule.check(tree, lines, relpath))
    for rule in program:
        raw.extend(rule.check_program([module]))
    for finding in sorted(raw):
        if suppressions.is_suppressed(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def run_analysis(
    paths: Sequence[str],
    root: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline_path: Optional[str] = None,
) -> AnalysisResult:
    """Analyze ``paths`` and triage findings against the baseline."""
    root = os.path.abspath(root or os.getcwd())
    rules = list(rules) if rules is not None else all_rules()
    per_file, program = _split_rules(rules)
    accepted = load_baseline(baseline_path) if baseline_path else set()
    result = AnalysisResult(rules_run=len(rules))
    collected: List[Finding] = []
    modules = result.modules
    suppressions: Dict[str, SuppressionIndex] = {}
    for path in iter_python_files(paths):
        relative = _relpath(path, root)
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        result.files_scanned += 1
        try:
            tree = ast.parse(source, filename=relative)
        except SyntaxError as exc:
            result.errors.append(
                FileReport(
                    path=relative,
                    error=f"syntax error: {exc.msg} (line {exc.lineno})",
                )
            )
            continue
        lines = source.splitlines()
        index = suppressions[relative] = SuppressionIndex(lines, tree=tree)
        modules.append(ParsedModule(path=relative, tree=tree, lines=lines))
        for rule in per_file:
            if not rule.applies_to(relative):
                continue
            for finding in rule.check(tree, lines, relative):
                if index.is_suppressed(finding):
                    result.suppressed.append(finding)
                else:
                    collected.append(finding)
    for rule in program:
        for finding in rule.check_program(modules):
            index = suppressions.get(finding.path)
            if index is not None and index.is_suppressed(finding):
                result.suppressed.append(finding)
            else:
                collected.append(finding)
    result.new, result.baselined = partition_findings(sorted(collected), accepted)
    result.suppressed.sort()
    produced = {f.key for f in collected} | {f.key for f in result.suppressed}
    scanned = {module.path for module in modules}
    active = {rule.rule_id for rule in rules}
    result.stale_baseline = stale_keys(accepted, produced, scanned, active)
    return result
