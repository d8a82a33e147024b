"""Lock-discipline rules.

The serving stack's equivalence guarantee (batched == sequential oracle)
assumes shared mutable state is only touched under its owning lock.  These
rules encode the repo conventions:

* a class that owns a ``threading.Lock``/``RLock`` must mutate its private
  (``self._*``) attributes inside ``with <lock>:`` — except in ``__init__``
  (the object is not yet shared) and in ``*_locked`` helpers (called with
  the lock already held, per the naming convention in ``SessionStore``);
* worker threads must be daemonic so a crashed caller cannot leave the
  process wedged on join;
* check-then-act sequences on shared flags (``if self._running: ...`` then
  ``self._running = x``) must happen atomically under the lock.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.astutil import (
    MUTATOR_METHODS,
    call_name,
    has_keyword,
    iter_methods,
    owned_lock_attrs,
    self_attr_target,
)
from repro.analysis.registry import Finding, Rule, register

__all__ = ["UnguardedAttrWrite", "ThreadNoDaemon", "CheckThenAct"]

_EXEMPT_METHODS = {"__init__", "__new__", "__del__", "__post_init__"}


def _is_lock_guard(item: ast.withitem, lock_attrs: Set[str]) -> bool:
    """True when the with-item acquires one of the class's own locks."""
    expr = item.context_expr
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in lock_attrs
    ):
        return True
    # self._lock.acquire()-style guards inside `with` are equivalent.
    callee = call_name(expr)
    if callee is not None:
        parts = callee.split(".")
        return len(parts) >= 2 and parts[0] == "self" and parts[1] in lock_attrs
    return False


class _GuardTracker(ast.NodeVisitor):
    """Walk one method body tracking whether an owned lock is held.

    Nested functions are skipped entirely: closures handed to threads or
    executors have their own call-time context the static pass cannot see.
    """

    def __init__(self, lock_attrs: Set[str]):
        self.lock_attrs = lock_attrs
        self.depth = 0
        #: (node, attr, guarded) for every self._attr write observed.
        self.writes: List[Tuple[ast.AST, str, bool]] = []
        #: attr -> was any read of it guarded / unguarded (for check-then-act).
        self.reads: List[Tuple[ast.AST, str, bool]] = []
        #: Attribute nodes already consumed as mutator-call receivers —
        #: `self._x.append(...)` is one write, not a read-then-write pair.
        self._mutator_receivers: Set[int] = set()

    # -- guard scope ------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        guards = sum(1 for item in node.items if _is_lock_guard(item, self.lock_attrs))
        self.depth += guards
        for child in node.body:
            self.visit(child)
        self.depth -= guards

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # nested defs
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    # -- writes -----------------------------------------------------------

    def _record_target(self, node: ast.AST, target: ast.AST) -> None:
        attr = self_attr_target(target)
        if attr is not None and attr.startswith("_") and attr not in self.lock_attrs:
            self.writes.append((node, attr, self.depth > 0))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(node, target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node, node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node, node.target)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(node, target)

    def visit_Call(self, node: ast.Call) -> None:
        callee = call_name(node.func)
        if callee is not None:
            parts = callee.split(".")
            if (
                len(parts) == 3
                and parts[0] == "self"
                and parts[1].startswith("_")
                and parts[1] not in self.lock_attrs
                and parts[2] in MUTATOR_METHODS
            ):
                self.writes.append((node, parts[1], self.depth > 0))
                if isinstance(node.func, ast.Attribute):
                    self._mutator_receivers.add(id(node.func.value))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and node.attr not in self.lock_attrs
            and id(node) not in self._mutator_receivers
        ):
            self.reads.append((node, node.attr, self.depth > 0))
        self.generic_visit(node)


def _lock_owning_classes(tree: ast.Module) -> List[Tuple[ast.ClassDef, Set[str]]]:
    owners = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            locks = owned_lock_attrs(node)
            if locks:
                owners.append((node, locks))
    return owners


@register
class UnguardedAttrWrite(Rule):
    rule_id = "unguarded-attr-write"
    family = "lock-discipline"
    summary = "private attribute mutated outside the owning class's lock"
    rationale = (
        "A class that allocates a threading lock has declared its state "
        "shared; writing self._* outside `with <lock>:` races readers and "
        "breaks the batched==sequential equivalence the locks exist to keep."
    )

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for class_node, locks in _lock_owning_classes(tree):
            for method in iter_methods(class_node):
                if method.name in _EXEMPT_METHODS or method.name.endswith("_locked"):
                    continue
                tracker = _GuardTracker(locks)
                for statement in method.body:
                    tracker.visit(statement)
                for node, attr, guarded in tracker.writes:
                    if not guarded:
                        findings.append(
                            self.finding(
                                node,
                                relpath,
                                f"{class_node.name}.{method.name} writes self.{attr} "
                                f"outside `with self.{sorted(locks)[0]}:`",
                            )
                        )
        return findings


@register
class ThreadNoDaemon(Rule):
    rule_id = "thread-no-daemon"
    family = "lock-discipline"
    summary = "threading.Thread constructed without an explicit daemon flag"
    rationale = (
        "Non-daemon service threads keep the interpreter alive after a "
        "crash; every Thread in this repo must state daemon= explicitly."
    )

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node.func)
            if callee in ("threading.Thread", "Thread") and not has_keyword(node, "daemon"):
                findings.append(
                    self.finding(node, relpath, "threading.Thread(...) without daemon=")
                )
        return findings


@register
class CheckThenAct(Rule):
    rule_id = "check-then-act"
    family = "lock-discipline"
    summary = "unguarded test-and-set on a shared flag"
    rationale = (
        "Reading a shared flag and then writing it outside the lock lets "
        "two threads interleave between test and act (double start, double "
        "stop, generation skew); the pair must sit in one `with <lock>:`."
    )

    def check(self, tree: ast.Module, lines: Sequence[str], relpath: str) -> List[Finding]:
        findings: List[Finding] = []
        for class_node, locks in _lock_owning_classes(tree):
            for method in iter_methods(class_node):
                if method.name in _EXEMPT_METHODS or method.name.endswith("_locked"):
                    continue
                tracker = _GuardTracker(locks)
                for statement in method.body:
                    tracker.visit(statement)
                written: Dict[str, bool] = {}
                for _, attr, guarded in tracker.writes:
                    written[attr] = written.get(attr, False) or not guarded
                for node, attr, guarded in tracker.reads:
                    if not guarded and written.get(attr):
                        findings.append(
                            self.finding(
                                node,
                                relpath,
                                f"{class_node.name}.{method.name} tests and sets "
                                f"self.{attr} without holding the lock",
                            )
                        )
                        break  # one report per method is enough
        return findings
