"""Resource rules: shared memory and device scratch stay scoped.

POSIX shared memory outlives the process on crash, and the library has
no use for it: sweep results come home through the executor's result
stream, the one gather path, so no segment is created anywhere in
``src/``.  Device scratch charges
the :class:`DeviceSim` memory ledger; an unreleased scratch makes every
later peak-bytes measurement lie, so ``scratch()`` is only used where a
context manager provably releases it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.core import Finding, LintContext, Rule


class ShmRegionScopeRule(Rule):
    """No shared-memory segment is created in the library."""

    name = "shm-region-scope"
    contract = (
        "no SharedMemory(create=True) or ShmCooRegion.create in the "
        "library: results gather through the executor's result stream, "
        "and a leaked segment survives the process"
    )
    scope = ("src/repro/",)
    exclude = ("src/repro/parallel/shm.py",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "create"
                and isinstance(func.value, ast.Name)
                and func.value.id == "ShmCooRegion"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "ShmCooRegion.create(): a shared segment outlives a "
                    "crashed process; return results through the "
                    "executor's result stream instead",
                )
                continue
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name == "SharedMemory" and any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            ):
                yield self.finding(
                    ctx,
                    node,
                    "SharedMemory(create=True): a shared segment outlives "
                    "a crashed process; return results through the "
                    "executor's result stream instead",
                )


class ScratchContextRule(Rule):
    """``device.scratch()`` is always context-managed."""

    name = "scratch-context"
    contract = (
        "DeviceSim.scratch() charges the device memory ledger; every "
        "call is a 'with' context expression, an enter_context(...) "
        "argument, or returned for the caller to manage — otherwise "
        "peak-bytes accounting drifts"
    )
    scope = ("src/repro/",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        managed: set[ast.Call] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        managed.add(item.context_expr)
            elif isinstance(node, ast.Call):
                callee = node.func
                is_enter = (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == "enter_context"
                ) or (
                    isinstance(callee, ast.Name)
                    and callee.id == "enter_context"
                )
                if is_enter:
                    for arg in node.args:
                        if isinstance(arg, ast.Call):
                            managed.add(arg)
            elif isinstance(node, ast.Return) and isinstance(
                node.value, ast.Call
            ):
                # ``return dev.scratch(...)`` hands the context manager
                # to the caller (the engine `_scratch` helper pattern).
                managed.add(node.value)

        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "scratch"
                and node not in managed
            ):
                yield self.finding(
                    ctx,
                    node,
                    ".scratch() outside a context manager: use 'with "
                    "dev.scratch(...)', stack.enter_context(...), or "
                    "return it to the caller",
                )
