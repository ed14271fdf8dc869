"""Layering rules: package boundaries the architecture depends on.

New engines behind the registry only stay cheap if the seams stay
seams: engines are reached through the registry, the package runs on
numpy alone (no accelerator runtime import), process and socket
primitives live behind the executor/transport layers, and private
helpers do not grow cross-package consumers that freeze their
signatures.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.core import Finding, LintContext, Rule

#: List-coloring engine *implementation* modules.  Everything outside
#: the coloring package reaches them through the registry
#: (``repro.coloring.engine.get_engine``) or the package's public
#: re-exports (``repro.coloring``), so engines stay swappable.
_ENGINE_IMPL_MODULES = frozenset(
    {
        "repro.coloring.greedy_list",
        "repro.coloring.parallel_list",
        "repro.coloring.speculative",
        "repro.coloring.luby",
        "repro.coloring.jones_plassmann",
        "repro.coloring.greedy",
        "repro.coloring.recolor",
    }
)


def _imported_modules(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(node, dotted_module)`` for every import in the file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node, node.module


class EngineRegistryRule(Rule):
    """Engines are reached through the registry outside ``coloring/``."""

    name = "engine-registry"
    contract = (
        "outside repro.coloring, list-coloring engines are selected "
        "through the registry (repro.coloring.engine.get_engine) or the "
        "package's public API — never by importing an implementation "
        "module, so engines stay swappable behind one seam"
    )
    scope = ("src/repro/",)
    exclude = ("src/repro/coloring/",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node, module in _imported_modules(ctx.tree):
            if module in _ENGINE_IMPL_MODULES:
                yield self.finding(
                    ctx,
                    node,
                    f"import of engine implementation '{module}': use "
                    "repro.coloring.engine.get_engine or the "
                    "repro.coloring package API",
                )


#: Accelerator runtimes the package never imports.
_ACCEL_RUNTIMES = ("numba", "cupy")


class BackendRegistryRule(Rule):
    """No accelerator runtime (numba/cupy) is imported anywhere in
    ``src/repro/``: every kernel is a numpy one."""

    name = "backend-registry"
    contract = (
        "the accelerator runtimes (numba, cupy) are never imported in "
        "src/repro: every kernel is a numpy one, so the package runs "
        "on a host that has only numpy and scipy"
    )
    scope = ("src/repro/",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node, module in _imported_modules(ctx.tree):
            if module.split(".")[0] in _ACCEL_RUNTIMES:
                yield self.finding(
                    ctx,
                    node,
                    f"import of accelerator runtime '{module}': the "
                    "package runs on numpy alone",
                )


class SocketScopeRule(Rule):
    """Process/socket primitives live behind the executor/transport."""

    name = "socket-scope"
    contract = (
        "multiprocessing and socket primitives are confined to "
        "repro.parallel and repro.distributed; everything else "
        "parallelizes through the Executor seam so backends stay "
        "pluggable"
    )
    scope = ("src/repro/",)
    exclude = ("src/repro/parallel/", "src/repro/distributed/")

    _BANNED = ("multiprocessing", "socket", "socketserver")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node, module in _imported_modules(ctx.tree):
            top = module.split(".")[0]
            if top in self._BANNED:
                yield self.finding(
                    ctx,
                    node,
                    f"import of '{module}' outside the parallel/"
                    "distributed layers: go through "
                    "repro.parallel.executor (make_executor/"
                    "owned_executor) or repro.distributed.transport",
                )


class PrivateImportRule(Rule):
    """No cross-package imports of another module's private names."""

    name = "private-import"
    contract = (
        "underscore-prefixed names of repro.parallel modules are "
        "implementation details; importing them elsewhere freezes "
        "internals — promote the helper to a public name instead"
    )
    scope = ("src/repro/",)
    exclude = ("src/repro/parallel/",)

    _GUARDED_PREFIX = "repro.parallel."

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or not node.module:
                continue
            if not node.module.startswith(self._GUARDED_PREFIX):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield self.finding(
                        ctx,
                        node,
                        f"private import '{alias.name}' from "
                        f"'{node.module}': promote it to a public name "
                        "or move the consumer into repro.parallel",
                    )
