"""FORK-SAFETY: worker code stays fork-clean.

The portfolio/batch/cube/server layers ship work to worker processes
on one pool (:class:`repro.portfolio.batch.WorkerSlots`); state crosses
the boundary only through its documented primitives (``Process``
arguments, each slot's own pipe, and the slot's started/cancel flags).
Two failure shapes are mechanically detectable:

* a function in a worker path mutating module state via ``global`` —
  in a forked child the write is invisible to the parent and every
  sibling, so it silently diverges;
* a ``threading``/``multiprocessing`` primitive (Lock, Event, Queue,
  Thread, Pool, ...) created at **import time** — it would be created
  once, then fork-inherited in an undefined state by every worker of
  every pool (locked locks deadlock, events alias).
"""

from __future__ import annotations

import ast

from ..rules_base import ModuleContext, Rule, path_in

#: Primitive constructors that must not run at import time.
_PRIMITIVES = {
    "Thread",
    "Timer",
    "Lock",
    "RLock",
    "Event",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Queue",
    "SimpleQueue",
    "JoinableQueue",
    "LifoQueue",
    "PriorityQueue",
    "Process",
    "Pool",
    "ThreadPool",
    "Manager",
    "Value",
    "Array",
    "Pipe",
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
}

_MODULES = {"threading", "multiprocessing", "concurrent", "futures", "queue"}


class ForkSafetyRule(Rule):
    id = "FORK-SAFETY"
    description = (
        "worker-path functions do not assign module globals; no "
        "threading/multiprocessing primitives created at import time"
    )
    fix_hint = (
        "cross-process state rides the documented primitives only: "
        "Process arguments, per-slot pipes, slot started/cancel flags"
    )
    default_settings = {
        #: Path scopes whose functions run in (or ship work to) forked
        #: workers.
        "worker_paths": ["repro/portfolio/", "repro/cube/", "repro/server/"],
    }

    def begin_module(self, ctx: ModuleContext) -> None:
        # Names aliasing the concurrency modules ('import threading as
        # t', 'from multiprocessing import Event').
        self._module_aliases = set()
        self._primitive_aliases = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _MODULES:
                        self._module_aliases.add(alias.asname or root)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                root = (node.module or "").split(".")[0]
                if root in _MODULES:
                    for alias in node.names:
                        if alias.name in _PRIMITIVES:
                            self._primitive_aliases.add(
                                alias.asname or alias.name
                            )

    def visit_Global(self, node: ast.Global, ctx: ModuleContext) -> None:
        if not ctx.func_stack:
            return
        if not path_in(ctx.modpath, self.settings["worker_paths"]):
            return
        ctx.report(
            self,
            node,
            "worker-path function assigns module-level state "
            "(global {})".format(", ".join(node.names)),
            "a forked child's global write is invisible to the parent "
            "and siblings; ship state through Process arguments and "
            "the slot pipes",
        )

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        # Import-time only: inside any def the creation is deferred.
        if ctx.func_stack:
            return
        func = node.func
        primitive = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _PRIMITIVES
            and isinstance(func.value, ast.Name)
            and func.value.id in self._module_aliases
        ):
            primitive = "{}.{}".format(func.value.id, func.attr)
        elif isinstance(func, ast.Name) and func.id in self._primitive_aliases:
            primitive = func.id
        if primitive:
            ctx.report(
                self,
                node,
                "{}() created at import time — fork-inherited in an "
                "undefined state by every worker".format(primitive),
                "create concurrency primitives inside the function or "
                "object that owns them",
            )
