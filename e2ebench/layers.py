"""Outside-in per-layer tracing of ``repro``.

:class:`LayerTrace` wraps the public functions and methods of each ``repro``
module from outside the package (``src/`` is not touched), runs a pass, and
restores every original.  A layer is a group of modules.  Each call that
enters a layer from another layer opens a span; a call within the same layer
only bumps its function's call counter.  A layer's self time is the duration
of its spans minus the time their child spans cover.  Spans are aggregated in
memory per function and written out by :meth:`LayerTrace.span_table` when the
pass ends.

Not wrapped: private helpers (their time is their caller's layer), generator
functions (their bodies run under the span of whoever resumes them; ASYNC
agent programs get a ``core`` span per resumption through
``AsyncEngine.assign``), and the per-query accessors of ``PortLabeledGraph``
(``neighbor``, ``degree`` ...), which the drivers and backends call per move:
their time counts to the caller, so ``graph`` measures building and rewiring.
"""

from __future__ import annotations

import enum
import functools
import gc
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer of each wrapped module (a package maps all of its modules).
LAYER_OF_MODULE = {
    "repro.core": "core",
    "repro.baselines": "core",
    "repro.agents": "agents",
    "repro.sim.kernel": "kernel",
    "repro.sim.metrics": "kernel",
    "repro.sim.backends": "backends",
    "repro.sim.sync_engine": "engine",
    "repro.sim.async_engine": "engine",
    "repro.sim.adversary": "scheduler",
    "repro.sim.faults": "faults",
    "repro.sim.invariants": "invariants",
    "repro.sim.trace": "trace",
    "repro.graph": "graph",
    "repro.runner.execute": "runner",
    "repro.runner.scenario": "runner",
    "repro.runner.sweep": "runner",
    "repro.runner.registry": "runner",
    "repro.runner.artifacts": "runner",
    "repro.store": "store",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))

#: Names that sit in a hook module but parse scenario configuration: they
#: run for every scenario, so they count as ``runner``, not as a fault hook.
LAYER_OF_NAME = {"FaultSpec": "runner", "parse_faults": "runner"}

#: ``PortLabeledGraph`` methods that stay wrapped: building and rewiring.
GRAPH_METHODS = {"__init__", "rewire", "validate", "bfs_distances", "diameter", "is_tree"}

#: Functions whose inclusive time is kept besides the layer self time.
INCLUSIVE = {"plan_sweep", "RunStore.put_many"}

#: Batch primitives a backend may answer itself or through the generic
#: ``KernelBackend`` body.
PRIMITIVES = (
    "settled_present",
    "home_settler_at",
    "has_home_settler",
    "run_probe_round",
    "run_phase",
    "run_scatter",
)

_ROOT = "(bench)"


def _modules() -> List[Any]:
    """Every wrapped module, imported."""
    found = []
    for prefix in LAYER_OF_MODULE:
        module = importlib.import_module(prefix)
        found.append(module)
        if hasattr(module, "__path__"):
            for info in pkgutil.iter_modules(module.__path__, prefix + "."):
                found.append(importlib.import_module(info.name))
    return found


def _layer(module_name: str) -> str:
    for prefix, layer in LAYER_OF_MODULE.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    raise KeyError(module_name)


def _own(fn: Any, module: Any) -> bool:
    """A plain function that belongs to ``module`` by its ``__module__``: not
    imported from elsewhere, not generated by ``dataclass`` (source file
    ``<string>``), not a generator function."""
    return (
        inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not fn.__code__.co_filename.startswith("<")
        and not inspect.isgeneratorfunction(fn)
    )


def _mark(fn: Callable[..., Any], wrapper: Callable[..., Any]) -> Callable[..., Any]:
    wrapped = functools.wraps(fn)(wrapper)
    wrapped.__e2ebench_wrapped__ = True
    return wrapped


def _is_wrapper(value: Any) -> bool:
    return getattr(value, "__e2ebench_wrapped__", False) is True


class LayerTrace:
    """Per-layer self time, boundary crossings and per-function call counts
    for one traced pass (see the module docstring)."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = [[_ROOT, 0.0]]
        #: layer -> [self seconds, spans]
        self.layer: Dict[str, List[float]] = {name: [0.0, 0] for name in LAYERS}
        #: function name -> [calls, span seconds (inclusive), spans]
        self.functions: Dict[str, List[float]] = {}
        self.inclusive: Dict[str, float] = {name: 0.0 for name in INCLUSIVE}
        self.counters: Dict[str, int] = {"fallback_calls": 0, "generic_calls": 0}
        self.plans: List[Tuple[int, int]] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start: Optional[float] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- spans
    def _span(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        acc = self.layer[layer]
        cell = self.functions.setdefault(name, [0, 0.0, 0])
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell[0] += 1
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                acc[0] += elapsed - frame[1]
                acc[1] += 1
                cell[1] += elapsed
                cell[2] += 1

        return wrapper

    def _wrap(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = self._span(layer, name, fn)
        if name in INCLUSIVE:
            inclusive = self.inclusive
            clock = time.perf_counter
            spanned = inner

            def inner(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return spanned(*args, **kwargs)
                finally:
                    inclusive[name] += clock() - start

        if name == "plan_sweep":
            planned = inner

            def inner(*args: Any, **kwargs: Any) -> Any:
                plan = planned(*args, **kwargs)
                self.plans.append((plan.hits, plan.total))
                return plan

        return _mark(fn, inner)

    # ------------------------------------------- layer-specific wrappers
    def _wrap_run_until(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Run each ``run_until`` predicate call in a ``core`` span of its own
        (``run_until.predicate``)."""
        trace = self

        def run_until(engine: Any, predicate: Callable[[], bool], *args: Any, **kwargs: Any) -> Any:
            return fn(engine, trace._span("core", "run_until.predicate", predicate), *args, **kwargs)

        return _mark(fn, run_until)

    def _wrap_assign(self, fn: Callable[..., Any], wait_until: type) -> Callable[..., Any]:
        """Run each resumption of an agent program (and each ``WaitUntil``
        predicate it yields) in a ``core`` span."""
        trace = self

        def assign(engine: Any, agent_id: int, program: Any) -> Any:
            step = trace._span("core", "program.step", next)

            def traced() -> Any:
                while True:
                    try:
                        action = step(program)
                    except StopIteration:
                        return
                    if isinstance(action, wait_until):
                        action = wait_until(trace._span("core", "WaitUntil.predicate", action.predicate))
                    yield action

            return fn(engine, agent_id, traced())

        return _mark(fn, assign)

    def _wrap_generic(self, fn: Callable[..., Any], vectorized: type) -> Callable[..., Any]:
        """A ``KernelBackend`` batch-primitive body: count it as a fallback
        when a ``VectorizedBackend`` reaches it, else as a generic call."""
        counters = self.counters

        def generic(backend: Any, *args: Any, **kwargs: Any) -> Any:
            counters["fallback_calls" if isinstance(backend, vectorized) else "generic_calls"] += 1
            return fn(backend, *args, **kwargs)

        return _mark(fn, generic)

    # ------------------------------------------------- install / restore
    def _set(self, owner: Any, key: str, value: Any) -> None:
        original = owner[key] if isinstance(owner, dict) else owner.__dict__[key]
        self._patches.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        from repro.sim.async_engine import AsyncEngine, WaitUntil
        from repro.sim.backends.base import KernelBackend
        from repro.sim.backends.vectorized import VectorizedBackend

        replaced: Dict[int, Any] = {}
        for module in _modules():
            layer = _layer(module.__name__)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if _own(value, module):
                    wrapper = self._wrap(LAYER_OF_NAME.get(attr, layer), attr, value)
                    replaced[id(value)] = wrapper
                    self._set(module.__dict__, attr, wrapper)
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and not issubclass(value, (enum.Enum, BaseException))
                ):
                    self._wrap_class(LAYER_OF_NAME.get(attr, layer), value, module)
        self._wrap_special(AsyncEngine, WaitUntil, KernelBackend, VectorizedBackend)
        # Modules that imported a wrapped function by name (and registries
        # such as GRAPH_FAMILIES) still hold the original: point them at the
        # wrapper too.
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro.") or module is None:
                continue
            namespace = module.__dict__
            for attr, value in list(namespace.items()):
                if id(value) in replaced and namespace[attr] is not replaced[id(value)]:
                    self._set(namespace, attr, replaced[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if id(entry) in replaced:
                            self._set(value, key, replaced[id(entry)])
        gc.callbacks.append(self._on_gc)

    def _wrap_class(self, layer: str, cls: type, module: Any) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if cls.__name__ == "PortLabeledGraph" and attr not in GRAPH_METHODS:
                continue
            if _own(value, module):
                self._set(cls, attr, self._wrap(layer, f"{cls.__name__}.{attr}", value))

    def _wrap_special(
        self, async_engine: type, wait_until: type, kernel_backend: type, vectorized: type
    ) -> None:
        self._set(async_engine, "run_until", self._wrap_run_until(async_engine.run_until))
        self._set(async_engine, "assign", self._wrap_assign(async_engine.assign, wait_until))
        # Private, so not wrapped above; one call per activation.
        self._set(
            async_engine,
            "_activate",
            self._wrap("engine", "AsyncEngine._activate", async_engine._activate),
        )
        for name in PRIMITIVES:
            self._set(kernel_backend, name, self._wrap_generic(getattr(kernel_backend, name), vectorized))

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # ------------------------------------------------------------ readout
    def calls(self, name: str) -> int:
        return int(self.functions.get(name, (0,))[0])

    def inclusive_s(self, name: str) -> float:
        """Seconds spent in ``name``'s spans, children included."""
        return float(self.functions.get(name, (0, 0.0))[1])

    @property
    def attributed_s(self) -> float:
        """Seconds covered by top-level spans."""
        return self._stack[0][1]

    def span_table(self, limit: int = 12) -> List[str]:
        """The heaviest boundary spans by inclusive time, one line each."""
        rows = sorted(self.functions.items(), key=lambda item: -item[1][1])[:limit]
        return [
            f"  {name:<40} calls={int(cell[0]):>9} spans={int(cell[2]):>9} incl={cell[1]:.3f}s"
            for name, cell in rows
        ]


def wrapped_leftovers() -> List[str]:
    """Names in ``repro`` that still hold a benchmark wrapper (empty after
    :meth:`LayerTrace.restore`)."""
    left = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            members = []
            if inspect.isclass(value) and value.__module__ == name:
                members = list(vars(value).items())
            elif isinstance(value, dict):
                members = list(value.items())
            if _is_wrapper(value):
                left.append(f"{name}.{attr}")
            left.extend(f"{name}.{attr}.{key}" for key, member in members if _is_wrapper(member))
    return left
