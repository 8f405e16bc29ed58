"""Planted-slowdown self-test of the end-to-end benchmark.

It plants a fixed extra cost in one layer's public function and shows that
the benchmark sees the regression where the layer runs and reports none where
the workload bypasses the layer.  Run it from the repository root (it runs the
benchmark for several minutes)::

    python3 -m pytest e2ebench/selftest.py -q

The file is not named ``test_*.py`` so that the repository's own test suite
does not collect it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Any, Dict, Iterator

import run

SECONDS = 4.0
BACKENDS = run.BACKENDS


def _bounds() -> Dict[str, float]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@contextlib.contextmanager
def planted(cls: type, name: str, cost_s: float) -> Iterator[None]:
    """Make every call of ``cls.name`` spin ``cost_s`` host seconds first."""
    original = cls.__dict__[name]

    @functools.wraps(original)
    def slow(*args: Any, **kwargs: Any) -> Any:
        _busy(cost_s)
        return original(*args, **kwargs)

    setattr(cls, name, slow)
    try:
        yield
    finally:
        setattr(cls, name, original)


def measure(workload: str, trace: bool) -> Dict[str, float]:
    summary, gate = run.measure(workload, 0, SECONDS, trace)
    assert gate.correct, gate.problems
    return {name: entry["value"] for name, entry in summary.items()}


def _assert_moves(base: Dict[str, float], slow: Dict[str, float], bounds: Dict[str, float]) -> None:
    for backend in BACKENDS:
        name = f"wall_s.{backend}"
        assert slow[name] > base[name] * (1 + bounds[name]), (name, base[name], slow[name])


def test_planted_memory_write_shows_on_sync_dfs() -> None:
    run.use_source_tree()
    from repro.agents.memory import AgentMemory

    bounds = _bounds()
    cost = 4e-6
    base, base_layers = measure("sync-dfs", False), measure("sync-dfs", True)
    with planted(AgentMemory, "write", cost):
        slow, slow_layers = measure("sync-dfs", False), measure("sync-dfs", True)
    _assert_moves(base, slow, bounds)
    for backend in BACKENDS:
        writes = base_layers[f"agents.memory_writes.{backend}"]
        assert writes > 0
        assert slow_layers[f"agents.memory_writes.{backend}"] == writes
        grew = slow_layers[f"agents.self_s.{backend}"] - base_layers[f"agents.self_s.{backend}"]
        assert grew > 0.5 * writes * cost, (backend, grew, writes * cost)


def test_planted_invariant_check_shows_on_hooked_sweep_only() -> None:
    run.use_source_tree()
    from repro.sim.invariants import InvariantChecker

    bounds = _bounds()
    cost = 30e-6
    base, base_layers = measure("hooked-sweep", False), measure("hooked-sweep", True)
    bypass = measure("async-dfs", False)
    with planted(InvariantChecker, "after_tick", cost):
        slow, slow_layers = measure("hooked-sweep", False), measure("hooked-sweep", True)
        bypass_slow, bypass_layers = measure("async-dfs", False), measure("async-dfs", True)
    _assert_moves(base, slow, bounds)
    for backend in BACKENDS:
        checks = base_layers[f"hooks.invariant_checks.{backend}"]
        assert checks > 0
        grew = slow_layers[f"hooks.invariants_s.{backend}"] - base_layers[f"hooks.invariants_s.{backend}"]
        assert grew > 0.5 * checks * cost, (backend, grew, checks * cost)
        # async-dfs attaches no invariant checker: the plant never runs there.
        assert bypass_layers[f"hooks.invariant_checks.{backend}"] == 0
        assert bypass_layers[f"hooks.invariants_s.{backend}"] == 0
        name = f"wall_s.{backend}"
        assert abs(bypass_slow[name] / bypass[name] - 1) <= bounds[name], (name, bypass[name], bypass_slow[name])

