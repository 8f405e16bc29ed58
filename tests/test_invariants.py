"""Tests for the invariant-checking subsystem (:mod:`repro.sim.invariants`)."""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent
from repro.agents.memory import FieldKind, MemoryModel
from repro.graph import generators
from repro.runner import ScenarioSpec, run_scenario
from repro.sim.instrumentation import InstrumentationConfig, current, instrument
from repro.sim.invariants import InvariantChecker, InvariantError
from repro.sim.sync_engine import SyncEngine


def make_world(k: int = 3, n: int = 8):
    graph = generators.line(n)
    model = MemoryModel(k=k, max_degree=graph.max_degree)
    agents = {i: Agent(i, 0, model) for i in range(1, k + 1)}
    checker = InvariantChecker()
    checker.attach(graph, agents)
    return graph, agents, checker


def violation_names(checker: InvariantChecker):
    return [v.name for v in checker.violations]


# ----------------------------------------------------------------- detection
def test_duplicate_home_is_flagged():
    _, agents, checker = make_world()
    agents[1].settle(2, None)
    agents[2].settle(2, None)  # same home: dispersion safety broken
    checker.after_tick(1)
    assert "unique_settlement" in violation_names(checker)
    assert checker.violation_count == 1


def test_settled_flag_memory_bit_mismatch_is_flagged():
    _, agents, checker = make_world()
    agents[1].settled = True  # corrupt: attribute flipped without the protocol
    agents[1].home = 3
    checker.after_tick(1)
    assert "settled_consistency" in violation_names(checker)


def test_settled_without_home_is_flagged():
    _, agents, checker = make_world()
    agents[1].settled = True
    agents[1].memory.write("settled", True, FieldKind.FLAG)
    checker.after_tick(1)
    assert "settled_consistency" in violation_names(checker)


def test_sanctioned_unsettle_is_not_a_violation():
    _, agents, checker = make_world()
    agents[1].settle(2, None)
    checker.after_tick(1)
    agents[1].unsettle()
    checker.after_tick(2)
    assert checker.violation_count == 0


def test_unsanctioned_settled_drop_is_flagged():
    _, agents, checker = make_world()
    agents[1].settle(2, None)
    checker.after_tick(1)
    # Corrupt both the attribute and the memory bit (so the consistency check
    # stays quiet) without going through unsettle(): monotonicity must fire.
    agents[1].settled = False
    agents[1].home = None
    agents[1].memory.write("settled", False, FieldKind.FLAG)
    checker.after_tick(2)
    assert violation_names(checker) == ["monotone_settled"]


def test_finalize_flags_settled_agent_away_from_home():
    _, agents, checker = make_world()
    agents[1].settle(2, None)
    agents[1].position = 5  # wandered off after settling
    checker.finalize(99)
    assert "final_dispersion" in violation_names(checker)


def test_port_bijection_checked_after_churn(monkeypatch):
    graph, _, checker = make_world(n=10)
    graph.rewire(add=(0, 5))
    monkeypatch.setattr(
        type(graph), "validate", lambda self: (_ for _ in ()).throw(AssertionError("broken"))
    )
    checker.after_tick(1)
    assert "port_bijection" in violation_names(checker)


def test_strict_mode_raises():
    _, agents, checker = make_world()
    checker.strict = True
    agents[1].settle(2, None)
    agents[2].settle(2, None)
    with pytest.raises(InvariantError, match="unique_settlement"):
        checker.after_tick(1)


def test_check_every_skips_intermediate_ticks():
    _, agents, checker = make_world()
    checker.check_every = 10
    agents[1].settle(2, None)
    agents[2].settle(2, None)
    for t in range(1, 10):
        checker.after_tick(t)
    assert checker.violation_count == 0  # not yet sampled
    checker.after_tick(10)
    assert checker.violation_count == 1


# -------------------------------------------------------------- engine wiring
def test_engine_picks_up_ambient_instrumentation():
    graph = generators.line(6)
    model = MemoryModel(k=2, max_degree=2)
    agents = [Agent(i, 0, model) for i in (1, 2)]
    config = InstrumentationConfig(check_invariants=True)
    with instrument(config):
        engine = SyncEngine(graph, agents)
    assert current() is None  # context restored
    assert engine.kernel.invariant_checker is config.checkers[0]
    engine.step({1: 1})
    metrics = engine.finalize_metrics()
    assert metrics.extra["invariant_violations"] == 0.0
    assert metrics.extra["invariant_checks"] > 0


# --------------------------------------------------- paper algorithms: clean
@pytest.mark.parametrize("algorithm", ["rooted_sync", "rooted_async", "general_sync", "general_async"])
def test_paper_algorithms_fault_free_have_zero_violations(algorithm):
    scenario = ScenarioSpec(
        family="erdos_renyi",
        params={"n": 16, "p": 0.28},
        k=10,
        check_invariants=True,
    )
    record = run_scenario(algorithm, scenario)
    assert record.status == "ok" and record.dispersed
    assert record.invariant_violations == 0
    assert record.extra["invariant_checks"] > 0
