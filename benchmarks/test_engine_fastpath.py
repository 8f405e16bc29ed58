"""Correctness lock for the engine fast paths.

:class:`~repro.graph.port_graph.PortLabeledGraph` serves its hot accessors
(``neighbor``/``reverse_port``/``move``) from precomputed flat CSR-style
arrays, while ``port_to`` still answers from the original per-node dict
mapping.  These tests pin the two representations to each other on random
graphs under every port-assignment policy, so any future change to the flat
layout that disagrees with the dict-based construction fails loudly here.

A wall-clock benchmark additionally tracks the cost of a full edge-crossing
sweep through the fast accessor, which is what the engines hammer.
"""

from __future__ import annotations

import random

import pytest

from repro.graph import generators
from repro.graph.port_graph import PortAssignment
from repro.sim.sync_engine import SyncEngine
from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel


def graph_zoo():
    cases = []
    for assignment in (PortAssignment.ADJACENCY, PortAssignment.RANDOM):
        for seed in (0, 1, 2):
            cases.append(("er", generators.erdos_renyi(40, 0.15, seed=seed, assignment=assignment)))
            cases.append(("tree", generators.random_tree(35, seed=seed, assignment=assignment)))
        cases.append(("grid", generators.grid2d(6, 6, assignment=assignment, seed=7)))
        cases.append(("complete", generators.complete(12, assignment=assignment, seed=7)))
    cases.append(
        ("er-async-safe", generators.erdos_renyi(30, 0.2, seed=4, assignment=PortAssignment.ASYNC_SAFE))
    )
    return cases


@pytest.mark.parametrize("name,graph", graph_zoo())
def test_flat_accessors_agree_with_dict_based_ports(name, graph):
    for v in graph.nodes():
        neighbors_in_port_order = graph.neighbors(v)
        assert len(neighbors_in_port_order) == graph.degree(v)
        for port in graph.ports(v):
            u = graph.neighbor(v, port)
            rev = graph.reverse_port(v, port)
            # Combined fast accessor = the two single accessors.
            assert graph.move(v, port) == (u, rev)
            # Flat arrays vs the dict mapping kept for port_to().
            assert graph.port_to(v, u) == port
            assert graph.port_to(u, v) == rev
            # Round trip across the edge.
            assert graph.neighbor(u, rev) == v
            assert neighbors_in_port_order[port - 1] == u
    graph.validate()


@pytest.mark.parametrize("name,graph", graph_zoo()[:4])
def test_adjacency_arrays_expose_the_same_topology(name, graph):
    offsets, neighbors, reverses = graph.adjacency_arrays()
    assert len(offsets) == graph.num_nodes + 1
    assert len(neighbors) == len(reverses) == 2 * graph.num_edges
    for v in graph.nodes():
        assert offsets[v + 1] - offsets[v] == graph.degree(v)
        for port in graph.ports(v):
            i = offsets[v] + port - 1
            assert neighbors[i] == graph.neighbor(v, port)
            assert reverses[i] == graph.reverse_port(v, port)


def test_invalid_ports_still_raise():
    graph = generators.line(5)
    for bad in (0, 3, -1):  # node 1 has degree 2, so ports are 1..2
        with pytest.raises(ValueError):
            graph.neighbor(1, bad)
        with pytest.raises(ValueError):
            graph.reverse_port(1, bad)
        with pytest.raises(ValueError):
            graph.move(1, bad)


def test_sync_engine_occupancy_stays_consistent_under_random_moves():
    rng = random.Random(11)
    graph = generators.erdos_renyi(25, 0.2, seed=6)
    model = MemoryModel(k=10, max_degree=graph.max_degree)
    agents = {i: Agent(i, rng.randrange(25), model) for i in range(1, 11)}
    engine = SyncEngine(graph, agents.values(), max_rounds=600)
    for _ in range(500):
        moves = {
            agent_id: rng.choice(list(graph.ports(agent.position)))
            for agent_id, agent in agents.items()
            if rng.random() < 0.6
        }
        engine.step(moves)
    positions = engine.kernel.positions()
    for node in graph.nodes():
        expected = sorted(a for a, pos in positions.items() if pos == node)
        assert [a.agent_id for a in engine.kernel.agents_at(node)] == expected
        assert engine.kernel.occupied(node) == bool(expected)
    metrics = engine.finalize_metrics()
    assert metrics.rounds == 500
    assert metrics.total_moves == sum(
        engine.kernel.moves_per_agent.get(a, 0) for a in agents
    )
    assert metrics.max_moves_per_agent == max(engine.kernel.moves_per_agent.values())


def test_engine_round_counters_unchanged_by_fast_path():
    # The fast path must not change measured model-level quantities: pin a few
    # known-deterministic runs (complete graphs, round-robin adversary).
    from repro.runner import ScenarioSpec, run_scenario

    sync = run_scenario("rooted_sync", ScenarioSpec(family="complete", params={"n": 16}, k=16))
    resync = run_scenario("rooted_sync", ScenarioSpec(family="complete", params={"n": 16}, k=16))
    assert sync.to_dict() == resync.to_dict()
    a1 = run_scenario("rooted_async", ScenarioSpec(family="complete", params={"n": 12}, k=12))
    a2 = run_scenario("rooted_async", ScenarioSpec(family="complete", params={"n": 12}, k=12))
    assert a1.to_dict() == a2.to_dict()


class _SeedSyncEngine:
    """Distilled pre-kernel ``SyncEngine`` hot loop (fault-free fast path).

    A faithful inline copy of the seed engine's ``step``: per-engine occupancy
    list, validate-then-vacate-then-apply batch, inline move accounting.  The
    kernel facades must stay within 10% of this on round throughput.
    """

    def __init__(self, graph, agents):
        self.graph = graph
        self.agents = {a.agent_id: a for a in agents}
        self._occupancy = [set() for _ in range(graph.num_nodes)]
        for agent in self.agents.values():
            self._occupancy[agent.position].add(agent.agent_id)
        self.rounds = 0
        self.total_moves = 0
        self.max_moves_per_agent = 0
        self._moves_per_agent = {}

    def step(self, moves):
        if moves:
            edge = self.graph.move
            occupancy = self._occupancy
            planned = []
            for agent_id, port in moves.items():
                if port is None:
                    continue
                agent = self.agents[agent_id]
                dst, rev = edge(agent.position, port)
                planned.append((agent, dst, rev))
            for agent, _dst, _rev in planned:
                occupancy[agent.position].discard(agent.agent_id)
            moves_per_agent = self._moves_per_agent
            max_moves = self.max_moves_per_agent
            for agent, dst, rev in planned:
                agent.arrive(dst, rev)
                occupancy[dst].add(agent.agent_id)
                count = moves_per_agent.get(agent.agent_id, 0) + 1
                moves_per_agent[agent.agent_id] = count
                if count > max_moves:
                    max_moves = count
            self.total_moves += len(planned)
            self.max_moves_per_agent = max_moves
        self.rounds += 1


class _SeedAsyncEngine:
    """Distilled pre-kernel ``AsyncEngine`` hot loop (fault-free fast path).

    Covers exactly what the activation throughput benchmark drives: program
    advance, Move/Stay dispatch, inline `_move`, epoch bookkeeping.
    """

    def __init__(self, graph, agents):
        from repro.sim.async_engine import Move as _Move

        self._Move = _Move
        self.graph = graph
        self.agents = {a.agent_id: a for a in agents}
        self._occupancy = [set() for _ in range(graph.num_nodes)]
        for agent in self.agents.values():
            self._occupancy[agent.position].add(agent.agent_id)
        self.activations = 0
        self.epochs = 0
        self.total_moves = 0
        self.max_moves_per_agent = 0
        self._moves_per_agent = {}
        self._programs = {a: None for a in self.agents}
        self._pending = {a: None for a in self.agents}
        self._active_this_epoch = set()

    def assign(self, agent_id, program):
        self._programs[agent_id] = program
        self._pending[agent_id] = None

    def _move(self, agent, port):
        dst, rev = self.graph.move(agent.position, port)
        self._occupancy[agent.position].discard(agent.agent_id)
        agent.arrive(dst, rev)
        self._occupancy[dst].add(agent.agent_id)
        self.total_moves += 1
        count = self._moves_per_agent.get(agent.agent_id, 0) + 1
        self._moves_per_agent[agent.agent_id] = count
        if count > self.max_moves_per_agent:
            self.max_moves_per_agent = count

    def activate(self, agent_id):
        agent = self.agents[agent_id]
        self.activations += 1
        action = self._pending[agent_id]
        if action is None:
            program = self._programs[agent_id]
            if program is not None:
                try:
                    action = next(program)
                except StopIteration:
                    self._programs[agent_id] = None
                    action = None
        if action is not None:
            if isinstance(action, self._Move):
                self._move(agent, action.port)
            self._pending[agent_id] = None
        self._active_this_epoch.add(agent_id)
        if len(self._active_this_epoch) == len(self.agents):
            self.epochs += 1
            self._active_this_epoch.clear()


def _best_times(seed_fn, kernel_fn, repeats=5):
    """Best-of-N wall clock of both legs, measured interleaved.

    Best-of-N is robust to scheduler noise on shared CI runners; alternating
    the legs (and which of them runs first in each repeat) keeps a load burst
    from landing on one leg only.  Returns ``(seed_best, kernel_best)``.
    """
    import time

    best = {seed_fn: float("inf"), kernel_fn: float("inf")}
    for i in range(repeats):
        for fn in (seed_fn, kernel_fn) if i % 2 == 0 else (kernel_fn, seed_fn):
            start = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
    return best[seed_fn], best[kernel_fn]


def _sync_workload(engine_cls, rounds=400, k=40):
    """k agents random-walking for ``rounds`` lockstep rounds.

    Port choices derive from a per-run RNG over the evolving positions; both
    engine classes evolve identically, so the measured work is equal.
    """
    graph = generators.erdos_renyi(80, 0.08, seed=3)
    model = MemoryModel(k=k, max_degree=graph.max_degree)
    agents = [Agent(i, (7 * i) % graph.num_nodes, model) for i in range(1, k + 1)]
    engine = engine_cls(graph, agents)
    rng = random.Random(17)
    degree = graph.degree
    for _ in range(rounds):
        moves = {
            a.agent_id: rng.randrange(degree(a.position)) + 1
            for a in agents
            if rng.random() < 0.7
        }
        engine.step(moves)
    return engine


def _async_workload(engine_cls, activations=16_000, k=40):
    """Round-robin activations of agents running endless Move/Stay programs."""
    from repro.sim.async_engine import Move, Stay

    graph = generators.erdos_renyi(80, 0.08, seed=3)
    model = MemoryModel(k=k, max_degree=graph.max_degree)
    agents = [Agent(i, (7 * i) % graph.num_nodes, model) for i in range(1, k + 1)]
    if engine_cls is _SeedAsyncEngine:
        engine = engine_cls(graph, agents)
        activate = engine.activate
    else:
        from repro.sim.adversary import RoundRobinAdversary

        engine = engine_cls(graph, agents, adversary=RoundRobinAdversary())
        activate = engine._activate

    def walker(agent, seed):
        rng = random.Random(seed)
        while True:
            if rng.random() < 0.7:
                yield Move(rng.randrange(graph.degree(agent.position)) + 1)
            else:
                yield Stay()

    for agent in agents:
        engine.assign(agent.agent_id, walker(agent, agent.agent_id))
    ids = [a.agent_id for a in agents]
    for i in range(activations):
        activate(ids[i % k])
    return engine


def test_kernel_sync_round_throughput_within_10pct_of_seed():
    """The kernel facade may not cost more than 10% SYNC round throughput.

    The baseline is a faithful distillation of the pre-refactor engine's
    fault-free ``step`` (the seed's hot loop); a small absolute epsilon keeps
    timer noise from failing sub-millisecond deltas.
    """
    # Equal-work sanity before timing anything.
    seed_engine = _sync_workload(_SeedSyncEngine)
    kernel_engine = _sync_workload(SyncEngine)
    assert kernel_engine.metrics.total_moves == seed_engine.total_moves
    assert kernel_engine.kernel.positions() == {
        a.agent_id: a.position for a in seed_engine.agents.values()
    }

    seed_time, kernel_time = _best_times(
        lambda: _sync_workload(_SeedSyncEngine), lambda: _sync_workload(SyncEngine)
    )
    assert kernel_time <= seed_time * 1.10 + 0.010, (
        f"SYNC rounds regressed: kernel {kernel_time:.4f}s vs seed "
        f"{seed_time:.4f}s (>{seed_time * 1.10 + 0.010:.4f}s budget)"
    )


def test_kernel_async_activation_throughput_within_10pct_of_seed():
    """The kernel facade may not cost more than 10% ASYNC activation throughput."""
    from repro.sim.async_engine import AsyncEngine

    seed_engine = _async_workload(_SeedAsyncEngine)
    kernel_engine = _async_workload(AsyncEngine)
    assert kernel_engine.metrics.total_moves == seed_engine.total_moves
    assert kernel_engine.metrics.epochs == seed_engine.epochs
    assert kernel_engine.kernel.positions() == {
        a.agent_id: a.position for a in seed_engine.agents.values()
    }

    seed_time, kernel_time = _best_times(
        lambda: _async_workload(_SeedAsyncEngine), lambda: _async_workload(AsyncEngine)
    )
    assert kernel_time <= seed_time * 1.10 + 0.010, (
        f"ASYNC activations regressed: kernel {kernel_time:.4f}s vs seed "
        f"{seed_time:.4f}s (>{seed_time * 1.10 + 0.010:.4f}s budget)"
    )


def test_wallclock_edge_crossing_sweep(benchmark):
    graph = generators.erdos_renyi(300, 0.05, seed=9)

    def crossing_sweep():
        total = 0
        move = graph.move
        for v in graph.nodes():
            for port in graph.ports(v):
                dst, rev = move(v, port)
                total += dst + rev
        return total

    expected = crossing_sweep()
    assert benchmark(crossing_sweep) == expected
