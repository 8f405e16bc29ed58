"""Backend-axis unit tests: registry, construction API, and exact parity.

The vectorized backend's correctness contract is *observable equivalence* on
the per-operation tier: every mutation, query answer, metrics counter, and
error message must match the reference backend exactly (the differential
suite in ``test_backend_differential.py`` extends this to whole algorithm
records).  These tests pin the contract at the unit level -- lockstep rounds,
error paths, churned port tables, and the batched driver phases -- plus the
registry/spec/factory plumbing the axis travels through.
"""

from __future__ import annotations

import random

import pytest

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.graph import generators
from repro.runner.execute import build_engine
from repro.runner.scenario import ScenarioSpec
from repro.runner.sweep import SweepSpec
from repro.sim.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    BackendUnavailableError,
    KernelBackend,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    backend_available,
    get_backend,
    require_backend,
    resolve_backend,
)
from repro.sim.faults import FaultSchedule
from repro.sim.sync_engine import SyncEngine
from repro.store.fingerprint import fingerprint_material, run_fingerprint

needs_vectorized = pytest.mark.skipif(
    not backend_available("vectorized"), reason="numpy not installed"
)


def make_world(n: int = 18, k: int = 10, seed: int = 7, start: int = 0):
    graph = generators.erdos_renyi(n, 0.3, seed=seed)
    model = MemoryModel(k=k, max_degree=graph.max_degree)
    agents = [Agent(i, start, model) for i in range(1, k + 1)]
    return graph, agents


def snapshot(engine):
    """Every observable the per-operation tier promises to keep identical."""
    n = engine.graph.num_nodes
    return {
        "positions": engine.kernel.positions(),
        "occupancy": [set(s) for s in engine.kernel.occupancy],
        "counts": list(engine.kernel.backend.occupancy_counts()),
        "occupied": [engine.kernel.occupied(v) for v in range(n)],
        "present": [engine.kernel.backend.present_ids(v) for v in range(n)],
        "total_moves": engine.metrics.total_moves,
        "moves_per_agent": dict(engine.kernel.moves_per_agent),
        "agent_state": sorted(
            (a.agent_id, a.position, a.settled, a.home)
            for a in engine.agents.values()
        ),
    }


# --------------------------------------------------------------------- registry


def test_registry_names_and_default():
    assert DEFAULT_BACKEND == "reference"
    assert set(BACKEND_NAMES) == {"reference", "vectorized"}
    assert backend_available("reference")
    assert "reference" in available_backends()
    assert not backend_available("no-such-backend")


def test_get_and_require_reject_unknown_names():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("no-such-backend")
    with pytest.raises(ValueError, match="unknown backend"):
        require_backend("no-such-backend")


def test_resolve_backend_coerces_none_name_and_instance():
    default = resolve_backend(None)
    assert isinstance(default, ReferenceBackend)
    named = resolve_backend("reference")
    assert isinstance(named, ReferenceBackend)
    assert named is not default  # fresh instance per engine
    instance = ReferenceBackend()
    assert resolve_backend(instance) is instance


def test_vectorized_unavailable_without_numpy(monkeypatch):
    """Without numpy the backend reports unavailable and fails with guidance."""
    import repro.sim.backends.vectorized as vec

    monkeypatch.setattr(vec, "np", None)
    assert not backend_available("vectorized")
    assert available_backends() == ["reference"]
    with pytest.raises(BackendUnavailableError, match="fast"):
        VectorizedBackend()
    with pytest.raises(BackendUnavailableError):
        require_backend("vectorized")
    # ... while the reference path is untouched.
    graph, agents = make_world(n=6, k=2)
    engine = SyncEngine(graph, agents)
    engine.step({})
    assert engine.metrics.rounds == 1


def test_engine_rejects_unknown_backend_name():
    graph, agents = make_world(n=6, k=2)
    with pytest.raises(ValueError, match="unknown backend"):
        SyncEngine(graph, agents, backend="no-such-backend")


# ----------------------------------------------------------------- exact parity


@needs_vectorized
def test_lockstep_parity_on_random_graph():
    """Identical seeded move batches leave both backends byte-equal."""
    engines = []
    for backend in ("reference", "vectorized"):
        graph, agents = make_world()
        engines.append(SyncEngine(graph, agents, backend=backend))
    ref, vec = engines
    assert isinstance(ref.kernel.backend, ReferenceBackend)
    assert isinstance(vec.kernel.backend, VectorizedBackend)
    rng = random.Random(0xD15)
    for round_no in range(40):
        moves = {}
        for agent in ref.agents.values():
            if rng.random() < 0.7:
                moves[agent.agent_id] = rng.randint(
                    1, ref.graph.degree(agent.position)
                )
        if round_no == 25:  # settle someone mid-run: settled bodies still move? no
            aid = min(a for a, m in moves.items()) if moves else 1
            moves.pop(aid, None)
            ref.agents[aid].settle(ref.agents[aid].position, None)
            vec.agents[aid].settle(vec.agents[aid].position, None)
        ref.step(dict(moves))
        vec.step(dict(moves))
        assert snapshot(ref) == snapshot(vec)


@needs_vectorized
def test_apply_move_parity_and_port_memory():
    """The ASYNC single-move primitive updates arrays and Agent alike."""
    for backend in ("reference", "vectorized"):
        graph, agents = make_world(n=10, k=3)
        engine = SyncEngine(graph, agents, backend=backend)
        agent = agents[0]
        engine.kernel.apply_move(agent, 1)
        expected, arrival = graph.move(0, 1)
        assert agent.position == expected
        assert agent.pin == arrival
        assert engine.kernel.positions()[agent.agent_id] == expected
        assert agent.agent_id in engine.kernel.occupancy[expected]
        assert engine.metrics.total_moves == 1


@needs_vectorized
def test_apply_batch_error_message_parity():
    """Both backends report the first offending move with the graph's words."""
    messages = []
    for backend in ("reference", "vectorized"):
        graph, agents = make_world(n=10, k=4)
        engine = SyncEngine(graph, agents, backend=backend)
        before = snapshot(engine)
        deg = graph.degree(0)
        with pytest.raises(ValueError) as err:
            engine.kernel.apply_batch({1: 1, 2: deg + 3, 3: deg + 9})
        messages.append(str(err.value))
        assert f"has no port {deg + 3}" in messages[-1]
        # the offender is reported before anything mutates
        assert snapshot(engine) == before
    assert messages[0] == messages[1]


@needs_vectorized
def test_vectorized_occupancy_is_the_engines_live_alias():
    """Adversaries hold ``engine.kernel.occupancy``; it must stay the live
    object."""
    graph, agents = make_world(n=8, k=4)
    engine = SyncEngine(graph, agents, backend="vectorized")
    held = engine.kernel.occupancy
    assert held is engine.kernel.occupancy
    engine.step({1: 1})
    assert held is engine.kernel.occupancy
    assert 1 in held[graph.neighbor(0, 1)]


@needs_vectorized
def test_parity_survives_edge_churn():
    """``rewire`` rebuilds the CSR tables; the vectorized views must follow."""
    engines = []
    for backend in ("reference", "vectorized"):
        graph, agents = make_world(n=12, k=6, seed=3)
        engines.append(SyncEngine(graph, agents, backend=backend))
    ref, vec = engines
    rng = random.Random(99)
    for _ in range(6):
        # identical structural churn on both worlds
        removable = ref.graph.removable_edges()
        missing = ref.graph.missing_edges()
        remove = removable[rng.randrange(len(removable))] if removable else None
        add = missing[rng.randrange(len(missing))] if missing else None
        churned = ref.graph.churn_count
        for eng in (ref, vec):
            eng.graph.rewire(remove=remove, add=add)
            assert eng.graph.churn_count == churned + 1
        moves = {
            a.agent_id: rng.randint(1, ref.graph.degree(a.position))
            for a in ref.agents.values()
        }
        ref.step(dict(moves))
        vec.step(dict(moves))
        assert snapshot(ref) == snapshot(vec)


# ------------------------------------------------------- driver-phase primitives
#
# The DFS/probe driver phases ride four batched primitives (settled-presence
# queries, run_probe_round, run_scatter via SyncEngine.step_path, run_phase
# via idle_rounds).  They are *deterministic* -- they inherit
# the per-operation tier's exact-parity contract, pinned here per primitive:
# masks, mid-phase faults, churn mid-round, and error ordering.


def lockstep_engines(n=18, k=10, seed=7, start=0, **kwargs):
    engines = []
    for backend in ("reference", "vectorized"):
        graph, agents = make_world(n=n, k=k, seed=seed, start=start)
        engines.append(SyncEngine(graph, agents, backend=backend, **kwargs))
    return engines


def probe_answers(engine, exclude_ids=(None,)):
    """Every settled-query primitive's answer over the whole node set."""
    kernel = engine.kernel
    nodes = list(range(engine.graph.num_nodes))
    home = [kernel.home_settler_at(v) for v in nodes]
    return {
        "present": {
            exclude: [kernel.settled_present(v, exclude) for v in nodes]
            for exclude in exclude_ids
        },
        "home": [(a.agent_id if a is not None else None) for a in home],
        "has_home": {
            exclude: [kernel.has_home_settler(v, exclude) for v in nodes]
            for exclude in exclude_ids
        },
        "round": kernel.run_probe_round(nodes, [0] * len(nodes)),
    }


@needs_vectorized
def test_settled_queries_track_settle_unsettle_resettle_and_moving_settlers():
    """The vectorized settled index must answer exactly like the reference
    scans through arbitrary settle / re-settle / unsettle / move interleavings
    -- including settled bodies that keep moving (the oscillators)."""
    ref, vec = lockstep_engines()
    rng = random.Random(0x5E77)
    for _ in range(80):
        op = rng.random()
        aid = rng.randint(1, 10)
        ra, va = ref.agents[aid], vec.agents[aid]
        if op < 0.3:
            for a in (ra, va):
                a.settle(a.position, None)  # re-settle moves the index entry
        elif op < 0.45 and ra.settled:
            for a in (ra, va):
                a.unsettle()
        else:
            moves = {aid: rng.randint(1, ref.graph.degree(ra.position))}
            ref.step(dict(moves))  # settled agents move too: oscillation
            vec.step(dict(moves))
        excludes = (None, aid, rng.randint(1, 10))
        assert probe_answers(ref, excludes) == probe_answers(vec, excludes)
        assert snapshot(ref) == snapshot(vec)


@needs_vectorized
def test_run_probe_round_parity_with_mixed_excludes():
    ref, vec = lockstep_engines(n=14, k=8, seed=4)
    rng = random.Random(21)
    for eng in (ref, vec):
        for aid in (1, 3, 5, 8):
            eng.agents[aid].settle(eng.agents[aid].position, None)
    nodes, excludes = [], []
    for _ in range(50):
        nodes.append(rng.randrange(14))
        excludes.append(rng.randint(0, 9))  # 0 and 9 match no agent
    answers = ref.kernel.run_probe_round(nodes, excludes)
    assert answers == vec.kernel.run_probe_round(nodes, excludes)
    assert any(answers) and not all(answers)  # the case mix is real


@needs_vectorized
def test_run_probe_round_accepts_prebuilt_arrays():
    """The bench feeds the vectorized leg int64 arrays; answers must match the
    list form on both backends (the generic body zips, arrays zip fine)."""
    np = pytest.importorskip("numpy")
    ref, vec = lockstep_engines(n=12, k=6, seed=9)
    for eng in (ref, vec):
        for aid in (2, 4):
            eng.agents[aid].settle(eng.agents[aid].position, None)
    nodes = list(range(12))
    excludes = [0] * 12
    expected = ref.kernel.run_probe_round(nodes, excludes)
    assert vec.kernel.run_probe_round(nodes, excludes) == expected
    assert (
        vec.kernel.run_probe_round(
            np.asarray(nodes, dtype=np.int64), np.asarray(excludes, dtype=np.int64)
        )
        == expected
    )
    assert (
        ref.kernel.run_probe_round(
            np.asarray(nodes, dtype=np.int64), np.asarray(excludes, dtype=np.int64)
        )
        == expected
    )


@needs_vectorized
def test_settled_queries_fall_back_to_fault_filtered_scans_under_faults():
    """With an injector present the queries must stay Communicate queries:
    crashed/frozen settlers are invisible, exactly as the reference scans see
    it (the vectorized index is *not* fault-filtered, so it must defer)."""
    engines = []
    for backend in ("reference", "vectorized"):
        graph, agents = make_world(n=14, k=6, seed=13)
        engines.append(
            build_engine(
                graph=graph,
                agents=agents,
                fault_schedule=FaultSchedule(
                    crash_at={2: 1}, freeze_windows={4: (1, 4)}
                ),
                backend=backend,
            )
        )
    ref, vec = engines
    for eng in (ref, vec):
        for aid in (2, 4, 6):
            eng.agents[aid].settle(eng.agents[aid].position, None)
        eng.step({})  # tick past t=0 so the crash and freeze are live
        eng.step({})
    excludes = (None, 2, 4)
    assert probe_answers(ref, excludes) == probe_answers(vec, excludes)
    # the crashed settler's node really answers "nobody settled here"
    crashed_home = ref.agents[2].home
    alone = all(
        a.agent_id == 2 or a.position != crashed_home for a in ref.agents.values()
    )
    if alone:
        assert not ref.kernel.settled_present(crashed_home)


@needs_vectorized
def test_step_path_parity_and_duplicate_walker_collapse():
    """run_scatter: same end node, same records, and duplicate walker ids
    count once (the reference moves-dict collapses them by construction)."""
    ref, vec = lockstep_engines(n=16, k=5, seed=6)
    rng = random.Random(0xAB)
    node, ports = 0, []
    for _ in range(12):
        port = rng.randint(1, ref.graph.degree(node))
        ports.append(port)
        node = ref.graph.neighbor(node, port)
    walker_ids = [1, 2, 3, 2, 1]  # duplicates must not double-move anyone
    ends = []
    for eng in (ref, vec):
        ends.append(eng.step_path(list(walker_ids), 0, list(ports), counter="scatter_moves"))
    assert ends[0] == ends[1] == node
    assert snapshot(ref) == snapshot(vec)
    assert ref.metrics.rounds == vec.metrics.rounds == 12
    assert ref.metrics.extra["scatter_moves"] == vec.metrics.extra["scatter_moves"]
    assert ref.metrics.total_moves == 12 * 3  # three distinct walkers


@needs_vectorized
def test_step_path_error_parity_for_both_invalid_port_orderings():
    """An invalid port raises with the graph's exact words in both backends,
    with identical partial state -- both when walkers are moving (batch-plan
    error, before the round counts) and when none are (neighbor lookup error,
    after the round counts)."""
    for walkers_at_start in (True, False):
        outcomes = []
        for backend in ("reference", "vectorized"):
            graph, agents = make_world(n=12, k=4, seed=8, start=0)
            engine = SyncEngine(graph, agents, backend=backend)
            start = 0 if walkers_at_start else graph.neighbor(0, 1)
            # walk down port 1, then ask for a port the next node cannot have
            bad = graph.max_degree + 7
            with pytest.raises(ValueError) as err:
                engine.step_path([1, 2], start, [1, bad], counter="scatter_moves")
            outcomes.append(
                (
                    str(err.value),
                    engine.metrics.rounds,
                    engine.metrics.extra.get("scatter_moves", 0.0),
                    snapshot(engine),
                )
            )
        assert outcomes[0] == outcomes[1]
        assert f"has no port {graph.max_degree + 7}" in outcomes[0][0]


@needs_vectorized
def test_step_path_freeze_mask_leaves_frozen_walkers_behind():
    """A walker frozen mid-phase misses those hops in both backends (the
    vectorized fault mask must equal the reference's per-round filtering)."""
    engines = []
    for backend in ("reference", "vectorized"):
        graph, agents = make_world(n=16, k=5, seed=10, start=0)
        engines.append(
            build_engine(
                graph=graph,
                agents=agents,
                fault_schedule=FaultSchedule(
                    crash_at={3: 2}, freeze_windows={2: (1, 3)}
                ),
                backend=backend,
            )
        )
    ref, vec = engines
    node, ports = 0, []
    rng = random.Random(3)
    for _ in range(6):
        port = rng.randint(1, ref.graph.degree(node))
        ports.append(port)
        node = ref.graph.neighbor(node, port)
    ends = [eng.step_path([1, 2, 3, 4, 5], 0, list(ports)) for eng in (ref, vec)]
    assert ends[0] == ends[1] == node
    assert snapshot(ref) == snapshot(vec)
    assert ref.kernel.fault_injector.counts == vec.kernel.fault_injector.counts
    # the frozen and crashed walkers really missed hops; a healthy one didn't
    moved = ref.kernel.moves_per_agent
    assert moved[1] == len(ports)
    assert moved.get(2, 0) < len(ports)
    assert moved.get(3, 0) < len(ports)
    assert ref.agents[1].position == node


@needs_vectorized
def test_step_path_parity_under_churn_mid_phase():
    """Edge churn rewires the graph *between hops*; both backends must route
    the remaining hops through the same post-churn port tables."""
    spec = ScenarioSpec(
        family="erdos_renyi",
        params={"n": 14, "p": 0.35},
        k=5,
        seed=17,
        faults={"churn": 0.7, "horizon": 10},
    )
    engines = [build_engine(spec, backend=b) for b in ("reference", "vectorized")]
    ref, vec = engines
    churn_before = ref.graph.churn_count
    outcomes = []
    for eng in engines:
        # port 1 always exists (churn preserves connectivity, so degree >= 1):
        # the path stays valid however the graph is rewired under it.
        try:
            outcomes.append(("ok", eng.step_path([1, 2, 3], 0, [1] * 8)))
        except ValueError as err:  # pragma: no cover - depends on churn draw
            outcomes.append(("error", str(err)))
    assert outcomes[0] == outcomes[1]
    assert snapshot(ref) == snapshot(vec)
    assert ref.graph.churn_count == vec.graph.churn_count > churn_before
    assert ref.kernel.fault_injector.counts == vec.kernel.fault_injector.counts


@needs_vectorized
def test_idle_rounds_parity_and_max_rounds_error():
    """run_phase: the O(1) vectorized path must leave the same counters and
    raise the same non-termination error at the same parked round count."""
    outcomes = []
    for backend in ("reference", "vectorized"):
        graph, agents = make_world(n=10, k=3, seed=2)
        engine = SyncEngine(graph, agents, backend=backend, max_rounds=10)
        engine.idle_rounds(7)
        assert engine.metrics.rounds == 7
        engine.idle_rounds(0)  # no-op, no rounds consumed
        assert engine.metrics.rounds == 7
        with pytest.raises(RuntimeError) as err:
            engine.idle_rounds(10)
        outcomes.append((str(err.value), engine.metrics.rounds))
    assert outcomes[0] == outcomes[1]
    assert "exceeded max_rounds=10" in outcomes[0][0]


@needs_vectorized
def test_idle_rounds_parity_with_injector_ticks_the_fault_clock():
    """With faults present idle rounds must tick the injector (freeze windows
    expire during waits); the vectorized backend defers to the generic loop."""
    engines = []
    for backend in ("reference", "vectorized"):
        graph, agents = make_world(n=10, k=4, seed=5)
        engines.append(
            build_engine(
                graph=graph,
                agents=agents,
                fault_schedule=FaultSchedule(freeze_windows={1: (0, 3)}),
                backend=backend,
            )
        )
    ref, vec = engines
    for eng in (ref, vec):
        eng.idle_rounds(5)
    assert ref.metrics.rounds == vec.metrics.rounds == 5
    assert ref.kernel.fault_injector.counts == vec.kernel.fault_injector.counts
    assert not ref.kernel.fault_view(1).blocked_for_cycle  # the freeze expired


# ------------------------------------------------------------------ build_engine


def test_build_engine_requires_world_or_scenario():
    with pytest.raises(ValueError, match="scenario or explicit graph"):
        build_engine()


def test_build_engine_scenario_mode_wires_spec_pieces():
    spec = ScenarioSpec(
        family="line",
        params={"n": 8},
        k=4,
        seed=0,
        faults={"crash": 0.5, "horizon": 4},
        check_invariants=True,
    )
    engine = build_engine(spec)
    assert engine.graph.num_nodes == 8
    assert sorted(engine.agents) == [1, 2, 3, 4]
    assert engine.kernel.fault_injector is not None
    assert engine.kernel.invariant_checker is not None
    assert engine.kernel.backend.name == DEFAULT_BACKEND


def test_build_engine_scenario_mode_async_uses_spec_scheduler():
    spec = ScenarioSpec(
        family="ring", params={"n": 8}, k=4, seed=0, scheduler="lockstep"
    )
    engine = build_engine(spec, setting="async")
    assert type(engine).__name__ == "AsyncEngine"
    assert engine.adversary is not None


@needs_vectorized
def test_build_engine_scenario_backend_flows_from_spec():
    spec = ScenarioSpec(family="line", params={"n": 8}, k=4, seed=0).with_backend(
        "vectorized"
    )
    engine = build_engine(spec)
    assert isinstance(engine.kernel.backend, VectorizedBackend)
    # explicit override beats the spec
    engine = build_engine(spec, backend="reference")
    assert isinstance(engine.kernel.backend, ReferenceBackend)


def test_build_engine_explicit_mode_pins_schedule_and_observations():
    graph, agents = make_world(n=8, k=3)
    engine = build_engine(
        graph=graph,
        agents=agents,
        fault_schedule=FaultSchedule(crash_at={2: 1}),
        record_fault_observations=True,
    )
    assert engine.kernel.fault_injector is not None
    assert engine.kernel.fault_injector.record_observations
    engine.step({})
    engine.step({})
    assert engine.kernel.fault_injector.counts["blocked"] >= 1


# ------------------------------------------------- spec serialization & caching


def test_spec_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        ScenarioSpec(family="line", params={"n": 8}, k=4, seed=0, backend="bogus")


def test_default_backend_keeps_spec_bytes_and_fingerprints():
    """The reference default must serialize, label, and fingerprint exactly as
    specs did before the backend axis existed."""
    spec = ScenarioSpec(family="line", params={"n": 8}, k=4, seed=0)
    assert "backend" not in spec.to_dict()
    assert "backend" not in spec.base_dict()
    assert "backend" not in fingerprint_material("rooted_sync", spec)
    assert "backend" not in spec.label()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


@needs_vectorized
def test_non_default_backend_serializes_and_keys_its_own_cache():
    spec = ScenarioSpec(family="line", params={"n": 8}, k=4, seed=0)
    fast = spec.with_backend("vectorized")
    assert fast.to_dict()["backend"] == "vectorized"
    assert ScenarioSpec.from_dict(fast.to_dict()) == fast
    assert fast.label().endswith("/backend=vectorized")
    # distinct fingerprints (distinct record bytes: the scenario tag differs) ...
    assert run_fingerprint("rooted_sync", fast) != run_fingerprint("rooted_sync", spec)
    # ... but identical derived seeds: the world itself is backend-independent.
    assert fast.base_dict() == spec.base_dict()


def test_sweep_with_backend_maps_every_scenario():
    sweep = SweepSpec.from_grid(
        name="b",
        algorithms=["random_walk"],
        graphs=[{"family": "line", "params": {"n": 8}}],
        ks=[4],
    )
    fast = sweep.with_backend("vectorized")
    assert all(s.backend == "vectorized" for s in fast.scenarios)
    assert all(s.backend == DEFAULT_BACKEND for s in sweep.scenarios)
    assert [s.with_backend(DEFAULT_BACKEND) for s in fast.scenarios] == list(
        sweep.scenarios
    )


def test_backend_is_a_kernel_backend_subclass_contract():
    """Every registered backend satisfies the abstract protocol."""
    for name in BACKEND_NAMES:
        if not backend_available(name):
            continue
        backend = get_backend(name)
        assert isinstance(backend, KernelBackend)
        assert backend.name == name
        assert backend.kernel is None  # unbound until an engine adopts it
