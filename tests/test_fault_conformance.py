"""Differential sync-vs-async fault-conformance suite (fault-semantics v2).

Both engines consume the same :class:`~repro.sim.faults.AgentFaultView`
contract, so under *identical* crash/freeze schedules their observable fault
behavior must agree.  Three layers pin that down:

1. **Engine-level scripted differential** -- one deterministic walk-and-settle
   workload driven through :class:`SyncEngine` rounds and through
   :class:`AsyncEngine` programs under the round-robin adversary.  With
   schedules scaled between time units (1 SYNC round == ``k`` round-robin
   activations), the final ``(agent, position, settled)`` states, the per-round
   probe answers, and the normalized ``(agent, tick)`` fault-blocked
   observation sets must be *equal*.

2. **Algorithm-level differential for every core algorithm** -- the
   rooted and general sync/async driver pairs, run under the same explicit
   schedule via the instrumentation context, must agree on the set of
   fault-blocked agents, never settle a blocked agent, and settle the same
   node sets.

3. **Regression tests for the pre-v2 SYNC gap** (ROADMAP item, found in PR 3
   review): a crashed agent sitting on an unsettled node must neither settle
   nor answer a probe.  The ASYNC engine always guaranteed this by skipping
   the blocked activation; the SYNC engine only filtered moves until v2, so
   the SYNC halves of these tests fail on the pre-v2 engine.
"""

from __future__ import annotations

import pytest

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.core.general_async import GeneralAsyncDispersion
from repro.core.general_sync import GeneralSyncDispersion
from repro.core.rooted_async import RootedAsyncDispersion
from repro.core.rooted_sync import RootedSyncDispersion
from repro.graph import generators
from repro.runner.execute import build_engine
from repro.sim.adversary import RoundRobinAdversary
from repro.sim.async_engine import Move, Stay
from repro.sim.faults import FaultSchedule
from repro.sim.instrumentation import InstrumentationConfig, instrument


def make_agents(k: int, start: int = 0, max_degree: int = 4):
    model = MemoryModel(k=k, max_degree=max_degree)
    return [Agent(i, start, model) for i in range(1, k + 1)]


def right_ports(graph, steps: int):
    """Ports walking ``0 -> 1 -> ... -> steps`` along a line graph."""
    ports = []
    node = 0
    for _ in range(steps):
        port = next(p for p in graph.ports(node) if graph.neighbor(node, p) == node + 1)
        ports.append(port)
        node += 1
    return ports


# --------------------------------------------------------------------------
# 1. Engine-level scripted differential.
#
# Workload: k agents start on node 0 of a line; agent i walks right to node
# i-1 and settles there in a dedicated CCM cycle.  The SYNC driver performs
# each agent's cycle only when the engine's fault-filtered co-location query
# offers the agent (the v2 gate); the ASYNC version expresses the same cycles
# as agent programs, which the engine itself skips while blocked.

#: Explicit schedules in ROUND units; the async twin scales every time by k.
SCHEDULES = [
    {"crash_at": {2: 0}, "freeze_windows": {}},
    {"crash_at": {}, "freeze_windows": {3: (1, 4)}},
    {"crash_at": {5: 3}, "freeze_windows": {1: (0, 2), 4: (2, 6)}},
    {"crash_at": {1: 0, 6: 2}, "freeze_windows": {2: (0, 8)}},
    {"crash_at": {}, "freeze_windows": {6: (0, 3), 5: (3, 6)}},
]

N, K, ROUNDS = 10, 6, 18


def _scaled(schedule, k):
    return {
        "crash_at": {a: t * k for a, t in schedule["crash_at"].items()},
        "freeze_windows": {
            a: (s * k, e * k) for a, (s, e) in schedule["freeze_windows"].items()
        },
    }


def _probe_snapshot(engine, n):
    """Who answers a settle-probe at each node right now (None = nobody)."""
    snapshot = []
    for node in range(n):
        settler = engine.kernel.settled_agent_at(node)
        snapshot.append(settler.agent_id if settler is not None else None)
    return tuple(snapshot)


def run_sync_walk(schedule):
    graph = generators.line(N)
    agents = make_agents(K, max_degree=graph.max_degree)
    engine = build_engine(
        graph=graph,
        agents=agents,
        fault_schedule=FaultSchedule(**schedule),
        record_fault_observations=True,
    )
    injector = engine.kernel.fault_injector
    probe_log = []
    for _round in range(ROUNDS):
        probe_log.append(_probe_snapshot(engine, N))
        moves = {}
        for agent in agents:
            if agent.settled:
                continue
            # The engine's Communicate query is the cycle gate: an agent it
            # hides executes nothing this round.
            if agent not in engine.kernel.agents_at(agent.position):
                continue
            target = agent.agent_id - 1
            if agent.position == target:
                agent.settle(target, None)
            else:
                port = right_ports(graph, agent.position + 1)[agent.position]
                moves[agent.agent_id] = port
        engine.step(moves)
    return engine, injector, probe_log


def run_async_walk(schedule, adversary=None):
    """The async twin of :func:`run_sync_walk`.

    ``adversary`` must emit one id-order pass per logical round (the default
    round-robin does; ``LockstepScheduler`` -- behaviorally identical by
    design -- reuses this harness in ``tests/test_scheduler_conformance.py``).
    """
    graph = generators.line(N)
    agents = make_agents(K, max_degree=graph.max_degree)
    if adversary is None:
        adversary = RoundRobinAdversary()
    engine = build_engine(
        setting="async",
        graph=graph,
        agents=agents,
        adversary=adversary,
        fault_schedule=FaultSchedule(**_scaled(schedule, K)),
        record_fault_observations=True,
    )
    injector = engine.kernel.fault_injector

    def walk_and_settle(agent):
        for port in right_ports(graph, agent.agent_id - 1):
            yield Move(port)
        agent.settle(agent.agent_id - 1, None)  # the final CCM cycle settles

    for agent in agents:
        engine.assign(agent.agent_id, walk_and_settle(agent))
    probe_log = []
    for _round in range(ROUNDS):
        probe_log.append(_probe_snapshot(engine, N))
        for _slot in range(K):
            engine._activate(adversary.next_agent())
    return engine, injector, probe_log


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: repr(s))
def test_engines_agree_on_blocked_timeline_states_and_probes(schedule):
    sync_engine, sync_injector, sync_probes = run_sync_walk(schedule)
    async_engine, async_injector, async_probes = run_async_walk(schedule)

    sync_state = sorted(
        (a.agent_id, a.position, a.settled) for a in sync_engine.agents.values()
    )
    async_state = sorted(
        (a.agent_id, a.position, a.settled) for a in async_engine.agents.values()
    )
    assert sync_state == async_state

    # The probe answer at every node, every logical round, matches exactly.
    assert sync_probes == async_probes

    # The fault-blocked (agent, tick) observation sets agree once the async
    # activation clock is normalized to rounds (k activations per pass).
    sync_observations = set(sync_injector.blocked_observations)
    async_observations = {
        (agent_id, tick // K) for agent_id, tick in async_injector.blocked_observations
    }
    assert sync_observations == async_observations
    # ... and each engine suppressed the same number of whole cycles.
    assert sync_injector.counts["blocked"] == async_injector.counts["blocked"]

    # Blocked agents never settled, and never sit anywhere but where the
    # schedule caught them.
    for agent_id in schedule["crash_at"]:
        assert not sync_engine.agents[agent_id].settled
        assert not async_engine.agents[agent_id].settled


# --------------------------------------------------------------------------
# 2. Algorithm-level differential: every core algorithm.


def _run_instrumented(make_driver, schedule):
    config = InstrumentationConfig(
        fault_schedule=schedule, record_fault_observations=True
    )
    with instrument(config):
        driver = make_driver()
        try:
            result = driver.run()
            status = "ok" if result.dispersed else "undispersed"
        except RuntimeError:
            status = "error"
    settled_nodes = sorted(a.home for a in driver.agents.values() if a.settled)
    settled_ids = {a.agent_id for a in driver.agents.values() if a.settled}
    return driver, config, status, settled_nodes, settled_ids


@pytest.mark.parametrize("family", ["line", "ring"])
def test_rooted_pair_agrees_under_thawing_freeze(family):
    """rooted_sync vs rooted_async under the same early freeze of agent 2.

    The frozen agent misses the group's departure, thaws, and is picked up
    again; both engines must finish dispersed with the same settled node set,
    the same fault-blocked agent set, and the same normalized blocked
    timeline.
    """
    k = 8
    build = getattr(generators, family)
    sync_schedule = FaultSchedule(freeze_windows={2: (0, 4)})
    async_schedule = FaultSchedule(freeze_windows={2: (0, 4 * k)})

    _, sync_config, sync_status, sync_nodes, sync_ids = _run_instrumented(
        lambda: RootedSyncDispersion(build(12), k), sync_schedule
    )
    _, async_config, async_status, async_nodes, async_ids = _run_instrumented(
        lambda: RootedAsyncDispersion(build(12), k, adversary=RoundRobinAdversary()),
        async_schedule,
    )
    assert sync_status == async_status == "ok"
    assert sync_nodes == async_nodes
    assert sync_ids == async_ids
    assert sync_config.blocked_agents() == async_config.blocked_agents() == {2}
    sync_observed = set(sync_config.blocked_observations())
    async_observed = {
        (agent_id, tick // k) for agent_id, tick in async_config.blocked_observations()
    }
    assert sync_observed == async_observed == {(2, 0), (2, 1), (2, 2), (2, 3)}


def test_general_pair_agrees_on_crashed_straggler():
    """general_sync vs general_async with a lone crashed agent on its start node.

    This is the exact latent-bug scenario from the ROADMAP: pre-v2 the SYNC
    driver settled the crashed agent in place (which then answered probes as a
    settled node); v2 makes both engines agree that it can do neither.  Both
    runs end aborted (the crashed agent can never be placed), with the same
    healthy-agent settlement and the same blocked set.
    """
    placements = {0: 8, 11: 1}  # ids 1..8 root at node 0; id 9 alone at node 11

    sync_driver, sync_config, sync_status, sync_nodes, _ = _run_instrumented(
        lambda: GeneralSyncDispersion(generators.line(12), placements),
        FaultSchedule(crash_at={9: 0}),
    )
    async_driver, async_config, async_status, async_nodes, _ = _run_instrumented(
        lambda: GeneralAsyncDispersion(
            generators.line(12), placements, adversary=RoundRobinAdversary()
        ),
        FaultSchedule(crash_at={9: 0}),
    )
    assert sync_status == async_status == "error"  # faulty run reported as data
    assert sync_nodes == async_nodes  # healthy agents settled identically
    assert not sync_driver.agents[9].settled
    assert not async_driver.agents[9].settled
    assert sync_config.blocked_agents() == async_config.blocked_agents() == {9}
    # Both engines observed the crash from the very first logical round (the
    # async clock counts activations: 9 agents per round-robin pass).
    assert min(t for _a, t in sync_config.blocked_observations()) == 0
    assert min(t // 9 for _a, t in async_config.blocked_observations()) == 0
    # Node 11 never reports a settler to either engine's probe query.
    sync_engine = sync_driver.engine
    async_engine = async_driver.engine
    assert sync_engine.kernel.settled_agent_at(11) is None
    assert async_engine.kernel.settled_agent_at(11) is None


@pytest.mark.parametrize("window", [(0, 1), (0, 2), (1, 2), (0, 5), (3, 9)])
def test_general_pair_scatter_survives_freeze_thaw_stragglers(window):
    """A scatter walker frozen mid-walk must not be driven through another
    node's ports once it thaws (it becomes the head of a later walk).

    Regression for the v2 review: the first cut applied the head's path to
    every mobile agent, so a thawed straggler standing elsewhere raised
    ``ValueError: node X has no port P`` (sync) or walked off-path and burned
    to the activation cap (async).  Both engines must instead finish, and
    agree on the outcome.
    """
    start, end = window
    config_sync = InstrumentationConfig(
        fault_schedule=FaultSchedule(freeze_windows={2: (start, end)})
    )
    with instrument(config_sync):
        sync_result = GeneralSyncDispersion(generators.line(6), {0: 4}).run()
    config_async = InstrumentationConfig(
        fault_schedule=FaultSchedule(freeze_windows={2: (start * 4, end * 4)})
    )
    with instrument(config_async):
        async_result = GeneralAsyncDispersion(
            generators.line(6), {0: 4}, adversary=RoundRobinAdversary()
        ).run()
    assert sync_result.dispersed and async_result.dispersed
    assert sorted(sync_result.positions.values()) == sorted(
        async_result.positions.values()
    )


@pytest.mark.parametrize("window", [(0, 1), (1, 2)])
def test_general_pair_scatter_survives_freeze_during_the_walk_itself(window):
    """A walker frozen for a single round *inside* a multi-step scatter walk
    must drop out of the pack, not replay the rest of the path from its stale
    node (the v2 review's second scatter repro: pre-fix this raised
    ``ValueError: node 0 has no port 2`` on SYNC while ASYNC deferred the
    frozen Move and finished).  Both engines finish and agree."""
    start, end = window  # the first scatter walk is the 2-step path 0->1->2
    placements = {0: 4, 1: 1}
    config_sync = InstrumentationConfig(
        fault_schedule=FaultSchedule(freeze_windows={3: (start, end)})
    )
    with instrument(config_sync):
        sync_result = GeneralSyncDispersion(generators.line(7), placements).run()
    config_async = InstrumentationConfig(
        fault_schedule=FaultSchedule(freeze_windows={3: (start * 5, end * 5)})
    )
    with instrument(config_async):
        async_result = GeneralAsyncDispersion(
            generators.line(7), placements, adversary=RoundRobinAdversary()
        ).run()
    assert sync_result.dispersed and async_result.dispersed
    assert sorted(sync_result.positions.values()) == sorted(
        async_result.positions.values()
    )


def test_silent_schedule_reproduces_fault_free_metamorphic_relation():
    """A schedule that never fires must leave both engines on the fault-free
    trajectory: the injector plumbing alone may not perturb either engine."""
    k = 8
    silent_sync = FaultSchedule(crash_at={3: 10_000})
    silent_async = FaultSchedule(crash_at={3: 10_000_000})

    _, sync_config, sync_status, sync_nodes, _ = _run_instrumented(
        lambda: RootedSyncDispersion(generators.line(12), k), silent_sync
    )
    _, async_config, async_status, async_nodes, _ = _run_instrumented(
        lambda: RootedAsyncDispersion(
            generators.line(12), k, adversary=RoundRobinAdversary()
        ),
        silent_async,
    )
    assert sync_status == async_status == "ok"
    assert sync_nodes == async_nodes == list(range(8))
    assert sync_config.blocked_agents() == async_config.blocked_agents() == set()
    assert sync_config.fault_events() == async_config.fault_events() == 0


# --------------------------------------------------------------------------
# 3. Regression: the pre-v2 SYNC gap (crashed agent settling / answering).


def test_sync_crashed_agent_neither_settles_nor_answers_probe():
    """A crashed agent on an unsettled node is invisible to the settle and
    probe paths of the SYNC engine.  Pre-v2 the SYNC engine only filtered
    moves, so this test fails there; its ASYNC twin below always passed."""
    graph = generators.line(6)
    agents = make_agents(3, start=3, max_degree=graph.max_degree)
    engine = build_engine(
        graph=graph, agents=agents, fault_schedule=FaultSchedule(crash_at={2: 0})
    )

    # Agent 2 sits, unsettled, on node 3.  The Communicate query must not
    # offer it -- so no driver can choose it as a settlement candidate.
    assert [a.agent_id for a in engine.kernel.agents_at(3)] == [1, 3]
    assert engine.kernel.fault_view(2).blocked_for_cycle
    assert not engine.kernel.fault_view(2).answers_probes
    assert engine.kernel.fault_view(1).healthy

    # Its body is still physically present (crash-stop leaves it on the node).
    assert engine.kernel.positions()[2] == 3 and engine.kernel.occupied(3)

    # Settle agent 1 at node 3, then crash-freeze dynamics around probing:
    # agent 2 must never be the probe answer, settled agent 1 is.
    agents[0].settle(3, None)
    assert engine.kernel.settled_agent_at(3) is agents[0]
    engine.step({})
    assert [a.agent_id for a in engine.kernel.agents_at(3)] == [1, 3]
    assert engine.kernel.settled_agent_at(3) is agents[0]
    assert not agents[1].settled


def test_sync_frozen_settler_stops_answering_probes_until_thaw():
    graph = generators.line(6)
    agents = make_agents(1, start=2, max_degree=graph.max_degree)
    engine = build_engine(
        graph=graph, agents=agents, fault_schedule=FaultSchedule(freeze_windows={1: (2, 5)})
    )
    injector = engine.kernel.fault_injector
    agents[0].settle(2, None)

    answered = []
    for _round in range(7):
        answered.append(engine.kernel.settled_agent_at(2) is not None)
        engine.step({})
    # Rounds 0-1: answers; rounds 2-4: frozen (mute); rounds 5-6: thawed.
    assert answered == [True, True, False, False, False, True, True]
    assert injector.counts["blocked"] == 3


def test_async_crashed_agent_neither_settles_nor_answers_probe():
    """The ASYNC twin of the regression: the engine skips the blocked cycle,
    so the settle program never executes (this always held)."""
    graph = generators.line(6)
    agents = make_agents(3, start=3, max_degree=graph.max_degree)
    adversary = RoundRobinAdversary()
    engine = build_engine(
        setting="async",
        graph=graph,
        agents=agents,
        adversary=adversary,
        fault_schedule=FaultSchedule(crash_at={2: 0}),
    )
    injector = engine.kernel.fault_injector

    def settle_self(agent):
        agent.settle(agent.position, None)
        yield Stay()

    # Agent 2's program would settle it on its first activation -- which the
    # engine never grants.
    engine.assign(2, settle_self(agents[1]))
    for _ in range(9):
        engine._activate(adversary.next_agent())
    assert not agents[1].settled
    assert engine.kernel.settled_agent_at(3) is None
    assert [a.agent_id for a in engine.kernel.agents_at(3)] == [1, 3]
    assert injector.counts["blocked"] == 3  # one skipped cycle per pass
