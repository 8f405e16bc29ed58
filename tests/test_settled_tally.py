"""The kernel's settled tallies stay equal to a recount, on every tick.

:meth:`~repro.sim.kernel.ExecutionKernel.settled_tally` replaces the drivers'
O(k) ``all(a.settled ...)`` termination scans with a counter the kernel keeps
current from the agents' settle/unsettle observer hooks.  A counter that
drifts ends a run early or spins it into its cap, so this suite recounts
every live tally after every engine tick, for every registered algorithm on
both backends under the fault-free, crash, freeze and churn profiles.  On
the vectorized backend it also checks, at the end of each run, that the
settled index the kernel now feeds is what a fresh ``rebuild()`` derives.

The audit hooks in from the test side only: it wraps ``SyncEngine.step``,
``AsyncEngine._activate``, ``ExecutionKernel.__init__`` and
``ExecutionKernel.settled_tally`` with ``monkeypatch``.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.graph import generators
from repro.runner.execute import run_scenario
from repro.runner.registry import algorithm_names
from repro.runner.scenario import ScenarioSpec
from repro.sim.async_engine import AsyncEngine
from repro.sim.backends import VectorizedBackend, backend_available
from repro.sim.faults import parse_faults
from repro.sim.kernel import ExecutionKernel, SettledTally
from repro.sim.sync_engine import SyncEngine

BACKENDS = [
    "reference",
    pytest.param(
        "vectorized",
        marks=pytest.mark.skipif(
            not backend_available("vectorized"), reason="numpy not installed"
        ),
    ),
]

PROFILES = ("none", "crash:0.1", "freeze:0.1:60", "churn:0.5")

#: A rooted world (every algorithm) and a two-root split world (the general
#: drivers, whose group tallies cover a subset of the kernel's agents).  At
#: seed 0 every run of the matrix ends inside its tick cap -- dispersed, or
#: with the fault's error record -- so each one is audited end to end quickly.
WORLDS = (
    {"k": 8},
    {"k": 16, "placement": "split", "placement_parts": 2},
)


class TallyAudit:
    """Every kernel and tally built while installed, recounted on demand."""

    def __init__(self) -> None:
        self.kernels: List[ExecutionKernel] = []
        self.tallies: List[Tuple[SettledTally, ExecutionKernel, Tuple[int, ...]]] = []
        self.ticks = 0

    def check(self) -> None:
        self.ticks += 1
        for tally, kernel, ids in self.tallies:
            recount = sum(not kernel.agents[i].settled for i in ids)
            assert tally.remaining == recount, (
                f"tally says {tally.remaining} unsettled, recount {recount} "
                f"(tick {self.ticks})"
            )


@pytest.fixture
def audit(monkeypatch) -> TallyAudit:
    audit = TallyAudit()
    kernel_init = ExecutionKernel.__init__
    make_tally = ExecutionKernel.settled_tally
    step = SyncEngine.step
    activate = AsyncEngine._activate

    def init(self, *args, **kwargs):
        kernel_init(self, *args, **kwargs)
        audit.kernels.append(self)

    def settled_tally(self, ids):
        ids = tuple(ids)
        tally = make_tally(self, ids)
        audit.tallies.append((tally, self, ids))
        return tally

    def checked_step(self, moves=None):
        step(self, moves)
        audit.check()

    def checked_activate(self, agent_id):
        activate(self, agent_id)
        audit.check()

    monkeypatch.setattr(ExecutionKernel, "__init__", init)
    monkeypatch.setattr(ExecutionKernel, "settled_tally", settled_tally)
    monkeypatch.setattr(SyncEngine, "step", checked_step)
    monkeypatch.setattr(AsyncEngine, "_activate", checked_activate)
    return audit


def assert_index_exact(kernel: ExecutionKernel) -> None:
    """The vectorized settled index equals what a fresh rebuild derives, and
    binding that second backend leaves the kernel as every agent's observer."""
    import numpy as np

    live = kernel.backend
    fresh = VectorizedBackend()
    fresh.bind(kernel)
    assert np.array_equal(live._settled_count, fresh._settled_count)
    assert np.array_equal(live._settled_idsum, fresh._settled_idsum)
    assert live._home_ids == fresh._home_ids
    assert all(agent._observer is kernel for agent in kernel.agents.values())


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", algorithm_names())
def test_tallies_match_a_recount_after_every_tick(audit, algorithm, backend, profile):
    faults = {} if profile == "none" else parse_faults(profile)
    audited = 0
    for world in WORLDS:
        spec = ScenarioSpec(
            family="grid2d",
            params={"rows": 4, "cols": 5},
            seed=0,
            faults=faults,
            backend=backend,
            **world,
        )
        del audit.kernels[:], audit.tallies[:]
        record = run_scenario(algorithm, spec)
        if record.status == "unsupported":
            continue
        audited += 1
        assert audit.tallies, f"{algorithm} ran without a settled tally"
        audit.check()  # the final state, after the driver's last tick
        if backend == "vectorized":
            for kernel in audit.kernels:
                assert_index_exact(kernel)
    assert audited and audit.ticks


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ["rooted_sync", "general_sync"])
def test_tallies_follow_backtrack_unsettles(audit, algorithm, backend):
    """The SYNC DFS un-settles leaf siblings on backtrack (``Agent.unsettle``);
    the worlds above never backtrack that way, this random tree does."""
    spec = ScenarioSpec(
        family="random_tree", params={"n": 20}, k=12, seed=0, backend=backend
    )
    record = run_scenario(algorithm, spec)
    assert record.status == "ok" and record.dispersed
    (kernel,) = audit.kernels
    assert sum(a.unsettle_count for a in kernel.agents.values()) > 0
    audit.check()
    if backend == "vectorized":
        assert_index_exact(kernel)


# --------------------------------------------------------- the hook contract


def make_engine(backend: str, k: int = 6, settled: int = 0) -> SyncEngine:
    """A SYNC engine on a 12-node ring, its first ``settled`` agents settled
    *before* the kernel exists (so no observer saw those settles)."""
    graph = generators.ring(12)
    model = MemoryModel(k=k, max_degree=graph.max_degree)
    agents = [Agent(i, i - 1, model) for i in range(1, k + 1)]
    for agent in agents[:settled]:
        agent.settle(agent.position, None)
    return SyncEngine(graph, agents, backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tally_counts_agents_settled_before_the_kernel(backend):
    engine = make_engine(backend, settled=4)
    tally = engine.kernel.settled_tally(engine.agents)
    assert tally.remaining == 2
    engine.agents[5].settle(4, None)
    engine.agents[6].settle(5, None)
    assert tally.remaining == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_unsettle_and_resettle_update_every_tally_of_the_agent(backend):
    engine = make_engine(backend)
    kernel = engine.kernel
    whole = kernel.settled_tally(engine.agents)
    group = kernel.settled_tally([2, 3, 4])
    for agent_id in (1, 2, 3):
        engine.agents[agent_id].settle(agent_id - 1, None)
    assert (whole.remaining, group.remaining) == (3, 1)

    engine.agents[2].unsettle()
    assert (whole.remaining, group.remaining) == (4, 2)
    # Unsettling an unsettled agent is no settled-state change.
    engine.agents[2].unsettle()
    assert (whole.remaining, group.remaining) == (4, 2)

    # A re-settle (settle() on a settled agent) nets to zero.
    engine.step({3: 1})
    engine.agents[3].settle(engine.agents[3].position, None)
    assert (whole.remaining, group.remaining) == (4, 2)
    for tally, ids in ((whole, engine.agents), (group, [2, 3, 4])):
        assert tally.remaining == sum(not engine.agents[i].settled for i in ids)
    if backend == "vectorized":
        assert_index_exact(kernel)

