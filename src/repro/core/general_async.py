"""General (multi-root) ASYNC dispersion (paper Theorem 8.2).

The ASYNC binding of the multi-root schedule in :mod:`repro.core.general`:
each start node hosts one group that grows its DFS tree with the rooted ASYNC
machinery (:class:`~repro.core.rooted_async.RootedAsyncDispersion`, i.e.
``Async_Probe`` plus ``Guest_See_Off``), all on one shared asynchronous engine
whose epoch counter measures the whole execution.  Every root carries its
group's enumerate label as ``treelabel``, and the scatter walks are agent
programs, so their cost is measured in real activations/epochs.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.agents.agent import Agent
from repro.core.general import GeneralDispersion
from repro.core.rooted_async import RootedAsyncDispersion
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.adversary import Scheduler
from repro.sim.async_engine import AsyncEngine, Move
from repro.sim.result import DispersionResult

__all__ = ["GeneralAsyncDispersion", "general_async_dispersion"]


class GeneralAsyncDispersion(GeneralDispersion):
    """Driver for general initial configurations under ASYNC (Theorem 8.2)."""

    algorithm = "GeneralAsyncDisp"

    def __init__(
        self,
        graph: PortLabeledGraph,
        placements: Mapping[int, int],
        adversary: Optional[Scheduler] = None,
        strict: bool = True,
        max_activations: Optional[int] = None,
    ) -> None:
        super().__init__(graph, placements, strict)
        if max_activations is None:
            log_k = int(math.log2(self.k + 2)) + 2
            max_activations = 800 * self.k * self.k * log_k + 40 * self.k * graph.num_nodes + 400_000
        self.engine = AsyncEngine(
            graph, self.agents.values(), adversary=adversary, max_activations=max_activations
        )
        self.metrics = self.engine.metrics

    def _tree_label(self, label: int) -> Optional[int]:
        return label

    def _group_driver(self, node: int, members: List[Agent], label: int) -> RootedAsyncDispersion:
        return RootedAsyncDispersion(
            self.graph,
            k=len(members),
            start_node=node,
            treelabel=label,
            strict=self.strict,
            engine=self.engine,
            agents={a.agent_id: a for a in members},
            foreign_visited=self.all_visited,
            probe_cap=self.k,
        )

    def _await_thaw(self, agents: Sequence[Agent]) -> None:
        ids = tuple(a.agent_id for a in agents)
        self.engine.run_until(
            lambda: any(not self.engine.kernel.fault_view(i).blocked_for_cycle for i in ids)
        )

    @staticmethod
    def _walk_program(ports: Sequence[int]):
        for port in ports:
            yield Move(port)

    def _walk(
        self, walkers: List[Agent], head: int, path: List[int]
    ) -> Tuple[int, List[Agent]]:
        target = head
        for port in path:
            target = self.graph.neighbor(target, port)
        for agent in walkers:
            self.engine.assign(agent.agent_id, self._walk_program(list(path)))
        ids = tuple(a.agent_id for a in walkers)
        self.engine.run_until(lambda: all(self.agents[i].position == target for i in ids))
        self.metrics.bump("scatter_walks")
        # The walkers are all at the target; one of them must also be able to
        # execute a settle cycle *now* (an agent can arrive and then freeze),
        # so wait out any freeze window before settling.
        eligible = self._unblocked(walkers)
        if not eligible:
            self._await_thaw(walkers)
            eligible = self._unblocked(walkers)
        return target, eligible


def general_async_dispersion(
    graph: PortLabeledGraph,
    placements: Mapping[int, int],
    adversary: Optional[Scheduler] = None,
    **kwargs,
) -> DispersionResult:
    """Convenience wrapper: run Theorem 8.2's driver and return the result."""
    return GeneralAsyncDispersion(graph, placements, adversary=adversary, **kwargs).run()
