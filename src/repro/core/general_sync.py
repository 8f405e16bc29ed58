"""General (multi-root) SYNC dispersion (paper Theorem 8.1).

The SYNC binding of the multi-root schedule in :mod:`repro.core.general`: each
start node hosts one group that grows its own DFS tree with the rooted
machinery of :class:`~repro.core.rooted_sync.RootedSyncDispersion` (seekers,
empty nodes, oscillation, Sync_Probe), all on one shared synchronous engine
whose round counter measures the whole execution.  Scatter walks are lockstep
rounds batched by :meth:`~repro.sim.sync_engine.SyncEngine.step_path`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.agents.agent import Agent
from repro.core.general import GeneralDispersion
from repro.core.rooted_sync import RootedSyncDispersion
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.result import DispersionResult
from repro.sim.sync_engine import SyncEngine

__all__ = ["GeneralSyncDispersion", "general_sync_dispersion"]


class GeneralSyncDispersion(GeneralDispersion):
    """Driver for general initial configurations under SYNC (Theorem 8.1).

    Parameters
    ----------
    graph:
        The anonymous port-labeled graph.
    placements:
        Mapping ``start node -> number of agents`` (``ℓ`` keys, total ``k``).
    wait_rounds, strict:
        Forwarded to the per-group rooted machinery.
    """

    algorithm = "GeneralSyncDisp"

    def __init__(
        self,
        graph: PortLabeledGraph,
        placements: Mapping[int, int],
        wait_rounds: int = 8,
        strict: bool = True,
        max_rounds: Optional[int] = None,
    ) -> None:
        super().__init__(graph, placements, strict)
        self.wait_rounds = wait_rounds
        if max_rounds is None:
            max_rounds = 600 * (self.k + 4) * max(1, wait_rounds) // 4 + 20 * graph.num_nodes + 4000
        self.engine = SyncEngine(graph, self.agents.values(), max_rounds=max_rounds)
        self.metrics = self.engine.metrics

    def _tree_label(self, label: int) -> Optional[int]:
        return None

    def _group_driver(self, node: int, members: List[Agent], label: int) -> RootedSyncDispersion:
        return RootedSyncDispersion(
            self.graph,
            k=len(members),
            start_node=node,
            wait_rounds=self.wait_rounds,
            strict=self.strict,
            engine=self.engine,
            agents={a.agent_id: a for a in members},
            foreign_visited=self.all_visited,
            probe_cap=self.k,
        )

    def _await_thaw(self, agents: Sequence[Agent]) -> None:
        self.engine.step({})

    def _walk(
        self, walkers: List[Agent], head: int, path: List[int]
    ) -> Tuple[int, List[Agent]]:
        # One backend batch call walks the pack down the whole path.  A
        # walker whose move was fault-dropped is no longer on the path head,
        # so it falls out of the pack and is retried on a later iteration (the
        # ASYNC engine instead *defers* the dropped Move; both converge).
        current = self.engine.step_path(
            [a.agent_id for a in walkers], head, path, counter="scatter_moves"
        )
        # An agent that froze mid-walk fell out of the pack; only agents that
        # actually completed the walk (and can execute a settle cycle right
        # now) are settlement candidates.
        return current, self._unblocked([a for a in walkers if a.position == current])

    def _notes(self) -> Dict[str, Any]:
        return {**super()._notes(), "wait_rounds": self.wait_rounds}


def general_sync_dispersion(
    graph: PortLabeledGraph,
    placements: Mapping[int, int],
    **kwargs,
) -> DispersionResult:
    """Convenience wrapper: run Theorem 8.1's driver and return the result."""
    return GeneralSyncDispersion(graph, placements, **kwargs).run()
