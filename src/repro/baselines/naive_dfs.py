"""Sequential-probe DFS dispersion (the classical ``O(min{m, kΔ})`` baseline).

This is the pre-[DISC'24] state of the art in SYNC (and the growth procedure of
Kshemkalyani–Sharma's OPODIS'21 algorithm): the whole group travels with the
DFS head, every visited node keeps a settler, and the head discovers a fresh
neighbor by sending a *scout* (the leader) through the unchecked ports one at a
time -- a 2-round round trip per port.  The running time is therefore
proportional to the sum of the degrees of the visited nodes,
``O(min{m, kΔ})`` rounds, versus ``O(k)`` for the paper's algorithm.

The module doubles as the small-``k`` fallback of the core algorithms (where
the seeker-set arithmetic of Algorithm 5 degenerates) because for constant
``k`` its running time is also ``O(k)`` up to the constant ``Δ`` factor.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.agents.agent import Agent, AgentRole
from repro.agents.memory import FieldKind, MemoryModel
from repro.analysis.verification import is_dispersed
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.result import DispersionResult
from repro.sim.sync_engine import SyncEngine

__all__ = ["NaiveSyncDFS", "naive_sync_dispersion"]


class NaiveSyncDFS:
    """Rooted SYNC dispersion by sequential-probe DFS.

    Every visited node keeps a settler, which stores its DFS parent port and a
    ``next_port`` cursor (``O(log Δ)`` bits); the leader scouts one port per
    2-round round trip, so the total time is ``Θ(Σ_v δ_v)`` over visited nodes.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        k: int,
        start_node: int = 0,
        max_rounds: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > graph.num_nodes:
            raise ValueError(f"k={k} agents cannot disperse on n={graph.num_nodes} nodes")
        self.graph = graph
        self.k = k
        self.root = start_node
        self.memory_model = MemoryModel(k=k, max_degree=graph.max_degree)
        self.agents: Dict[int, Agent] = {
            i: Agent(i, start_node, self.memory_model) for i in range(1, k + 1)
        }
        self.leader = self.agents[k]
        self.leader.role = AgentRole.LEADER
        if max_rounds is None:
            max_rounds = 8 * (graph.num_edges + graph.num_nodes) + 40 * k + 1000
        self.engine = SyncEngine(graph, self.agents.values(), max_rounds=max_rounds)
        self.metrics = self.engine.metrics
        self.unsettled = self.engine.kernel.settled_tally(self.agents)
        self.visited: Set[int] = set()
        self.dfs_parent: List[Optional[int]] = [None] * graph.num_nodes

    # ------------------------------------------------------------------- run
    def run(self) -> DispersionResult:
        self._settle_smallest_at(self.root, None)
        self.visited.add(self.root)
        while self.unsettled.remaining:
            w = self.leader.position
            port = self._next_unvisited_port(w)
            if port is not None:
                self._forward(w, port)
            else:
                self._backtrack(w)
        metrics = self.engine.finalize_metrics()
        return DispersionResult(
            dispersed=is_dispersed(self.agents.values()),
            positions=self.engine.kernel.positions(),
            metrics=metrics,
            dfs_parent=list(self.dfs_parent),
            algorithm="NaiveSeqProbeDFS",
            notes={"k": self.k},
        )

    # ------------------------------------------------------------- DFS steps
    def _settle_smallest_at(self, node: int, parent_port: Optional[int]) -> Agent:
        candidates = [a for a in self.engine.kernel.agents_at(node) if not a.settled]
        # The leader settles only when it is the last unsettled agent.
        non_leader = [a for a in candidates if a is not self.leader]
        pool = non_leader if non_leader else candidates
        agent = min(pool, key=lambda a: a.agent_id)
        agent.settle(node, parent_port)
        agent.memory.write("next_port", 1, FieldKind.PORT)
        self.metrics.bump("settled")
        return agent

    def _next_unvisited_port(self, w: int) -> Optional[int]:
        """Scout unchecked ports of ``w`` one by one; return a port to a fresh node."""
        settler = self.engine.kernel.home_settler_at(w)
        if settler is None:
            raise AssertionError(f"naive DFS expects a settler at every visited node ({w})")
        next_port = int(settler.memory.read("next_port", 1))
        degree = self.graph.degree(w)
        while next_port <= degree:
            port = next_port
            next_port += 1
            settler.memory.write("next_port", next_port, FieldKind.PORT)
            target = self.graph.neighbor(w, port)
            # Scout round trip: leader out, observe, back (2 rounds).
            self.engine.step({self.leader.agent_id: port})
            occupied = self.engine.kernel.home_settler_at(target) is not None
            self.engine.step({self.leader.agent_id: self.graph.reverse_port(w, port)})
            self.metrics.bump("scout_trips")
            if not occupied:
                return port
        return None

    def _forward(self, w: int, port: int) -> None:
        u = self.graph.neighbor(w, port)
        moves = {a.agent_id: port for a in self.engine.kernel.agents_at(w) if not a.settled}
        self.engine.step(moves)
        parent_port = self.graph.reverse_port(w, port)
        self.visited.add(u)
        self.dfs_parent[u] = w
        self._settle_smallest_at(u, parent_port)
        self.metrics.bump("forward_moves")

    def _backtrack(self, w: int) -> None:
        settler = self.engine.kernel.home_settler_at(w)
        parent_port = settler.parent_port
        if parent_port is None:
            raise RuntimeError(
                "naive DFS wants to backtrack from the root with unsettled agents left; "
                "k may exceed the number of reachable nodes"
            )
        moves = {a.agent_id: parent_port for a in self.engine.kernel.agents_at(w) if not a.settled}
        self.engine.step(moves)
        self.metrics.bump("backtrack_moves")


def naive_sync_dispersion(
    graph: PortLabeledGraph, k: int, start_node: int = 0, **kwargs
) -> DispersionResult:
    """Run the sequential-probe DFS baseline and return its result."""
    return NaiveSyncDFS(graph, k, start_node, **kwargs).run()
