"""ASYNC dispersion in the style of Kshemkalyani–Sharma [OPODIS'21].

This is the ``O(min{m, kΔ})``-epoch baseline that the paper's Theorem 7.1
improves to ``O(k log k)``.  The structure is the classical DFS with sequential
neighbor probing, run under the asynchronous CCM scheduler:

* every visited node keeps a settler storing its DFS parent port and a
  ``next_port`` scan cursor;
* the leader scouts the head's unchecked ports one at a time (a 2-activation
  round trip per port), so a node of degree ``δ`` costs ``Θ(δ)`` epochs before
  the DFS can advance or retreat;
* on a forward/backtrack move the leader instructs the co-located unsettled
  agents to cross the chosen edge and waits until they have all arrived before
  continuing (the waiting is what asynchrony costs; the wait is measured in
  real scheduler activations, never assumed).

Time is measured in epochs by :class:`~repro.sim.async_engine.AsyncEngine`
exactly as defined in the paper (Section 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.agents.agent import Agent, AgentRole
from repro.agents.memory import FieldKind, MemoryModel
from repro.analysis.verification import is_dispersed
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.adversary import Scheduler
from repro.sim.async_engine import AsyncEngine, Move, Stay, WaitUntil
from repro.sim.result import DispersionResult

__all__ = ["KSAsyncDispersion", "ks_async_dispersion"]


class KSAsyncDispersion:
    """Rooted ASYNC dispersion by sequential-probe DFS (OPODIS'21-style)."""

    def __init__(
        self,
        graph: PortLabeledGraph,
        k: int,
        start_node: int = 0,
        adversary: Optional[Scheduler] = None,
        max_activations: Optional[int] = None,
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
        if max_activations is None:
            max_activations = 400 * k * (graph.num_edges + graph.num_nodes) + 100_000
        self.engine = AsyncEngine(
            graph, self.agents.values(), adversary=adversary, max_activations=max_activations
        )
        self.metrics = self.engine.metrics
        self.unsettled = self.engine.kernel.settled_tally(self.agents)
        self.dfs_parent: List[Optional[int]] = [None] * graph.num_nodes

    # ------------------------------------------------------------------- run
    def run(self) -> DispersionResult:
        self.engine.assign(self.leader.agent_id, self._leader_program())
        unsettled = self.unsettled
        self.engine.run_until(lambda: not unsettled.remaining)
        metrics = self.engine.finalize_metrics()
        return DispersionResult(
            dispersed=is_dispersed(self.agents.values()),
            positions=self.engine.kernel.positions(),
            metrics=metrics,
            dfs_parent=list(self.dfs_parent),
            algorithm="KSStyleAsyncDisp",
            notes={"k": self.k},
        )

    # --------------------------------------------------------------- helpers
    def _settle_smallest_at(self, node: int, parent_port: Optional[int]) -> Agent:
        candidates = [a for a in self.engine.kernel.agents_at(node) if not a.settled]
        non_leader = [a for a in candidates if a is not self.leader]
        pool = non_leader if non_leader else candidates
        agent = min(pool, key=lambda a: a.agent_id)
        agent.settle(node, parent_port)
        agent.memory.write("next_port", 1, FieldKind.PORT)
        self.metrics.bump("settled")
        return agent

    def _followers_at(self, node: int) -> List[Agent]:
        return [
            a
            for a in self.engine.kernel.agents_at(node)
            if not a.settled and a is not self.leader
        ]

    @staticmethod
    def _single_move(port: int):
        yield Move(port)

    def _group_move(self, w: int, port: int):
        """Send every co-located unsettled follower through ``port``; the leader
        follows and then waits until all of them have arrived (one WaitUntil
        check per leader activation, measured by the scheduler)."""
        followers = self._followers_at(w)
        target = self.graph.neighbor(w, port)
        for follower in followers:
            self.engine.assign(follower.agent_id, self._single_move(port))
        yield Move(port)
        follower_ids = [f.agent_id for f in followers]
        yield WaitUntil(
            lambda ids=tuple(follower_ids), t=target: all(
                self.agents[i].position == t for i in ids
            )
        )

    # --------------------------------------------------------------- program
    def _leader_program(self):
        """The leader's CCM-cycle program: settle the root, then DFS."""
        self._settle_smallest_at(self.root, None)
        yield Stay()

        while self.unsettled.remaining:
            w = self.leader.position
            settler = self.engine.kernel.home_settler_at(w)
            if settler is None:
                raise AssertionError(f"expected a settler at visited node {w}")
            degree = self.graph.degree(w)
            found: Optional[int] = None
            next_port = int(settler.memory.read("next_port", 1))
            while next_port <= degree:
                port = next_port
                next_port += 1
                settler.memory.write("next_port", next_port, FieldKind.PORT)
                target = self.graph.neighbor(w, port)
                yield Move(port)  # scout out
                occupied = self.engine.kernel.home_settler_at(target) is not None
                yield Move(self.graph.reverse_port(w, port))  # scout back
                self.metrics.bump("scout_trips")
                if not occupied:
                    found = port
                    break
            if found is not None:
                u = self.graph.neighbor(w, found)
                yield from self._group_move(w, found)
                parent_port = self.graph.reverse_port(w, found)
                self.dfs_parent[u] = w
                self._settle_smallest_at(u, parent_port)
                self.metrics.bump("forward_moves")
            else:
                parent_port = settler.parent_port
                if parent_port is None:
                    raise RuntimeError(
                        "ASYNC DFS cannot backtrack from the root with agents unsettled"
                    )
                yield from self._group_move(w, parent_port)
                self.metrics.bump("backtrack_moves")


def ks_async_dispersion(
    graph: PortLabeledGraph,
    k: int,
    start_node: int = 0,
    adversary: Optional[Scheduler] = None,
    **kwargs,
) -> DispersionResult:
    """Run the OPODIS'21-style ASYNC baseline and return its result."""
    return KSAsyncDispersion(graph, k, start_node, adversary=adversary, **kwargs).run()
