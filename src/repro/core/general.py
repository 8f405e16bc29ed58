"""General (multi-root) dispersion: the schedule shared by Theorems 8.1 and 8.2.

Agents start on ``ℓ ≥ 2`` distinct nodes; each start node hosts one group that
grows its own DFS tree with the rooted machinery of its synchrony setting.
:class:`GeneralDispersion` coordinates the groups on one shared engine, with
the same serialized schedule under SYNC and ASYNC:

* every group's smallest-ID agent settles on its start node up front, so the
  probes of any other group physically detect those roots as occupied;
* groups are grown one after another, largest first (README "Deviations from
  the paper": the measured time of this serialized schedule is an upper bound
  on the truly concurrent schedule, so the shape claims are checked
  conservatively);
* a group whose entire frontier is occupied by other trees (possible only in
  multi-root runs) fills the empty nodes of the tree it has built and then
  *scatters* its leftover agents: the group walks, edge by edge, to the nearest
  node that holds no settler and settles one agent there, repeating until all
  are placed.  The size-based subsumption rule of the KS algorithm is provided
  in :mod:`repro.core.subsumption` and exercised separately (the serialized
  schedule never creates the large-meets-larger situation that requires a
  collapse walk).

The setting subclasses (:class:`~repro.core.general_sync.GeneralSyncDispersion`,
:class:`~repro.core.general_async.GeneralAsyncDispersion`) supply the engine,
the rooted group driver, the root's tree label, and how a pack waits out a
freeze and walks a scatter path.  Time is the shared engine's counter over the
whole execution; memory is accounted per agent exactly as in the rooted
algorithms.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.analysis.verification import is_dispersed
from repro.core.rooted_sync import SMALL_K_THRESHOLD
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.result import DispersionResult

__all__ = ["GeneralDispersion"]


def _normalize_placements(
    graph: PortLabeledGraph, placements: Mapping[int, int]
) -> Dict[int, int]:
    total = 0
    normalized: Dict[int, int] = {}
    for node, count in placements.items():
        if not (0 <= node < graph.num_nodes):
            raise ValueError(f"placement node {node} is not in the graph")
        if count < 1:
            raise ValueError("every placement must contain at least one agent")
        normalized[node] = count
        total += count
    if total > graph.num_nodes:
        raise ValueError(f"k={total} agents cannot disperse on n={graph.num_nodes} nodes")
    if len(normalized) < 1:
        raise ValueError("need at least one start node")
    return normalized


class GeneralDispersion:
    """The multi-root schedule; subclasses bind it to one synchrony setting.

    A subclass's ``__init__`` calls this one and then sets ``self.engine``
    (built over ``self.agents``) and ``self.metrics``.
    """

    #: ``DispersionResult.algorithm`` tag of the setting.
    algorithm = ""

    def __init__(
        self, graph: PortLabeledGraph, placements: Mapping[int, int], strict: bool
    ) -> None:
        self.graph = graph
        self.placements = _normalize_placements(graph, placements)
        self.k = sum(self.placements.values())
        self.strict = strict

        self.memory_model = MemoryModel(k=self.k, max_degree=graph.max_degree)
        self.agents: Dict[int, Agent] = {}
        self.groups: Dict[int, List[Agent]] = {}
        next_id = 1
        for node in sorted(self.placements):
            members = []
            for _ in range(self.placements[node]):
                agent = Agent(next_id, node, self.memory_model)
                self.agents[next_id] = agent
                members.append(agent)
                next_id += 1
            self.groups[node] = members
        #: Nodes belonging to any finished / parked tree (shared ground truth
        #: handed to each group's strict-mode checks as ``foreign_visited``).
        self.all_visited: Set[int] = set()
        self.dfs_parent: List[Optional[int]] = [None] * graph.num_nodes

    # ----------------------------------------------------------- setting hooks
    def _tree_label(self, label: int) -> Optional[int]:
        """The ``treelabel`` a root settler of the ``label``-th group carries."""
        raise NotImplementedError

    def _group_driver(self, node: int, members: List[Agent], label: int) -> Any:
        """The rooted driver that grows the group ``members`` from ``node``."""
        raise NotImplementedError

    def _await_thaw(self, agents: Sequence[Agent]) -> None:
        """Spend time until one of ``agents`` may act (or the engine cap hits)."""
        raise NotImplementedError

    def _walk(
        self, walkers: List[Agent], head: int, path: List[int]
    ) -> Tuple[int, List[Agent]]:
        """Walk the pack from ``head`` down ``path``; returns the node reached
        and the walkers there that may settle it right now."""
        raise NotImplementedError

    def _notes(self) -> Dict[str, Any]:
        return {"k": self.k, "roots": len(self.placements)}

    # ------------------------------------------------------------------- run
    def run(self) -> DispersionResult:
        group_drivers: List[Tuple[int, List[Agent], Any]] = []
        # Phase 0: every group settles its smallest agent on its root immediately
        # (a time-0 action in the paper), so other groups' probes see it.
        for label, (node, members) in enumerate(
            sorted(self.groups.items(), key=lambda item: -len(item[1]))
        ):
            # A group whose every member is fault-blocked at time 0 cannot
            # settle its root no matter its size: it degrades to the scatter
            # path (thawed members recover later) instead of aborting the run.
            if len(members) >= SMALL_K_THRESHOLD and self._eligible_root_settler(members) is not None:
                driver = self._group_driver(node, members, label)
                driver.settle_root()
            else:
                driver = None
                smallest = self._eligible_root_settler(members)
                if smallest is None:
                    # Every member of this tiny group is fault-blocked at time
                    # 0: nobody can execute a settle cycle, so the node stays
                    # unclaimed (thawed members are scattered later).
                    group_drivers.append((node, members, driver))
                    continue
                smallest.settle(node, None, treelabel=self._tree_label(label))
            self.all_visited.add(node)
            group_drivers.append((node, members, driver))

        # Phase 1: grow the trees, largest group first.
        leftovers: List[Tuple[int, List[Agent]]] = []
        for node, members, driver in group_drivers:
            if driver is not None:
                remaining = driver.run_group()
                self.all_visited.update(driver.visited)
                for v, parent in enumerate(driver.dfs_parent):
                    if parent is not None:
                        self.dfs_parent[v] = parent
                self.metrics.bump("groups_grown")
            else:
                remaining = [a for a in members if not a.settled]
            if remaining:
                leftovers.append((node, remaining))

        # Phase 2: scatter any leftover agents (blocked groups, tiny groups).
        for node, remaining in leftovers:
            self._scatter(remaining)

        metrics = self.engine.finalize_metrics()
        return DispersionResult(
            dispersed=is_dispersed(self.agents.values()),
            positions=self.engine.kernel.positions(),
            metrics=metrics,
            dfs_parent=list(self.dfs_parent),
            algorithm=self.algorithm,
            notes=self._notes(),
        )

    # --------------------------------------------------------------- scatter
    def _unblocked(self, agents: Sequence[Agent]) -> List[Agent]:
        """The agents whose next cycle is not fault-blocked, in order."""
        return [
            a
            for a in agents
            if not self.engine.kernel.fault_view(a.agent_id).blocked_for_cycle
        ]

    def _eligible_root_settler(self, members: Sequence[Agent]) -> Optional[Agent]:
        """Smallest group member whose settle cycle is not fault-blocked."""
        pool = self._unblocked([a for a in members if not a.settled])
        return min(pool, key=lambda a: a.agent_id) if pool else None

    def _free_node(self, node: int) -> bool:
        """A node is free when no settled agent calls it home."""
        return not self.engine.kernel.has_home_settler(node)

    def _path_to_nearest_free(self, start: int) -> Optional[List[int]]:
        """BFS (simulator-side pathfinding, see README "Deviations from the
        paper") to the closest free node; returns the list of ports to
        traverse, or ``None`` if no free node exists (impossible while
        unsettled agents remain, since ``k ≤ n``)."""
        if self._free_node(start):
            return []
        seen = {start}
        queue = deque([(start, [])])
        while queue:
            current, ports = queue.popleft()
            for port in self.graph.ports(current):
                nxt = self.graph.neighbor(current, port)
                if nxt in seen:
                    continue
                seen.add(nxt)
                path = ports + [port]
                if self._free_node(nxt):
                    return path
                queue.append((nxt, path))
        return None

    def _scatter(self, agents: Sequence[Agent]) -> None:
        """Walk a leftover group to free nodes one at a time and settle them.

        Every move is real engine time; only the route planning is
        simulator-assisted (a plain DFS over occupied nodes would find the same
        nodes within the same asymptotic budget, see README "Deviations from
        the paper").
        """
        group = [a for a in agents if not a.settled]
        while group:
            mobile = self._unblocked(group)
            if not mobile:
                # Everybody left is crashed or frozen.  Frozen agents thaw, so
                # spend engine time until one does; a group of pure crash-stop
                # agents runs into the engine's cap instead (the faulty run is
                # then reported as data, not hung).
                self._await_thaw(group)
                group = [a for a in group if not a.settled]
                continue
            head = mobile[0].position
            # Only agents standing at the head may follow this path -- a
            # straggler (frozen during an earlier walk, thawed elsewhere) would
            # otherwise be driven through another node's ports.  It becomes
            # the head of a later iteration instead.
            walkers = [a for a in mobile if a.position == head]
            path = self._path_to_nearest_free(head)
            if path is None:
                raise RuntimeError("no free node left although agents remain unsettled")
            target, arrived = self._walk(walkers, head, path)
            if arrived:
                settler = min(arrived, key=lambda a: a.agent_id)
                settler.settle(target, None)
                self.all_visited.add(target)
                self.metrics.bump("scatter_settled")
            group = [a for a in group if not a.settled]
