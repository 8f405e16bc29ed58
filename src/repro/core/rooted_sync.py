"""Rooted SYNC dispersion (paper Algorithms 5–7, Theorem 6.1).

``RootedSyncDispersion`` disperses ``k ≤ n`` agents that all start on one node
``s`` of an anonymous port-labeled graph in ``O(k)`` synchronous rounds with
``O(log(k + Δ))`` bits per agent.  The structure follows the paper exactly:

* the largest-ID agent ``a_max`` is the leader and conducts a DFS;
* ``⌈k/3⌉`` large-ID agents are *seekers* reserved for
  :func:`~repro.core.sync_probe.sync_probe`, which finds a fully unsettled
  neighbor of the DFS head in ``O(1)`` rounds;
* during the DFS only ~2/3 of the visited nodes receive a settler
  (Algorithm 1's rules applied on-line); the empty nodes are covered by
  *oscillating settlers* (:mod:`repro.core.oscillation`) so probes can tell
  "visited but empty" from "never visited";
* forward moves (Algorithm 6) settle agents on even-depth nodes and on every
  third odd-depth child; backtrack moves (Algorithm 7) un-settle two out of
  every three even-depth leaf siblings;
* once the DFS tree has ``k`` nodes, the remaining unsettled agents ascend to
  the root and re-traverse the tree via the sibling-pointer records
  (:mod:`repro.core.retraversal`), settling on the empty nodes.

Every round of the execution is a real engine round in which agents cross at
most one edge each; the reported time is the engine's round counter.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set

from repro.agents.agent import Agent, AgentRole
from repro.agents.memory import FieldKind, MemoryModel
from repro.analysis.verification import is_dispersed
from repro.core.empty_nodes import keeps_settler_at_position
from repro.core.navigation import NavLedger
from repro.core.oscillation import Oscillator
from repro.core.retraversal import ascend_to_root, retraverse_and_settle
from repro.core.sync_probe import sync_probe
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.result import DispersionResult
from repro.sim.sync_engine import SyncEngine

__all__ = [
    "RootedSyncDispersion",
    "rooted_sync_dispersion",
    "SMALL_K_THRESHOLD",
    "GroupBlocked",
]


class GroupBlocked(RuntimeError):
    """Raised when a DFS group can no longer grow (its entire frontier is
    occupied by other trees).  Only possible in general (multi-root) runs; the
    general-configuration driver catches it and scatters the leftover agents."""

#: Below this population the seeker-set arithmetic degenerates (⌈k/3⌉ seekers
#: would leave too few explorers); the driver falls back to the sequential
#: probe DFS, which is O(kΔ) in general but O(1)·O(k) for constant k.
SMALL_K_THRESHOLD = 7

#: Upper bound on how long the driver waits for an oscillating record holder to
#: come home / land on a covered node; one full trip is at most 6 rounds.
_HOLDER_WAIT_LIMIT = 64


class RootedSyncDispersion:
    """Driver for the rooted SYNC dispersion algorithm (Theorem 6.1).

    Parameters
    ----------
    graph:
        The anonymous port-labeled graph.
    k:
        Number of agents (``k ≤ n``).
    start_node:
        The single node on which all agents start (the "root" of the DFS).
    wait_rounds:
        How long a probing seeker waits at the probed neighbor (paper: 6; the
        default adds slack for trips that restart mid-assignment, see README
        "Deviations from the paper").
    strict:
        When True (default), every probe classification is checked against the
        simulator's ground truth and any mismatch raises immediately.
    max_rounds:
        Safety cap for the engine (defaults to a generous multiple of ``k``).
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        k: int,
        start_node: int = 0,
        wait_rounds: int = 8,
        seeker_fraction: float = 1.0 / 3.0,
        strict: bool = True,
        max_rounds: Optional[int] = None,
        engine: Optional[SyncEngine] = None,
        agents: Optional[Dict[int, Agent]] = None,
        foreign_visited: Optional[Set[int]] = None,
        probe_cap: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > graph.num_nodes:
            raise ValueError(f"k={k} agents cannot disperse on n={graph.num_nodes} nodes")
        self.graph = graph
        self.k = k
        self.root = start_node
        self.wait_rounds = wait_rounds
        self.seeker_fraction = seeker_fraction
        self.strict = strict

        if agents is not None:
            # Group mode (used by the general-configuration driver): operate on
            # an existing engine and an agent subset that all start at ``start_node``.
            if engine is None:
                raise ValueError("group mode requires an existing engine")
            self.agents = dict(agents)
            self.engine = engine
            self.memory_model = next(iter(self.agents.values())).memory.model
        else:
            self.memory_model = MemoryModel(k=k, max_degree=graph.max_degree)
            self.agents = {
                i: Agent(i, start_node, self.memory_model) for i in range(1, k + 1)
            }
            if max_rounds is None:
                # ~O(k) with a generous constant: per tree edge we spend a constant
                # number of probe iterations, holder waits and side trips.
                max_rounds = 400 * (k + 4) * max(1, wait_rounds) // 4 + 2000
            self.engine = SyncEngine(self.graph, self.agents.values(), max_rounds=max_rounds)
        self.leader = max(self.agents.values(), key=lambda a: a.agent_id)
        self.leader.role = AgentRole.LEADER
        self.metrics = self.engine.metrics
        #: This driver's still-unsettled agents (O(1) termination check).
        self.unsettled = self.engine.kernel.settled_tally(self.agents)
        #: Upper bound on the number of ports probed per Sync_Probe call; the
        #: rooted case uses k (at most k-1 neighbors can ever be non-fresh).
        self.probe_cap = probe_cap if probe_cap is not None else k

        self.ledger = NavLedger()
        self.oscillators: Dict[int, Oscillator] = {}

        # Simulator-side ground truth (verification only, never drives decisions).
        self.visited: Set[int] = set()
        self.foreign_visited: Set[int] = foreign_visited if foreign_visited is not None else set()
        self.dfs_parent: List[Optional[int]] = [None] * graph.num_nodes
        self.depth: Dict[int, int] = {}

        #: ``A_seeker`` in selection order (an insertion-ordered dict used as
        #: an ordered set: O(1) membership and removal on a settle).
        self.seekers: Dict[Agent, None] = {}
        self._declare_leader_fields()

    def is_visited(self, node: int) -> bool:
        """Ground truth for strict checks: visited by this DFS or by any other tree."""
        return node in self.visited or node in self.foreign_visited

    # ------------------------------------------------------------------ setup
    def _declare_leader_fields(self) -> None:
        """Charge the leader's persistent orchestration fields (O(log(k+Δ)) bits)."""
        mem = self.leader.memory
        mem.write("cur_depth", 0, FieldKind.DEPTH)
        mem.write("visited_count", 1, FieldKind.COUNTER_K)
        mem.write("probe_checked", 0, FieldKind.COUNTER_DELTA)
        mem.write("probe_next", 0, FieldKind.PORT)
        mem.write("rt_carry_a", 0, FieldKind.PORT)
        mem.write("rt_carry_b", 0, FieldKind.PORT)
        mem.write("rt_carry_anchor", 0, FieldKind.PORT)

    def _select_seekers(self) -> None:
        """``A_seeker``: the ``⌈k·fraction⌉`` largest-ID agents except the leader."""
        count = math.ceil(self.k * self.seeker_fraction)
        candidates = sorted(
            (a for a in self.agents.values() if a is not self.leader and not a.settled),
            key=lambda a: -a.agent_id,
        )
        self.seekers = dict.fromkeys(candidates[:count])
        for seeker in self.seekers:
            seeker.role = AgentRole.SEEKER
            seeker.memory.write("probe_port", 0, FieldKind.PORT)
            seeker.memory.write("probe_met", False, FieldKind.FLAG)

    # ------------------------------------------------------------------- run
    def run(self) -> DispersionResult:
        """Execute the algorithm and return the verified result."""
        if self.k < SMALL_K_THRESHOLD:
            return self._small_k_fallback()

        self.settle_root()
        self._select_seekers()
        self._dfs_phase()
        ascend_to_root(self)
        retraverse_and_settle(self)
        self._quiesce_oscillators()
        return self._build_result()

    def run_group(self) -> List[Agent]:
        """Group-mode execution for the general-configuration driver.

        The caller has already settled this group's root (so other groups' probes
        see it) via :meth:`settle_root`.  Returns the group members that remain
        unsettled because the DFS was blocked by foreign trees; the caller
        scatters them separately.
        """
        self._select_seekers()
        try:
            self._dfs_phase()
        except GroupBlocked:
            self.metrics.bump("group_blocked")
        ascend_to_root(self)
        retraverse_and_settle(self)
        self._quiesce_oscillators()
        return [a for a in self.agents.values() if not a.settled]

    def _small_k_fallback(self) -> DispersionResult:
        """Sequential-probe DFS for tiny populations (documented deviation)."""
        from repro.baselines.naive_dfs import NaiveSyncDFS

        driver = NaiveSyncDFS(self.graph, self.k, self.root)
        result = driver.run()
        result.algorithm = "RootedSyncDisp(small-k fallback)"
        return result

    # ------------------------------------------------------------ DFS phase
    def settle_root(self) -> None:
        """Settle the smallest-ID agent at the root (the DFS's first action).

        Settling is part of the settling agent's own CCM cycle, so the
        candidate pool comes from the engine's fault-filtered co-location
        query: a crashed/frozen agent cannot take the root (v2 fault
        contract), the next-smallest healthy agent does.
        """
        candidates = [
            a
            for a in self.engine.kernel.agents_at(self.root)
            if not a.settled and a.agent_id in self.agents
        ]
        if not candidates:
            raise RuntimeError(
                f"every agent at root node {self.root} is fault-blocked; "
                "the DFS cannot settle its root"
            )
        amin = min(candidates, key=lambda a: a.agent_id)
        amin.settle(self.root, None)
        self.visited.add(self.root)
        self.depth[self.root] = 0
        self.ledger.create(
            self.root, amin, parent_port=None, depth_parity=0, occupied=True
        )

    def _dfs_phase(self) -> None:
        while len(self.visited) < self.k:
            w = self.leader.position
            port = sync_probe(self, w)
            if port is not None:
                self._forward_move(w, port)
            else:
                self._backtrack_move(w)

    # ---------------------------------------------------------- forward move
    def _forward_move(self, w: int, port: int) -> None:
        """Algorithm 6: advance the DFS head through ``port`` and settle/cover."""
        self.metrics.bump("forward_moves")
        self.ensure_holder(w)
        record = self.ledger.get(w)
        x = record.forward_count + 1
        self.ledger.update(w, forward_count=x)
        u = self.graph.neighbor(w, port)
        u_depth = self.depth[w] + 1

        # --- sibling-pointer bookkeeping for the child list of w -------------
        if x <= 3:
            self.ledger.append_child_port(w, port)
        elif x % 3 == 1:
            if x == 4:
                self.ledger.update(w, next_anchor=port, latest_anchor=port)
            else:
                prev_anchor_port = record.latest_anchor
                self._write_at_neighbor(
                    w, prev_anchor_port, sibling_next_anchor=port
                )
                self.ledger.update(w, latest_anchor=port)
        else:
            anchor_port = record.latest_anchor
            self._append_sibling_at_neighbor(w, anchor_port, port)

        # --- decide settlement / coverage of u (before moving, from w) -------
        settle_u = True
        coverer: Optional[Oscillator] = None
        cover_route: Sequence[int] = ()
        if u_depth % 2 == 1:
            if x <= 3:
                settle_u = False
                coverer = self._oscillator_for(self.ledger.owner(w), w)
                cover_route = (port,)
            elif x % 3 == 1:
                settle_u = True
            else:
                settle_u = False
                anchor_port = self.ledger.get(w).latest_anchor
                anchor_node = self.graph.neighbor(w, anchor_port)
                anchor_agent = self._visit_neighbor_and_get_owner(w, anchor_port)
                coverer = self._oscillator_for(anchor_agent, anchor_node)
                back_port = self.graph.reverse_port(w, anchor_port)
                cover_route = (back_port, port)

        # --- the forward move itself ------------------------------------------
        self.move_group(w, port)
        parent_port = self.graph.reverse_port(w, port)
        self.visited.add(u)
        self.dfs_parent[u] = w
        self.depth[u] = u_depth
        self.leader.memory.write("cur_depth", u_depth, FieldKind.DEPTH)
        self.leader.memory.write("visited_count", len(self.visited), FieldKind.COUNTER_K)

        if settle_u:
            settler = self._settle_smallest_at(u, parent_port)
            self.ledger.create(
                u,
                settler,
                parent_port=parent_port,
                depth_parity=u_depth % 2,
                occupied=True,
            )
        else:
            assert coverer is not None
            coverer.add_cover(u, cover_route)
            self.ledger.create(
                u,
                coverer.agent,
                parent_port=parent_port,
                depth_parity=u_depth % 2,
                occupied=False,
            )
            self.metrics.bump("nodes_left_empty")

    # -------------------------------------------------------- backtrack move
    def _backtrack_move(self, w: int) -> None:
        """Algorithm 7: retreat to the parent; apply the leaf-sibling rules."""
        self.metrics.bump("backtrack_moves")
        self.ensure_holder(w)
        record = self.ledger.get(w)
        was_even_leaf = (
            record.depth_parity == 0
            and record.forward_count == 0
            and record.parent_port is not None
        )
        parent_port = record.parent_port
        if parent_port is None:
            raise GroupBlocked(
                "DFS wants to backtrack from the root before visiting k nodes; "
                "every reachable frontier node is occupied by another tree"
            )
        pw = self.graph.neighbor(w, parent_port)
        self.move_group(w, parent_port)
        self.leader.memory.write("cur_depth", self.depth[pw], FieldKind.DEPTH)
        port_pw_to_w = self.graph.reverse_port(w, parent_port)

        if not was_even_leaf:
            return

        # Case A of Empty_Node_Selection, applied on-line: w is an even-depth
        # leaf; count it among its parent's leaf children and keep/remove its
        # settler accordingly.
        self.ensure_holder(pw)
        precord = self.ledger.get(pw)
        x = precord.leaf_child_count + 1
        self.ledger.update(pw, leaf_child_count=x)
        if keeps_settler_at_position(x):
            self.ledger.update(pw, leaf_anchor_port=port_pw_to_w)
            return

        # Remove the settler at w and let the current leaf anchor cover w.
        anchor_port = precord.leaf_anchor_port
        if anchor_port is None:
            raise AssertionError(
                f"leaf child #{x} of node {pw} has no kept leaf anchor to cover it"
            )
        anchor_node = self.graph.neighbor(pw, anchor_port)
        removed = self._fetch_settler(pw, port_pw_to_w)
        anchor_agent = self._visit_neighbor_and_get_owner(pw, anchor_port)
        anchor_osc = self._oscillator_for(anchor_agent, anchor_node)
        back_port = self.graph.reverse_port(pw, anchor_port)
        anchor_osc.add_cover(w, (back_port, port_pw_to_w))
        self.ledger.update(w, occupied=False)
        self.ledger.transfer(w, anchor_agent)
        self.metrics.bump("settlers_removed")

    # ------------------------------------------------------- helper motions
    def _fetch_settler(self, pw: int, port_pw_to_w: int) -> Agent:
        """Un-settle α(w) and bring it to ``pw`` (leader escorts it, O(1) rounds)."""
        w = self.graph.neighbor(pw, port_pw_to_w)
        # Leader walks to w ...
        self.tick({self.leader.agent_id: port_pw_to_w})
        settler = self.engine.kernel.home_settler_at(w)
        if settler is None:
            raise AssertionError(f"expected a settler at leaf node {w}")
        settler.unsettle()
        if settler.agent_id in self.oscillators:
            del self.oscillators[settler.agent_id]
        # ... and both walk back to pw.
        back = self.graph.reverse_port(pw, port_pw_to_w)
        self.tick({self.leader.agent_id: back, settler.agent_id: back})
        return settler

    def _visit_neighbor_and_get_owner(self, w: int, port: int) -> Agent:
        """Side trip ``w → neighbor → w`` by the leader to reach the neighbor's
        record owner (waiting for it if it is oscillating); returns that agent."""
        target = self.graph.neighbor(w, port)
        self.tick({self.leader.agent_id: port})
        self.ensure_holder(target)
        owner = self.ledger.owner(target)
        back = self.graph.reverse_port(w, port)
        self.tick({self.leader.agent_id: back})
        self.metrics.bump("leader_side_trips")
        return owner

    def _write_at_neighbor(self, w: int, port: int, **changes) -> None:
        """Side trip to a neighbor to update its navigation record."""
        target = self.graph.neighbor(w, port)
        self.tick({self.leader.agent_id: port})
        self.ensure_holder(target)
        self.ledger.update(target, **changes)
        back = self.graph.reverse_port(w, port)
        self.tick({self.leader.agent_id: back})
        self.metrics.bump("leader_side_trips")

    def _append_sibling_at_neighbor(self, w: int, anchor_port: int, new_port: int) -> None:
        """Side trip to the anchor child to append a sibling port to its record."""
        target = self.graph.neighbor(w, anchor_port)
        self.tick({self.leader.agent_id: anchor_port})
        self.ensure_holder(target)
        self.ledger.append_sibling_port(target, new_port)
        back = self.graph.reverse_port(w, anchor_port)
        self.tick({self.leader.agent_id: back})
        self.metrics.bump("leader_side_trips")

    # ----------------------------------------------------------- settlement
    def _settle_smallest_at(self, node: int, parent_port: Optional[int]) -> Agent:
        """Settle the smallest-ID unsettled non-leader agent at ``node``.

        Prefers explorers; falls back to a seeker only if the explorer pool is
        exhausted (counted, should not happen for k ≥ 7), and to the leader only
        when it is the last unsettled agent.
        """
        candidates = [
            a
            for a in self.engine.kernel.agents_at(node)
            if not a.settled and a is not self.leader and a.agent_id in self.agents
        ]
        explorers = [a for a in candidates if a not in self.seekers]
        pool = explorers if explorers else candidates
        if not pool:
            if self.engine.kernel.fault_view(self.leader.agent_id).blocked_for_cycle:
                raise RuntimeError(
                    f"no fault-eligible agent available to settle at node {node}"
                )
            pool = [self.leader]
            self.metrics.bump("leader_settled_during_dfs")
        elif not explorers:
            self.metrics.bump("seeker_settled_during_dfs")
        agent = min(pool, key=lambda a: a.agent_id)
        agent.settle(node, parent_port)
        self.seekers.pop(agent, None)
        self.metrics.bump("settled_during_dfs")
        return agent

    def settle_next_agent_at(self, node: int, parent_port: Optional[int]) -> Agent:
        """Re-traversal settlement: smallest-ID unsettled agent settles at ``node``."""
        candidates = [
            a
            for a in self.engine.kernel.agents_at(node)
            if not a.settled and a.agent_id in self.agents
        ]
        if not candidates:
            raise AssertionError(f"no unsettled agent available to settle at node {node}")
        agent = min(candidates, key=lambda a: a.agent_id)
        agent.settle(node, parent_port)
        self.seekers.pop(agent, None)
        self.ledger.update(node, occupied=True)
        self.ledger.transfer(node, agent)
        self.metrics.bump("settled_during_retraversal")
        return agent

    # -------------------------------------------------------------- movement
    def tick(self, moves: Dict[int, int]) -> None:
        """Advance one round: controller moves plus all oscillator trips."""
        merged = dict(moves)
        oscillators = self.oscillators.values()
        # Each oscillator reads the next port of its current trip (a trip is
        # built only when one starts).
        for osc in oscillators:
            port = osc.plan_step()
            if port is not None:
                if osc.agent.agent_id in merged:
                    raise AssertionError(
                        f"agent {osc.agent.agent_id} scheduled by both the controller "
                        "and its oscillator in the same round"
                    )
                merged[osc.agent.agent_id] = port
        self.engine.step(merged)
        # A covered node is dropped only when an agent has *settled at* it
        # (home == here); another oscillator merely passing through must not
        # be mistaken for a settler of this node.  The settler query is side
        # effect free, so it is asked only where its answer can drop a cover:
        # on one of the oscillator's own covered nodes.
        kernel = self.engine.kernel
        for osc in oscillators:
            here = osc.agent.position
            if osc.covers(here) and kernel.has_home_settler(here, osc.agent.agent_id):
                osc.drop_cover(here)

    def move_group(self, node: int, port: int) -> None:
        """Move every unsettled group member currently at ``node`` through ``port``."""
        moves = {
            a.agent_id: port
            for a in self.engine.kernel.agents_at(node)
            if not a.settled and a.agent_id in self.agents
        }
        self.tick(moves)

    def ensure_holder(self, node: int) -> None:
        """Wait (real rounds) until the owner of ``node``'s record is at ``node``."""
        owner = self.ledger.owner(node)
        waited = 0
        while owner.position != node:
            self.tick({})
            waited += 1
            if waited > _HOLDER_WAIT_LIMIT:
                raise RuntimeError(
                    f"record holder (agent {owner.agent_id}) never reached node "
                    f"{node}; oscillation coverage is broken"
                )
        if waited:
            self.metrics.bump("holder_wait_rounds", waited)

    # ------------------------------------------------------------ oscillators
    def _oscillator_for(self, agent: Agent, home: int) -> Oscillator:
        osc = self.oscillators.get(agent.agent_id)
        if osc is None:
            osc = Oscillator(agent, home, self.graph)
            self.oscillators[agent.agent_id] = osc
        return osc

    def _quiesce_oscillators(self) -> None:
        """Let every oscillator drop its (now settled) covered nodes and go home."""
        guard = 0
        while any(osc.is_active for osc in self.oscillators.values()):
            self.tick({})
            guard += 1
            if guard > 20 * (len(self.oscillators) + 2):
                raise RuntimeError("oscillators failed to quiesce after dispersion")
        for osc in self.oscillators.values():
            osc.stop()

    # ---------------------------------------------------------------- result
    def _build_result(self) -> DispersionResult:
        metrics = self.engine.finalize_metrics()
        result = DispersionResult(
            dispersed=is_dispersed(self.agents.values()),
            positions=self.engine.kernel.positions(),
            metrics=metrics,
            dfs_parent=list(self.dfs_parent),
            algorithm="RootedSyncDisp",
            notes={
                "k": self.k,
                "wait_rounds": self.wait_rounds,
                "seekers": math.ceil(self.k * self.seeker_fraction),
            },
        )
        return result


def rooted_sync_dispersion(
    graph: PortLabeledGraph,
    k: int,
    start_node: int = 0,
    **kwargs,
) -> DispersionResult:
    """Convenience wrapper: run Theorem 6.1's algorithm and return the result."""
    return RootedSyncDispersion(graph, k, start_node, **kwargs).run()
