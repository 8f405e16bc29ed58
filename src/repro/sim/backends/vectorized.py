"""Numpy struct-of-arrays backend over the graph's CSR port tables.

State layout (``k`` agents, ``n`` nodes):

* ``_ids``        -- int64[k], sorted agent ids; ``_slot`` maps id -> row.
* ``_pos``        -- int64[k], current node per agent (authoritative; kept in
  lockstep with the ``Agent`` objects so the two views never diverge).
* ``_occ_count``  -- int64[n], the per-node occupancy histogram.
* ``_occ``        -- the same live ``List[Set[int]]`` the reference backend
  keeps.  Exact query parity (sorted-id communication queries, adversaries
  that inspect ``engine.kernel.occupancy``) requires the id sets; the histogram
  answers the pure counting queries without touching them.
* CSR views      -- zero-copy int64 views of the graph's flat
  ``(offsets, neighbors, reverse_ports)`` arrays plus a degree vector,
  refreshed whenever :attr:`PortLabeledGraph.churn_count` moves (edge churn
  rebuilds the flat arrays in place).

The **per-operation tier** stays observably identical to the reference
backend: batched moves are *planned* with one fancy-indexing pass over the
CSR tables (bounds check, destination and reverse-port lookup, first
offending move reported with the graph's exact error message), then landed
on the Agent objects in the same order the reference loop lands them.  The
**batch-stepping tier** answers the settled-agent queries from incrementally
maintained per-node indexes and walks a whole scatter path array-side
(:meth:`VectorizedBackend.run_scatter`), syncing the Agent objects, occupancy
sets, and metrics back once at the end.

numpy is an optional dependency (the ``fast`` extra): importing this module
is always safe, constructing the backend without numpy raises
:class:`~repro.sim.backends.BackendUnavailableError` with install guidance.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set

try:  # pragma: no cover - exercised via is_available() in both states
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less environments
    np = None

from repro.agents.agent import Agent
from repro.sim.backends.base import KernelBackend

__all__ = ["VectorizedBackend"]


class VectorizedBackend(KernelBackend):
    """Struct-of-arrays world state for interactive 10^5..10^6-node runs."""

    name = "vectorized"

    def __init__(self) -> None:
        if np is None:
            from repro.sim.backends import BackendUnavailableError

            raise BackendUnavailableError(
                "the 'vectorized' backend needs numpy, which is not installed; "
                "install the fast extra (pip install 'repro-dispersion[fast]') "
                "or use --backend reference"
            )
        super().__init__()

    @classmethod
    def is_available(cls) -> bool:
        return np is not None

    # ------------------------------------------------------------------ state
    def rebuild(self) -> None:
        kernel = self.kernel
        n = kernel.graph.num_nodes
        ids = sorted(kernel.agents)
        self._ids = np.asarray(ids, dtype=np.int64)
        self._slot: Dict[int, int] = {agent_id: i for i, agent_id in enumerate(ids)}
        self._pos = np.asarray(
            [kernel.agents[a].position for a in ids], dtype=np.int64
        )
        self._occ_count = np.bincount(self._pos, minlength=n).astype(np.int64)
        self._occ: List[Set[int]] = [set() for _ in range(n)]
        for agent_id, node in zip(ids, self._pos.tolist()):
            self._occ[node].add(agent_id)
        # Settled-agent indexes behind the deterministic driver-phase
        # primitives: a per-node count and id-sum of settled *bodies* (count
        # and idsum together decide "is a settled agent other than X here"
        # exactly: ids are unique, so count>=2 always has another, and the
        # count==1 body is agent idsum), plus home-node -> settled ids for the
        # home-settler queries.  Kept current by notify_settle/notify_unsettle
        # (the kernel observes every agent's settle/unsettle and forwards
        # them here) and by the settled-mover updates in the move paths.
        self._settled_count = np.zeros(n, dtype=np.int64)
        self._settled_idsum = np.zeros(n, dtype=np.int64)
        self._home_ids: Dict[int, Set[int]] = {}
        for agent in kernel.agents.values():
            if agent.settled:
                self._settled_count[agent.position] += 1
                self._settled_idsum[agent.position] += agent.agent_id
                self._home_ids.setdefault(agent.home, set()).add(agent.agent_id)
        self._churn_seen: Optional[int] = None
        self._refresh_csr()

    # ------------------------------------------------- settled-index upkeep
    def notify_settle(self, agent: Agent) -> None:
        """``agent`` just settled (position == home), forwarded by the kernel."""
        node = agent.position
        self._settled_count[node] += 1
        self._settled_idsum[node] += agent.agent_id
        self._home_ids.setdefault(agent.home, set()).add(agent.agent_id)

    def notify_unsettle(self, agent: Agent) -> None:
        """``agent`` is about to unsettle (state intact), forwarded by the kernel."""
        node = agent.position
        self._settled_count[node] -= 1
        self._settled_idsum[node] -= agent.agent_id
        ids = self._home_ids.get(agent.home)
        if ids is not None:
            ids.discard(agent.agent_id)
            if not ids:
                del self._home_ids[agent.home]

    def _settled_body_moved(self, agent: Agent, src: int, dst: int) -> None:
        """Re-key the settled-presence index when a settled body crosses an
        edge (oscillators move while settled; their home entry is unchanged)."""
        self._settled_count[src] -= 1
        self._settled_idsum[src] -= agent.agent_id
        self._settled_count[dst] += 1
        self._settled_idsum[dst] += agent.agent_id

    def _refresh_csr(self) -> None:
        """(Re)view the graph's CSR arrays; cheap no-op while churn is quiet."""
        graph = self.kernel.graph
        if graph.churn_count == self._churn_seen:
            return
        offsets, neighbors, reverse = graph.adjacency_arrays()
        # array('l') is 64-bit on the platforms we target; frombuffer gives a
        # zero-copy view that stays valid until the next rewire (tracked by
        # churn_count, which every rewire bumps).
        self._offsets = np.frombuffer(offsets, dtype=np.int64)
        self._nbr = np.frombuffer(neighbors, dtype=np.int64)
        self._rev = np.frombuffer(reverse, dtype=np.int64)
        self._deg = self._offsets[1:] - self._offsets[:-1]
        self._churn_seen = graph.churn_count

    @property
    def occupancy(self) -> List[Set[int]]:
        return self._occ

    # ---------------------------------------------------------------- movement
    def apply_move(self, agent: Agent, port: int) -> None:
        # A single activation moves a single agent: the scalar graph lookup is
        # both faster than a 1-element array pass and exactly the reference
        # code path (same bounds check, same error message).
        kernel = self.kernel
        src = agent.position
        dst, rev = kernel.graph.move(src, port)
        self._occ[src].discard(agent.agent_id)
        agent.arrive(dst, rev)
        self._occ[dst].add(agent.agent_id)
        if agent.settled:
            self._settled_body_moved(agent, src, dst)
        slot = self._slot[agent.agent_id]
        self._pos[slot] = dst
        self._occ_count[src] -= 1
        self._occ_count[dst] += 1
        kernel.metrics.total_moves += 1
        count = kernel.moves_per_agent.get(agent.agent_id, 0) + 1
        kernel.moves_per_agent[agent.agent_id] = count
        if count > kernel.metrics.max_moves_per_agent:
            kernel.metrics.max_moves_per_agent = count

    def apply_batch(self, moves: Mapping[int, Optional[int]]) -> None:
        kernel = self.kernel
        movers: List[Agent] = []
        slots_list: List[int] = []
        ports_list: List[int] = []
        for agent_id, port in moves.items():
            if port is None:
                continue
            movers.append(kernel.agents[agent_id])
            slots_list.append(self._slot[agent_id])
            ports_list.append(port)
        if not movers:
            return
        self._refresh_csr()
        slots = np.asarray(slots_list, dtype=np.int64)
        ports = np.asarray(ports_list, dtype=np.int64)
        src = self._pos[slots]
        deg = self._deg[src]
        bad = (ports < 1) | (ports > deg)
        if bad.any():
            # Report the first offender in mapping order, with the exact
            # message PortLabeledGraph.move raises, before mutating anything.
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"node {int(src[i])} has no port {int(ports[i])} "
                f"(degree {int(deg[i])})"
            )
        edge = self._offsets[src] + ports - 1
        dst = self._nbr[edge]
        rev = self._rev[edge]
        occupancy = self._occ
        for agent, s in zip(movers, src.tolist()):
            occupancy[s].discard(agent.agent_id)
        moves_per_agent = kernel.moves_per_agent
        max_moves = kernel.metrics.max_moves_per_agent
        for agent, s, d, r in zip(movers, src.tolist(), dst.tolist(), rev.tolist()):
            agent.arrive(d, r)
            occupancy[d].add(agent.agent_id)
            if agent.settled:
                self._settled_body_moved(agent, s, d)
            count = moves_per_agent.get(agent.agent_id, 0) + 1
            moves_per_agent[agent.agent_id] = count
            if count > max_moves:
                max_moves = count
        self._pos[slots] = dst
        np.subtract.at(self._occ_count, src, 1)
        np.add.at(self._occ_count, dst, 1)
        kernel.metrics.total_moves += len(movers)
        kernel.metrics.max_moves_per_agent = max_moves

    # ------------------------------------------------------------ observation
    def present_ids(self, node: int) -> List[int]:
        return sorted(self._occ[node])

    def occupied(self, node: int) -> bool:
        return bool(self._occ_count[node])

    def positions(self) -> Dict[int, int]:
        # Answered from the arrays (the authoritative vectorized state); dict
        # equality with the reference answer is part of the parity contract.
        return {
            int(agent_id): int(node)
            for agent_id, node in zip(self._ids, self._pos)
        }

    def occupancy_counts(self) -> Sequence[int]:
        return self._occ_count.tolist()

    # ------------------------------------------------- settled-agent queries
    # Deterministic primitives: index-answered only when no fault injector is
    # installed (fault filtering needs the injector's per-agent view, which is
    # exactly the generic path), byte-identical either way.

    def settled_present(self, node: int, exclude_id: Optional[int] = None) -> bool:
        if self.kernel.fault_injector is not None:
            return super().settled_present(node, exclude_id)
        count = int(self._settled_count[node])
        if count == 0:
            return False
        if count > 1 or exclude_id is None:
            return True
        return int(self._settled_idsum[node]) != exclude_id

    def home_settler_at(self, node: int) -> Optional[Agent]:
        if self.kernel.fault_injector is not None:
            return super().home_settler_at(node)
        ids = self._home_ids.get(node)
        if not ids:
            return None
        agents = self.kernel.agents
        best: Optional[Agent] = None
        for agent_id in ids:
            agent = agents[agent_id]
            if agent.position == node and (best is None or agent_id < best.agent_id):
                best = agent
        return best

    def has_home_settler(self, node: int, exclude_id: Optional[int] = None) -> bool:
        if self.kernel.fault_injector is not None:
            return super().has_home_settler(node, exclude_id)
        ids = self._home_ids.get(node)
        if not ids:
            return False
        agents = self.kernel.agents
        for agent_id in ids:
            if agent_id != exclude_id and agents[agent_id].position == node:
                return True
        return False

    def run_probe_round(
        self, nodes: Sequence[int], exclude_ids: Sequence[int]
    ) -> List[bool]:
        if self.kernel.fault_injector is not None:
            return super().run_probe_round(nodes, exclude_ids)
        nodes_arr = np.asarray(nodes, dtype=np.int64)
        excl = np.asarray(exclude_ids, dtype=np.int64)
        count = self._settled_count[nodes_arr]
        met = (count > 1) | ((count == 1) & (self._settled_idsum[nodes_arr] != excl))
        return met.tolist()

    # --------------------------------------------------------- phase driving
    def run_phase(self, engine: "SyncEngine", rounds: int) -> None:
        kernel = self.kernel
        if (
            kernel.fault_injector is not None
            or kernel.invariant_checker is not None
            or kernel.trace is not None
        ):
            return super().run_phase(engine, rounds)
        if rounds <= 0:
            return
        metrics = kernel.metrics
        # Idle rounds with nothing observing them collapse to arithmetic on
        # the round counter; the max_rounds cap fails exactly like the
        # per-round loop (counter parked at the cap, same message).
        if engine.max_rounds is not None and metrics.rounds + rounds > engine.max_rounds:
            metrics.rounds = max(metrics.rounds, engine.max_rounds)
            raise RuntimeError(
                f"exceeded max_rounds={engine.max_rounds}; "
                "the algorithm is probably not terminating"
            )
        metrics.rounds += rounds

    def run_scatter(
        self,
        engine: "SyncEngine",
        walker_ids: Sequence[int],
        start: int,
        ports: Sequence[int],
        counter: Optional[str] = None,
    ) -> int:
        kernel = self.kernel
        if kernel.invariant_checker is not None or kernel.trace is not None:
            # Those observers must see every individual round; the generic
            # per-round engine.step path is the contract bearer there.
            return super().run_scatter(engine, walker_ids, start, ports, counter)
        agents = kernel.agents
        metrics = kernel.metrics
        injector = kernel.fault_injector
        self._refresh_csr()
        # The generic path builds one moves dict per hop, so duplicate walker
        # ids collapse; mirror that before tracking per-walker state.
        walker_ids = list(dict.fromkeys(walker_ids))
        k = len(walker_ids)
        wagents = [agents[a] for a in walker_ids]
        wslots = np.asarray(
            [self._slot[a] for a in walker_ids], dtype=np.int64
        )
        wpos = self._pos[wslots].copy() if k else np.zeros(0, dtype=np.int64)
        start_pos = wpos.copy()
        wpin = np.zeros(k, dtype=np.int64)
        wmoved = np.zeros(k, dtype=np.int64)
        current = start
        error: Optional[Exception] = None
        for port in ports:
            if engine.max_rounds is not None and metrics.rounds >= engine.max_rounds:
                error = RuntimeError(
                    f"exceeded max_rounds={engine.max_rounds}; "
                    "the algorithm is probably not terminating"
                )
                break
            movers = wpos == current
            if injector is not None:
                now = metrics.rounds
                injector.begin_tick(now, engine)
                self._refresh_csr()  # churn may have rewired edges this tick
                blocked = injector.blocked_cycle_agents(now)
                if blocked:
                    for agent_id in sorted(blocked):
                        if agent_id in agents:
                            injector.record_blocked(agent_id, now)
                    # blocked_for_move is exactly blocked-for-cycle membership
                    # (v2 contract), applied array-side.
                    movers &= np.asarray(
                        [a not in blocked for a in walker_ids], dtype=bool
                    )
            moving = bool(movers.any())
            deg = int(self._deg[current])
            valid = 1 <= port <= deg
            if moving and not valid:
                # apply_batch raises inside step(), before the round counts.
                error = ValueError(
                    f"node {current} has no port {port} (degree {deg})"
                )
                break
            if moving:
                i = int(self._offsets[current]) + port - 1
                wpos[movers] = self._nbr[i]
                wpin[movers] = self._rev[i]
                wmoved[movers] += 1
            metrics.rounds += 1
            if not valid:
                # graph.neighbor raises after the step already counted.
                error = ValueError(
                    f"node {current} has no port {port} (degree {deg})"
                )
                break
            current = int(self._nbr[int(self._offsets[current]) + port - 1])
            if counter is not None:
                metrics.bump(counter)
        # Land partial state before re-raising: the per-round path mutates as
        # it goes, so post-error world state must match it exactly.
        self._finish_scatter(wagents, wslots, wpos, wpin, wmoved, start_pos)
        if error is not None:
            raise error
        return current

    def _finish_scatter(
        self, wagents, wslots, wpos, wpin, wmoved, start_pos
    ) -> None:
        """Sync the scatter pack's end state back onto the per-op structures."""
        kernel = self.kernel
        occupancy = self._occ
        moves_per_agent = kernel.moves_per_agent
        max_moves = kernel.metrics.max_moves_per_agent
        total = 0
        for i, agent in enumerate(wagents):
            count = int(wmoved[i])
            if not count:
                continue
            src = int(start_pos[i])
            dst = int(wpos[i])
            occupancy[src].discard(agent.agent_id)
            agent.arrive(dst, int(wpin[i]))
            occupancy[dst].add(agent.agent_id)
            if agent.settled:
                self._settled_body_moved(agent, src, dst)
            total += count
            tally = moves_per_agent.get(agent.agent_id, 0) + count
            moves_per_agent[agent.agent_id] = tally
            if tally > max_moves:
                max_moves = tally
        if not total:
            return
        kernel.metrics.total_moves += total
        kernel.metrics.max_moves_per_agent = max_moves
        self._pos[wslots] = wpos
        moved_mask = wmoved > 0
        np.subtract.at(self._occ_count, start_pos[moved_mask], 1)
        np.add.at(self._occ_count, wpos[moved_mask], 1)
