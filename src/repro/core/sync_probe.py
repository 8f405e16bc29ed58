"""Synchronous probing (paper Algorithm 2, ``Sync_Probe``, Figure 5).

At the DFS head ``w`` the leader must find a *fully unsettled* neighbor of
``w`` -- a node never visited by the DFS -- or learn that none exists.  With
``⌈k/3⌉`` seeker agents available, all relevant neighbors of ``w`` (at most
``min{k, δ_w}`` of them) can be probed in a constant number of parallel
iterations:

1. assign each available seeker to one unchecked port of ``w``;
2. the seekers cross their edges simultaneously, wait at the reached neighbors
   for a fixed window, and cross back;
3. a seeker that met a *settled* agent during its stay reports "visited"
   (settled nodes have their settler at home every other round, and empty
   DFS-tree nodes are visited by their covering oscillator at least once per
   trip, Lemma 2) -- a seeker that met nobody reports "fully unsettled".

The wait window is ``ctx.wait_rounds`` (paper value 6; default 8 here, see
README "Deviations from the paper") and the whole call takes ``O(1)`` rounds
(Lemma 4): at most ``⌈min{k, δ_w} / ⌈k/3⌉⌉ ≤ 3`` iterations of
``wait_rounds + 2`` rounds each.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.agents.agent import Agent

__all__ = ["sync_probe"]


def sync_probe(ctx, w: int) -> Optional[int]:
    """Run ``Sync_Probe`` at node ``w``; return the port of a fully unsettled
    neighbor (smallest such port) or ``None`` if every neighbor is settled or
    covered.

    ``ctx`` is the SYNC dispersion driver
    (:class:`repro.core.rooted_sync.RootedSyncDispersion` or the general-case
    driver), which provides the engine, the seeker set, the tick primitive and
    the strict-mode ground truth.
    """
    graph = ctx.graph
    degree = graph.degree(w)
    limit = min(ctx.probe_cap, degree)
    checked = 0
    ctx.metrics.bump("sync_probe_calls")

    while checked < limit:
        seekers: List[Agent] = [a for a in ctx.seekers if not a.settled]
        if not seekers:
            # Degenerate configurations (tiny k) fall back to the leader
            # probing alone; still O(1) per port, and only reachable when the
            # seeker pool was consumed, which the driver counts.
            seekers = [ctx.leader]
            ctx.metrics.bump("sync_probe_leader_fallback")
        batch = min(len(seekers), limit - checked)
        assigned: List[Tuple[Agent, int, int]] = []
        out_moves: Dict[int, int] = {}
        for j in range(batch):
            port = checked + 1 + j
            agent = seekers[j]
            target = graph.neighbor(w, port)
            assigned.append((agent, port, target))
            out_moves[agent.agent_id] = port

        ctx.tick(out_moves)  # all assigned seekers cross simultaneously
        # All met-checks of a round go through the backend's batched probe
        # primitive (one call per round instead of one co-location scan per
        # seeker); each answer is "did my seeker meet a settled agent other
        # than itself at its target".
        kernel = ctx.engine.kernel
        first = kernel.run_probe_round(
            [target for _agent, _port, target in assigned],
            [agent.agent_id for agent, _port, _target in assigned],
        )
        met: Dict[int, bool] = {
            agent.agent_id: hit
            for (agent, _port, _target), hit in zip(assigned, first)
        }
        for _ in range(ctx.wait_rounds):
            ctx.tick({})
            pending = [
                (agent, target)
                for agent, _port, target in assigned
                if not met[agent.agent_id]
            ]
            if pending:
                hits = kernel.run_probe_round(
                    [target for _agent, target in pending],
                    [agent.agent_id for agent, _target in pending],
                )
                for (agent, _target), hit in zip(pending, hits):
                    if hit:
                        met[agent.agent_id] = True
        back_moves = {
            agent.agent_id: graph.reverse_port(w, port) for agent, port, _target in assigned
        }
        ctx.tick(back_moves)
        ctx.metrics.bump("sync_probe_iterations")

        if ctx.strict:
            _verify_classification(ctx, w, assigned, met)

        found: Optional[int] = None
        for agent, port, _target in assigned:
            if not met[agent.agent_id]:
                found = port if found is None else min(found, port)
        if found is not None:
            return found
        checked += batch
    return None


def _verify_classification(ctx, w: int, assigned, met) -> None:
    """Strict mode: compare the physical classification with ground truth.

    A probed neighbor classified "fully unsettled" must not be a DFS-tree node,
    and one classified "visited" must be.  A violation means the oscillation
    cover failed to guarantee a meeting inside the wait window -- a correctness
    bug, surfaced immediately instead of corrupting the dispersion.
    """
    for agent, port, target in assigned:
        classified_visited = met[agent.agent_id]
        actually_visited = ctx.is_visited(target)
        if classified_visited and not actually_visited:
            raise AssertionError(
                f"Sync_Probe false positive at node {w} port {port}: neighbor "
                f"{target} was classified visited but is not in the DFS tree"
            )
        if not classified_visited and actually_visited:
            raise AssertionError(
                f"Sync_Probe missed the cover of node {target} (probed from {w} "
                f"port {port}): it is in the DFS tree but no settled agent was "
                f"seen within wait_rounds={ctx.wait_rounds}"
            )
