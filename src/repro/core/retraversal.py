"""Post-DFS ascent and sibling-pointer re-traversal (paper §6, Lemma 9).

After the SYNC DFS has visited all ``k`` nodes, the still-unsettled agents (the
``⌈k/3⌉`` seekers plus any explorers that were un-settled again during
backtracks) travel with the leader

1. up to the DFS root following parent ports (:func:`ascend_to_root`), then
2. down the DFS tree in child order (:func:`retraverse_and_settle`), settling
   one agent on every empty node encountered.

Child enumeration uses the chunked *sibling-pointer* records of
:mod:`repro.core.navigation`: a node's own record lists its first three child
ports plus the port of the fourth child (the *anchor*); the anchor's record
lists the next two sibling ports and the next anchor, and so on.  The traversal
therefore keeps only ``O(1)`` port fields per agent while still running in
``O(k)`` rounds -- each tree edge is crossed ``O(1)`` times and every wait for
an oscillating record-holder is bounded by one oscillation trip (Lemma 2).
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["ascend_to_root", "retraverse_and_settle"]


def ascend_to_root(ctx) -> None:
    """Walk the whole group from the DFS head back to the root via parent ports."""
    current = ctx.leader.position
    while True:
        ctx.ensure_holder(current)
        record = ctx.ledger.get(current)
        if record.parent_port is None:
            break
        parent = ctx.graph.neighbor(current, record.parent_port)
        ctx.move_group(current, record.parent_port)
        current = parent
    ctx.metrics.bump("ascent_completed")


def retraverse_and_settle(ctx) -> None:
    """Depth-first re-traversal of the DFS tree settling agents on empty nodes.

    The walk is iterative (the physical agents never keep a recursion stack):
    the per-node progress lives in the ``rt_*`` cursor fields of the node's
    navigation record, and the continuation of a long child list is read from
    the anchor child's record on the way back up and installed at the parent.
    """
    current = ctx.root
    carried_queue: Optional[List[int]] = None
    carried_anchor: Optional[int] = None

    while True:
        ctx.ensure_holder(current)
        record = ctx.ledger.get(current)

        if not record.rt_initialized:
            queue = list(record.child_group)
            if record.next_anchor is not None:
                queue.append(record.next_anchor)
            ctx.ledger.update(
                current,
                rt_initialized=True,
                rt_queue=queue,
                rt_anchor_port=record.next_anchor,
            )
            if not record.occupied:
                ctx.settle_next_agent_at(current, record.parent_port)
                if not ctx.unsettled.remaining:
                    break

        if carried_queue is not None:
            # We just returned from an anchor child: its record supplied the
            # ports of the next sibling group, which now continue the parent's
            # child enumeration.
            ctx.ledger.update(current, rt_queue=carried_queue, rt_anchor_port=carried_anchor)
            carried_queue = None
            carried_anchor = None

        record = ctx.ledger.get(current)
        if record.rt_queue:
            port = record.rt_queue[0]
            ctx.ledger.update(current, rt_queue=record.rt_queue[1:])
            is_anchor_child = (
                record.rt_anchor_port is not None and port == record.rt_anchor_port
            )
            child = ctx.graph.neighbor(current, port)
            ctx.move_group(current, port)
            current = child
            ctx.ensure_holder(current)
            if is_anchor_child:
                ctx.ledger.update(current, rt_is_anchor=True)
            continue

        # Child list exhausted at ``current``.
        if current == ctx.root:
            break
        child_record = ctx.ledger.get(current)
        if child_record.rt_is_anchor:
            carried_queue = list(child_record.sibling_group)
            if child_record.sibling_next_anchor is not None:
                carried_queue.append(child_record.sibling_next_anchor)
            carried_anchor = child_record.sibling_next_anchor
        parent_port = child_record.parent_port
        parent = ctx.graph.neighbor(current, parent_port)
        ctx.move_group(current, parent_port)
        current = parent

    ctx.metrics.bump("retraversal_completed")
