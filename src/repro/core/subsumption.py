"""Size-based subsumption bookkeeping (the KS algorithm of [OPODIS'21], §8).

When two DFS trees meet in a general (multi-root) execution, the paper resolves
the meeting with a *size-based subsumption* rule: the tree that has settled
fewer agents collapses into the larger one (ties favor the tree that was met,
i.e. the non-initiating tree, per the KS formulation ``D1 subsumes D2 iff
|D2| < |D1|``), its settled agents are collected by a re-traversal of the
collapsed tree (cost proportional to its size), and the winner keeps growing.

This module provides the rule and the per-tree accounting used by the general
drivers and by the ablation benchmark.  Note the scope deviation documented in
README "Deviations from the paper": the end-to-end general drivers in this
reproduction serialize the growth of the individual DFS trees, in which regime
a running tree only ever meets trees that are not larger than itself, so the
*collapse walk* of KS is exercised by unit tests and the ablation benchmark on
explicit tree pairs rather than inside the end-to-end drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["TreeInfo", "MeetingOutcome", "decide_subsumption", "collapse_cost"]


@dataclass
class TreeInfo:
    """Book-keeping for one DFS tree in a general execution."""

    treelabel: int
    root: int
    settled_count: int = 0
    collapsed_into: Optional[int] = None

    @property
    def alive(self) -> bool:
        return self.collapsed_into is None


@dataclass(frozen=True)
class MeetingOutcome:
    """Result of applying the size rule to a meeting between two trees."""

    initiator: int          # treelabel of the DFS whose head detected the meeting
    other: int              # treelabel of the tree that was met
    winner: int
    loser: int
    collapse_walk_cost: int  # steps charged for re-traversing the losing tree


def decide_subsumption(initiator: TreeInfo, other: TreeInfo) -> MeetingOutcome:
    """Apply the KS size rule: the initiator subsumes iff the met tree is smaller.

    ``D1 subsumes D2 if and only if |D2| < |D1|, otherwise D2 subsumes D1``
    (paper §4.2); the collapse walk of the losing tree costs ``4·|loser|`` steps
    in the KS accounting (§8, footnote 6).
    """
    if other.settled_count < initiator.settled_count:
        winner, loser = initiator, other
    else:
        winner, loser = other, initiator
    return MeetingOutcome(
        initiator=initiator.treelabel,
        other=other.treelabel,
        winner=winner.treelabel,
        loser=loser.treelabel,
        collapse_walk_cost=collapse_cost(loser.settled_count),
    )


def collapse_cost(settled_count: int) -> int:
    """KS re-traversal cost of collapsing a tree with ``settled_count`` settlers."""
    return 4 * settled_count


def total_subsumption_cost(sizes_at_collapse: List[int]) -> int:
    """Sum of collapse-walk costs over a whole execution.

    The KS analysis (and the paper's footnote 6) observes this sum is ``O(k)``
    because every tree collapses at most once and the collapsed sizes are
    disjoint subsets of the ``k`` agents; the ablation benchmark checks that
    property empirically.
    """
    return sum(collapse_cost(s) for s in sizes_at_collapse)
