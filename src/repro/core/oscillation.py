"""Oscillating settlers (paper Section 5.2, Lemmas 2–3, Figures 2–4).

A settled agent whose group contains empty nodes *oscillates*: it repeatedly
performs a round-robin trip from its home node through its covered empty nodes
and back.  Two trip shapes exist:

* **child cover** (Case I): the settler at node ``w`` covers up to 3 empty
  children of ``w``; the trip is ``w – a – w – b – w – c – w`` (≤ 6 rounds),
* **sibling cover** (Case II): the settler at node ``w`` covers up to 2 empty
  siblings reachable through the common parent ``p``; the trip is
  ``w – p – a – p – b – p – w`` (≤ 6 rounds).

Because a waiting probe agent (Algorithm 2) stays at a probed node for more
rounds than one trip takes, it is guaranteed to meet the oscillator if the node
belongs to the DFS tree -- that is how "already visited" is detected without
node memory.

Two layers live here:

* *static* helpers (:func:`build_trip`, :func:`max_trip_length`) used by the
  Figure-2/3/4 analyses and by property tests of Lemma 2,
* the *runtime* :class:`Oscillator` state machine that the SYNC dispersion
  driver steps every round; it physically moves the settler along trips built
  from its covered set, picks up cover changes on its next trip (the driver
  drops a covered node once somebody settles on it), and returns home when it
  has nothing left to cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.agents.agent import Agent, AgentRole
from repro.graph.port_graph import PortLabeledGraph

__all__ = ["CoveredNode", "Oscillator", "build_trip", "max_trip_length"]


@dataclass(frozen=True)
class CoveredNode:
    """One empty node covered by an oscillating settler.

    ``route_out`` is the sequence of ports (starting from the oscillator's home
    node) leading to the covered node: one port for a child of the home node,
    two ports (home→parent, parent→sibling) for a sibling.  The return path uses
    the reverse ports, which the simulator provides on arrival (``pin``), so the
    oscillator itself only needs to remember ``route_out`` -- O(1) port fields.
    """

    node: int
    route_out: Tuple[int, ...]

    @property
    def is_sibling(self) -> bool:
        return len(self.route_out) == 2


def build_trip(covered: Sequence[CoveredNode]) -> List[int]:
    """Round lengths of a full oscillation trip over ``covered`` (Lemma 2).

    Returns the per-leg move counts; the total is the trip length in rounds.
    A child leg costs 2 rounds (out and back); sibling legs share the hop to the
    parent: the first sibling leg costs 3 (home→parent→sib→parent is 3 moves …
    we count home→parent, parent→sib, sib→parent), subsequent sibling legs 2,
    plus 1 final move parent→home.
    """
    if not covered:
        return []
    legs: List[int] = []
    siblings = [c for c in covered if c.is_sibling]
    children = [c for c in covered if not c.is_sibling]
    for _ in children:
        legs.append(2)
    if siblings:
        legs.append(1)  # home -> parent
        for _ in siblings:
            legs.append(2)  # parent -> sibling -> parent
        legs.append(1)  # parent -> home
    return legs


def max_trip_length(covered: Sequence[CoveredNode]) -> int:
    """Total rounds of one full trip (Lemma 2 asserts ≤ 6 for valid covers)."""
    return sum(build_trip(covered))


class Oscillator:
    """Runtime oscillation state machine for one settled agent.

    The current trip is a tuple of ports plus a cursor.  A trip is built, in
    one pass over :attr:`covered`, only when it starts: a full round-robin
    trip from home, or the direct path home when the oscillator is away with
    no trip left.  Each round the SYNC driver's ``tick`` calls
    :meth:`plan_step` *before* the engine round to read the next port
    (``None`` to stay put).  A cover dropped mid-trip still gets its visit in
    the current trip and is left out of the next one.

    After the round, ``tick`` asks the kernel whether another agent has
    settled at the node the oscillator stands on, but only when the
    oscillator :meth:`covers` that node; a yes calls :meth:`drop_cover`.

    The walk never needs more than O(1) port fields, which matches the memory
    accounting done by the caller.
    """

    def __init__(self, agent: Agent, home: int, graph: PortLabeledGraph) -> None:
        self.agent = agent
        self.home = home
        self.graph = graph
        self.covered: List[CoveredNode] = []
        self._trip: Tuple[int, ...] = ()  # ports of the current trip
        self._cursor: int = 0             # index of the next port in ``_trip``
        self._stopped = False
        agent.role = AgentRole.OSCILLATOR

    # ------------------------------------------------------------ assignment
    def add_cover(self, node: int, route_out: Sequence[int]) -> None:
        """Start covering ``node`` (reached from home via ``route_out`` ports)."""
        if self.covers(node):
            return
        self.covered.append(CoveredNode(node=node, route_out=tuple(route_out)))
        # The new node is picked up on the next trip; if the oscillator was
        # parked at home with nothing to do, restart immediately.
        if not self._trip and self.agent.position == self.home:
            self._trip = self._full_trip()
            self._cursor = 0

    def drop_cover(self, node: int) -> None:
        """Stop covering ``node`` (someone settled there)."""
        self.covered = [c for c in self.covered if c.node != node]

    def covers(self, node: int) -> bool:
        """True when ``node`` is one of this oscillator's covered nodes."""
        for c in self.covered:
            if c.node == node:
                return True
        return False

    @property
    def is_active(self) -> bool:
        """True while the oscillator still has nodes to cover or is not home."""
        return bool(self.covered) or self.agent.position != self.home or bool(self._trip)

    # ---------------------------------------------------------------- moves
    def plan_step(self) -> Optional[int]:
        """Port to move through this round, or ``None`` to stay put."""
        if self._stopped:
            return None
        trip = self._trip
        if trip:
            cursor = self._cursor
        else:
            if self.agent.position != self.home:
                # Away from home with no trip left: walk the direct path home.
                trip = self._path_home()
            elif self.covered:
                trip = self._full_trip()
            else:
                return None
            self._trip = trip
            cursor = 0
        self._cursor = cursor + 1
        if cursor + 1 == len(trip):
            self._trip = ()
        return trip[cursor]

    # --------------------------------------------------------------- helpers
    def _full_trip(self) -> Tuple[int, ...]:
        """Ports of one complete round-robin trip starting and ending at home:
        every child leg (out and back) in cover order, then, through the
        common parent, every sibling leg in cover order."""
        graph = self.graph
        home = self.home
        ports: List[int] = []
        sibling_legs: List[int] = []
        to_parent: Optional[int] = None
        parent = home
        for c in self.covered:
            route = c.route_out
            if len(route) == 2:
                if to_parent is None:
                    to_parent = route[0]
                    parent = graph.neighbor(home, to_parent)
                out = route[1]
                sibling_legs.append(out)
                sibling_legs.append(graph.reverse_port(parent, out))
            else:
                out = route[0]
                ports.append(out)
                ports.append(graph.reverse_port(home, out))
        if to_parent is not None:
            ports.append(to_parent)
            ports.extend(sibling_legs)
            ports.append(graph.reverse_port(home, to_parent))
        return tuple(ports)

    def _path_home(self) -> Tuple[int, ...]:
        """Shortest port path from the current position back home.

        The oscillator is always within 2 hops of home, so this is at most two
        ports; the BFS below is simulator-side convenience and bounded by the
        same 2 hops (it never explores further).
        """
        start = self.agent.position
        if start == self.home:
            return ()
        # Direct neighbor?
        for port in self.graph.ports(start):
            if self.graph.neighbor(start, port) == self.home:
                return (port,)
        # Two hops: via any common neighbor (the parent node of a sibling trip).
        for port in self.graph.ports(start):
            mid = self.graph.neighbor(start, port)
            for port2 in self.graph.ports(mid):
                if self.graph.neighbor(mid, port2) == self.home:
                    return (port, port2)
        raise AssertionError(
            f"oscillator for agent {self.agent.agent_id} strayed more than 2 hops from home"
        )

    def stop(self) -> None:
        """Permanently stop oscillating (used once dispersion is complete)."""
        self._stopped = True
        self.agent.role = AgentRole.SETTLER
