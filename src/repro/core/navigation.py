"""Per-node navigation records with per-agent memory charging.

Graph nodes are memoryless, so every piece of per-node DFS state the paper's
SYNC algorithm uses (parent port, forward-move counter, the sibling-pointer
child records of Lemma 9, re-traversal cursors, ...) must physically live in the
memory of an agent located at -- or oscillating over -- that node:

* for a settled node, the settler at that node holds the record,
* for an empty node, the oscillating settler covering it holds the record
  (each oscillator covers at most 3 empty nodes, so it holds at most 3 extra
  records -- a constant number of ``O(log(k+Δ))``-bit fields).

For implementation clarity the records are indexed centrally in a
:class:`NavLedger`, but every field is *charged* to the owning agent's
:class:`~repro.agents.memory.AgentMemory`, and the dispersion driver only reads
or writes a record while the owning agent is co-located with the DFS head
(it explicitly waits for oscillating owners to come by).  This keeps both the
time accounting (waits are real simulated rounds) and the memory accounting
honest while avoiding a fully distributed data structure in Python.

The child information is chunked exactly as in the paper's sibling-pointer
technique: a node's record stores the ports of its first three children plus an
*anchor* port to the fourth child; the fourth child's record stores the next two
sibling ports plus the anchor to the seventh child, and so on.  No agent ever
stores more than a constant number of port fields per node it owns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.agents.agent import Agent
from repro.agents.memory import FieldKind

__all__ = ["NavRecord", "NavLedger"]


@dataclass
class NavRecord:
    """Persistent DFS bookkeeping for one tree node.

    All fields are ``O(log(k + Δ))`` bits; see the field kinds charged in
    :meth:`NavLedger._charge`.
    """

    parent_port: Optional[int] = None       # port to the DFS-tree parent (⊥ at the root)
    depth_parity: int = 0                   # depth mod 2 (1 bit)
    occupied: bool = False                  # does the node currently hold a settler?
    forward_count: int = 0                  # x of Forward_Move: children discovered so far
    leaf_child_count: int = 0               # x of Backtrack_Move: leaf children seen so far
    leaf_anchor_port: Optional[int] = None  # port to the latest *kept* leaf child
    child_group: List[int] = field(default_factory=list)   # ports of children 1..3
    next_anchor: Optional[int] = None       # port of child 4 (first sibling anchor)
    latest_anchor: Optional[int] = None     # port of the latest anchor child (4, 7, ...)
    sibling_group: List[int] = field(default_factory=list)  # as an anchor: ports (at the parent) of the next ≤2 siblings
    sibling_next_anchor: Optional[int] = None  # as an anchor: port (at the parent) of the next anchor sibling
    rt_initialized: bool = False            # re-traversal: has this node been initialized?
    rt_is_anchor: bool = False              # re-traversal: is this node an anchor child of its parent?
    rt_queue: List[int] = field(default_factory=list)  # re-traversal: pending child ports (≤ 4)
    rt_anchor_port: Optional[int] = None    # re-traversal: current anchor child port


# (field name, FieldKind, is_list) charged per record; the list fields are
# bounded by 3 and 2 entries respectively, so the total stays O(log(k + Δ)).
_RECORD_FIELDS = (
    ("parent_port", FieldKind.PORT, False),
    ("depth_parity", FieldKind.FLAG, False),
    ("occupied", FieldKind.FLAG, False),
    ("forward_count", FieldKind.COUNTER_DELTA, False),
    ("leaf_child_count", FieldKind.COUNTER_DELTA, False),
    ("leaf_anchor_port", FieldKind.PORT, False),
    ("child_group", FieldKind.PORT, True),
    ("next_anchor", FieldKind.PORT, False),
    ("latest_anchor", FieldKind.PORT, False),
    ("sibling_group", FieldKind.PORT, True),
    ("sibling_next_anchor", FieldKind.PORT, False),
    ("rt_initialized", FieldKind.FLAG, False),
    ("rt_is_anchor", FieldKind.FLAG, False),
    ("rt_queue", FieldKind.PORT, True),
    ("rt_anchor_port", FieldKind.PORT, False),
)

_MAX_LIST_LEN = {"child_group": 3, "sibling_group": 2, "rt_queue": 4}

# field name -> (FieldKind, ((memory-name suffix, list index or None), ...)),
# in ``_RECORD_FIELDS`` order; a list field has one slot per possible entry.
_FIELD_SLOTS = {
    name: (
        kind,
        tuple((f".{name}[{i}]", i) for i in range(_MAX_LIST_LEN[name]))
        if is_list
        else ((f".{name}", None),),
    )
    for name, kind, is_list in _RECORD_FIELDS
}


class NavLedger:
    """All per-node navigation records, each charged to its owning agent."""

    def __init__(self) -> None:
        self._records: Dict[int, NavRecord] = {}
        self._owners: Dict[int, Agent] = {}

    # -------------------------------------------------------------- lifecycle
    def create(self, node: int, owner: Agent, **initial) -> NavRecord:
        """Create the record for ``node`` owned by ``owner``."""
        if node in self._records:
            raise ValueError(f"record for node {node} already exists")
        record = NavRecord(**initial)
        self._records[node] = record
        self._owners[node] = owner
        self._charge(node, owner, record)
        return record

    def get(self, node: int) -> NavRecord:
        return self._records[node]

    def has(self, node: int) -> bool:
        return node in self._records

    def owner(self, node: int) -> Agent:
        return self._owners[node]

    def transfer(self, node: int, new_owner: Agent) -> None:
        """Move ownership (and the memory charge) of a record to another agent."""
        record = self._records[node]
        old = self._owners[node]
        self._discharge(node, old)
        self._owners[node] = new_owner
        self._charge(node, new_owner, record)

    # ------------------------------------------------------------- mutation
    def update(self, node: int, **changes) -> None:
        """Mutate record fields and charge the changed ones to the owner.

        Only the fields named in ``changes`` are recharged, in
        ``_RECORD_FIELDS`` order; the others hold the values their last
        charge wrote, so the owner's running bit total passes through the
        same values, and reaches the same peak, as a full recharge would.
        """
        record = self._records[node]
        for name, value in changes.items():
            if name not in _FIELD_SLOTS:
                raise AttributeError(f"NavRecord has no field {name!r}")
            if name in _MAX_LIST_LEN and isinstance(value, list):
                if len(value) > _MAX_LIST_LEN[name]:
                    raise ValueError(
                        f"{name} may hold at most {_MAX_LIST_LEN[name]} ports "
                        f"(got {len(value)}); the sibling-pointer chunking was violated"
                    )
            setattr(record, name, value)
        self._charge(
            node, self._owners[node], record, [name for name in _FIELD_SLOTS if name in changes]
        )

    def append_child_port(self, node: int, port: int) -> None:
        """Append a port to the node's first child group (ports of children 1..3)."""
        record = self._records[node]
        self.update(node, child_group=record.child_group + [port])

    def append_sibling_port(self, node: int, port: int) -> None:
        """Append a port to the node's sibling group (when the node is an anchor)."""
        record = self._records[node]
        self.update(node, sibling_group=record.sibling_group + [port])

    # ------------------------------------------------------------ accounting
    def _charge(
        self, node: int, owner: Agent, record: NavRecord, names: Iterable[str] = _FIELD_SLOTS
    ) -> None:
        """Write the slots of the ``names`` fields (default: all) to the
        owner's memory; an unset slot is cleared."""
        memory = owner.memory
        prefix = f"nav[{node}]"
        for name in names:
            kind, slots = _FIELD_SLOTS[name]
            value = getattr(record, name)
            for suffix, index in slots:
                if index is None:
                    memory.write(prefix + suffix, value, kind)
                else:
                    memory.write(
                        prefix + suffix, value[index] if index < len(value) else None, kind
                    )

    def _discharge(self, node: int, owner: Agent) -> None:
        memory = owner.memory
        prefix = f"nav[{node}]"
        for kind, slots in _FIELD_SLOTS.values():
            for suffix, _index in slots:
                memory.write(prefix + suffix, None, kind)
