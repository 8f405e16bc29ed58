"""The mobile agent (paper Section 2, "Agents").

An :class:`Agent` owns

* a unique positive integer identifier (``a_i.ID``),
* a current position (a node of the graph -- simulator bookkeeping; the agent
  itself cannot read the node's identity, only its degree and the incoming
  port),
* the read-only incoming port ``pin`` set by the simulator after each move,
* a *role* describing what the agent is currently doing (explorer, seeker,
  settler, ...), and
* an :class:`~repro.agents.memory.AgentMemory` holding all persistent state the
  algorithm stores on the agent, with bit accounting.

Roles exist purely for readability of the algorithms and the traces; they mirror
the paper's vocabulary (Section 4.2).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.agents.memory import AgentMemory, FieldKind, MemoryModel

__all__ = ["AgentRole", "Agent"]


class AgentRole(enum.Enum):
    """What an agent is currently doing, using the paper's vocabulary."""

    EXPLORER = "explorer"          # travels with the DFS head, will settle later
    SEEKER = "seeker"              # reserved for synchronous probing (SYNC)
    SETTLER = "settler"            # settled at its home node, not oscillating
    OSCILLATOR = "oscillator"      # settled, currently covering empty nodes
    HELPER = "helper"              # settled agent temporarily helping Async_Probe
    LEADER = "leader"              # a_max, conducts the DFS


class Agent:
    """A single mobile agent.

    Parameters
    ----------
    agent_id:
        Unique positive integer identifier.
    start_node:
        Initial position (node index).
    memory_model:
        The :class:`MemoryModel` fixing per-field bit costs.
    """

    __slots__ = (
        "agent_id",
        "position",
        "pin",
        "role",
        "settled",
        "home",
        "treelabel",
        "memory",
        "unsettle_count",
        "_observer",
    )

    def __init__(self, agent_id: int, start_node: int, memory_model: MemoryModel) -> None:
        if agent_id <= 0:
            raise ValueError("agent IDs must be positive integers")
        self.agent_id = agent_id
        self.position = start_node
        self.pin: Optional[int] = None  # incoming port, ⊥ at time 0
        self.role = AgentRole.EXPLORER
        self.settled = False
        self.home: Optional[int] = None  # home node once settled (simulator view)
        self.treelabel: Optional[int] = None
        #: Sanctioned un-settlements so far (Backtrack_Move, subsumption); the
        #: invariant checker uses this to tell legitimate settled-count drops
        #: from state corruption.
        self.unsettle_count = 0
        #: The execution kernel this agent runs in (None before one is
        #: built), told of every settle/unsettle to keep its settled tallies
        #: and the backend's index current; set by the kernel, never by
        #: algorithm code.  Agents stay observable-state-identical either way.
        self._observer = None
        self.memory = AgentMemory(memory_model)
        # Every agent persistently stores its own ID (the Ω(log k) lower bound).
        self.memory.write("ID", agent_id, FieldKind.ID)
        # settled flag and pin are part of the persistent state.
        self.memory.write("settled", False, FieldKind.FLAG)
        self.memory.write("pin", 0, FieldKind.PORT)

    # ----------------------------------------------------------------- moves
    def arrive(self, node: int, incoming_port: int) -> None:
        """Simulator callback: the agent crossed an edge and arrived at ``node``."""
        self.position = node
        self.pin = incoming_port
        self.memory.write("pin", incoming_port, FieldKind.PORT)

    # ----------------------------------------------------------------- state
    def settle(self, node: int, parent_port: Optional[int], treelabel: Optional[int] = None) -> None:
        """Mark the agent as settled at ``node``.

        ``parent_port`` is the port of ``node`` leading to its DFS-tree parent
        (``None``/⊥ for a DFS root), stored persistently as the paper's
        ``α(w).parent``.
        """
        if self._observer is not None and self.settled:
            self._observer.notify_unsettle(self)  # re-settling moves the index entry
        self.settled = True
        self.home = node
        self.role = AgentRole.SETTLER
        self.memory.write("settled", True, FieldKind.FLAG)
        self.memory.write("parent", 0 if parent_port is None else parent_port, FieldKind.PORT)
        if treelabel is not None:
            self.treelabel = treelabel
            self.memory.write("treelabel", treelabel, FieldKind.LABEL)
        if self._observer is not None:
            self._observer.notify_settle(self)

    def unsettle(self) -> None:
        """Turn a settled agent back into an explorer (Backtrack_Move, subsumption)."""
        if self._observer is not None and self.settled:
            self._observer.notify_unsettle(self)  # needs the pre-reset home
        self.settled = False
        self.home = None
        self.role = AgentRole.EXPLORER
        self.unsettle_count += 1
        self.memory.write("settled", False, FieldKind.FLAG)
        self.memory.clear("parent")

    @property
    def parent_port(self) -> Optional[int]:
        """Port to the DFS-tree parent (``None`` when unset or ⊥)."""
        value = self.memory.read("parent")
        if value in (None, 0):
            return None
        return int(value)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Agent(id={self.agent_id}, at={self.position}, role={self.role.value}, "
            f"settled={self.settled})"
        )
