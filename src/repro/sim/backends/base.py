"""The kernel-backend protocol: world state + move mechanics, swappable.

The :class:`~repro.sim.kernel.ExecutionKernel` owns the *semantics* of a run
(the fault clock, the v2 fault-visibility contract, metrics finalization); a
:class:`KernelBackend` owns the *representation* -- where agent positions and
per-node occupancy live and how a batch of moves lands.  Splitting the two
gives one engine facade pair (SYNC/ASYNC) over interchangeable state layouts:

* :class:`~repro.sim.backends.reference.ReferenceBackend` -- the original
  per-agent Python loop, extracted unchanged.  It is the **oracle**: the
  differential suite pins every other backend to its observable behaviour.
* :class:`~repro.sim.backends.vectorized.VectorizedBackend` -- numpy
  struct-of-arrays over the graph's CSR port tables, for 10^5..10^6-node
  worlds (requires the ``fast`` extra).

Backends expose two tiers:

**Per-operation tier** (``apply_move`` / ``apply_batch`` and the raw state
queries).  This is the engine contract: every backend must be *exactly*
interchangeable here -- same mutations, same metrics accounting, same error
messages, same query results -- so algorithm drivers produce byte-identical
records on any backend.

**Batch-stepping tier** -- the driver-phase primitives: the settled-agent
queries (:meth:`settled_present` / :meth:`home_settler_at` /
:meth:`has_home_settler`), :meth:`run_probe_round`, :meth:`run_scatter`, and
:meth:`run_phase`.  Whole phases executed inside the backend, without
returning to Python per agent.  This is where a vectorized backend earns its
keep: the base class provides generic per-agent implementations (the oracle
legs of ``repro bench``), and fast backends override them with array code.
Every primitive is deterministic, so the tier inherits the per-op parity
contract: every backend must produce byte-identical records (same mutations,
metrics, error messages, query answers).  The DFS/probe-style algorithm
drivers in :mod:`repro.core` ride these, which is what puts the paper's own
algorithms on the fast path (``tests/test_backend_differential.py`` pins the
equivalence).

The batch tier honours crash/freeze fault masks and edge churn via the
kernel's injector, and defers to the generic per-round path whenever a
checker or trace recorder must observe every round.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Dict, List, Mapping, Optional, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agents.agent import Agent
    from repro.sim.kernel import ExecutionKernel
    from repro.sim.sync_engine import SyncEngine

__all__ = ["KernelBackend"]


class KernelBackend(ABC):
    """World-state representation behind one :class:`ExecutionKernel`.

    A backend instance is bound to exactly one kernel (:meth:`bind`); the
    kernel delegates all state mutation and raw observation to it, keeping
    fault filtering and metrics finalization to itself.
    """

    #: Registry name (``"reference"``, ``"vectorized"``, ...).
    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        self.kernel: Optional["ExecutionKernel"] = None

    def bind(self, kernel: "ExecutionKernel") -> None:
        """Attach to ``kernel`` and build state from its agent table."""
        self.kernel = kernel
        self.rebuild()

    # ------------------------------------------------------------------ state
    @abstractmethod
    def rebuild(self) -> None:
        """(Re)derive all backend state from ``self.kernel``'s agents/graph."""

    @property
    @abstractmethod
    def occupancy(self) -> List[Set[int]]:
        """Dense per-node sets of present agent ids.

        The *same live object* across calls: adversaries and tests hold a
        reference to it, so backends must update it in place.
        """

    # --------------------------------------------------------------- movement
    @abstractmethod
    def apply_move(self, agent: "Agent", port: int) -> None:
        """Cross one edge in a single-agent activation (the ASYNC primitive)."""

    @abstractmethod
    def apply_batch(self, moves: Mapping[int, Optional[int]]) -> None:
        """Apply one round's move batch simultaneously (the SYNC primitive)."""

    def notify_settle(self, agent: "Agent") -> None:
        """``agent`` just settled (position == home).  The kernel observes
        every agent and forwards here; backends with a settled index update
        it, the default keeps none."""

    def notify_unsettle(self, agent: "Agent") -> None:
        """``agent`` is about to unsettle, its state still intact (forwarded
        by the kernel like :meth:`notify_settle`)."""

    # ------------------------------------------------------------ observation
    @abstractmethod
    def present_ids(self, node: int) -> List[int]:
        """Sorted ids of every agent body at ``node`` (no fault filtering)."""

    @abstractmethod
    def occupied(self, node: int) -> bool:
        """True when at least one agent body is at ``node``."""

    @abstractmethod
    def positions(self) -> Dict[int, int]:
        """Snapshot of ``agent_id -> node``."""

    @abstractmethod
    def occupancy_counts(self) -> Sequence[int]:
        """Per-node body counts (the occupancy histogram)."""

    # ------------------------------------------------- settled-agent queries
    # Driver-phase primitives.  They are deterministic, so they inherit the
    # per-op parity contract: overrides must be observably exact.  The generic bodies below are the repro.core driver loops they
    # replaced, verbatim -- fault filtering rides kernel.agents_at (the v2
    # Communicate query), and none of them count trace probes (the loops they
    # replaced never did; only settled_agent_at/settled_agents_at do).

    def settled_present(self, node: int, exclude_id: Optional[int] = None) -> bool:
        """True when a settled agent other than ``exclude_id`` communicates at
        ``node`` (Sync_Probe's "did my seeker meet anyone" question)."""
        for other in self.kernel.agents_at(node):
            if other.agent_id != exclude_id and other.settled:
                return True
        return False

    def home_settler_at(self, node: int) -> Optional["Agent"]:
        """The min-id communicating agent settled with ``home == node``."""
        for agent in self.kernel.agents_at(node):
            if agent.settled and agent.home == node:
                return agent
        return None

    def has_home_settler(self, node: int, exclude_id: Optional[int] = None) -> bool:
        """True when some communicating agent other than ``exclude_id`` is
        settled with ``home == node`` (the scatter "is this node free" test)."""
        for agent in self.kernel.agents_at(node):
            if agent.settled and agent.home == node and agent.agent_id != exclude_id:
                return True
        return False

    def run_probe_round(
        self, nodes: Sequence[int], exclude_ids: Sequence[int]
    ) -> List[bool]:
        """One probe round, batched: element ``i`` answers whether a settled
        agent other than ``exclude_ids[i]`` communicates at ``nodes[i]``.

        The two parallel sequences (rather than pairs) let bulk callers pass
        prebuilt arrays straight through to a vectorized override.
        """
        return [
            self.settled_present(node, exclude)
            for node, exclude in zip(nodes, exclude_ids)
        ]

    # --------------------------------------------------------- phase driving
    def run_scatter(
        self,
        engine: "SyncEngine",
        walker_ids: Sequence[int],
        start: int,
        ports: Sequence[int],
        counter: Optional[str] = None,
    ) -> int:
        """Drive a scatter pack from ``start`` down the port path, one engine
        round per hop; returns the node at the end of the path.

        Each hop moves exactly the walkers still standing on the path head (a
        walker whose move was fault-dropped falls out of the pack, exactly as
        in the per-round driver loop this replaces), and bumps ``counter``
        when given.  Every hop is a real :meth:`SyncEngine.step`, so fault
        gates, invariant checks, and tracing all fire per round.
        """
        kernel = self.kernel
        agents = kernel.agents
        graph = kernel.graph
        walkers = [agents[a] for a in walker_ids]
        current = start
        for port in ports:
            moves = {a.agent_id: port for a in walkers if a.position == current}
            engine.step(moves)
            current = graph.neighbor(current, port)
            if counter is not None:
                kernel.metrics.bump(counter)
        return current

    def run_phase(self, engine: "SyncEngine", rounds: int) -> None:
        """Advance ``rounds`` idle rounds (nobody the caller controls moves)
        in one backend call; vectorized backends collapse the fault-free,
        untraced case to O(1) instead of O(rounds) Python iterations."""
        for _ in range(rounds):
            engine.step({})
