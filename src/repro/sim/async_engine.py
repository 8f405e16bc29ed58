"""Asynchronous execution engine (the paper's ASYNC setting).

Agents have no common notion of time.  An *activation* is one full
Communicate–Compute–Move cycle of a single agent; the scheduler
(:mod:`repro.sim.adversary`) decides who is activated next, subject only to the
fairness guarantee that every agent is activated infinitely often.  Time is
measured in *epochs*: epoch ``i`` is the smallest interval after epoch ``i-1``
within which every agent has completed at least one cycle.  The engine counts
epochs exactly that way -- the algorithms never self-report time.

Algorithms drive agents through small *programs*: Python generators that yield
one action per CCM cycle.  Three actions exist:

* :class:`Move` -- exit the current node through a port (one edge per cycle),
* :class:`Stay` -- a cycle with no movement (pure compute/communicate),
* :class:`WaitUntil` -- remain at the node until a locally-observable predicate
  becomes true; every failed check consumes one cycle, which is how the paper's
  algorithms "wait for all probers to return" under asynchrony.

Program code runs only while its agent is activated, so any reads/writes it
performs against co-located agents model the Communicate/Compute phases of that
agent's own cycle.

Like :class:`~repro.sim.sync_engine.SyncEngine`, this engine schedules the
shared :class:`~repro.sim.kernel.ExecutionKernel`: the kernel owns the world
(agent table, occupancy, move mechanics, fault wiring, observation queries,
asked of ``engine.kernel``) while this class contributes the activation-level
scheduling discipline -- program/pending bookkeeping, epoch counting, and the
per-cycle fault clock.  Because scheduling is fully delegated to the pluggable
:class:`~repro.sim.adversary.Scheduler` family, the same engine covers the
entire non-lockstep synchrony spectrum: classic ASYNC adversaries,
semi-synchronous round subsets, and k-bounded-delay schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Set, Union

from repro.agents.agent import Agent
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.adversary import RandomAdversary, Scheduler
from repro.sim.backends import KernelBackend
from repro.sim.faults import FaultInjector
from repro.sim.invariants import InvariantChecker
from repro.sim.kernel import ExecutionKernel
from repro.sim.metrics import RunMetrics

__all__ = ["Move", "Stay", "WaitUntil", "AsyncEngine"]


@dataclass(frozen=True)
class Move:
    """Exit the current node through ``port`` this cycle."""

    port: int


@dataclass(frozen=True)
class Stay:
    """A cycle in which the agent does not move."""


@dataclass(frozen=True)
class WaitUntil:
    """Block at the current node until ``predicate()`` is true.

    The predicate must depend only on information observable at the agent's
    node (co-located agents' memory and the agent's own state); every check
    consumes one activation of the waiting agent.
    """

    predicate: Callable[[], bool]


Action = Union[Move, Stay, WaitUntil]
Program = Iterator[Action]


class AsyncEngine:
    """Activation-level scheduler for ASYNC executions.

    Parameters
    ----------
    graph, agents:
        The substrate and population, as for :class:`~repro.sim.sync_engine.SyncEngine`.
    adversary:
        Activation policy (any :class:`~repro.sim.adversary.Scheduler`);
        defaults to :class:`RandomAdversary` with seed 0.
    max_activations:
        Safety cap turning livelock bugs into test failures.
    fault_injector, invariant_checker:
        Optional fault model and run-time safety checks (see
        :mod:`repro.sim.faults` / :mod:`repro.sim.invariants`); resolved from
        the ambient :mod:`repro.sim.instrumentation` context when omitted.
    backend:
        World-state representation (:mod:`repro.sim.backends`): a registry
        name or instance; ``None`` resolves from the ambient context, falling
        back to the ``"reference"`` default.

    Scenario-level wiring lives one layer up in
    :func:`repro.runner.execute.build_engine`.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        agents: Iterable[Agent],
        adversary: Optional[Scheduler] = None,
        max_activations: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
        invariant_checker: Optional[InvariantChecker] = None,
        backend: Union[None, str, KernelBackend] = None,
    ) -> None:
        self._kernel = ExecutionKernel(
            graph,
            agents,
            time_attr="activations",
            fault_injector=fault_injector,
            invariant_checker=invariant_checker,
            backend=backend,
        )
        self.adversary = adversary if adversary is not None else RandomAdversary(0)
        self.adversary.bind(sorted(self._kernel.agents))
        self.adversary.attach(self)
        self.max_activations = max_activations
        self._programs: Dict[int, Optional[Program]] = {
            a: None for a in self._kernel.agents
        }
        self._pending: Dict[int, Optional[Action]] = {
            a: None for a in self._kernel.agents
        }
        self._active_this_epoch: Set[int] = set()

    # ------------------------------------------------------- kernel delegation
    @property
    def kernel(self) -> ExecutionKernel:
        """The shared execution kernel this engine schedules."""
        return self._kernel

    @property
    def graph(self) -> PortLabeledGraph:
        return self._kernel.graph

    @property
    def agents(self) -> Dict[int, Agent]:
        return self._kernel.agents

    @property
    def metrics(self) -> RunMetrics:
        return self._kernel.metrics

    # ------------------------------------------------------------- programs
    def assign(self, agent_id: int, program: Program) -> None:
        """Install a program on an agent (overwrites any previous program).

        By convention the caller is an algorithm acting on behalf of an agent
        co-located with ``agent_id`` (writing its memory during the Communicate
        phase), or the initial setup before time starts.
        """
        self._programs[agent_id] = program
        self._pending[agent_id] = None

    def is_idle(self, agent_id: int) -> bool:
        """True when the agent has no program and no pending action."""
        return self._programs[agent_id] is None and self._pending[agent_id] is None

    def cancel(self, agent_id: int) -> None:
        """Drop an agent's pending program/action (the instructing agent is
        co-located and rewrites its orders, e.g. a see-off escort that is no
        longer needed)."""
        self._programs[agent_id] = None
        self._pending[agent_id] = None

    # ------------------------------------------------------------ scheduling
    def run_until(self, predicate: Callable[[], bool]) -> None:
        """Activate agents (per the scheduler) until ``predicate()`` is true.

        The predicate is checked once before the run and then after every
        activation.
        """
        metrics = self._kernel.metrics
        while not predicate():
            self._activate(self.adversary.next_agent())
            if self.max_activations is not None and metrics.activations > self.max_activations:
                raise RuntimeError(
                    f"exceeded max_activations={self.max_activations}; "
                    "the algorithm is probably livelocked"
                )
        self.close_epoch()

    def close_epoch(self) -> None:
        """Count a trailing partial epoch (conservative rounding up)."""
        if self._active_this_epoch:
            self._kernel.metrics.epochs += 1
            self._active_this_epoch.clear()

    def _activate(self, agent_id: int) -> None:
        kernel = self._kernel
        agent = kernel.agents[agent_id]
        now = kernel.metrics.activations
        kernel.metrics.activations = now + 1
        injector = kernel.fault_injector
        checker = kernel.invariant_checker
        if injector is not None:
            injector.begin_tick(now, self)
            if injector.view(agent_id, now).blocked_for_cycle:
                # A crashed/frozen agent is scheduled but performs no cycle; it
                # does not count toward the epoch (an epoch ends only when every
                # agent *completes* a CCM cycle).
                injector.record_blocked(agent_id, now)
                if checker is not None:
                    checker.after_tick(now + 1)
                if kernel.trace is not None:
                    kernel.trace.record_activation(agent_id)
                return

        # Program code running below belongs to this activation: any fault
        # query it makes (agents_at, fault_view) is answered at tick ``now``,
        # matching the blocked check above.
        kernel.cycle_time = now
        try:
            action = self._pending[agent_id]
            if action is None:
                program = self._programs[agent_id]
                if program is not None:
                    try:
                        action = next(program)
                    except StopIteration:
                        self._programs[agent_id] = None
                        action = None
            if action is not None:
                if isinstance(action, Move):
                    if (
                        injector is not None
                        and injector.view(agent_id, now).blocked_for_move
                    ):
                        # A mobility-only fault (cycle runs, crossing doesn't):
                        # defer the Move exactly as a failed WaitUntil defers.
                        # Crash/freeze never reach here -- they block the whole
                        # cycle above.
                        self._pending[agent_id] = action
                    else:
                        kernel.apply_move(agent, action.port)
                        self._pending[agent_id] = None
                elif isinstance(action, Stay):
                    self._pending[agent_id] = None
                elif isinstance(action, WaitUntil):
                    if action.predicate():
                        self._pending[agent_id] = None
                    else:
                        self._pending[agent_id] = action
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown action {action!r}")
        finally:
            kernel.cycle_time = None

        # Epoch bookkeeping: this agent completed one CCM cycle.
        self._active_this_epoch.add(agent_id)
        if len(self._active_this_epoch) == len(kernel.agents):
            kernel.metrics.epochs += 1
            self._active_this_epoch.clear()
        if checker is not None:
            checker.after_tick(now + 1)
        if kernel.trace is not None:
            kernel.trace.record_activation(agent_id)

    def finalize_metrics(self) -> RunMetrics:
        """Fold per-agent memory peaks (and any fault/invariant counters) into
        the run metrics and return them."""
        self.close_epoch()
        return self._kernel.finalize_metrics()
