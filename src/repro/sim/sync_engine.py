"""Synchronous execution engine (the paper's SYNC setting).

In SYNC every agent executes its Communicate–Compute–Move cycle in lockstep:
one *round* consists of every agent optionally crossing one incident edge, all
moves happening simultaneously.  The engine therefore exposes a single
primitive, :meth:`SyncEngine.step`, which takes the batch of moves for this
round (``agent_id -> port``), executes them in parallel, and advances the round
counter.  Time complexity of a SYNC algorithm is exactly the number of
``step`` calls it makes -- it is never self-reported.

The engine schedules the shared :class:`~repro.sim.kernel.ExecutionKernel`:
the kernel owns the world (agent table, occupancy, move mechanics, fault
wiring, observation queries) while this class contributes only the lockstep
scheduling discipline -- the round counter, the per-round fault gate, and the
simultaneous move batch.  The co-location queries implementing the local
communication model (an agent may inspect, and by convention of the
algorithms write to, the memory of agents at its own node only) are asked of
``engine.kernel``; the engine does not forward them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

from repro.agents.agent import Agent
from repro.graph.port_graph import PortLabeledGraph
from repro.sim.backends import KernelBackend
from repro.sim.faults import FaultInjector
from repro.sim.invariants import InvariantChecker
from repro.sim.kernel import ExecutionKernel
from repro.sim.metrics import RunMetrics

__all__ = ["SyncEngine"]


class SyncEngine:
    """Round-synchronous mover for a set of agents on a port-labeled graph.

    Parameters
    ----------
    graph:
        The anonymous port-labeled graph.
    agents:
        The agents, each already carrying its start position.
    max_rounds:
        Safety cap; exceeding it raises ``RuntimeError`` (used by tests to turn
        non-termination bugs into failures instead of hangs).
    fault_injector, invariant_checker:
        Optional fault model and run-time safety checks (see
        :mod:`repro.sim.faults` / :mod:`repro.sim.invariants`).  When omitted,
        both are resolved from the ambient instrumentation context
        (:mod:`repro.sim.instrumentation`), which is how the experiment runner
        instruments engines that algorithm drivers construct internally.
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
        max_rounds: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
        invariant_checker: Optional[InvariantChecker] = None,
        backend: Union[None, str, KernelBackend] = None,
    ) -> None:
        self._kernel = ExecutionKernel(
            graph,
            agents,
            time_attr="rounds",
            fault_injector=fault_injector,
            invariant_checker=invariant_checker,
            backend=backend,
        )
        self.max_rounds = max_rounds

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

    # ----------------------------------------------------------------- round
    def step(self, moves: Mapping[int, Optional[int]] | None = None) -> None:
        """Execute one synchronous round.

        ``moves`` maps agent id to the port it exits through this round; agents
        absent from the mapping (or mapped to ``None``) stay put.  All moves are
        validated against the *current* positions and then applied
        simultaneously, exactly as in the SYNC model (no agent observes another
        on an edge).
        """
        kernel = self._kernel
        metrics = kernel.metrics
        if self.max_rounds is not None and metrics.rounds >= self.max_rounds:
            raise RuntimeError(
                f"exceeded max_rounds={self.max_rounds}; "
                "the algorithm is probably not terminating"
            )
        injector = kernel.fault_injector
        if injector is not None:
            now = metrics.rounds
            injector.begin_tick(now, self)
            blocked = injector.blocked_cycle_agents(now)
            if blocked:
                # A crashed/frozen agent skips its *entire* CCM cycle this
                # round (v2 contract): its move is dropped below, and the
                # co-location queries already hid it from every Communicate
                # interaction, so it can neither settle nor answer probes --
                # exactly as the ASYNC engine skips a blocked activation.
                for agent_id in sorted(blocked):
                    if agent_id in kernel.agents:
                        injector.record_blocked(agent_id, now)
            if moves:
                moves = {
                    a: p
                    for a, p in moves.items()
                    if not injector.view(a, now).blocked_for_move
                }
        if moves:
            kernel.apply_batch(moves)
        metrics.rounds += 1
        if kernel.invariant_checker is not None:
            kernel.invariant_checker.after_tick(metrics.rounds)
        if kernel.trace is not None:
            kernel.trace.record_tick()

    def idle_rounds(self, count: int) -> None:
        """Advance ``count`` rounds in which nobody the caller controls moves.

        Background processes (oscillators) are *not* advanced by this method --
        it exists only for algorithms with no background activity that must wait
        (e.g. the sequential-probe baselines waiting for a reply convention).
        Rides the backend's :meth:`~repro.sim.backends.KernelBackend.run_phase`
        batch primitive (O(1) on the vectorized backend when no injector,
        checker, or trace must observe the individual rounds).
        """
        self._kernel.backend.run_phase(self, count)

    def step_path(
        self,
        walker_ids: Sequence[int],
        start: int,
        ports: Sequence[int],
        counter: Optional[str] = None,
    ) -> int:
        """Walk the pack ``walker_ids`` from ``start`` down the port path, one
        round per hop; returns the node at the end of the path.

        Each hop moves exactly the walkers still standing on the path head (a
        fault-dropped walker falls out of the pack and is left where it
        stalled); ``counter`` names a metrics counter bumped once per hop.
        Rides the backend's
        :meth:`~repro.sim.backends.KernelBackend.run_scatter` batch primitive.
        """
        return self._kernel.backend.run_scatter(
            self, walker_ids, start, ports, counter=counter
        )

    def finalize_metrics(self) -> RunMetrics:
        """Fold per-agent memory peaks (and any fault/invariant counters) into
        the run metrics and return them."""
        return self._kernel.finalize_metrics()
