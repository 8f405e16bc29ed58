"""Run one (algorithm, scenario) pair and flatten the outcome into a record.

A :class:`RunRecord` is the unit every artifact is made of: a flat, JSON-safe
summary of one execution -- the scenario spec, the graph's realized size, the
engine-measured metrics, and a status.  Failures are captured as data
(``status="error"``) rather than exceptions so a sweep always produces a
complete artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from repro.agents.agent import Agent
from repro.agents.memory import MemoryModel
from repro.graph.port_graph import PortLabeledGraph
from repro.runner.registry import AlgorithmSpec, get_algorithm, supports
from repro.runner.scenario import (
    ScenarioSpec,
    build_graph,
    build_instrumentation,
    build_placements,
    build_scheduler,
    derive_seed,
)
from repro.sim.adversary import Scheduler
from repro.sim.async_engine import AsyncEngine
from repro.sim.faults import FaultSchedule
from repro.sim.instrumentation import InstrumentationConfig, instrument
from repro.sim.sync_engine import SyncEngine

__all__ = ["RunRecord", "build_engine", "run_scenario"]


@dataclass
class RunRecord:
    """Flat summary of one dispersion run (JSON/CSV-friendly)."""

    algorithm: str
    scenario: Dict[str, Any]
    status: str = "ok"  # "ok" | "unsupported" | "error"
    error: Optional[str] = None
    n: Optional[int] = None
    m: Optional[int] = None
    k: Optional[int] = None
    dispersed: Optional[bool] = None
    time: Optional[int] = None
    time_unit: Optional[str] = None
    rounds: Optional[int] = None
    epochs: Optional[int] = None
    activations: Optional[int] = None
    total_moves: Optional[int] = None
    max_moves_per_agent: Optional[int] = None
    peak_memory_bits: Optional[int] = None
    peak_memory_log_units: Optional[float] = None
    fault_events: Optional[int] = None
    invariant_violations: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: The run's ``repro-trace-v1`` payload (:mod:`repro.sim.trace`); only
    #: present when the scenario enabled tracing.
    trace: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "algorithm": self.algorithm,
            "scenario": dict(self.scenario),
            "status": self.status,
            "error": self.error,
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "dispersed": self.dispersed,
            "time": self.time,
            "time_unit": self.time_unit,
            "rounds": self.rounds,
            "epochs": self.epochs,
            "activations": self.activations,
            "total_moves": self.total_moves,
            "max_moves_per_agent": self.max_moves_per_agent,
            "peak_memory_bits": self.peak_memory_bits,
            "peak_memory_log_units": self.peak_memory_log_units,
            "fault_events": self.fault_events,
            "invariant_violations": self.invariant_violations,
            "extra": dict(self.extra),
        }
        # Emitted only when present: every key above serializes for every
        # record, so an unconditional "trace": None would change the bytes of
        # every existing artifact and store row.
        if self.trace is not None:
            data["trace"] = dict(self.trace)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(**data)


def build_engine(
    scenario: Optional[ScenarioSpec] = None,
    *,
    setting: str = "sync",
    graph: Optional[PortLabeledGraph] = None,
    agents: Optional[Iterable[Agent]] = None,
    adversary: Optional[Scheduler] = None,
    max_rounds: Optional[int] = None,
    max_activations: Optional[int] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    record_fault_observations: bool = False,
    check_invariants: bool = False,
    backend: Optional[str] = None,
    trace: bool = False,
) -> Union[SyncEngine, AsyncEngine]:
    """The one factory behind every engine+injector+checker construction.

    Two modes share the same wiring (and replace the four copies that used to
    live in the runner, the conformance suite, and both engine facades):

    **Scenario mode** (``scenario`` given): materialize the spec's graph and
    placements, number agents ``1..k`` across the placement nodes in node
    order, build the spec's scheduler for ASYNC engines, and construct the
    engine under the spec's full instrumentation (faults, invariants,
    backend) exactly as :func:`run_scenario` instruments algorithm drivers.
    Keyword arguments override the corresponding spec-derived pieces.

    **Explicit mode** (``graph`` + ``agents`` given): wire a prepared world,
    optionally pinning an exact :class:`~repro.sim.faults.FaultSchedule` --
    the conformance suite's construction, where SYNC and ASYNC runs of one
    scenario must face the *same* adversary.

    ``setting`` picks the engine (``"sync"``/``"async"``); ``backend`` the
    kernel state layout (default: the scenario's, else ``"reference"``).
    """
    if scenario is not None:
        if graph is None:
            graph = build_graph(scenario)
        if agents is None:
            placements = build_placements(scenario, graph)
            model = MemoryModel(k=scenario.k, max_degree=graph.max_degree)
            agents = []
            next_id = 1
            for node in sorted(placements):
                for _ in range(placements[node]):
                    agents.append(Agent(next_id, node, model))
                    next_id += 1
        if adversary is None and setting == "async":
            adversary = build_scheduler(scenario)
        if backend is None:
            backend = scenario.backend
        config = build_instrumentation(scenario)
        if config is None and (record_fault_observations or check_invariants or trace):
            config = InstrumentationConfig()
        if config is not None:
            if record_fault_observations:
                config.record_fault_observations = True
            if check_invariants:
                config.check_invariants = True
            if trace:
                config.trace = True
    elif graph is None or agents is None:
        raise ValueError("build_engine needs a scenario or explicit graph+agents")
    else:
        config = None
        if fault_schedule is not None or check_invariants or trace:
            config = InstrumentationConfig(
                fault_schedule=fault_schedule,
                record_fault_observations=record_fault_observations,
                check_invariants=check_invariants,
                trace=trace,
            )
    with instrument(config):
        if setting == "sync":
            return SyncEngine(graph, agents, max_rounds=max_rounds, backend=backend)
        if setting == "async":
            return AsyncEngine(
                graph,
                agents,
                adversary=adversary,
                max_activations=max_activations,
                backend=backend,
            )
    raise ValueError(f"setting must be 'sync' or 'async', got {setting!r}")


def run_scenario(
    algorithm: str | AlgorithmSpec, scenario: ScenarioSpec
) -> RunRecord:
    """Execute one scenario under one algorithm and return its record.

    Never raises for model-level failures: incompatible (algorithm, placement)
    pairs come back with ``status="unsupported"`` and crashes with
    ``status="error"`` plus the exception text, so grid sweeps keep going.
    """
    spec = get_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    record = RunRecord(algorithm=spec.name, scenario=scenario.to_dict(), k=scenario.k)
    config = build_instrumentation(scenario)
    try:
        graph = build_graph(scenario)
        placements = build_placements(scenario, graph)
        record.n = graph.num_nodes
        record.m = graph.num_edges
        if not supports(spec, placements):
            record.status = "unsupported"
            record.error = (
                f"{spec.name} requires a rooted placement but got "
                f"{len(placements)} start nodes"
            )
            return record
        if not spec.supports_scheduler(scenario.scheduler):
            record.status = "unsupported"
            record.error = (
                f"{spec.name} is a SYNC algorithm (lockstep by construction); "
                f"the {scenario.scheduler!r} scheduler applies to ASYNC-capable "
                "algorithms only"
            )
            return record
        adversary = build_scheduler(scenario) if spec.setting == "async" else None
        with instrument(config):
            result = spec.run(
                graph,
                placements,
                adversary=adversary,
                seed=derive_seed(scenario, "algorithm"),
            )
    except Exception as exc:  # noqa: BLE001 - sweep robustness is the point
        record.status = "error"
        record.error = f"{type(exc).__name__}: {exc}"
        _record_instrumentation(record, config)
        return record

    metrics = result.metrics
    record.dispersed = bool(result.dispersed)
    record.time = metrics.time
    record.time_unit = spec.time_unit
    record.rounds = metrics.rounds
    record.epochs = metrics.epochs
    record.activations = metrics.activations
    record.total_moves = metrics.total_moves
    record.max_moves_per_agent = metrics.max_moves_per_agent
    record.peak_memory_bits = metrics.peak_memory_bits
    record.peak_memory_log_units = metrics.peak_memory_log_units
    record.extra = {name: float(value) for name, value in sorted(metrics.extra.items())}
    _record_instrumentation(record, config)
    return record


def _record_instrumentation(
    record: RunRecord, config: Optional[InstrumentationConfig]
) -> None:
    """Lift fault/invariant counts onto the record (even for aborted runs).

    Counts come from the config's live instances rather than the metrics
    extras: a crashed run never reaches ``finalize_metrics``, but a fault sweep
    must still report how many faults fired before the algorithm gave up.
    """
    if config is None:
        return
    if config.faults is not None:
        record.fault_events = config.fault_events()
    if config.check_invariants:
        record.invariant_violations = config.violation_count()
    if config.trace and config.recorders:
        from repro.sim.trace import trace_payload

        record.trace = trace_payload(config.recorders, algorithm=record.algorithm)
