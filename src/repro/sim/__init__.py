"""Execution substrates: one shared world kernel behind synchronous-round and
asynchronous-CCM facades, a pluggable scheduler family spanning the synchrony
spectrum, plus the fault-injection and invariant-checking layers that stress
them."""

from repro.sim.kernel import ExecutionKernel
from repro.sim.sync_engine import SyncEngine
from repro.sim.async_engine import AsyncEngine, Move, Stay, WaitUntil
from repro.sim.adversary import (
    AdaptiveCollisionAdversary,
    BoundedDelayScheduler,
    LazySettlerAdversary,
    LockstepScheduler,
    RandomAdversary,
    RoundRobinAdversary,
    Scheduler,
    SemiSyncScheduler,
    StarvationAdversary,
)
from repro.sim.faults import FaultEvent, FaultInjector, FaultSpec, parse_faults
from repro.sim.instrumentation import InstrumentationConfig, current, instrument
from repro.sim.invariants import InvariantChecker, InvariantError, InvariantViolation
from repro.sim.metrics import RunMetrics
from repro.sim.result import DispersionResult

__all__ = [
    "ExecutionKernel",
    "SyncEngine",
    "AsyncEngine",
    "Move",
    "Stay",
    "WaitUntil",
    "Scheduler",
    "AdaptiveCollisionAdversary",
    "LazySettlerAdversary",
    "RandomAdversary",
    "RoundRobinAdversary",
    "StarvationAdversary",
    "LockstepScheduler",
    "SemiSyncScheduler",
    "BoundedDelayScheduler",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "parse_faults",
    "InstrumentationConfig",
    "current",
    "instrument",
    "InvariantChecker",
    "InvariantError",
    "InvariantViolation",
    "RunMetrics",
    "DispersionResult",
]
