"""Scenario specifications: everything one run needs, in one hashable spec.

A :class:`ScenarioSpec` pins down the *entire* input of a dispersion run --
graph family and parameters, population size ``k``, port-assignment policy,
initial placement, ASYNC adversary, and a master seed.  Every source of
randomness in a run (graph generation, port shuffling, adversary choices,
randomized baselines) draws its seed deterministically from the spec via
:func:`derive_seed`, so any run is reproducible from its spec alone: the same
spec produces byte-identical metrics on any machine, in any process, in any
order within a sweep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

from repro.graph import generators
from repro.graph.port_graph import PortAssignment, PortLabeledGraph
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
from repro.sim.backends import BACKEND_NAMES, DEFAULT_BACKEND
from repro.sim.faults import FaultSpec
from repro.sim.instrumentation import InstrumentationConfig

__all__ = [
    "GRAPH_FAMILIES",
    "ADVERSARIES",
    "SCHEDULERS",
    "PLACEMENTS",
    "BACKENDS",
    "ScenarioSpec",
    "derive_seed",
    "derive_fault_seed",
    "derive_scheduler_seed",
    "build_graph",
    "build_adversary",
    "build_scheduler",
    "build_placements",
    "build_instrumentation",
]

#: Graph families a spec may name, mapped to their generator in
#: :mod:`repro.graph.generators` (a whitelist -- specs come from JSON files).
GRAPH_FAMILIES: Dict[str, Any] = {
    "line": generators.line,
    "ring": generators.ring,
    "star": generators.star,
    "complete": generators.complete,
    "binary_tree": generators.binary_tree,
    "random_tree": generators.random_tree,
    "caterpillar": generators.caterpillar,
    "broom": generators.broom,
    "spider": generators.spider,
    "grid2d": generators.grid2d,
    "hypercube": generators.hypercube,
    "erdos_renyi": generators.erdos_renyi,
    "random_regular": generators.random_regular,
    "barbell": generators.barbell,
    "lollipop": generators.lollipop,
}

#: Adversary policies a spec may name (fully asynchronous runs only).
ADVERSARIES = ("round_robin", "random", "starvation", "adaptive_collision", "lazy_settler")

#: Synchrony-spectrum scheduling disciplines a spec may name.  ``"async"`` is
#: the classic fully asynchronous setting, in which the ``adversary`` field
#: picks the activation policy; the other disciplines *replace* the adversary
#: with a synchrony-restricted scheduler from :mod:`repro.sim.adversary`.
SCHEDULERS = ("async", "lockstep", "semi-sync", "bounded-delay")

#: Initial-placement policies: ``rooted`` puts all k agents on ``start_node``;
#: ``split`` spreads them over ``placement_parts`` evenly spaced nodes.
PLACEMENTS = ("rooted", "split")

#: Kernel backends a spec may name (see :mod:`repro.sim.backends`).  Like the
#: graph families, this is a *name* whitelist: availability (numpy installed?)
#: is an environment property checked when the backend is instantiated, so
#: spec files stay portable across machines.
BACKENDS = BACKEND_NAMES


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified dispersion scenario.

    Attributes
    ----------
    family, params:
        Graph family name (a key of :data:`GRAPH_FAMILIES`) and the keyword
        arguments of its generator (e.g. ``{"n": 64}`` or ``{"n": 48, "p": 0.2}``).
    k:
        Number of agents.
    port_assignment:
        ``"adjacency"``, ``"random"`` or ``"async_safe"``
        (:class:`~repro.graph.port_graph.PortAssignment` values).
    placement:
        ``"rooted"`` or ``"split"`` (see :data:`PLACEMENTS`).
    placement_parts:
        Number of start nodes for ``split`` placements.
    start_node:
        Root node for ``rooted`` placements.
    adversary, adversary_params:
        ASYNC activation policy and its keyword arguments (ignored by SYNC
        algorithms, and by non-``"async"`` schedulers, which replace the
        adversary wholesale).
    scheduler, scheduler_params:
        Synchrony-spectrum discipline for ASYNC-capable algorithms (a key of
        :data:`SCHEDULERS`) and its keyword arguments (e.g. ``{"p": 0.25}``
        for ``semi-sync``, ``{"delay_factor": 3}`` for ``bounded-delay``).
        The default ``"async"`` is the classic setting and is *omitted* from
        the serialized spec, so pre-scheduler scenarios keep their canonical
        key, digest, seeds, and record bytes unchanged.  Like the fault
        profile, the scheduler is excluded from the world-seed derivation:
        the same scenario under different schedulers runs on the identical
        graph/placement -- only the activation schedule differs, which is
        exactly what a synchrony-spectrum sweep compares.
    seed:
        Master seed; all component seeds are derived from it together with the
        rest of the spec (see :func:`derive_seed`).
    faults:
        Fault profile (dict form of :class:`~repro.sim.faults.FaultSpec`);
        empty means fault-free.  The profile is *excluded* from the seed
        derivation of graph/adversary/algorithm, so the same scenario under
        different fault profiles runs on the identical world -- only the fault
        schedule differs.
    check_invariants:
        Attach an :class:`~repro.sim.invariants.InvariantChecker` to the run's
        engine(s); violation counts land in the run record.
    backend:
        Kernel world-state backend (a key of :data:`BACKENDS`).  The default
        ``"reference"`` is *omitted* from the serialized spec, the canonical
        key/digest, and the store fingerprint -- the scheduler-field trick
        again -- so every pre-backend record, artifact, and store row keeps
        its exact bytes.  The backend is excluded from all seed derivation:
        it must never change what a run computes, only how fast (the
        differential suite enforces record equality across backends).
    trace:
        Record a ``repro-trace-v1`` execution trace (:mod:`repro.sim.trace`)
        on the run's engine(s); the payload lands on the run record.  The
        default ``False`` is *omitted* from the serialized spec, the canonical
        key/digest, and the store fingerprint (the backend-field trick again),
        so every pre-trace record, artifact, and store row keeps its exact
        bytes.  Tracing is excluded from all seed derivation: it observes a
        run, it must never change one.
    """

    family: str
    params: Mapping[str, Any]
    k: int
    port_assignment: str = "adjacency"
    placement: str = "rooted"
    placement_parts: int = 1
    start_node: int = 0
    adversary: str = "round_robin"
    adversary_params: Mapping[str, Any] = field(default_factory=dict)
    scheduler: str = "async"
    scheduler_params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    faults: Mapping[str, Any] = field(default_factory=dict)
    check_invariants: bool = False
    backend: str = DEFAULT_BACKEND
    trace: bool = False

    def __post_init__(self) -> None:
        if self.family not in GRAPH_FAMILIES:
            raise ValueError(
                f"unknown graph family {self.family!r}; known: {sorted(GRAPH_FAMILIES)}"
            )
        PortAssignment(self.port_assignment)  # raises on unknown policy
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}; known: {PLACEMENTS}")
        if self.adversary not in ADVERSARIES:
            raise ValueError(f"unknown adversary {self.adversary!r}; known: {ADVERSARIES}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}; known: {SCHEDULERS}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; known: {BACKENDS}")
        if self.scheduler_params and self.scheduler == "async":
            raise ValueError(
                "scheduler_params need a non-'async' scheduler; the classic "
                "setting is parameterized through adversary/adversary_params"
            )
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.placement == "split" and self.placement_parts < 2:
            raise ValueError("split placement needs placement_parts >= 2")
        # Copy the mappings so a spec cannot be mutated through the caller's
        # dicts after construction.  The fault profile additionally round-trips
        # through FaultSpec (which also validates it): profiles that spell out
        # default fields or use int probabilities must key/fingerprint/seed
        # identically to their canonical minimal form.
        object.__setattr__(self, "trace", bool(self.trace))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "adversary_params", dict(self.adversary_params))
        object.__setattr__(self, "scheduler_params", dict(self.scheduler_params))
        object.__setattr__(self, "faults", FaultSpec.from_dict(self.faults).to_dict())

    def __hash__(self) -> int:
        # The dataclass-generated hash would choke on the dict fields; the
        # canonical key covers every field, so hash it instead (specs are
        # legitimately used as set members / cache keys for dedup).
        return hash(self.key())

    # -------------------------------------------------------- serialization
    def base_dict(self) -> Dict[str, Any]:
        """The world-defining fields: everything except faults/invariants
        and the scheduler axis.

        This is the pre-fault-subsystem spec format; :func:`derive_seed` hashes
        it so (a) component seeds are unchanged from earlier artifact formats
        and (b) every fault profile *and every scheduler* of a scenario shares
        the same graph, placement, and adversary stream -- a synchrony-spectrum
        sweep compares schedules over one world.
        """
        return {
            "family": self.family,
            "params": dict(self.params),
            "k": self.k,
            "port_assignment": self.port_assignment,
            "placement": self.placement,
            "placement_parts": self.placement_parts,
            "start_node": self.start_node,
            "adversary": self.adversary,
            "adversary_params": dict(self.adversary_params),
            "seed": self.seed,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe, round-trips through :meth:`from_dict`).

        The scheduler axis serializes only when it departs from the classic
        ``"async"`` default, so every pre-scheduler spec -- and every record,
        artifact, and store row derived from one -- keeps its exact bytes.
        """
        data = self.base_dict()
        if self.scheduler != "async":
            data["scheduler"] = self.scheduler
            data["scheduler_params"] = dict(self.scheduler_params)
        # The backend serializes only when non-default, for the same byte
        # stability; unlike the scheduler it never changes the record's
        # *measurements*, only which kernel state layout computed them.
        if self.backend != DEFAULT_BACKEND:
            data["backend"] = self.backend
        # Tracing serializes only when enabled, for the same byte stability;
        # like the backend it never changes the record's *measurements*, only
        # whether a replayable event log rides along.
        if self.trace:
            data["trace"] = True
        data["faults"] = dict(self.faults)
        data["check_invariants"] = self.check_invariants
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**data)

    def key(self) -> str:
        """Canonical JSON string of the spec -- stable across processes/runs."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def base_key(self) -> str:
        """Canonical JSON of :meth:`base_dict` (the seed-derivation key)."""
        return json.dumps(self.base_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Short stable hex digest of :meth:`key` (a scenario identity tag).

        Two specs share a digest exactly when they are the same scenario under
        the same fault/invariant settings; the experiment store indexes rows by
        it so queries and diffs can match scenarios without comparing full
        canonical JSON strings.
        """
        return hashlib.sha256(self.key().encode("utf-8")).hexdigest()[:16]

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """The same scenario under a different master seed."""
        return replace(self, seed=seed)

    def with_faults(
        self,
        faults: Mapping[str, Any],
        check_invariants: Optional[bool] = None,
    ) -> "ScenarioSpec":
        """The same world under a different fault profile (see ``faults`` docs)."""
        if check_invariants is None:
            check_invariants = self.check_invariants
        return replace(self, faults=dict(faults), check_invariants=check_invariants)

    def with_scheduler(
        self, scheduler: str, scheduler_params: Optional[Mapping[str, Any]] = None
    ) -> "ScenarioSpec":
        """The same world under a different synchrony discipline.

        The graph, placement, fault schedule, and every derived world seed are
        untouched (see :meth:`base_dict`): only the activation schedule of
        ASYNC-capable algorithms changes.
        """
        return replace(
            self,
            scheduler=scheduler,
            scheduler_params=dict(scheduler_params) if scheduler_params else {},
        )

    def with_backend(self, backend: str) -> "ScenarioSpec":
        """The same scenario computed by a different kernel backend.

        Everything observable -- graph, placements, seeds, schedules, and the
        run's measured record -- is unchanged by construction (the
        differential suite pins this); only the execution representation and
        its speed differ.
        """
        return replace(self, backend=backend)

    def with_trace(self, trace: bool = True) -> "ScenarioSpec":
        """The same scenario with execution tracing toggled.

        Tracing only *observes*: the graph, placements, seeds, schedules, and
        every measured metric are unchanged by construction (the trace
        determinism suite pins this) -- the run record just gains the
        ``repro-trace-v1`` payload.
        """
        return replace(self, trace=trace)

    def label(self) -> str:
        """Compact human-readable tag used in logs and CSV rows."""
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        tag = f"{self.family}({params})/k={self.k}/seed={self.seed}"
        if self.scheduler != "async":
            tag += f"/sched={self.scheduler}"
        if self.backend != DEFAULT_BACKEND:
            tag += f"/backend={self.backend}"
        if self.trace:
            tag += "/trace"
        return tag


def derive_seed(spec: ScenarioSpec, component: str) -> int:
    """Deterministic per-component seed for a scenario.

    Hashing the canonical *base* spec string together with the component name
    gives independent, reproducible streams for graph generation, the
    adversary, and randomized algorithms -- without any global RNG state, so
    sweep workers can run scenarios in any order.  Fault fields are excluded
    (see :meth:`ScenarioSpec.base_dict`): the fault schedule draws from its own
    seed via :func:`derive_fault_seed` instead.
    """
    digest = hashlib.sha256(f"{spec.base_key()}#{component}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_fault_seed(spec: ScenarioSpec) -> int:
    """Seed for the fault schedule; distinct profiles get distinct schedules."""
    profile = json.dumps(dict(spec.faults), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(
        f"{spec.base_key()}#{profile}#faults".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def derive_scheduler_seed(spec: ScenarioSpec) -> int:
    """Seed for a non-``"async"`` scheduler's activation stream.

    Mixes the scheduler name and parameters over the world key (the
    :func:`derive_fault_seed` pattern), so distinct disciplines draw distinct
    streams while the world itself stays shared across the scheduler axis.
    """
    params = json.dumps(dict(spec.scheduler_params), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(
        f"{spec.base_key()}#{spec.scheduler}#{params}#scheduler".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def build_graph(spec: ScenarioSpec) -> PortLabeledGraph:
    """Materialize the scenario's port-labeled graph."""
    factory = GRAPH_FAMILIES[spec.family]
    assignment = PortAssignment(spec.port_assignment)
    return factory(
        **spec.params,
        assignment=assignment,
        seed=derive_seed(spec, "graph"),
    )


def build_adversary(spec: ScenarioSpec) -> Scheduler:
    """Materialize the scenario's fully asynchronous activation adversary."""
    if spec.adversary == "round_robin":
        return RoundRobinAdversary()
    if spec.adversary == "random":
        return RandomAdversary(seed=derive_seed(spec, "adversary"))
    if spec.adversary == "adaptive_collision":
        return AdaptiveCollisionAdversary(
            seed=derive_seed(spec, "adversary"), **spec.adversary_params
        )
    if spec.adversary == "lazy_settler":
        return LazySettlerAdversary(
            seed=derive_seed(spec, "adversary"), **spec.adversary_params
        )
    return StarvationAdversary(
        seed=derive_seed(spec, "adversary"), **spec.adversary_params
    )


def build_scheduler(spec: ScenarioSpec) -> Scheduler:
    """Materialize the scenario's activation scheduler (the synchrony axis).

    The classic ``"async"`` discipline defers to :func:`build_adversary` (the
    ``adversary``/``adversary_params`` fields, with their historical seed
    stream); the synchrony-restricted disciplines construct their scheduler
    from ``scheduler_params`` and a scheduler-specific seed.
    """
    if spec.scheduler == "async":
        return build_adversary(spec)
    if spec.scheduler == "lockstep":
        return LockstepScheduler(**spec.scheduler_params)
    if spec.scheduler == "semi-sync":
        return SemiSyncScheduler(
            seed=derive_scheduler_seed(spec), **spec.scheduler_params
        )
    return BoundedDelayScheduler(
        seed=derive_scheduler_seed(spec), **spec.scheduler_params
    )


def build_instrumentation(spec: ScenarioSpec) -> Optional[InstrumentationConfig]:
    """Fault/invariant/backend instrumentation for the scenario (``None`` when plain).

    The returned config is handed to :func:`repro.sim.instrumentation.instrument`
    around the algorithm run; engines constructed inside pick it up.  A
    non-default backend needs a config even for a fault-free unchecked run:
    the ambient context is the only channel reaching engines that algorithm
    drivers build internally.
    """
    fault_spec = FaultSpec.from_dict(spec.faults)
    if (
        not fault_spec.is_active
        and not spec.check_invariants
        and spec.backend == DEFAULT_BACKEND
        and not spec.trace
    ):
        return None
    return InstrumentationConfig(
        faults=fault_spec if fault_spec.is_active else None,
        fault_seed=derive_fault_seed(spec),
        check_invariants=spec.check_invariants,
        backend=spec.backend if spec.backend != DEFAULT_BACKEND else None,
        trace=spec.trace,
    )


def build_placements(spec: ScenarioSpec, graph: PortLabeledGraph) -> Dict[int, int]:
    """Initial ``node -> agent count`` placement for the scenario.

    ``rooted`` puts everyone on ``start_node``; ``split`` spreads the agents
    over ``placement_parts`` evenly spaced nodes (the multi-root configurations
    of the general algorithms), remainder on the first part.
    """
    if spec.k > graph.num_nodes:
        raise ValueError(
            f"k={spec.k} agents cannot disperse on n={graph.num_nodes} nodes"
        )
    if spec.placement == "rooted":
        if not (0 <= spec.start_node < graph.num_nodes):
            raise ValueError(f"start_node {spec.start_node} outside graph")
        return {spec.start_node: spec.k}
    parts = min(spec.placement_parts, spec.k)
    n = graph.num_nodes
    chosen = [int(i * (n - 1) / max(1, parts - 1)) for i in range(parts)]
    chosen = sorted(set(chosen))
    base = spec.k // len(chosen)
    placements = {node: base for node in chosen}
    placements[chosen[0]] += spec.k - base * len(chosen)
    return {node: count for node, count in placements.items() if count > 0}
