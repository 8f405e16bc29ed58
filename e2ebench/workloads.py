"""The benchmark's workloads: registered algorithms run through the public
entry points users call, ``run_scenario`` and ``run_sweep_cached``.

Each workload is a fixed list of (algorithm, scenario) jobs made from the
seed.  A *pass* runs every job once on one kernel backend and returns the
records in job order.  A *warm pass* re-runs the reference jobs through
``run_sweep_cached`` against a store that already holds every record, so each
job is a cache hit.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.runner.execute import RunRecord, run_scenario
from repro.runner.registry import algorithm_names
from repro.runner.scenario import ScenarioSpec, build_graph, build_placements
from repro.runner.sweep import SweepSpec
from repro.store.cache import run_sweep_cached
from repro.store.db import RunStore
from repro.store.fingerprint import run_fingerprint

DEFAULT_SEED = 0

Job = Tuple[str, ScenarioSpec]

#: Fault profile of ``hooked-sweep``: one churn draw at tick 0, with
#: probability one half.  Churn later in a run makes some seeds spin until
#: ``max_rounds``/``max_activations`` (65 s for ``general_async`` on a
#: 32-node random tree), which would time the cap instead of the program --
#: the reason crash faults are left out as well.
HOOKED_FAULTS = {"churn": 0.5, "horizon": 1}


def _grid(side: int) -> Dict[str, int]:
    return {"rows": side, "cols": side}


class Workload:
    """A named list of jobs; subclasses decide how a cold pass runs them."""

    name = ""
    #: Whether a cold pass writes its records to the store it is given.
    uses_store = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def jobs(self) -> List[Job]:
        raise NotImplementedError

    def sweeps(self, backend: str) -> List[SweepSpec]:
        """The jobs as sweep specs, one record per job in job order."""
        return [
            SweepSpec(name=self.name, algorithms=[algorithm], scenarios=[spec.with_backend(backend)])
            for algorithm, spec in self.jobs()
        ]

    def build_worlds(self) -> None:
        """Build every job's graph and placement (the set-up a user pays)."""
        for _, spec in self.jobs():
            build_placements(spec, build_graph(spec))

    def cold_pass(self, backend: str, store: Optional[RunStore]) -> List[RunRecord]:
        """Run every job once on ``backend``; a store-backed workload writes
        the records to ``store``, the others get ``None``."""
        raise NotImplementedError

    def populate(self, store: RunStore, records: List[RunRecord]) -> None:
        """Make ``store`` hold the reference records of every job."""
        store.put_many(
            (run_fingerprint(algorithm, spec), record)
            for (algorithm, spec), record in zip(self.jobs(), records)
        )

    def warm_pass(self, store: RunStore, backend: str = "reference") -> List[RunRecord]:
        """Re-run the jobs through ``run_sweep_cached`` against ``store``,
        which already holds this backend's records."""
        records: List[RunRecord] = []
        for sweep in self.sweeps(backend):
            records.extend(run_sweep_cached(sweep, store))
        return records


class ScenarioWorkload(Workload):
    """Jobs run one after another through ``run_scenario``; no store."""

    def cold_pass(self, backend: str, store: Optional[RunStore]) -> List[RunRecord]:
        return [run_scenario(algorithm, spec.with_backend(backend)) for algorithm, spec in self.jobs()]


class SyncDfs(ScenarioWorkload):
    name = "sync-dfs"

    def jobs(self) -> List[Job]:
        return [
            ("rooted_sync", ScenarioSpec("grid2d", _grid(24), k=120, seed=self.seed)),
            (
                "general_sync",
                ScenarioSpec(
                    "grid2d", _grid(24), k=240, placement="split", placement_parts=8, seed=self.seed
                ),
            ),
        ]


class AsyncDfs(ScenarioWorkload):
    name = "async-dfs"

    def jobs(self) -> List[Job]:
        return [
            ("rooted_async", ScenarioSpec("grid2d", _grid(16), k=64, seed=self.seed)),
            (
                "general_async",
                ScenarioSpec(
                    "grid2d", _grid(16), k=128, placement="split", placement_parts=6, seed=self.seed
                ),
            ),
        ]


class HookedSweep(Workload):
    """Every registered algorithm over four small families, with churn,
    invariant checking and tracing on, through a store-backed sweep.

    The worlds are those of ``WORLD_SEED`` on every run; the workload seed
    shuffles the order in which the scenarios reach the sweep and the store.
    Drawing the random graphs from the workload seed instead moves the total
    simulated work by 3-6% from seed to seed, as much as the run-to-run
    spread the bounds allow.
    """

    name = "hooked-sweep"
    uses_store = True

    N = 24
    KS = (6, 12)
    SPLIT_K = 12
    WORLD_SEED = DEFAULT_SEED

    def _sweep(self) -> SweepSpec:
        graphs = [
            ("random_tree", {"n": self.N}),
            ("grid2d", _grid(5)),
            ("erdos_renyi", {"n": self.N, "p": 0.2}),
            ("random_regular", {"n": self.N, "d": 4}),
        ]
        common = dict(seed=self.WORLD_SEED, faults=HOOKED_FAULTS, check_invariants=True, trace=True)
        scenarios = []
        for family, params in graphs:
            scenarios.extend(ScenarioSpec(family, params, k=k, **common) for k in self.KS)
            scenarios.append(
                ScenarioSpec(
                    family, params, k=self.SPLIT_K, placement="split", placement_parts=4, **common
                )
            )
        random.Random(self.seed).shuffle(scenarios)
        return SweepSpec(name=self.name, algorithms=algorithm_names(), scenarios=scenarios)

    def jobs(self) -> List[Job]:
        return [
            (algorithm, ScenarioSpec.from_dict(scenario))
            for algorithm, scenario in self._sweep().jobs()
        ]

    def sweeps(self, backend: str) -> List[SweepSpec]:
        return [self._sweep().with_backend(backend)]

    def cold_pass(self, backend: str, store: Optional[RunStore]) -> List[RunRecord]:
        assert store is not None
        return run_sweep_cached(self.sweeps(backend)[0], store)


WORKLOADS = {cls.name: cls for cls in (SyncDfs, AsyncDfs, HookedSweep)}
