"""Scheduler-conformance suite for the pluggable synchrony spectrum.

The kernel refactor makes synchrony a property of the scheduler, not of the
engine.  This suite pins the new scheduler family to the models it claims to
implement:

1. **Lockstep = SYNC.**  :class:`~repro.sim.adversary.LockstepScheduler`
   driving the kernel through :class:`~repro.sim.async_engine.AsyncEngine`
   reproduces the *exact* pre-refactor SYNC traces of the fault-conformance
   suite -- final ``(agent, position, settled)`` states, per-round probe
   answers, and normalized blocked timelines -- for every scripted
   crash/freeze schedule in ``tests/test_fault_conformance.py``.

2. **Bounded delay is a real guarantee.**  A Hypothesis property (std-random
   sweep without Hypothesis) pins
   :class:`~repro.sim.adversary.BoundedDelayScheduler` fairness against a
   sliding-window oracle: every agent is activated within *any* window of
   ``bound`` consecutive ticks, for arbitrary populations, seeds, and delay
   factors -- and the schedule replays identically after ``bind()``.

3. **Semi-sync rounds are well-formed and fair**: subset-per-round structure,
   bounded staleness, deterministic replay, and end-to-end dispersion of the
   ASYNC-capable core algorithms with zero invariant violations.

4. **The runner axis is sound**: world seeds are scheduler-independent,
   SYNC algorithms drop out of non-default scheduler grids, the store
   fingerprint keys the discipline, and ``--scheduler`` round-trips through
   the CLI.
"""

from __future__ import annotations

import random

import pytest

from repro.runner import ScenarioSpec, run_scenario
from repro.runner.registry import core_algorithm_names, get_algorithm
from repro.runner.scenario import build_scheduler, derive_seed
from repro.runner.sweep import SweepSpec, run_sweep, smoke_sweep
from repro.sim.adversary import (
    BoundedDelayScheduler,
    LockstepScheduler,
    RoundRobinAdversary,
    Scheduler,
    SemiSyncScheduler,
)
from repro.store.fingerprint import run_fingerprint

from tests.test_fault_conformance import (
    K,
    SCHEDULES,
    run_async_walk,
    run_sync_walk,
)

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

CASES = 50


def arbitrary_cases(**ranges):
    """Drive a test from Hypothesis, or from a seeded sweep without it."""

    def decorate(fn):
        if HAVE_HYPOTHESIS:
            strategies = {
                name: st.integers(low, high) for name, (low, high) in ranges.items()
            }
            wrapped = given(**strategies)(fn)
            return settings(
                max_examples=CASES,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            )(wrapped)

        def sweep():
            rng = random.Random(0x5CEDD1E)
            for _ in range(CASES):
                fn(**{name: rng.randint(low, high) for name, (low, high) in ranges.items()})

        sweep.__name__ = fn.__name__
        sweep.__doc__ = fn.__doc__
        return sweep

    return decorate


# ---------------------------------------------------------------------------
# 1. LockstepScheduler reproduces the pre-refactor SYNC traces.


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: repr(s))
def test_lockstep_scheduler_reproduces_sync_traces(schedule):
    """The fault-conformance walk under ``LockstepScheduler`` equals SYNC.

    ``run_sync_walk`` is the exact scripted workload the pre-refactor SYNC
    engine was pinned with; the async twin re-run under ``LockstepScheduler``
    (id-order lockstep rounds) must agree on final states, every per-round
    probe snapshot, and the normalized fault-blocked timeline -- proving the
    kernel + lockstep scheduling *is* the SYNC model.
    """
    sync_engine, sync_injector, sync_probes = run_sync_walk(schedule)
    async_engine, async_injector, async_probes = run_async_walk(
        schedule, adversary=LockstepScheduler()
    )

    sync_state = sorted(
        (a.agent_id, a.position, a.settled) for a in sync_engine.agents.values()
    )
    async_state = sorted(
        (a.agent_id, a.position, a.settled) for a in async_engine.agents.values()
    )
    assert sync_state == async_state
    assert sync_probes == async_probes
    sync_observations = set(sync_injector.blocked_observations)
    async_observations = {
        (agent_id, tick // K) for agent_id, tick in async_injector.blocked_observations
    }
    assert sync_observations == async_observations
    assert sync_injector.counts["blocked"] == async_injector.counts["blocked"]


def test_lockstep_is_a_scheduler_and_an_adversary():
    """The family is one contract: the lockstep discipline is a round-robin
    adversary behind the one :class:`Scheduler` interface."""
    scheduler = LockstepScheduler()
    assert isinstance(scheduler, Scheduler)
    assert isinstance(scheduler, RoundRobinAdversary)
    scheduler.bind([3, 1, 2])
    assert [scheduler.next_agent() for _ in range(6)] == [3, 1, 2, 3, 1, 2]


# ---------------------------------------------------------------------------
# 2. BoundedDelayScheduler fairness: the sliding-window property.


def sliding_window_gaps(trace, agent_ids):
    """Max activation gap per agent, counting the virtual start at tick 0.

    ``gap <= bound`` for every agent is equivalent to "every window of
    ``bound`` consecutive ticks contains every agent" on the emitted prefix.
    """
    last = {agent_id: 0 for agent_id in agent_ids}
    gaps = {agent_id: 0 for agent_id in agent_ids}
    for tick, agent_id in enumerate(trace, start=1):
        gaps[agent_id] = max(gaps[agent_id], tick - last[agent_id])
        last[agent_id] = tick
    horizon = len(trace)
    for agent_id in agent_ids:
        gaps[agent_id] = max(gaps[agent_id], horizon - last[agent_id])
    return gaps


@arbitrary_cases(n=(1, 40), delay_factor=(1, 5), seed=(0, 10_000))
def test_bounded_delay_scheduler_sliding_window_fairness(n, delay_factor, seed):
    """Every agent acts within any ``bound``-tick window, for any seed.

    The oracle tracks, per agent, the largest gap between consecutive
    activations (including the run's start and end boundaries); the scheduler's
    deadline construction promises ``gap <= bound = delay_factor * n``.
    """
    agent_ids = list(range(1, n + 1))
    scheduler = BoundedDelayScheduler(seed=seed, delay_factor=delay_factor)
    scheduler.bind(agent_ids)
    assert scheduler.bound == delay_factor * n
    horizon = 4 * scheduler.bound + 7  # several windows, deliberately unaligned
    trace = [scheduler.next_agent() for _ in range(horizon)]
    gaps = sliding_window_gaps(trace, agent_ids)
    worst = max(gaps.values())
    assert worst <= scheduler.bound, (
        f"agent starved: max gap {worst} > bound {scheduler.bound}"
    )

    # Deterministic replay: re-binding resets the stream exactly.
    scheduler.bind(agent_ids)
    assert [scheduler.next_agent() for _ in range(horizon)] == trace


def test_bounded_delay_scheduler_validates_delay_factor():
    with pytest.raises(ValueError):
        BoundedDelayScheduler(delay_factor=0)


# ---------------------------------------------------------------------------
# 3. SemiSyncScheduler: round structure, fairness, determinism, end-to-end.


def semi_sync_rounds(scheduler, num_rounds):
    """Consume whole rounds off the scheduler's queue (one draw per round).

    ``next_agent`` draws a fresh round exactly when its queue is empty, so a
    round is the first pop plus everything left in the queue afterwards.
    """
    rounds = []
    for _ in range(num_rounds):
        current = [scheduler.next_agent()]
        while scheduler._round_queue:
            current.append(scheduler.next_agent())
        rounds.append(current)
    return rounds


@arbitrary_cases(n=(1, 24), seed=(0, 10_000), max_stale=(1, 6))
def test_semi_sync_rounds_are_subsets_with_bounded_staleness(n, seed, max_stale):
    """Each round is a duplicate-free id-ordered subset; nobody is left out of
    more than ``max_stale`` consecutive rounds."""
    agent_ids = list(range(1, n + 1))
    scheduler = SemiSyncScheduler(seed=seed, p=0.4, max_stale=max_stale)
    scheduler.bind(agent_ids)
    rounds = semi_sync_rounds(scheduler, 12 * (max_stale + 1))
    stale = {agent_id: 0 for agent_id in agent_ids}
    for subset in rounds:
        assert subset, "a semi-sync round must activate at least one agent"
        assert len(set(subset)) == len(subset)
        assert subset == sorted(subset)
        assert set(subset) <= set(agent_ids)
        for agent_id in agent_ids:
            if agent_id in set(subset):
                stale[agent_id] = 0
            else:
                stale[agent_id] += 1
                assert stale[agent_id] <= max_stale, (
                    f"agent {agent_id} skipped {stale[agent_id]} rounds "
                    f"(max_stale={max_stale})"
                )


def test_semi_sync_replays_deterministically_after_bind():
    scheduler = SemiSyncScheduler(seed=7, p=0.3)
    scheduler.bind([1, 2, 3, 4, 5])
    trace = [scheduler.next_agent() for _ in range(40)]
    scheduler.bind([1, 2, 3, 4, 5])
    assert [scheduler.next_agent() for _ in range(40)] == trace


def test_semi_sync_parameter_validation():
    with pytest.raises(ValueError):
        SemiSyncScheduler(p=0.0)
    with pytest.raises(ValueError):
        SemiSyncScheduler(p=1.5)
    with pytest.raises(ValueError):
        SemiSyncScheduler(max_stale=0)


@pytest.mark.parametrize("scheduler_name,params", [
    ("lockstep", {}),
    ("semi-sync", {}),
    ("semi-sync", {"p": 0.25}),
    ("bounded-delay", {}),
    ("bounded-delay", {"delay_factor": 3}),
])
def test_async_capable_core_algorithms_disperse_under_every_scheduler(
    scheduler_name, params
):
    """The acceptance sweep in miniature: every ASYNC-capable core algorithm
    reaches valid dispersion with zero invariant violations under every new
    synchrony discipline."""
    async_core = [
        name for name in core_algorithm_names()
        if get_algorithm(name).setting == "async"
    ]
    assert async_core  # the paper has ASYNC algorithms; guard the guard
    scenario = ScenarioSpec(
        family="erdos_renyi",
        params={"n": 18, "p": 0.25},
        k=10,
        scheduler=scheduler_name,
        scheduler_params=params,
        check_invariants=True,
    )
    for name in async_core:
        record = run_scenario(name, scenario)
        assert record.status == "ok", (name, record.error)
        assert record.dispersed
        assert not record.invariant_violations


# ---------------------------------------------------------------------------
# 4. Runner threading: seeds, grids, fingerprints.


def test_scheduler_axis_preserves_the_world():
    """Same graph/adversary/algorithm seeds and same base key across the axis."""
    classic = ScenarioSpec(family="ring", params={"n": 16}, k=8)
    spectrum = [
        classic.with_scheduler("lockstep"),
        classic.with_scheduler("semi-sync", {"p": 0.5}),
        classic.with_scheduler("bounded-delay", {"delay_factor": 2}),
    ]
    for spec in spectrum:
        assert spec.base_key() == classic.base_key()
        for component in ("graph", "adversary", "algorithm"):
            assert derive_seed(spec, component) == derive_seed(classic, component)
        assert spec.key() != classic.key()
        assert spec.digest() != classic.digest()

    # The classic spec serializes without the axis (byte-stable artifacts) and
    # the default is not spellable with parameters attached.
    assert "scheduler" not in classic.to_dict()
    assert spectrum[1].to_dict()["scheduler"] == "semi-sync"
    with pytest.raises(ValueError):
        ScenarioSpec(family="ring", params={"n": 16}, k=8, scheduler_params={"p": 0.5})
    with pytest.raises(ValueError):
        ScenarioSpec(family="ring", params={"n": 16}, k=8, scheduler="fsync")


def test_scheduler_round_trips_and_keys_the_fingerprint():
    spec = ScenarioSpec(
        family="ring", params={"n": 16}, k=8,
        scheduler="bounded-delay", scheduler_params={"delay_factor": 2},
    )
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone == spec
    classic = ScenarioSpec(family="ring", params={"n": 16}, k=8)
    prints = {
        run_fingerprint("rooted_async", s)
        for s in (
            classic,
            classic.with_scheduler("lockstep"),
            classic.with_scheduler("semi-sync"),
            classic.with_scheduler("semi-sync", {"p": 0.25}),
            spec,
        )
    }
    assert len(prints) == 5  # every discipline/parameterization keys the cache


def test_build_scheduler_dispatch():
    classic = ScenarioSpec(family="ring", params={"n": 16}, k=8, adversary="random")
    spec_types = [
        (classic, "RandomAdversary"),
        (classic.with_scheduler("lockstep"), "LockstepScheduler"),
        (classic.with_scheduler("semi-sync"), "SemiSyncScheduler"),
        (classic.with_scheduler("bounded-delay"), "BoundedDelayScheduler"),
    ]
    for spec, expected in spec_types:
        assert type(build_scheduler(spec)).__name__ == expected


def test_sync_algorithms_drop_out_of_non_default_scheduler_grids():
    sweep = smoke_sweep().with_scheduler("semi-sync")
    algorithms_in_grid = {algorithm for algorithm, _scenario in sweep.jobs()}
    assert algorithms_in_grid == {
        name for name in sweep.algorithms if get_algorithm(name).setting == "async"
    }
    # ... while run_scenario reports an explicit unsupported pairing.
    record = run_scenario(
        "rooted_sync",
        ScenarioSpec(family="line", params={"n": 12}, k=6, scheduler="semi-sync"),
    )
    assert record.status == "unsupported"
    assert "SYNC algorithm" in record.error


def test_scheduler_sweep_runs_to_valid_dispersion():
    """A miniature `repro sweep --scheduler bounded-delay:2`: deterministic,
    dispersed, invariant-clean records for every ASYNC-capable algorithm."""
    sweep = SweepSpec.from_grid(
        name="sched-mini",
        algorithms=["general_async", "ks_opodis21", "rooted_async"],
        graphs=[{"family": "erdos_renyi", "params": {"n": 16, "p": 0.3}}],
        ks=[8],
        seeds=[0],
    ).with_scheduler("bounded-delay", {"delay_factor": 2}).with_invariants(True)
    records = run_sweep(sweep)
    assert len(records) == 3
    for record in records:
        assert record.status == "ok" and record.dispersed
        assert not record.invariant_violations
        assert record.scenario["scheduler"] == "bounded-delay"
    rerun = run_sweep(sweep, workers=2)
    assert [r.to_dict() for r in rerun] == [r.to_dict() for r in records]
