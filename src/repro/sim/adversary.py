"""Pluggable activation schedulers: the synchrony spectrum as a policy family.

Synchrony is a property of the *scheduler*, not of the execution engine:
SYNC's lockstep rounds and ASYNC's adversary-chosen single activations are
two points on one spectrum of activation orders over the same
Communicate–Compute–Move cycle.  Every class here implements the one-method
:class:`Scheduler` contract -- ``next_agent()`` -- and plugs into
:class:`~repro.sim.async_engine.AsyncEngine` unchanged, so any ASYNC-capable
algorithm can be swept across the whole spectrum:

========================  =================================================
scheduler                 synchrony model
========================  =================================================
:class:`LockstepScheduler`       SYNC-like: every agent acts exactly once per
                                 round, in id order (the fully synchronous
                                 extreme of the spectrum).
:class:`SemiSyncScheduler`       SSYNC/FSYNC-style: each round the adversary
                                 picks a non-empty agent subset; exactly the
                                 selected agents act that round.
:class:`BoundedDelayScheduler`   k-bounded delay: arbitrary activation order,
                                 but every agent acts at least once in any
                                 window of ``bound`` consecutive activations.
ASYNC adversaries below          fully asynchronous: fairness only.
========================  =================================================

Subset and single-activation schedules are *sequentialized*: the engine
executes one CCM cycle at a time, so a semi-synchronous round is emitted as
its members' cycles in ascending id order.  For the dispersion algorithms --
which are correct against every fair sequential interleaving -- this is the
standard simulation of the stronger model by the weaker one; the rounds
structure is what the scheduler constrains.

In fully asynchronous runs the only fairness guarantee is that every agent
is activated infinitely often.  Time is measured in *epochs* (the smallest
interval within which every agent completes at least one CCM cycle), so the
scheduler controls how much wall-clock work happens per epoch but not the
epoch count semantics.

The algorithms of the paper must meet their epoch bounds against *every*
adversary.  The benchmarks therefore run each ASYNC algorithm under several
policies:

* :class:`RandomAdversary` -- uniformly random agent each activation,
* :class:`RoundRobinAdversary` -- cyclic order (the "most synchronous" adversary),
* :class:`StarvationAdversary` -- a chosen set of victim agents is activated only
  once for every ``slowdown`` activations of the others, which stretches every
  epoch and stresses the waiting logic of ``Async_Probe``/``Guest_See_Off``,
* :class:`AdaptiveCollisionAdversary` -- *adaptive*: it observes the engine and
  preferentially activates agents at the most crowded node, keeping explorer
  packs together to maximize contention at the DFS head,
* :class:`LazySettlerAdversary` -- adaptive: settled agents (whose replies the
  probing primitives wait for) act only once per ``laziness`` activations of
  the unsettled ones.

The classic ASYNC policies keep "Adversary" in their class names (that is
the model's vocabulary: the algorithm must beat every adversary); the
synchrony-restricted disciplines use "Scheduler".  The contract is one and
the same.

Adaptive adversaries remain *fair*: both enforce a bounded-staleness guarantee
(no agent waits more than a fixed number of activations), which is exactly the
fairness assumption the paper's model grants the algorithm.

Every scheduler supports deterministic re-binding: :meth:`Scheduler.bind`
resets all internal state (RNG streams, cursors, round queues), so reusing one
scheduler object across engines replays the same schedule -- a property the
runner's byte-deterministic artifacts rely on.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Sequence, Set

from collections import deque

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.async_engine import AsyncEngine

__all__ = [
    "Scheduler",
    "RandomAdversary",
    "RoundRobinAdversary",
    "StarvationAdversary",
    "AdaptiveCollisionAdversary",
    "LazySettlerAdversary",
    "LockstepScheduler",
    "SemiSyncScheduler",
    "BoundedDelayScheduler",
]


class Scheduler(abc.ABC):
    """Chooses which agent performs the next CCM cycle."""

    def bind(self, agent_ids: Sequence[int]) -> None:
        """Called by the engine with the full set of agent ids.

        Re-binding (engine reuse) must reset every piece of internal state, so
        the activation sequence is a pure function of the bound population --
        subclasses that keep RNGs or cursors reset them in their override.
        """
        self.agent_ids = list(agent_ids)

    def attach(self, engine: "AsyncEngine") -> None:
        """Give adaptive adversaries a read-only view of the engine.

        Called by the engine right after :meth:`bind`.  The default is a no-op:
        oblivious adversaries never look at the execution.
        """

    @abc.abstractmethod
    def next_agent(self) -> int:
        """Return the id of the agent to activate next."""


class RandomAdversary(Scheduler):
    """Uniformly random activations (seeded, reproducible)."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    def bind(self, agent_ids: Sequence[int]) -> None:
        super().bind(agent_ids)
        # Restart the stream so a re-bound adversary replays deterministically.
        self._rng = random.Random(self._seed)

    def next_agent(self) -> int:
        return self._rng.choice(self.agent_ids)


class RoundRobinAdversary(Scheduler):
    """Cyclic activation order; every epoch is exactly one pass over the agents."""

    def __init__(self) -> None:
        self._index = 0

    def bind(self, agent_ids: Sequence[int]) -> None:
        super().bind(agent_ids)
        self._index = 0

    def next_agent(self) -> int:
        agent = self.agent_ids[self._index % len(self.agent_ids)]
        self._index += 1
        return agent


class StarvationAdversary(Scheduler):
    """Starve a set of victims: they act once per ``slowdown`` non-victim passes.

    ``victims`` may be given as explicit agent ids or as ``"largest"`` /
    ``"smallest"`` to starve the agents with the largest (the leader ``a_max``)
    or smallest ids.  Epoch counts are unaffected by *how slow* the victims are
    (an epoch ends only when every agent has acted), so this adversary checks
    that the algorithms' epoch bounds hold when the leader or the helpers are the
    bottleneck.
    """

    def __init__(
        self,
        victims: Iterable[int] | str = "largest",
        num_victims: int = 1,
        slowdown: int = 5,
        seed: int = 0,
    ) -> None:
        if slowdown < 1:
            raise ValueError("slowdown must be >= 1")
        self._victims_spec = victims
        self._num_victims = num_victims
        self._slowdown = slowdown
        self._seed = seed
        self._rng = random.Random(seed)
        self._victims: Set[int] = set()
        self._others: List[int] = []
        self._counter = 0

    def bind(self, agent_ids: Sequence[int]) -> None:
        super().bind(agent_ids)
        self._rng = random.Random(self._seed)
        self._counter = 0
        ordered = sorted(agent_ids)
        if isinstance(self._victims_spec, str):
            if self._victims_spec == "largest":
                self._victims = set(ordered[-self._num_victims:])
            elif self._victims_spec == "smallest":
                self._victims = set(ordered[: self._num_victims])
            else:
                raise ValueError(f"unknown victim spec {self._victims_spec!r}")
        else:
            self._victims = set(self._victims_spec)
        self._others = [a for a in agent_ids if a not in self._victims]
        if not self._others:
            # Everyone is a victim: degenerate to random activations.
            self._others = list(agent_ids)
            self._victims = set()

    def next_agent(self) -> int:
        self._counter += 1
        if self._victims and self._counter % (self._slowdown * max(1, len(self._others))) == 0:
            return self._rng.choice(sorted(self._victims))
        return self._rng.choice(self._others)


class _AdaptiveAdversary(Scheduler):
    """Shared machinery for adversaries that observe the engine.

    Maintains a bounded-staleness fairness guarantee: whenever some agent has
    not acted for ``starvation_bound`` activations (default ``8 * k``), it is
    activated next, regardless of the adaptive policy.  Without an attached
    engine (standalone use) the policy degrades to seeded-random choices.
    """

    def __init__(self, seed: int = 0, starvation_bound: Optional[int] = None) -> None:
        self._seed = seed
        self._starvation_bound = starvation_bound
        self._rng = random.Random(seed)
        self._engine: Optional["AsyncEngine"] = None
        self._last_active: Dict[int, int] = {}
        self._clock = 0

    def bind(self, agent_ids: Sequence[int]) -> None:
        super().bind(agent_ids)
        self._rng = random.Random(self._seed)
        self._last_active = {agent_id: 0 for agent_id in self.agent_ids}
        self._clock = 0

    def attach(self, engine: "AsyncEngine") -> None:
        self._engine = engine

    @property
    def bound(self) -> int:
        return self._starvation_bound or 8 * len(self.agent_ids)

    def next_agent(self) -> int:
        self._clock += 1
        stalest = min(self._last_active, key=lambda a: (self._last_active[a], a))
        if self._clock - self._last_active[stalest] > self.bound:
            choice = stalest
        else:
            choice = self._pick()
        self._last_active[choice] = self._clock
        return choice

    def _pick(self) -> int:
        """The adaptive policy; subclasses override."""
        return self._rng.choice(self.agent_ids)


class AdaptiveCollisionAdversary(_AdaptiveAdversary):
    """Activate an agent at the most crowded node ``crowd_bias`` of the time.

    Crowds are where collisions, probe contention, and co-location writes
    happen, so concentrating activations there is the natural adaptive attack
    on the probing primitives.  Ties between equally crowded nodes break to the
    lowest node index, and within the crowd the least recently activated agent
    is chosen -- both deterministic given the seed.
    """

    def __init__(
        self,
        seed: int = 0,
        crowd_bias: float = 0.75,
        starvation_bound: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed, starvation_bound=starvation_bound)
        if not (0.0 <= crowd_bias <= 1.0):
            raise ValueError("crowd_bias must be in [0, 1]")
        self._crowd_bias = crowd_bias

    def _pick(self) -> int:
        engine = self._engine
        if engine is None or self._rng.random() >= self._crowd_bias:
            return self._rng.choice(self.agent_ids)
        occupancy = engine.kernel.occupancy
        crowd: Set[int] = max(
            (occupancy[node] for node in range(len(occupancy)) if occupancy[node]),
            key=len,
            default=set(),
        )
        # max() with key=len keeps the first maximum, i.e. the lowest node.
        eligible = [a for a in crowd if a in self._last_active]
        if not eligible:
            return self._rng.choice(self.agent_ids)
        return min(eligible, key=lambda a: (self._last_active[a], a))


class LazySettlerAdversary(_AdaptiveAdversary):
    """Settled agents act only once per ``laziness`` unsettled activations.

    The probing primitives repeatedly wait on *settled* agents (record holders,
    recruited helpers); delaying exactly those agents maximizes the waiting in
    ``WaitUntil`` loops while the unsettled frontier races ahead.
    """

    def __init__(
        self,
        seed: int = 0,
        laziness: int = 4,
        starvation_bound: Optional[int] = None,
    ) -> None:
        super().__init__(seed=seed, starvation_bound=starvation_bound)
        if laziness < 1:
            raise ValueError("laziness must be >= 1")
        self._laziness = laziness

    def _pick(self) -> int:
        engine = self._engine
        if engine is None:
            return self._rng.choice(self.agent_ids)
        settled = [a for a in self.agent_ids if engine.agents[a].settled]
        unsettled = [a for a in self.agent_ids if not engine.agents[a].settled]
        if settled and (not unsettled or self._clock % (self._laziness + 1) == 0):
            return self._rng.choice(settled)
        if unsettled:
            return self._rng.choice(unsettled)
        return self._rng.choice(self.agent_ids)


# ---------------------------------------------------------------------------
# Synchrony-restricted schedulers: the SYNC and semi-synchronous ends of the
# spectrum, expressed as activation policies so ASYNC-capable algorithms run
# under them unchanged.


class LockstepScheduler(RoundRobinAdversary):
    """The fully synchronous end of the spectrum: id-order lockstep rounds.

    Every agent performs exactly one CCM cycle per round, in ascending id
    order -- the sequentialization of a SYNC round.  Behaviorally this is
    :class:`RoundRobinAdversary` (the conformance suite exploits exactly that
    equivalence to pin the kernel's SYNC traces); the distinct name makes the
    scenario axis explicit: ``scheduler="lockstep"`` declares the workload
    synchronous, not merely adversary-friendly.
    """


class SemiSyncScheduler(Scheduler):
    """Semi-synchronous (SSYNC/FSYNC-style) rounds: a chosen subset acts.

    Each round the adversary draws a subset of the agents -- every agent
    independently with probability ``p`` -- and exactly the selected agents
    perform one CCM cycle that round, emitted in ascending id order.  An empty
    draw is re-centred on one random agent so time always advances.

    Fairness is guaranteed by a bounded-staleness rule, mirroring the adaptive
    adversaries: an agent left out of ``max_stale`` consecutive rounds is
    force-included in the next draw, so every agent acts at least once per
    ``max_stale + 1`` rounds -- the paper's "activated infinitely often"
    assumption with an explicit constant.
    """

    def __init__(self, seed: int = 0, p: float = 0.5, max_stale: int = 4) -> None:
        if not (0.0 < p <= 1.0):
            raise ValueError("p must be in (0, 1]")
        if max_stale < 1:
            raise ValueError("max_stale must be >= 1")
        self._seed = seed
        self._p = p
        self._max_stale = max_stale
        self._rng = random.Random(seed)
        self._stale: Dict[int, int] = {}
        self._round_queue: Deque[int] = deque()
        #: Completed + in-progress rounds (draws) so far.
        self.rounds = 0

    def bind(self, agent_ids: Sequence[int]) -> None:
        super().bind(agent_ids)
        self._rng = random.Random(self._seed)
        self._stale = {agent_id: 0 for agent_id in self.agent_ids}
        self._round_queue = deque()
        self.rounds = 0

    def _draw_round(self) -> None:
        # One rng.random() per agent, in sorted order, keeps the draw count --
        # hence the whole stream -- deterministic regardless of staleness.
        selected = [
            agent_id
            for agent_id in sorted(self.agent_ids)
            if self._rng.random() < self._p or self._stale[agent_id] >= self._max_stale
        ]
        if not selected:
            selected = [self._rng.choice(sorted(self.agent_ids))]
        chosen = set(selected)
        for agent_id in self.agent_ids:
            self._stale[agent_id] = 0 if agent_id in chosen else self._stale[agent_id] + 1
        self._round_queue.extend(selected)
        self.rounds += 1

    def next_agent(self) -> int:
        if not self._round_queue:
            self._draw_round()
        return self._round_queue.popleft()


class BoundedDelayScheduler(Scheduler):
    """k-bounded-delay schedules: arbitrary order, bounded inattention.

    The adversary activates agents in any (seeded random) order, but every
    agent is guaranteed to act at least once in any window of ``bound``
    consecutive activations, where ``bound = delay_factor * population``
    (``delay_factor >= 1``, so the bound is always achievable).  This is the
    classic partially synchronous middle of the spectrum: stronger than
    fairness-only ASYNC, weaker than lockstep.

    The guarantee is enforced with per-agent deadlines: agent ``a`` activated
    at tick ``t`` gets deadline ``t + bound``; a tick whose deadline is due
    activates exactly that agent, every other tick is free random choice.
    Deadlines are pairwise distinct by construction (one activation per tick,
    plus staggered initial deadlines), so no two agents ever fall due at once
    and the window property holds unconditionally -- which the Hypothesis
    property suite pins against a sliding-window oracle.
    """

    def __init__(self, seed: int = 0, delay_factor: int = 2) -> None:
        if delay_factor < 1:
            raise ValueError("delay_factor must be >= 1")
        self._seed = seed
        self._delay_factor = delay_factor
        self._rng = random.Random(seed)
        self._clock = 0
        #: Activation window bound (set at bind time; documented attribute).
        self.bound = 0
        self._deadline_of: Dict[int, int] = {}
        self._agent_due_at: Dict[int, int] = {}

    def bind(self, agent_ids: Sequence[int]) -> None:
        super().bind(agent_ids)
        self._rng = random.Random(self._seed)
        self._clock = 0
        n = len(self.agent_ids)
        self.bound = self._delay_factor * n
        # Staggered initial deadlines bound-n+1 .. bound (distinct, all >= 1):
        # the first window already contains every agent at least once.
        ordered = sorted(self.agent_ids)
        self._deadline_of = {
            agent_id: self.bound - (n - 1 - index)
            for index, agent_id in enumerate(ordered)
        }
        self._agent_due_at = {
            deadline: agent_id for agent_id, deadline in self._deadline_of.items()
        }

    def next_agent(self) -> int:
        self._clock += 1
        due = self._agent_due_at.pop(self._clock, None)
        if due is not None:
            choice = due
        else:
            choice = self._rng.choice(self.agent_ids)
            # The randomly chosen agent's old deadline is no longer due.
            del self._agent_due_at[self._deadline_of[choice]]
        deadline = self._clock + self.bound
        self._deadline_of[choice] = deadline
        self._agent_due_at[deadline] = choice
        return choice
