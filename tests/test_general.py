"""Tests for general (multi-root) initial configurations and the KS subsumption rule."""

from __future__ import annotations

import pytest

from repro.core.general_async import general_async_dispersion
from repro.core.general_sync import GeneralSyncDispersion, general_sync_dispersion
from repro.core.subsumption import (
    TreeInfo,
    collapse_cost,
    decide_subsumption,
    total_subsumption_cost,
)
from repro.graph import generators
from repro.sim.adversary import RandomAdversary, RoundRobinAdversary
from tests.conftest import assert_valid_result


SYNC_WORKLOADS = [
    ("line-two-ends", lambda: generators.line(50), {0: 20, 49: 20}),
    ("tree-three-roots", lambda: generators.random_tree(60, seed=3), {0: 18, 30: 12, 45: 10}),
    ("er-mixed-sizes", lambda: generators.erdos_renyi(70, 0.08, seed=5), {0: 25, 35: 14, 60: 3}),
    ("grid-four-corners", lambda: generators.grid2d(7, 7), {0: 10, 6: 10, 42: 10, 48: 10}),
    ("star-hub-and-leaf", lambda: generators.star(40), {0: 20, 5: 10}),
    ("ring-opposite", lambda: generators.ring(36), {0: 14, 18: 14}),
    ("tiny-groups-only", lambda: generators.random_tree(30, seed=8), {0: 3, 10: 2, 20: 4}),
    ("adjacent-roots", lambda: generators.line(40), {10: 15, 11: 15}),
]


@pytest.mark.parametrize("name,factory,placements", SYNC_WORKLOADS)
def test_general_sync_disperses(name, factory, placements):
    graph = factory()
    driver = GeneralSyncDispersion(graph, placements)
    result = driver.run()
    assert_valid_result(graph, result, driver.agents.values())


def test_general_sync_rounds_linear_in_k_on_lines():
    times = {}
    for k in (20, 40):
        graph = generators.line(k + 4)
        result = general_sync_dispersion(graph, {0: k // 2, k + 3: k // 2})
        assert result.dispersed
        times[k] = result.metrics.rounds
    assert times[40] / times[20] < 4.0


def test_general_sync_single_root_equivalent_to_rooted():
    graph = generators.random_tree(30, seed=2)
    result = general_sync_dispersion(graph, {0: 30})
    assert result.dispersed
    assert sorted(result.positions.values()) == list(range(30))


@pytest.mark.parametrize(
    "run", [general_sync_dispersion, general_async_dispersion], ids=["sync", "async"]
)
@pytest.mark.parametrize(
    "placements,message",
    [
        ({0: 6, 9: 5}, "k=11 agents cannot disperse on n=10 nodes"),
        ({42: 3}, "placement node 42 is not in the graph"),
        ({0: 3, 5: 0}, "every placement must contain at least one agent"),
        ({}, "need at least one start node"),
    ],
    ids=["overfull", "bad-node", "zero-count", "empty"],
)
def test_general_drivers_reject_bad_placements(run, placements, message):
    with pytest.raises(ValueError, match=message):
        run(generators.line(10), placements)


def test_general_sync_crowded_graph_uses_scatter_when_blocked():
    """k = n with many roots: some group will be fenced in and must scatter."""
    graph = generators.grid2d(6, 6)
    placements = {0: 9, 5: 9, 30: 9, 35: 9}
    driver = GeneralSyncDispersion(graph, placements)
    result = driver.run()
    assert result.dispersed
    assert sorted(result.positions.values()) == list(range(36))


ASYNC_WORKLOADS = [
    ("line-two-ends", lambda: generators.line(36), {0: 14, 35: 14}),
    ("tree-two-roots", lambda: generators.random_tree(40, seed=4), {0: 14, 20: 10}),
    ("er-three-roots", lambda: generators.erdos_renyi(50, 0.1, seed=6), {0: 12, 25: 10, 40: 8}),
    ("tiny-groups", lambda: generators.ring(20), {0: 3, 10: 4}),
]


@pytest.mark.parametrize("name,factory,placements", ASYNC_WORKLOADS)
def test_general_async_disperses(name, factory, placements):
    graph = factory()
    result = general_async_dispersion(graph, placements, adversary=RoundRobinAdversary())
    assert result.dispersed
    positions = list(result.positions.values())
    assert len(positions) == len(set(positions))


def test_general_async_random_adversary():
    graph = generators.erdos_renyi(40, 0.12, seed=7)
    result = general_async_dispersion(graph, {0: 12, 20: 12}, adversary=RandomAdversary(2))
    assert result.dispersed


def test_general_async_single_root():
    graph = generators.random_tree(24, seed=9)
    result = general_async_dispersion(graph, {0: 24})
    assert result.dispersed


# ----------------------------------------------------------- subsumption rule
class TestSubsumptionRule:
    def test_initiator_wins_when_strictly_larger(self):
        a, b = TreeInfo(1, 0, settled_count=10), TreeInfo(2, 5, settled_count=4)
        outcome = decide_subsumption(a, b)
        assert outcome.winner == 1 and outcome.loser == 2
        assert outcome.collapse_walk_cost == collapse_cost(4)

    def test_met_tree_wins_ties(self):
        a, b = TreeInfo(1, 0, settled_count=4), TreeInfo(2, 5, settled_count=4)
        outcome = decide_subsumption(a, b)
        assert outcome.winner == 2 and outcome.loser == 1

    def test_met_tree_wins_when_larger(self):
        a, b = TreeInfo(1, 0, settled_count=2), TreeInfo(2, 5, settled_count=9)
        outcome = decide_subsumption(a, b)
        assert outcome.winner == 2
        assert outcome.collapse_walk_cost == collapse_cost(2)

    def test_collapse_cost_formula(self):
        assert collapse_cost(7) == 28

    def test_total_cost_linear_when_sizes_disjoint(self):
        """Footnote 6: the sum of collapse costs over disjoint trees is O(k)."""
        sizes = [1, 2, 5, 10, 20]
        assert total_subsumption_cost(sizes) == 4 * sum(sizes)
