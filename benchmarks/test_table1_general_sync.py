"""T1-SYNC-general: Table 1, general (multi-root) SYNC rows.

Paper claim: starting from any initial configuration, dispersion completes in
O(k) rounds with O(log(k+Δ)) bits (Theorem 8.1).

Measured here: total rounds versus k for ℓ ∈ {2, 4, ⌈√k⌉} start nodes on line
and ER topologies, plus the rounds/k drift.  The driver serializes the growth
of the ℓ trees (README "Deviations from the paper"), so the reported rounds are
an upper bound on the concurrent schedule -- the linearity check is therefore
conservative.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import report
from repro.analysis.tables import Table
from repro.core.general_sync import general_sync_dispersion
from repro.graph import generators

K_SWEEP = [24, 48, 96]


def split_placements(nodes, k, parts):
    """Spread k agents over ``parts`` of the given candidate start nodes."""
    chosen = [nodes[int(i * (len(nodes) - 1) / max(1, parts - 1))] for i in range(parts)]
    base = k // parts
    placements = {node: base for node in chosen}
    placements[chosen[0]] += k - base * parts
    return placements


def run_sweep(graph_factory, parts_fn):
    series = {}
    for k in K_SWEEP:
        graph = graph_factory(k)
        nodes = list(range(graph.num_nodes))
        placements = split_placements(nodes, k, parts_fn(k))
        result = general_sync_dispersion(graph, placements)
        assert result.dispersed
        series[k] = result.metrics.rounds
    return series


def test_table1_general_sync_lines(record_rows):
    two = run_sweep(lambda k: generators.line(int(k * 1.1) + 2), lambda k: 2)
    sqrt = run_sweep(lambda k: generators.line(int(k * 1.1) + 2), lambda k: max(2, int(math.isqrt(k))))
    table = Table(
        "Table 1 / general SYNC on lines (rounds)",
        ["placement"] + [f"k={k}" for k in K_SWEEP],
    )
    table.add_row("ℓ=2 roots", *[two[k] for k in K_SWEEP])
    table.add_row("ℓ=⌈√k⌉ roots", *[sqrt[k] for k in K_SWEEP])
    report("T1-SYNC-general (lines)", [table.render()])
    record_rows.append(("T1-SYNC-general-line", {"ℓ=2": two[max(K_SWEEP)], "ℓ=√k": sqrt[max(K_SWEEP)]}))
    # Linear shape (conservative, serialized schedule): ratio drift < 2.5x over 4x k.
    assert (two[96] / 96) / (two[24] / 24) < 2.5


def test_table1_general_sync_er(record_rows):
    er = lambda k: generators.erdos_renyi(int(k * 1.25), min(0.9, 10.0 / k), seed=k)
    two = run_sweep(er, lambda k: 2)
    four = run_sweep(er, lambda k: 4)
    table = Table(
        "Table 1 / general SYNC on sparse ER (rounds)",
        ["placement"] + [f"k={k}" for k in K_SWEEP],
    )
    table.add_row("ℓ=2 roots", *[two[k] for k in K_SWEEP])
    table.add_row("ℓ=4 roots", *[four[k] for k in K_SWEEP])
    report("T1-SYNC-general (ER)", [table.render()])
    record_rows.append(("T1-SYNC-general-ER", {"ℓ=2": two[max(K_SWEEP)], "ℓ=4": four[max(K_SWEEP)]}))
    # Compare k=48 vs k=96 for the ℓ=4 row: at k=24 each group has only 6
    # agents, which takes the small-group scatter path rather than the
    # structured DFS, so the two regimes are not comparable.
    assert (four[96] / 96) / (four[48] / 48) < 2.5


@pytest.mark.parametrize("k", [48])
def test_wallclock_general_sync(benchmark, k):
    graph_factory = lambda: generators.erdos_renyi(int(k * 1.25), 10.0 / k, seed=k)
    result = benchmark.pedantic(
        lambda: general_sync_dispersion(graph_factory(), {0: k // 2, k // 2: k - k // 2}),
        rounds=3,
        iterations=1,
    )
    assert result.dispersed
