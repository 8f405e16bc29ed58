"""Unit tests for ``repro bench`` machinery (:mod:`repro.runner.bench`).

Real measurements (the 10x acceptance locks) live in
``benchmarks/test_backend_throughput.py``; here the budgets are shrunk to
milliseconds so the report schema, the tier structure, the render, and the
bench-guard gate logic are pinned without burning wall-clock.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.runner import bench
from repro.sim.backends import backend_available


@pytest.fixture(autouse=True)
def tiny_budgets(monkeypatch):
    """Millisecond budgets and toy worlds: schema tests, not measurements."""
    monkeypatch.setattr(bench, "FULL_BUDGET_S", 0.02)
    monkeypatch.setattr(bench, "QUICK_BUDGET_S", 0.02)
    monkeypatch.setattr(bench, "FULL_NODES", 64)
    monkeypatch.setattr(bench, "QUICK_NODES", 36)


def test_bench_scenario_builds_a_near_square_grid():
    spec = bench.bench_scenario(100, 50)
    assert spec.family == "grid2d"
    rows, cols = spec.params["rows"], spec.params["cols"]
    assert rows * cols >= 100
    assert abs(rows - cols) <= 1
    assert spec.k == 50


def test_quick_payload_has_only_the_quick_tier():
    payload = bench.run_bench(["reference"], quick=True)
    assert payload["format"] == bench.BENCH_FORMAT
    assert payload["quick"] is True
    assert list(payload["tiers"]) == ["quick"]
    tier = payload["tiers"]["quick"]
    assert {r["workload"] for r in tier["results"]} == set(bench.WORKLOADS)
    for entry in tier["results"]:
        assert entry["backend"] == "reference"
        assert entry["steps"] >= 0 and entry["steps_per_second"] >= 0


def test_default_payload_carries_both_tiers_for_the_guard():
    payload = bench.run_bench(["reference"])
    assert payload["quick"] is False
    assert sorted(payload["tiers"]) == ["full", "quick"]
    assert payload["tiers"]["full"]["nodes"] >= payload["tiers"]["quick"]["nodes"]


def test_unknown_workload_is_rejected():
    for workload in ("warp", "random_walk", "dispersion"):
        with pytest.raises(ValueError, match="unknown workload"):
            bench.run_bench(["reference"], workloads=[workload], quick=True)


def test_scale_tiers_replace_quick_and_ride_along_otherwise():
    only_scale = bench.run_bench(["reference"], quick=True, scale=[30, 48])
    assert sorted(only_scale["tiers"]) == ["scale-30", "scale-48"]
    assert only_scale["tiers"]["scale-48"]["nodes"] >= 48
    with_scale = bench.run_bench(["reference"], scale=[30])
    assert sorted(with_scale["tiers"]) == ["full", "quick", "scale-30"]
    with pytest.raises(ValueError, match="not both"):
        bench.run_bench(["reference"], nodes=64, scale=[30])


def test_short_horizon_marks_reference_rows_at_large_sizes(monkeypatch):
    """Above the cutoff, reference legs run unwarmed one-round chunks and say
    so in the row; non-reference legs keep the amortizing ladder."""
    below = bench.run_bench(["reference"], workloads=["scatter"], quick=True)
    (quick_row,) = below["tiers"]["quick"]["results"]
    assert "short_horizon" not in quick_row  # default cutoff is far above 36
    monkeypatch.setattr(bench, "SHORT_HORIZON_NODES", 32)
    payload = bench.run_bench(
        ["reference"], workloads=["scatter"], quick=True, scale=[36]
    )
    (row,) = payload["tiers"]["scale-36"]["results"]
    assert row["short_horizon"] is True
    assert row["rounds"] <= bench.SHORT_HORIZON_CALLS  # chunk=1, capped calls


def test_scatter_and_probe_workloads_measure_real_steps():
    payload = bench.run_bench(
        ["reference"], workloads=["scatter", "probe"], quick=True
    )
    rows = {r["workload"]: r for r in payload["tiers"]["quick"]["results"]}
    # scatter: every round moves the whole population one hop
    assert rows["scatter"]["steps"] == rows["scatter"]["rounds"] * 36
    assert rows["scatter"]["rounds"] > 0
    # probe: query sweeps advance no rounds; steps count answered queries
    assert rows["probe"]["rounds"] == 0
    assert rows["probe"]["steps"] > 0 and rows["probe"]["steps"] % 36 == 0


@pytest.mark.skipif(not backend_available("vectorized"), reason="numpy not installed")
def test_speedups_are_ratios_over_the_reference_leg():
    payload = bench.run_bench(["reference", "vectorized"], quick=True)
    tier = payload["tiers"]["quick"]
    rates = {
        (r["workload"], r["backend"]): r["steps_per_second"]
        for r in tier["results"]
    }
    for workload in bench.WORKLOADS:
        ratio = tier["speedups"][workload]["vectorized"]
        expect = rates[(workload, "vectorized")] / rates[(workload, "reference")]
        assert ratio == pytest.approx(expect, rel=1e-3)
        assert "reference" not in tier["speedups"][workload]


def test_render_shows_every_tier_block():
    payload = bench.run_bench(["reference"])
    text = bench.render(payload)
    assert "kernel bench [full]" in text
    assert "kernel bench [quick]" in text
    assert "scatter" in text and "probe" in text


def test_write_and_load_report_round_trip(tmp_path):
    payload = bench.run_bench(["reference"], quick=True)
    path = bench.write_report(payload, str(tmp_path / "BENCH_kernel.json"))
    assert bench.load_report(path) == payload
    # canonical bytes: stable key order, trailing newline
    text = (tmp_path / "BENCH_kernel.json").read_text()
    assert text.endswith("\n")
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_load_report_rejects_foreign_json(tmp_path):
    path = tmp_path / "foreign.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a repro-bench-v1"):
        bench.load_report(str(path))


# ----------------------------------------------------------------- bench-guard


def fake_payload(quick_ratio: float, tiers=("full", "quick")) -> dict:
    tier = {
        "nodes": 36,
        "agents": 36,
        "results": [],
        "speedups": {"scatter": {"vectorized": quick_ratio}},
    }
    return {
        "format": bench.BENCH_FORMAT,
        "quick": False,
        "seed": 0,
        "tiers": {name: copy.deepcopy(tier) for name in tiers},
    }


def write_baseline(tmp_path, payload):
    return bench.write_report(payload, str(tmp_path / "baseline.json"))


def test_check_passes_when_ratios_hold(tmp_path):
    baseline = write_baseline(tmp_path, fake_payload(40.0))
    assert bench.check_report(fake_payload(40.0), baseline) == []
    # faster than baseline never fails
    assert bench.check_report(fake_payload(400.0), baseline) == []
    # within the band
    assert bench.check_report(fake_payload(31.0), baseline, tolerance=0.25) == []


def test_check_flags_a_regression_below_the_band(tmp_path):
    baseline = write_baseline(tmp_path, fake_payload(40.0))
    problems = bench.check_report(fake_payload(29.0), baseline, tolerance=0.25)
    assert len(problems) == 2  # both tiers regressed
    assert "fell below 30.00x" in problems[0]


@pytest.mark.skipif(not backend_available("vectorized"), reason="numpy not installed")
def test_check_flags_a_planted_2x_vectorized_slowdown(tmp_path):
    """The same-runner gate catches a real regression: halve every vectorized
    steps/s of a measured report and check it against the original."""
    measured = bench.run_bench(["reference", "vectorized"], quick=True)
    baseline = write_baseline(tmp_path, measured)
    assert bench.check_report(measured, baseline, tolerance=0.25) == []
    slowed = copy.deepcopy(measured)
    for tier in slowed["tiers"].values():
        for row in tier["results"]:
            if row["backend"] == "vectorized":
                row["steps_per_second"] /= 2
        tier["speedups"] = bench._speedups(tier["results"])
    problems = bench.check_report(slowed, baseline, tolerance=0.25)
    assert sorted(p.split(":")[0] for p in problems) == [
        f"[quick] {workload}/vectorized" for workload in sorted(bench.WORKLOADS)
    ]


def test_check_compares_only_common_tiers(tmp_path):
    """A --quick fresh report gates against the baseline's quick tier only."""
    baseline = write_baseline(tmp_path, fake_payload(40.0))
    fresh = fake_payload(29.0, tiers=("quick",))
    problems = bench.check_report(fresh, baseline, tolerance=0.25)
    assert len(problems) == 1
    assert problems[0].startswith("[quick]")
    # and a healthy quick tier passes even though no full tier is present
    assert bench.check_report(fake_payload(40.0, tiers=("quick",)), baseline) == []


def test_check_flags_missing_pairs_and_disjoint_tiers(tmp_path):
    baseline = write_baseline(tmp_path, fake_payload(40.0))
    empty = fake_payload(40.0)
    for tier in empty["tiers"].values():
        tier["speedups"] = {}
    assert any(
        "no fresh measurement" in p for p in bench.check_report(empty, baseline)
    )
    disjoint = fake_payload(40.0, tiers=())
    assert any(
        "no common tier" in p for p in bench.check_report(disjoint, baseline)
    )


def test_check_validates_tolerance(tmp_path):
    baseline = write_baseline(tmp_path, fake_payload(40.0))
    with pytest.raises(ValueError, match="tolerance"):
        bench.check_report(fake_payload(40.0), baseline, tolerance=1.5)
