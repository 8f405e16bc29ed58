"""Trace-recording overhead: disabled tracing is free, enabled is bounded.

Two locks, matching the observability PR's acceptance criteria:

* **Off means free** -- with tracing disabled the recorder hooks compile
  down to one ``is None`` check per tick.  Their cost is locked in the same
  run by ``benchmarks/test_engine_fastpath.py`` (the kernel engines within
  10% of the distilled hook-free seed loops); here the untraced quick bench
  must keep the committed ``benchmarks/BENCH_kernel.json`` shape and the
  same-run speedup floor.  The ratio comparison against a baseline runs in
  CI's bench-guard, against the base commit on the same runner.
* **On is bounded** -- enabled tracing diffs every agent the kernel saw move
  or (un)settle, every tick, so it is *not* free; the committed trajectory data in
  ``benchmarks/BENCH_trace.json`` (same ``repro-bench-v1`` schema as the
  kernel baseline) records the measured overhead ratios, and this module
  re-measures them with a generous portable ceiling.

Regenerate the committed trajectory with::

    PYTHONPATH=src:. python benchmarks/test_trace_overhead.py
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import pytest

from repro.runner.bench import BENCH_FORMAT, load_report, run_bench, write_report
from repro.runner.execute import run_scenario
from repro.runner.scenario import ScenarioSpec
from repro.sim.backends import backend_available
from repro.sim.trace import trace_stats

#: Same-run vectorized/reference floor for the tracing-off quick bench (the
#: quick-tier floor of ``benchmarks/test_backend_throughput.py``).
OFF_MIN_SPEEDUP = 8.0

#: Portable ceiling for the traced/untraced wall-time ratio.  The committed
#: trajectory measures ~1.2-2.5x; 8x still catches a recorder accidentally
#: landing on the per-op hot path (that measures 50x+).
MAX_OVERHEAD = 8.0

#: Median-of-N estimator keeps a background blip from deciding a ratio.
REPEATS = 3

#: The measured worlds: one per engine family plus the random-walk baseline,
#: all big enough that per-run fixed costs do not dominate.
SCENARIOS = [
    ("rooted_sync", ScenarioSpec(family="complete", params={"n": 48}, k=32)),
    (
        "rooted_async",
        ScenarioSpec(family="erdos_renyi", params={"n": 40, "p": 0.25}, k=24, seed=1),
    ),
    (
        "random_walk",
        ScenarioSpec(family="erdos_renyi", params={"n": 64, "p": 0.2}, k=32, seed=1),
    ),
]


def _median_seconds(algorithm: str, spec: ScenarioSpec) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        record = run_scenario(algorithm, spec)
        samples.append(time.perf_counter() - start)
        assert record.status == "ok", record.error
    return sorted(samples)[len(samples) // 2]


def run_trace_bench(seed: int = 0) -> Dict[str, Any]:
    """Measure the traced/untraced wall-time ratio per scenario.

    Returns a ``repro-bench-v1`` payload whose single ``trace`` tier lists
    one untraced and one traced leg per workload, with the per-workload
    ratios under ``overheads`` (the analogue of the kernel report's
    ``speedups`` -- except here *lower* is better).
    """
    results: List[Dict[str, Any]] = []
    overheads: Dict[str, float] = {}
    for algorithm, spec in SCENARIOS:
        plain = _median_seconds(algorithm, spec)
        traced_spec = spec.with_trace()
        traced = _median_seconds(algorithm, traced_spec)
        stats = trace_stats(run_scenario(algorithm, traced_spec).trace)
        for mode, seconds in (("untraced", plain), ("traced", traced)):
            results.append(
                {
                    "workload": algorithm,
                    "backend": mode,
                    "nodes": spec.params["n"],
                    "agents": spec.k,
                    "rounds": stats["events"] if mode == "traced" else 0,
                    "seconds": round(seconds, 6),
                }
            )
        overheads[algorithm] = round(traced / plain, 3) if plain > 0 else 1.0
    return {
        "format": BENCH_FORMAT,
        "quick": True,
        "seed": seed,
        "tiers": {
            "trace": {
                "nodes": max(spec.params["n"] for _, spec in SCENARIOS),
                "agents": max(spec.k for _, spec in SCENARIOS),
                "results": results,
                "overheads": overheads,
            }
        },
    }


@pytest.mark.skipif(
    not backend_available("vectorized"), reason="numpy not installed"
)
def test_tracing_off_stays_on_the_kernel_baseline():
    """The untraced quick bench measures every workload of the committed
    baseline's quick tier and holds the same-run floor on each.

    Ratios are not compared with the committed numbers: they were measured
    on another machine, and the vectorized/reference ratio moves with the
    host.
    """
    payload = run_bench(["reference", "vectorized"], quick=True)
    baseline = load_report("benchmarks/BENCH_kernel.json")
    speedups = payload["tiers"]["quick"]["speedups"]
    assert set(speedups) == set(baseline["tiers"]["quick"]["speedups"])
    for workload, ratios in speedups.items():
        assert ratios["vectorized"] >= OFF_MIN_SPEEDUP, (
            f"untraced {workload} speedup {ratios['vectorized']:.1f}x fell "
            f"below {OFF_MIN_SPEEDUP:.0f}x"
        )


def test_traced_runs_stay_under_the_overhead_ceiling():
    payload = run_trace_bench()
    for workload, ratio in payload["tiers"]["trace"]["overheads"].items():
        assert ratio <= MAX_OVERHEAD, (
            f"{workload}: traced/untraced ratio {ratio:.2f}x exceeds the "
            f"{MAX_OVERHEAD:.0f}x ceiling -- recording leaked onto the hot path?"
        )


def test_committed_trace_trajectory_is_well_formed():
    """The committed trajectory stays loadable and covers every workload."""
    payload = load_report("benchmarks/BENCH_trace.json")
    tier = payload["tiers"]["trace"]
    measured = {entry["workload"] for entry in tier["results"]}
    assert measured == {name for name, _ in SCENARIOS}
    for entry in tier["results"]:
        assert entry["backend"] in ("untraced", "traced")
        assert entry["seconds"] > 0
    for workload, ratio in tier["overheads"].items():
        assert workload in measured
        assert 0 < ratio <= MAX_OVERHEAD


if __name__ == "__main__":
    path = write_report(run_trace_bench(), "benchmarks/BENCH_trace.json")
    print(f"wrote trace overhead trajectory to {path}")
