"""End-to-end benchmark of the dispersion simulator.

Usage, from the repository root::

    python3 e2ebench/run.py --workload sync-dfs --seed 0 --seconds 20 --trace 0

``--trace 0`` times whole passes of registered algorithms on both kernel
backends and prints the end-to-end metrics; ``--trace 1`` runs the traced
pass and prints the per-layer metrics.  Every record of every pass goes
through the correctness gate (:class:`Gate`) first.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  The exit
code is 0 only when every record passed the gate.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from timing import HostSpeed, Sample, quartiles, timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"

BACKENDS = ("reference", "vectorized")

#: Fresh interpreters timed for ``setup_s`` in every run.
SETUP_REPEATS = 7
#: Timed rounds a run makes even when ``--seconds`` runs out first.
MIN_ROUNDS = 3
#: Traced rounds a run makes: two, so that the exact counts can be compared.
MIN_TRACED_ROUNDS = 2
#: A warm-pass sample repeats the warm pass until it lasts about this long,
#: timing batches of passes that last about ``WARM_BATCH_S`` each.
WARM_SAMPLE_S = 0.4
WARM_BATCH_S = 0.02

#: Per-layer counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = (
    "core.until_checks",
    "agents.memory_writes",
    "agents.arrivals",
    "agents.settles",
    "kernel.calls",
    "backends.calls",
    "backends.fallback_calls",
    "engine.rounds",
    "engine.activations",
    "hooks.fault_ticks",
    "hooks.invariant_checks",
    "hooks.trace_events",
    "graph.builds",
    "graph.rewires",
    "runner.record_bytes",
    "store.puts",
)

COUNTERS = ("rounds", "epochs", "activations", "total_moves")


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/`` (there is no install step)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def simulated_counters(records: List[Any]) -> Dict[str, int]:
    """The paper's cost model summed over a pass: Σ rounds, epochs,
    activations, moves and the largest per-agent memory peak."""
    counts = {name: sum(getattr(r, name) or 0 for r in records) for name in COUNTERS}
    counts["peak_memory_bits"] = max((r.peak_memory_bits or 0) for r in records)
    return counts


class Gate:
    """The correctness gate every record passes before a number counts.

    The first pass on each backend is checked in full: ``check_record`` on
    every record, the vectorized record byte-equal to the reference record
    apart from the ``backend`` tag, and, for the default seed, the pinned
    simulated counters.  Every later record must be byte-equal (again apart
    from the tag) to its job's checked reference record.
    """

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.expected: Optional[List[str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 8:
            self.problems.append(problem)

    def first(self, passes: Dict[str, List[Any]]) -> None:
        from repro.fuzz.oracles import _record_key_without_backend, check_record
        from workloads import DEFAULT_SEED

        reference = passes["reference"]
        self.expected = [_record_key_without_backend(r) for r in reference]
        for backend, records in passes.items():
            self.attempted += len(records)
            for index, record in enumerate(records):
                verdict = check_record(record)
                if not verdict.ok:
                    self.fail(1, f"{backend} job {index} {record.algorithm}: {verdict.kind} {verdict.detail}")
                elif _record_key_without_backend(record) != self.expected[index]:
                    self.fail(1, f"{backend} job {index} {record.algorithm}: differs from reference")
        if self.workload.seed == DEFAULT_SEED:
            pinned = json.loads(PINNED.read_text())[self.workload.name]
            got = simulated_counters(reference)
            if got != pinned:
                self.fail(len(reference), f"simulated counters {got} != pinned {pinned}")

    def check(self, label: str, records: List[Any]) -> None:
        from repro.fuzz.oracles import _record_key_without_backend

        assert self.expected is not None
        self.attempted += len(records)
        if len(records) != len(self.expected):
            self.fail(len(records), f"{label}: {len(records)} records, expected {len(self.expected)}")
            return
        for index, record in enumerate(records):
            if _record_key_without_backend(record) != self.expected[index]:
                self.fail(1, f"{label} job {index} {record.algorithm}: differs from the checked record")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def host_record(seed: int) -> Dict[str, Any]:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
        "seed": seed,
    }


# ------------------------------------------------------------------- set-up
def setup_probe(workload: str, seed: int, store_path: str) -> None:
    """Child side of ``setup_s``: import, build every world, open the store,
    then report the monotonic clock and the host speed seen meanwhile."""
    with HostSpeed() as host:
        use_source_tree()
        from repro.store.db import RunStore
        from workloads import WORKLOADS

        WORKLOADS[workload](seed).build_worlds()
        store = RunStore(store_path)
        ready = time.monotonic()
    print(f"ready {ready!r} {host.speed!r} {host.probe_s!r}", flush=True)
    store.close()


def time_setup(workload: str, seed: int, tmp: str, index: int) -> Sample:
    """One fresh interpreter from spawn to its first job being ready
    (``time.monotonic`` is one clock for every process on the host)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
        "--seed", str(seed), "--store", os.path.join(tmp, f"setup-{index}.db"),
    ]
    start = time.monotonic()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        reply = proc.stdout.read().split()
    if proc.returncode != 0 or len(reply) != 4 or reply[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    ready, speed, probe_s = (float(x) for x in reply[1:])
    raw = ready - start - probe_s
    return Sample(raw, raw * speed, ready - start)


# ------------------------------------------------------------- measurement
class Bench:
    """One run of one workload: set-up, the checked warm-up passes, then
    timed rounds until the time is up."""

    def __init__(self, name: str, seed: int, seconds: float, tmp: str) -> None:
        from repro.store.db import RunStore
        from workloads import WORKLOADS

        self.seconds = seconds
        self.tmp = tmp
        self.workload = WORKLOADS[name](seed)
        self.setup = [time_setup(name, seed, tmp, i) for i in range(SETUP_REPEATS)]
        self.workload.build_worlds()
        self.gate = Gate(self.workload)
        self._stores = 0
        # The checked first passes; the reference one fills the warm store.
        warm_path = os.path.join(tmp, "warm.db")
        first = {}
        with RunStore(warm_path) as store:
            first["reference"] = self.workload.cold_pass("reference", store)
            if not self.workload.uses_store:
                self.workload.populate(store, first["reference"])
        with self.fresh_store() as store:
            first["vectorized"] = self.workload.cold_pass("vectorized", store)
        self.gate.first(first)
        self.moves = simulated_counters(first["reference"])["total_moves"]
        # Reopened after closing, so warm passes read a checkpointed file
        # rather than a write-ahead log whose length depends on the seed.
        self.warm_store = RunStore(warm_path)
        # Tiny warm passes are timed in batches of about WARM_BATCH_S, so
        # that a sample is long against the timer and the speed probe.
        start = time.perf_counter()
        self.gate.check("warm", self.workload.warm_pass(self.warm_store))
        once = time.perf_counter() - start
        self.warm_batch = max(1, round(WARM_BATCH_S / once))

    @contextlib.contextmanager
    def fresh_store(self) -> Iterator[Optional[Any]]:
        """An empty store in a directory of its own, removed afterwards;
        ``None`` for workloads that use no store.  Opened before any timing
        starts: opening a store is set-up."""
        if not self.workload.uses_store:
            yield None
            return
        from repro.store.db import RunStore

        self._stores += 1
        directory = os.path.join(self.tmp, f"cold-{self._stores}")
        os.makedirs(directory)
        store = RunStore(os.path.join(directory, "store.db"))
        try:
            yield store
        finally:
            store.close()
            shutil.rmtree(directory, ignore_errors=True)

    def close(self) -> None:
        self.warm_store.close()

    def cold(self, backend: str) -> Sample:
        with self.fresh_store() as store:
            gc.collect()
            records, sample = timed(lambda: self.workload.cold_pass(backend, store))
        self.gate.check(backend, records)
        return sample

    def warm(self) -> Sample:
        """Mean time of one warm pass, over batches of ``warm_batch`` passes
        timed one batch at a time until they add up to ``WARM_SAMPLE_S``."""
        gc.collect()
        total = Sample(0.0, 0.0, 0.0)
        passes = 0
        while passes == 0 or total.raw_s < WARM_SAMPLE_S:
            batch, sample = timed(
                lambda: [self.workload.warm_pass(self.warm_store) for _ in range(self.warm_batch)]
            )
            for records in batch:
                self.gate.check("warm", records)
            total.raw_s += sample.raw_s
            total.norm_s += sample.norm_s
            total.host_s += sample.host_s
            passes += self.warm_batch
        return Sample(total.raw_s / passes, total.norm_s / passes, total.host_s / passes)

    def rounds(self, min_rounds: int):
        """Yield the backend order of each timed round (alternating which
        backend goes first) until ``seconds`` have passed."""
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index < min_rounds or time.perf_counter() < deadline:
            yield BACKENDS if index % 2 == 0 else BACKENDS[::-1]
            index += 1

    # ------------------------------------------------------- end to end
    def end_to_end(self) -> Dict[str, List[Sample]]:
        samples: Dict[str, List[Sample]] = {
            "wall_s.reference": [], "wall_s.vectorized": [], "warm_s": [],
        }
        for order in self.rounds(MIN_ROUNDS):
            for backend in order:
                samples[f"wall_s.{backend}"].append(self.cold(backend))
            samples["warm_s"].append(self.warm())
        samples["setup_s"] = self.setup
        return samples

    # --------------------------------------------------------- per layer
    def traced(self, backend: str) -> Dict[str, float]:
        """One traced pass (for ``hooked-sweep`` the cold pass and a warm
        pass against its store) and its per-layer metrics."""
        from layers import PRIMITIVES, LayerTrace
        from repro.runner.artifacts import canonical_record_json

        with self.fresh_store() as store:
            gc.collect()
            trace = LayerTrace()
            with trace:
                records, sample = timed(lambda: self.workload.cold_pass(backend, store))
                cold_plans, attributed = len(trace.plans), trace.attributed_s
                if store is not None:
                    self.gate.check("traced warm", self.workload.warm_pass(store, backend))
            written = _bytes_on_disk(os.path.dirname(store.path)) if store is not None else 0
        self.gate.check(f"traced {backend}", records)
        warm_plans = trace.plans[cold_plans:]
        layer = {name: cell[0] for name, cell in trace.layer.items()}
        calls = trace.calls
        primitive_calls = sum(calls(f"VectorizedBackend.{p}") for p in PRIMITIVES)
        fast = primitive_calls - trace.counters["fallback_calls"]
        all_primitive = fast + trace.counters["fallback_calls"] + trace.counters["generic_calls"]
        return {
            "core.self_s": layer["core"],
            "core.until_checks": calls("run_until.predicate"),
            "core.until_s": trace.inclusive_s("run_until.predicate"),
            "agents.self_s": layer["agents"],
            "agents.memory_writes": calls("AgentMemory.write"),
            "agents.arrivals": calls("Agent.arrive"),
            "agents.settles": calls("Agent.settle"),
            "kernel.self_s": layer["kernel"],
            "kernel.calls": trace.layer["kernel"][1],
            "backends.self_s": layer["backends"],
            "backends.calls": trace.layer["backends"][1],
            "backends.fallback_calls": trace.counters["fallback_calls"],
            "backends.fast_ratio": fast / all_primitive if all_primitive else 0.0,
            "engine.self_s": layer["engine"] + layer["scheduler"],
            "engine.rounds": calls("SyncEngine.step"),
            "engine.activations": calls("AsyncEngine._activate"),
            "engine.scheduler_s": layer["scheduler"],
            "hooks.faults_s": layer["faults"],
            "hooks.fault_ticks": calls("FaultInjector.begin_tick"),
            "hooks.invariants_s": layer["invariants"],
            "hooks.invariant_checks": calls("InvariantChecker.after_tick"),
            "hooks.trace_s": layer["trace"],
            "hooks.trace_events": calls("TraceRecorder.record_tick") + calls("TraceRecorder.record_activation"),
            "graph.build_s": layer["graph"],
            "graph.builds": calls("PortLabeledGraph.__init__"),
            "graph.rewires": calls("PortLabeledGraph.rewire"),
            "runner.self_s": layer["runner"],
            "runner.record_bytes": sum(len(canonical_record_json(r).encode()) for r in records),
            "store.plan_s": trace.inclusive["plan_sweep"],
            "store.put_s": trace.inclusive["RunStore.put_many"],
            "store.puts": calls("RunStore.put_many"),
            "store.bytes_written": written,
            "store.hit_ratio": (
                sum(h for h, _ in warm_plans) / sum(t for _, t in warm_plans) if warm_plans else 0.0
            ),
            "runtime.gc_s": trace.gc_s,
            "runtime.gc_collections": trace.gc_collections,
            "trace.wall_s": sample.norm_s,
            "trace.unattributed_frac": 1.0 - attributed / sample.host_s,
            "_spans": trace.span_table(),
        }

    def per_layer(self) -> Dict[str, List[Any]]:
        from layers import wrapped_leftovers

        samples: Dict[str, List[Any]] = {}
        for order in self.rounds(MIN_TRACED_ROUNDS):
            for backend in order:
                plain = self.cold(backend)
                metrics = self.traced(backend)
                leftovers = wrapped_leftovers()
                if leftovers:
                    self.gate.fail(1, f"wrappers left installed: {leftovers[:3]}")
                metrics["trace.overhead_frac"] = metrics.pop("trace.wall_s") / plain.norm_s - 1.0
                for name, value in metrics.items():
                    samples.setdefault(f"{name}.{backend}", []).append(value)
        for name, values in samples.items():
            if name.rsplit(".", 1)[0] in EXACT_COUNTS and len(set(values)) != 1:
                self.gate.fail(1, f"{name} did not repeat exactly: {values}")
        return samples


def _bytes_on_disk(directory: str) -> int:
    """Bytes of a store's files (database and write-ahead log; not the
    shared-memory index)."""
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if not name.endswith("-shm")
    )


# ----------------------------------------------------------------- report
UNITS = {
    "wall_s": "s", "warm_s": "s", "setup_s": "s", "moves_per_s": "1/s", "peak_rss_mb": "MB",
    "self_s": "s", "until_s": "s", "scheduler_s": "s", "faults_s": "s", "invariants_s": "s",
    "trace_s": "s", "build_s": "s", "plan_s": "s", "put_s": "s", "gc_s": "s",
    "bytes_written": "bytes", "record_bytes": "bytes", "fast_ratio": "ratio", "hit_ratio": "ratio",
    "overhead_frac": "ratio", "unattributed_frac": "ratio",
}


def unit_of(name: str) -> str:
    for part in name.split("."):
        if part in UNITS:
            return UNITS[part]
    return "count"


def summarize_end_to_end(bench: Bench) -> Dict[str, Dict[str, Any]]:
    samples = bench.end_to_end()
    out: Dict[str, Dict[str, Any]] = {}
    for name, values in samples.items():
        norm = [s.norm_s for s in values]
        q1, q3 = quartiles(norm)
        out[name] = {
            "value": statistics.median(norm), "q1": q1, "q3": q3, "n": len(norm),
            "raw_median": statistics.median([s.raw_s for s in values]),
        }
    for backend in BACKENDS:
        wall = out[f"wall_s.{backend}"]
        out[f"moves_per_s.{backend}"] = {
            "value": bench.moves / wall["value"], "q1": bench.moves / wall["q3"],
            "q3": bench.moves / wall["q1"], "n": wall["n"],
            "raw_median": bench.moves / wall["raw_median"],
        }
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = {"value": rss_kb / 1024.0, "n": 1}
    return out


def summarize_per_layer(bench: Bench) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    spans: Dict[str, List[str]] = {}
    for name, values in bench.per_layer().items():
        if name.startswith("_spans."):
            spans[name.split(".", 1)[1]] = values[0]
            continue
        q1, q3 = quartiles(values)
        out[name] = {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
    for backend, lines in spans.items():
        print(f"heaviest spans ({backend}, first traced pass):")
        print("\n".join(lines))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Dict[str, Any]], Gate]:
    """One run: the end-to-end (or, with ``trace``, the per-layer) summary
    and the gate that checked it.  Scratch stores live in a directory under
    the checkout that is removed before returning."""
    tmp = tempfile.mkdtemp(prefix=".e2ebench-", dir=ROOT)
    try:
        bench = Bench(workload, seed, seconds, tmp)
        try:
            summary = summarize_per_layer(bench) if trace else summarize_end_to_end(bench)
        finally:
            bench.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return summary, bench.gate


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.store)
        return 0
    use_source_tree()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    host = host_record(args.seed)
    summary, gate = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    host["loadavg_after"] = list(os.getloadavg())
    print(json.dumps({"host": host, "workload": args.workload}, sort_keys=True))
    for name in sorted(summary):
        entry = summary[name]
        spread = f"  q1={entry['q1']:.6g} q3={entry['q3']:.6g}" if "q1" in entry else ""
        raw = f"  raw={entry['raw_median']:.6g}" if "raw_median" in entry else ""
        print(f"{name:<34} {entry['value']:>14.6g} {unit_of(name):<6} n={entry['n']}{spread}{raw}")
    print(f"{'failed_frac':<34} {gate.failed / max(gate.attempted, 1):>14.6g} ratio  "
          f"({gate.failed} of {gate.attempted} job runs)")
    for problem in gate.problems:
        print(f"gate: {problem}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": entry["value"], "unit": unit_of(name)} for name, entry in summary.items()
        },
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
