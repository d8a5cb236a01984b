"""Workloads ``generate-kron-shards`` and ``stream-skg-degrees``.

``generate-kron-shards`` is the paper's Section V path down to disk:
``generate_to_disk`` of a 434k-edge design on a multiprocessing backend
(started in set-up and kept for the run) with the completion-driven
work queue.  Encoding and writing the TSV shards dominates it.

``stream-skg-degrees`` streams the SKG model matched to the same design
into the degree sink on the default serial backend and static scheduler:
model tile generation and the static engine branch do the work, and no
shard is encoded.  A sink change should not move it.
"""

from __future__ import annotations

import importlib
import shutil
import time

import numpy as np

from common import (
    OpLog, batch_metrics, fresh_dir, median, metric, nproc, run_for, timed_setup,
)
from tracing import Tracer, replay_pairs

from repro.design import PowerLawDesign
from repro.design.distribution import DegreeDistribution
from repro.engine import (
    DegreeSink,
    RunConfig,
    ShardSink,
    StaticScheduler,
    WorkQueueScheduler,
    execute,
    iter_task_tiles,
    plan_from_model,
)
from repro.engine.sinks import DegreeConsumer, ShardConsumer
from repro.models import DeterministicKronModel, StochasticKroneckerModel, skg_from_design
from repro.parallel.backends import make_backend
from repro.parallel.stream import generate_to_disk, streamed_degree_distribution
from repro.runtime.checkpoint import RunManifest, file_checksum
from repro.runtime.metrics import DEFAULT_BUCKETS, MetricsRegistry

N_RANKS = 8
BUDGET = 2**20
#: Operations of a few tenths of a second, so that a run averages many,
#: each bracketed by reference timings (``common.Reference``).
SIZES = {
    "full": ([3, 4, 5, 9, 16], "center"),
    "tiny": ([3, 4, 5], "center"),
}

_stream_mod = importlib.import_module("repro.parallel.stream")
_execute_mod = importlib.import_module("repro.engine.execute")

#: Public calls wrapped with spans during a traced generation replay.
TRACE_TARGETS = [
    (_stream_mod, "plan_from_design", "plan.build"),
    (_stream_mod, "plan_from_model", "plan.build"),
    (_stream_mod, "engine_execute", "engine.execute"),
    (DeterministicKronModel, "tile_iter", "models.tile", "models"),
    (StochasticKroneckerModel, "tile_iter", "models.tile", "models"),
    (_execute_mod, "_transform_tile", "models.tile"),
    (ShardConsumer, "consume", "sinks.encode_write"),
    (ShardConsumer, "result", "checkpoint.close"),
    (ShardSink, "commit", "checkpoint.commit"),
    (ShardSink, "open", "checkpoint.manifest"),
    (ShardSink, "finalize", "checkpoint.manifest"),
    (DegreeConsumer, "consume", "sinks.degree_consume"),
]


class RecordingRegistry(MetricsRegistry):
    """A registry whose histograms also keep their raw observations, so
    a median can be taken (the program's histograms keep buckets only)."""

    def histogram(self, name, buckets=DEFAULT_BUCKETS):
        hist = super().histogram(name, buckets)
        if not hasattr(hist, "values"):
            hist.values = []
            observe = hist.observe

            def recording(value):
                observe(value)
                hist.values.append(float(value))

            hist.observe = recording
        return hist


def engine_metrics(registry: RecordingRegistry, wall_s: float, workers: int) -> dict:
    """Engine, executor and backend figures from the registry the run
    was given, plus two derived ones: overhead (wall minus busy
    worker-seconds per worker) and the slowest rank over the median."""
    snap = registry.snapshot()
    gauges, counters = snap["gauges"], snap["counters"]
    busy = sum(registry.histogram("rank.elapsed_s").values)
    rank_s = registry.histogram("stream.rank_s").values or registry.histogram(
        "rank.elapsed_s"
    ).values
    return {
        "engine.worker_utilization": metric(gauges.get("engine.worker_utilization", 0.0), "ratio"),
        "engine.queue_depth": metric(gauges.get("engine.queue_depth", 0.0), "count"),
        "engine.straggler_gap_s": metric(gauges.get("engine.straggler_gap_s", 0.0), "s"),
        "engine.tiles": metric(counters.get("engine.tiles", 0.0), "count"),
        "engine.peak_tile_entries": metric(gauges.get("engine.peak_tile_entries", 0.0), "count"),
        "engine.overhead_s": metric(wall_s - busy / workers, "s"),
        "engine.rank_max_over_median": metric(
            max(rank_s) / median(rank_s) if rank_s else 0.0, "ratio"
        ),
        "checkpoint.manifest_writes": metric(counters.get("checkpoint.manifest_writes", 0.0), "count"),
    }


# -- generate-kron-shards -------------------------------------------------------
class GenerateKronShards:
    """The ``generate-kron-shards`` workload."""

    #: Whole-array work that keeps every processor busy.
    REFERENCE = ("bulk", True)

    def __init__(self, args, work):
        sizes, loop = SIZES[args.size]
        self.design = PowerLawDesign(sizes, loop)
        self.work = work
        self.fault = args.fault
        self.workers = nproc()

    def _serial_config(self):
        return RunConfig(memory_budget_entries=BUDGET, backend="serial")

    def _make(self):
        """Reference checksums from the serial static path, and the
        worker pool the operations share."""
        ref_dir = fresh_dir(self.work / "reference")
        generate_to_disk(self.design, N_RANKS, ref_dir, config=self._serial_config())
        manifest = RunManifest.load(ref_dir)
        ref = {r: rec.checksum for r, rec in manifest.shards.items()}
        shutil.rmtree(ref_dir)
        return ref, make_backend("multiprocessing", self.workers)

    def setup(self, speed):
        (self.reference, self.backend), setup_s = timed_setup(
            self._make, speed, lambda state: state[1].shutdown()
        )
        return setup_s

    def close(self):
        backend = getattr(self, "backend", None)
        if backend is not None:
            backend.shutdown()

    def _generate(self, out, metrics=None):
        return generate_to_disk(
            self.design,
            N_RANKS,
            out,
            config=RunConfig(
                memory_budget_entries=BUDGET,
                backend=self.backend,
                scheduler=WorkQueueScheduler(),
            ),
            metrics=metrics,
        )

    def _check_dir(self, out) -> str | None:
        if self.fault == "shard-byte":
            shard = out / "edges.0.tsv"
            data = bytearray(shard.read_bytes())
            data[len(data) // 2] ^= 0x01
            shard.write_bytes(bytes(data))
        manifest = RunManifest.load(out)
        if manifest.total_nnz != self.design.num_edges:
            return f"total nnz {manifest.total_nnz} != {self.design.num_edges}"
        if sorted(manifest.shards) != sorted(self.reference):
            return "rank set differs from the reference"
        for rank, rec in manifest.shards.items():
            actual = file_checksum(out / rec.filename)
            if actual != self.reference[rank] or rec.checksum != actual:
                return f"rank {rank}: checksum {actual} != reference {self.reference[rank]}"
        return None

    def measure(self, seconds, reference):
        log = OpLog()

        def op(i):
            out = fresh_dir(self.work / f"op{i}")
            return out, self._generate(out)

        def check(i, output):
            out, summary = output
            try:
                if summary.total_edges != self.design.num_edges:
                    return f"summary edges {summary.total_edges}"
                return self._check_dir(out)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        run_for(seconds, op, check, log, reference)
        metrics, detail = batch_metrics(log, self.design.num_edges, reference)
        return log, metrics, {**detail, "workers": self.workers}

    def trace(self, seconds, tracer: Tracer):
        log = OpLog()
        out = fresh_dir(self.work / "registry-run")
        registry = RecordingRegistry()
        t0 = time.perf_counter()
        self._generate(out, metrics=registry)
        wall = time.perf_counter() - t0
        error = self._check_dir(out)
        log.add(wall, error is None, error)
        layers = engine_metrics(registry, wall, self.workers)

        replay_dir = self.work / "replay"

        def untraced():
            generate_to_disk(self.design, N_RANKS, fresh_dir(replay_dir), config=self._serial_config())

        plain, spanned, _ = replay_pairs(
            seconds, untraced, lambda tracer: untraced(), tracer, TRACE_TARGETS
        )
        error = self._check_dir(replay_dir)
        log.add(spanned[-1], error is None, error)
        size = sum(r.size_bytes for r in RunManifest.load(replay_dir).shards.values())
        layers["sinks.bytes"] = metric(size, "B")
        layers["sinks.bytes_per_edge"] = metric(size / self.design.num_edges, "B/edge")
        return log, layers, plain, spanned


# -- stream-skg-degrees ---------------------------------------------------------
class StreamSkgDegrees:
    """The ``stream-skg-degrees`` workload."""

    REFERENCE = ("bulk", False)

    def __init__(self, args, work):
        sizes, loop = SIZES[args.size]
        self.design = PowerLawDesign(sizes, loop)
        # The SKG seed is the one input this workload draws from --seed.
        self.model = skg_from_design(self.design, seed=args.seed)
        self.config = RunConfig(memory_budget_entries=BUDGET, model=self.model)

    def _make(self):
        """Reference degrees: model tiles plus a plain bincount."""
        plan = plan_from_model(self.model, N_RANKS, memory_budget_entries=BUDGET)
        counts = np.zeros(plan.num_vertices, dtype=np.int64)
        for task in plan.tasks:
            for rows, _cols, _vals in iter_task_tiles(plan, task):
                counts += np.bincount(rows, minlength=plan.num_vertices)
        degrees, freq = np.unique(counts, return_counts=True)
        return DegreeDistribution({int(d): int(c) for d, c in zip(degrees, freq)}), int(
            counts.sum()
        )

    def setup(self, speed):
        (self.reference, self.edges), setup_s = timed_setup(self._make, speed)
        return setup_s

    def _run(self):
        return streamed_degree_distribution(self.design, N_RANKS, config=self.config)

    def _check(self, dist) -> str | None:
        if self.edges != self.model.num_edges:
            return f"reference edges {self.edges} != model edges {self.model.num_edges}"
        if dist != self.reference:
            return "degree distribution differs from the bincount reference"
        return None

    def measure(self, seconds, reference):
        log = OpLog()
        run_for(seconds, lambda i: self._run(), lambda i, d: self._check(d), log, reference)
        metrics, detail = batch_metrics(log, self.edges, reference)
        return log, metrics, {**detail, "skg_seed": self.model.seed}

    def trace(self, seconds, tracer: Tracer):
        log = OpLog()
        # streamed_degree_distribution takes no registry; this is the
        # same plan, sink and scheduler through the engine entry point.
        registry = RecordingRegistry()
        plan = plan_from_model(self.model, N_RANKS, memory_budget_entries=BUDGET)
        t0 = time.perf_counter()
        result = execute(
            plan,
            DegreeSink(),
            config=RunConfig(scheduler=StaticScheduler(batch_size=1)),
            metrics=registry,
        )
        wall = time.perf_counter() - t0
        error = self._check(result.sink_result.distribution())
        log.add(wall, error is None, error)
        layers = engine_metrics(registry, wall, workers=1)

        plain, spanned, outputs = replay_pairs(
            seconds, self._run, lambda tracer: self._run(), tracer, TRACE_TARGETS
        )
        error = self._check(outputs[-1])
        log.add(spanned[-1], error is None, error)
        return log, layers, plain, spanned
