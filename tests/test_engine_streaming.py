"""Completion-driven execution: determinism, backpressure, and metrics.

The engine's contract is that the work-queue scheduler changes *when*
ranks execute but never *what* lands on disk: sink commits stay in
ascending rank order, so shard bytes, ``manifest.json``, and resume
state are byte-identical to the static path.
"""

import json
from pathlib import Path

import pytest

from repro.design import PowerLawDesign
from repro.engine import RunConfig, WorkQueueScheduler
from repro.parallel import (
    ParallelKroneckerGenerator,
    ThreadBackend,
    VirtualCluster,
    generate_to_disk,
    streamed_degree_distribution,
)
from repro.runtime import FailureInjector, MetricsRegistry


def _read_shards(summary):
    return {Path(p).name: Path(p).read_bytes() for p in summary.files}


def _read_manifest(directory):
    with open(directory / "manifest.json") as fh:
        return json.load(fh)


class TestRankOrderCommitDeterminism:
    """Satellite: out-of-order execution, in-order commit."""

    def test_queue_output_byte_identical_to_static(self, tmp_path):
        design = PowerLawDesign([3, 4, 5], "center")
        static_dir = tmp_path / "static"
        queue_dir = tmp_path / "queue"

        static = generate_to_disk(design, 6, static_dir)
        # Delay rank 0 by one injected transient failure so later ranks
        # finish first on the thread pool — commits must still land 0..5.
        queued = generate_to_disk(
            design,
            6,
            queue_dir,
            config=RunConfig(
                backend=ThreadBackend(max_workers=2),
                scheduler=WorkQueueScheduler(),
            ),
            failure_injector=FailureInjector([0], fail_attempts=1),
            max_retries=1,
        )

        assert [Path(p).name for p in static.files] == [
            Path(p).name for p in queued.files
        ]
        assert _read_shards(static) == _read_shards(queued)

        static_manifest = _read_manifest(static_dir)
        queue_manifest = _read_manifest(queue_dir)
        assert static_manifest == queue_manifest
        assert static.total_edges == queued.total_edges == design.num_edges

    def test_backpressure_budget_preserves_output(self, tmp_path):
        # A tiny reorder budget forces the buffer to throttle submission
        # toward the commit pointer; bytes must not change.
        design = PowerLawDesign([3, 4, 5], "center")
        loose = generate_to_disk(design, 8, tmp_path / "loose")
        tight = generate_to_disk(
            design,
            8,
            tmp_path / "tight",
            config=RunConfig(
                memory_budget_entries=63,
                backend=ThreadBackend(max_workers=4),
                scheduler=WorkQueueScheduler(),
            ),
        )
        assert _read_shards(loose) == _read_shards(tight)
        assert _read_manifest(tmp_path / "loose") == _read_manifest(
            tmp_path / "tight"
        )

    def test_serial_backend_on_queue_path(self, tmp_path):
        # The streaming branch must also hold on the reference backend.
        design = PowerLawDesign([3, 4], "leaf")
        static = generate_to_disk(design, 3, tmp_path / "a")
        queued = generate_to_disk(
            design,
            3,
            tmp_path / "b",
            config=RunConfig(scheduler=WorkQueueScheduler()),
        )
        assert _read_shards(static) == _read_shards(queued)


class TestQueueSchedulerAcrossSinks:
    def test_assembly_sink_matches_materialization(self):
        from repro.graphs import star_adjacency
        from repro.kron import KroneckerChain

        chain = KroneckerChain(
            [star_adjacency(3), star_adjacency(4), star_adjacency(5)]
        )
        gen = ParallelKroneckerGenerator(
            chain,
            VirtualCluster(4),
            backend=ThreadBackend(max_workers=2),
            scheduler=WorkQueueScheduler(),
        )
        assert gen.assemble().equal(chain.materialize())

    def test_degree_sink_matches_design_prediction(self):
        design = PowerLawDesign([3, 4, 5], "center")
        dist = streamed_degree_distribution(
            design,
            6,
            config=RunConfig(
                backend=ThreadBackend(max_workers=2),
                scheduler=WorkQueueScheduler(),
            ),
        )
        assert dist == design.degree_distribution


class TestStreamingMetrics:
    def test_queue_metrics_populated(self, tmp_path):
        metrics = MetricsRegistry()
        generate_to_disk(
            PowerLawDesign([3, 4, 5], "center"),
            6,
            tmp_path,
            config=RunConfig(
                backend=ThreadBackend(max_workers=2),
                scheduler=WorkQueueScheduler(),
            ),
            metrics=metrics,
        )
        gauges = metrics.snapshot()["gauges"]
        assert gauges["engine.queue_depth"] >= 1
        assert 0.0 < gauges["engine.worker_utilization"] <= 1.0
        assert gauges["engine.straggler_gap_s"] >= 0.0

    def test_static_path_reports_utilization_but_no_queue_depth(self, tmp_path):
        metrics = MetricsRegistry()
        generate_to_disk(
            PowerLawDesign([3, 4], "center"), 3, tmp_path, metrics=metrics
        )
        gauges = metrics.snapshot()["gauges"]
        assert gauges["engine.queue_depth"] == 0
        assert 0.0 < gauges["engine.worker_utilization"] <= 1.0

    def test_peak_tile_gauge_resets_between_runs(self, tmp_path):
        """Satellite regression: the gauge reflects *this* run, not the max
        over the registry's lifetime."""
        metrics = MetricsRegistry()
        big = PowerLawDesign([3, 4, 5, 9], "center")
        generate_to_disk(big, 4, tmp_path / "big", metrics=metrics)
        first_peak = metrics.snapshot()["gauges"]["engine.peak_tile_entries"]

        small = PowerLawDesign([3, 2], "center")
        generate_to_disk(small, 2, tmp_path / "small", metrics=metrics)
        second_peak = metrics.snapshot()["gauges"]["engine.peak_tile_entries"]

        assert second_peak < first_peak


class TestInjectorMapping:
    def test_injector_follows_task_identity_not_position(self, tmp_path):
        # LPT reorders submission, so positional mapping would fire the
        # injector on the wrong rank; a fatal injection on rank 2 must
        # name rank 2 no matter where LPT placed it.
        from repro.errors import FatalRankError

        with pytest.raises(FatalRankError, match="rank 2"):
            generate_to_disk(
                PowerLawDesign([3, 4, 5], "center"),
                6,
                tmp_path,
                config=RunConfig(scheduler=WorkQueueScheduler()),
                failure_injector=FailureInjector([2], fatal=True),
            )


class TestGroupBarrier:
    """Every scheduler runs the one dispatch loop; static groups are
    barriers inside it."""

    def test_next_batch_starts_only_after_previous_commits(self):
        from repro.engine import (
            AssemblySink,
            RunConfig,
            StaticScheduler,
            execute,
            plan_from_design,
        )
        from repro.runtime import RankEvents

        log = []

        class RecordingSink(AssemblySink):
            def commit(self, task, outcome):
                log.append(("commit", task.rank))
                super().commit(task, outcome)

        design = PowerLawDesign([3, 4, 5], "center")
        plan = plan_from_design(design, 8)
        backend = ThreadBackend(max_workers=4)
        try:
            result = execute(
                plan,
                RecordingSink(),
                config=RunConfig(
                    backend=backend, scheduler=StaticScheduler(batch_size=2)
                ),
                events=RankEvents(
                    on_rank_start=lambda rank, attempt: log.append(("start", rank))
                ),
            )
        finally:
            backend.shutdown()

        assert result.total_nnz == plan.expected_edges
        assert [r for kind, r in log if kind == "commit"] == list(range(8))
        for pos, (kind, rank) in enumerate(log):
            if kind != "start":
                continue
            committed = {r for k, r in log[:pos] if k == "commit"}
            earlier_batches = set(range(rank // 2 * 2))
            assert earlier_batches <= committed, (rank, log)
        # The barrier sits between batches only: both ranks of a batch
        # are in flight together on the 4-worker pool.
        for k in range(4):
            first = log.index(("start", 2 * k))
            assert log[first + 1] == ("start", 2 * k + 1)

    def test_descending_groups_refused(self):
        from repro.engine import AssemblySink, RunConfig, execute, plan_from_design
        from repro.errors import GenerationError

        class Backwards:
            def order(self, tasks, *, memory_budget_entries=None):
                return [(t,) for t in sorted(tasks, key=lambda t: -t.rank)]

        plan = plan_from_design(PowerLawDesign([3, 4], "center"), 2)
        with pytest.raises(GenerationError, match="ascend in rank"):
            execute(plan, AssemblySink(), config=RunConfig(scheduler=Backwards()))


class TestBackendOwnership:
    """``execute`` shuts down a backend it resolved itself, never one the
    caller passed in."""

    @pytest.mark.parametrize("scheduler", [None, WorkQueueScheduler()])
    def test_resolved_backend_leaves_no_live_children(self, tmp_path, scheduler):
        import multiprocessing

        from repro.engine import RunConfig

        before = set(multiprocessing.active_children())
        summary = generate_to_disk(
            PowerLawDesign([3, 4, 5], "center"),
            4,
            tmp_path,
            config=RunConfig(backend="multiprocessing", scheduler=scheduler),
        )
        assert summary.total_edges == PowerLawDesign([3, 4, 5], "center").num_edges
        assert set(multiprocessing.active_children()) - before == set()

    def test_generator_releases_backend_it_resolved(self):
        import multiprocessing

        design = PowerLawDesign([3, 4, 5], "center")
        before = set(multiprocessing.active_children())
        gen = ParallelKroneckerGenerator(
            design.to_chain(), VirtualCluster(4), backend="multiprocessing"
        )
        assert gen.assemble().nnz == design.to_chain().nnz
        assert set(multiprocessing.active_children()) - before == set()
        # A later run on the same generator restarts the pool.
        assert gen.assemble().nnz == design.to_chain().nnz

    def test_caller_backend_stays_open_for_reuse(self, tmp_path):
        from repro.engine import RunConfig
        from repro.parallel import MultiprocessingBackend

        design = PowerLawDesign([3, 4, 5], "center")
        backend = MultiprocessingBackend(processes=2)
        config = RunConfig(backend=backend, scheduler=WorkQueueScheduler())
        try:
            first = generate_to_disk(design, 4, tmp_path / "a", config=config)
            pool = backend._executor
            assert pool is not None
            second = generate_to_disk(design, 4, tmp_path / "b", config=config)
            assert backend._executor is pool
        finally:
            backend.shutdown()
        assert _read_shards(first) == _read_shards(second)
