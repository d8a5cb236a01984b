"""Failure injection: prove the validators catch every fault class.

The paper's pitch is *validation* — so the validation layer must fail
loudly when generation is wrong, not just pass when it is right.  Each
test corrupts one specific thing (a dropped edge, a duplicated block, a
stray self-loop, a tampered file, a wrong prediction) and asserts the
corresponding check reports it.
"""

from dataclasses import dataclass as _dataclass

import numpy as np
import pytest

from repro.design import DegreeDistribution, PowerLawDesign
from repro.engine import RunConfig
from repro.errors import FatalRankError, RetryExhaustedError
from repro.graphs import Graph
from repro.runtime import FailureInjector
from repro.parallel import (
    ParallelKroneckerGenerator,
    VirtualCluster,
    generate_to_disk,
    read_streamed_degree_distribution,
)
from repro.parallel.generator import RankBlock
from repro.sparse.coo import COOMatrix
from repro.validate import (
    audit_graph_structure,
    audit_partition,
    check_degree_distribution,
    check_triangles,
    validate_design,
)

DESIGN = PowerLawDesign([3, 4, 5], "center")


def drop_one_edge(graph: Graph) -> Graph:
    """Remove one undirected edge (both stored directions)."""
    coo = graph.adjacency
    # Pick the first off-diagonal entry and drop it with its mirror.
    off = np.flatnonzero(coo.rows != coo.cols)[0]
    i, j = int(coo.rows[off]), int(coo.cols[off])
    return Graph(coo.with_entry(i, j, 0).with_entry(j, i, 0))


def drop_one_direction(graph: Graph) -> Graph:
    """Remove a single stored direction, breaking symmetry."""
    coo = graph.adjacency
    keep = np.ones(coo.nnz, dtype=bool)
    keep[0] = False
    return Graph(
        COOMatrix(coo.shape, coo.rows[keep], coo.cols[keep], coo.vals[keep], _canonical=True)
    )


class TestDegreeCheckCatches:
    def test_dropped_edge(self):
        corrupted = drop_one_edge(DESIGN.realize())
        check = check_degree_distribution(corrupted, DESIGN.degree_distribution)
        assert not check.exact_match
        assert len(check.mismatches) >= 1

    def test_extra_edge(self):
        graph = DESIGN.realize()
        coo = graph.adjacency
        # Add a bogus edge between two previously non-adjacent vertices.
        bogus = Graph(coo.with_entry(1, 2, 1).with_entry(2, 1, 1))
        check = check_degree_distribution(bogus, DESIGN.degree_distribution)
        assert not check.exact_match

    def test_wrong_prediction_detected_symmetrically(self):
        graph = DESIGN.realize()
        wrong = DegreeDistribution(
            {d: c for d, c in DESIGN.degree_distribution.items()}
        ).shift_vertex(1, 2)
        assert not check_degree_distribution(graph, wrong).exact_match


class TestTriangleCheckCatches:
    def test_dropped_edge_changes_triangles(self):
        corrupted = drop_one_edge(DESIGN.realize())
        check = check_triangles(corrupted, DESIGN.num_triangles)
        assert not check.exact_match

    def test_wrong_prediction(self):
        check = check_triangles(DESIGN.realize(), DESIGN.num_triangles + 1)
        assert not check.exact_match
        assert "MISMATCH" in check.to_text()

    def test_asymmetric_graph_reported_not_raised(self):
        # Validation must report a corrupted (asymmetric) graph, never
        # crash on it.
        broken = drop_one_direction(DESIGN.realize())
        check = check_triangles(broken, DESIGN.num_triangles)
        assert not check.exact_match
        assert check.error is not None
        assert "UNCOUNTABLE" in check.to_text()


class TestStructureAuditCatches:
    def test_leftover_self_loop(self):
        # Simulate forgetting the loop-removal step.
        raw = DESIGN.to_chain().materialize()
        audit = audit_graph_structure(Graph(raw))
        assert not audit.clean
        assert audit.num_self_loops == 1

    def test_asymmetry(self):
        coo = DESIGN.realize().adjacency
        broken = Graph(coo.with_entry(int(coo.rows[0]), int(coo.cols[0]), 0))
        audit = audit_graph_structure(broken)
        assert not audit.symmetric

    def test_empty_vertices(self):
        from repro.sparse import from_edges

        audit = audit_graph_structure(Graph(from_edges(10, [(0, 1)])))
        assert audit.num_empty_vertices == 8
        assert not audit.clean


class TestPartitionAuditCatches:
    def _generator(self):
        return ParallelKroneckerGenerator(DESIGN.to_chain(), VirtualCluster(4))

    def test_missing_block(self):
        gen = self._generator()
        blocks = gen.generate_blocks()
        audit = audit_partition(gen.plan, blocks[:-1], DESIGN.raw_nnz)
        assert not audit.complete
        assert audit.total_nnz < audit.expected_nnz

    def test_duplicated_block(self):
        gen = self._generator()
        blocks = gen.generate_blocks()
        dup = blocks + [blocks[0]]
        audit = audit_partition(gen.plan, dup, DESIGN.raw_nnz)
        assert not audit.disjoint
        assert not audit.complete

    def test_imbalanced_blocks_flagged(self):
        gen = self._generator()
        blocks = gen.generate_blocks()
        # Replace rank 0's block with a half-truncated impostor.
        b0 = blocks[0]
        half = b0.nnz // 2
        truncated = RankBlock(
            rank=0,
            block=COOMatrix(
                b0.block.shape,
                b0.block.rows[:half],
                b0.block.cols[:half],
                b0.block.vals[:half],
                _canonical=True,
            ),
            col_base=b0.col_base,
            c_cols=b0.c_cols,
            elapsed_s=0.0,
        )
        tampered = [truncated] + list(blocks[1:])
        audit = audit_partition(gen.plan, tampered, DESIGN.raw_nnz)
        assert not audit.complete
        assert not audit.balanced


class TestStreamedValidationCatches:
    def test_truncated_rank_file(self, tmp_path):
        summary = generate_to_disk(DESIGN, 4, tmp_path)
        victim = summary.files[2]
        lines = open(victim).read().splitlines()
        with open(victim, "w") as fh:
            fh.write("\n".join(lines[:-3]) + "\n")
        measured = read_streamed_degree_distribution(
            summary.files, DESIGN.num_vertices
        )
        check = check_degree_distribution(measured, DESIGN.degree_distribution)
        assert not check.exact_match

    def test_duplicated_rank_file(self, tmp_path):
        summary = generate_to_disk(DESIGN, 4, tmp_path)
        files = list(summary.files) + [summary.files[0]]
        measured = read_streamed_degree_distribution(files, DESIGN.num_vertices)
        assert measured != DESIGN.degree_distribution


class TestRetryRecoversFromInjectedFailures:
    """Injected rank failures must be retried and succeed, not abort."""

    def _generator(self, **kwargs):
        return ParallelKroneckerGenerator(
            DESIGN.to_chain(), VirtualCluster(4), **kwargs
        )

    def test_injected_failures_recovered_and_assembly_exact(self):
        chain = DESIGN.to_chain()
        gen = self._generator(
            max_retries=2,
            failure_injector=FailureInjector([0, 2], fail_attempts=1),
        )
        assembled = gen.assemble()
        assert assembled.nnz == chain.nnz
        assert assembled.equal(chain.materialize())
        assert gen.last_execution.total_retries == 2
        assert [r.retries for r in gen.last_execution.reports] == [1, 0, 1, 0]

    def test_every_rank_failing_once_still_succeeds(self):
        gen = self._generator(
            max_retries=1,
            failure_injector=FailureInjector([0, 1, 2, 3], fail_attempts=1),
        )
        blocks = gen.generate_blocks()
        assert sum(b.nnz for b in blocks) == DESIGN.to_chain().nnz

    def test_without_retry_budget_injection_aborts(self):
        gen = self._generator(
            max_retries=0, failure_injector=FailureInjector([1])
        )
        with pytest.raises(RetryExhaustedError):
            gen.generate_blocks()

    def test_fatal_injection_not_retried(self):
        gen = self._generator(
            max_retries=5,
            failure_injector=FailureInjector([2], fatal=True),
        )
        with pytest.raises(FatalRankError):
            gen.generate_blocks()

    def test_retries_survive_multiprocessing_boundary(self):
        from repro.parallel import MultiprocessingBackend

        chain = DESIGN.to_chain()
        gen = ParallelKroneckerGenerator(
            chain,
            VirtualCluster(4),
            backend=MultiprocessingBackend(processes=2),
            max_retries=2,
            failure_injector=FailureInjector([1, 3], fail_attempts=1),
        )
        assert gen.assemble().nnz == chain.nnz
        assert gen.last_execution.total_retries == 2

    def test_recovered_run_passes_partition_audit(self):
        gen = self._generator(
            max_retries=2, failure_injector=FailureInjector([0], fail_attempts=2)
        )
        blocks = gen.generate_blocks()
        audit = audit_partition(gen.plan, blocks, DESIGN.raw_nnz)
        assert audit.complete
        assert audit.disjoint


class TestEndToEndReportCatches:
    def test_report_flags_wrong_graph(self):
        report = validate_design(DESIGN, graph=PowerLawDesign([3, 4, 5], "leaf").realize())
        assert not report.passed
        # Degree distribution and triangles both disagree.
        assert not report.triangle_check.exact_match

    def test_report_flags_corrupted_graph(self):
        report = validate_design(DESIGN, graph=drop_one_edge(DESIGN.realize()))
        assert not report.passed
        assert not report.edges_match


class TestTransportChaos:
    """Frame-level faults on the collection wire: a transported run must
    either produce byte-identical output or fail with a *typed* transport
    error that leaves the inner ShardSink resumable — never silently
    lose or corrupt edges.

    Frame send order is deterministic here (3 ranks, one tile each):
    0=OPEN, 1=TILE r0, 2=COMMIT r0, 3=TILE r1, 4=COMMIT r1, ... so each
    test aims its fault at a known frame.
    """

    N_RANKS = 3

    def _run_with_faults(self, tmp_path, **fault_kwargs):
        from repro.engine import ShardSink, plan_from_design
        from repro.net import FaultyTransport, InProcessTransport, execute_over_transport

        plan = plan_from_design(DESIGN, self.N_RANKS)
        producer, collector_end = InProcessTransport.pair()
        faulty = FaultyTransport(producer, **fault_kwargs)
        return lambda: execute_over_transport(
            plan,
            ShardSink(tmp_path),
            transport=(faulty, collector_end),
            recv_timeout_s=5.0,
        )

    def _assert_failed_then_resumable(self, tmp_path):
        """The chaos run left a resumable checkpoint: a retry converges
        to output byte-identical to a never-faulted run."""
        from repro.runtime.checkpoint import RunManifest

        assert RunManifest.load(tmp_path).status in ("failed", "in_progress")
        summary = generate_to_disk(
            DESIGN, self.N_RANKS, tmp_path, config=RunConfig(resume=True)
        )
        clean = tmp_path.parent / "clean"
        generate_to_disk(DESIGN, self.N_RANKS, clean)
        for rank in range(self.N_RANKS):
            mine = (tmp_path / f"edges.{rank}.tsv").read_bytes()
            theirs = (clean / f"edges.{rank}.tsv").read_bytes()
            assert mine == theirs
        assert summary.total_edges == DESIGN.num_edges

    def test_dropped_tile_frame_detected_and_resumable(self, tmp_path):
        from repro.errors import FrameSequenceError, TransportError

        with pytest.raises(FrameSequenceError) as excinfo:
            self._run_with_faults(tmp_path, drop={1})()
        assert isinstance(excinfo.value, TransportError)
        self._assert_failed_then_resumable(tmp_path)

    def test_duplicated_tile_frame_detected(self, tmp_path):
        from repro.errors import FrameSequenceError

        with pytest.raises(FrameSequenceError, match="duplicated, or reordered"):
            self._run_with_faults(tmp_path, duplicate={1})()
        self._assert_failed_then_resumable(tmp_path)

    def test_reordered_frames_detected(self, tmp_path):
        from repro.errors import FrameSequenceError

        # Frame 1 (TILE r0) held back and sent after frame 2 (COMMIT r0):
        # the commit then declares a tile that has not arrived.
        with pytest.raises(FrameSequenceError):
            self._run_with_faults(tmp_path, swap={1})()
        self._assert_failed_then_resumable(tmp_path)

    def test_corrupted_frame_body_is_an_integrity_error(self, tmp_path):
        from repro.errors import FrameIntegrityError

        with pytest.raises(FrameIntegrityError, match="CRC"):
            self._run_with_faults(tmp_path, corrupt={1})()
        self._assert_failed_then_resumable(tmp_path)

    def test_corrupted_magic_is_a_codec_error(self, tmp_path):
        from repro.errors import FrameCodecError, FrameIntegrityError

        # Frame 0 is the OPEN handshake: the run dies before the inner
        # sink ever opens, so no checkpoint exists — a clean rerun into
        # the same directory must just work.
        with pytest.raises(FrameCodecError) as excinfo:
            self._run_with_faults(tmp_path, corrupt={0}, corrupt_offset=0)()
        assert not isinstance(excinfo.value, FrameIntegrityError)
        assert not (tmp_path / "manifest.json").exists()
        summary = generate_to_disk(DESIGN, self.N_RANKS, tmp_path)
        assert summary.total_edges == DESIGN.num_edges

    def test_fault_free_faulty_transport_is_transparent(self, tmp_path):
        # The adversary with no faults configured must not perturb bytes.
        result = self._run_with_faults(tmp_path)()
        assert result.sink_result.total_edges == DESIGN.num_edges
        clean = tmp_path.parent / "clean"
        generate_to_disk(DESIGN, self.N_RANKS, clean)
        for rank in range(self.N_RANKS):
            assert (tmp_path / f"edges.{rank}.tsv").read_bytes() == (
                clean / f"edges.{rank}.tsv"
            ).read_bytes()

    def test_collector_crash_mid_stream_leaves_resumable_shards(self, tmp_path):
        from repro.engine import ShardSink, plan_from_design
        from repro.net import execute_over_transport
        from repro.runtime.checkpoint import CrashInjector, RunManifest, SimulatedCrash

        plan = plan_from_design(DESIGN, self.N_RANKS)
        sink = ShardSink(tmp_path, crash_hook=CrashInjector(2))
        with pytest.raises(SimulatedCrash):
            execute_over_transport(
                plan, sink, transport="inproc", recv_timeout_s=5.0
            )
        # Two ranks were durably committed before the collector died.
        manifest = RunManifest.load(tmp_path)
        assert len(manifest.completed_ranks()) == 2
        self._assert_failed_then_resumable(tmp_path)

    def test_producer_abort_reaches_collector_as_failed_manifest(self, tmp_path):
        from repro.engine import ShardSink, plan_from_design
        from repro.net import execute_over_transport
        from repro.runtime.checkpoint import STATUS_FAILED, RunManifest

        plan = plan_from_design(DESIGN, self.N_RANKS)
        with pytest.raises(FatalRankError):
            execute_over_transport(
                plan,
                ShardSink(tmp_path),
                transport="inproc",
                recv_timeout_s=5.0,
                failure_injector=FailureInjector([1], fatal=True),
            )
        # The ABORT frame tore the remote sink down cleanly.
        assert RunManifest.load(tmp_path).status == STATUS_FAILED
        self._assert_failed_then_resumable(tmp_path)


class TestShmReclaimOnFailure:
    """Crashed zero-copy runs must not litter ``/dev/shm``.

    The coordinator owns every shared segment and ``execute`` reclaims
    the pool in a ``finally``, so even a run killed by a fatal rank
    error or retry exhaustion leaves the segment namespace exactly as
    it found it — and the ``engine.shm_leaked`` gauge records how many
    output segments the shutdown had to mop up.
    """

    def _generator(self, **kwargs):
        from repro.parallel import MultiprocessingBackend

        return ParallelKroneckerGenerator(
            DESIGN.to_chain(),
            VirtualCluster(4, memory_budget_entries=500),
            backend=MultiprocessingBackend(processes=2),
            **kwargs,
        )

    def test_fatal_failure_leaves_no_segments(self):
        from repro.parallel.shm import shm_segment_names

        before = shm_segment_names()
        gen = self._generator(
            max_retries=5,
            failure_injector=FailureInjector([2], fatal=True),
        )
        with pytest.raises(FatalRankError):
            gen.generate_blocks()
        assert shm_segment_names() == before

    def test_retry_exhaustion_leaves_no_segments(self):
        from repro.parallel.shm import shm_segment_names

        before = shm_segment_names()
        gen = self._generator(
            max_retries=0, failure_injector=FailureInjector([1])
        )
        with pytest.raises(RetryExhaustedError):
            gen.generate_blocks()
        assert shm_segment_names() == before

    def test_failed_run_records_reclaimed_outputs(self):
        from repro.runtime import MetricsRegistry

        metrics = MetricsRegistry()
        gen = self._generator(
            metrics=metrics,
            max_retries=0,
            failure_injector=FailureInjector([1]),
        )
        with pytest.raises(RetryExhaustedError):
            gen.generate_blocks()
        # The failing rank's output segment was never taken, so the
        # shutdown reclaimed at least it.
        assert metrics.gauge("engine.shm_leaked").value >= 1

    def test_recovered_zero_copy_run_is_exact_and_clean(self):
        from repro.parallel.shm import shm_segment_names
        from repro.runtime import MetricsRegistry

        before = shm_segment_names()
        metrics = MetricsRegistry()
        gen = self._generator(
            metrics=metrics,
            max_retries=2,
            failure_injector=FailureInjector([1, 3], fail_attempts=1),
        )
        blocks = gen.generate_blocks()
        assert sum(b.nnz for b in blocks) == DESIGN.to_chain().nnz
        assert shm_segment_names() == before
        assert metrics.gauge("engine.shm_leaked").value == 0


# -- worker churn at the worst possible moments -------------------------------
def _hold_tile_open(rank, attempt):
    """Injected delay so tiles are genuinely in flight when the
    adversary strikes (runs inside the worker, before the kernel)."""
    import time

    time.sleep(0.02)


@_dataclass(frozen=True)
class _KillWorkerProcessOnce:
    """Hard-kill the worker process the first time the chosen rank is
    dispatched; later dispatches see the flag file and run normally.
    Module-level and frozen so the multiprocessing pool can pickle it.
    """

    flag_dir: str
    rank: int

    def __call__(self, rank, attempt):
        import os
        from pathlib import Path

        if rank == self.rank:
            flag = Path(self.flag_dir) / "killed"
            if not flag.exists():
                flag.write_text("x")
                os._exit(21)


class TestRevocationChaos:
    """Spot-style revocation at the nastiest points in a run.

    The invariant under test is the elastic tentpole's hard guarantee:
    whatever the churn schedule — a worker killed mid-tile, a worker
    killed between a rank's commit and the run's finalize, a whole
    process pool broken — the shard bytes and manifest are identical to
    an uninterrupted static run.
    """

    N_RANKS = 8

    def _plan(self):
        from repro.engine import plan_from_design

        return plan_from_design(
            DESIGN, self.N_RANKS, memory_budget_entries=63
        )

    def _reference(self, tmp_path):
        from repro.engine import RunConfig, ShardSink, execute

        ref = tmp_path / "reference"
        execute(self._plan(), ShardSink(ref), config=RunConfig(backend="serial"))
        return self._snapshot(ref)

    @staticmethod
    def _snapshot(directory):
        from pathlib import Path

        return {
            p.name: p.read_bytes()
            for p in sorted(Path(directory).iterdir())
            if p.suffix == ".tsv" or p.name == "manifest.json"
        }

    def test_mid_tile_revocation_is_byte_identical(self, tmp_path):
        from repro.engine import RunConfig, ShardSink, WorkQueueScheduler, execute
        from repro.parallel import ThreadBackend
        from repro.runtime import ChurnAction, ElasticWorkerPool, WorkerRevoker

        reference = self._reference(tmp_path)
        pool = ElasticWorkerPool(
            ThreadBackend(max_workers=8), workers=3, lease_timeout_s=0.05
        )
        # At the first completion the other two members are holding
        # tiles open (the injected delay guarantees it): the revocation
        # lands mid-tile, busy member first.
        WorkerRevoker(
            [
                ChurnAction(trigger="complete", at=1, op="revoke"),
                ChurnAction(trigger="complete", at=2, op="add"),
            ]
        ).attach(pool)
        out = tmp_path / "churned"
        try:
            execute(
                self._plan(),
                ShardSink(out),
                config=RunConfig(backend=pool, scheduler=WorkQueueScheduler()),
                failure_injector=_hold_tile_open,
            )
            assert pool.stats().revoked == 1
        finally:
            pool.shutdown()
        assert self._snapshot(out) == reference

    def test_revocation_between_commit_and_finalize(self, tmp_path):
        from repro.engine import RunConfig, ShardSink, WorkQueueScheduler, execute
        from repro.parallel import ThreadBackend
        from repro.runtime import ElasticWorkerPool

        reference = self._reference(tmp_path)
        pool = ElasticWorkerPool(
            ThreadBackend(max_workers=8), workers=3, lease_timeout_s=0.05
        )

        class RevokeAfterCommit(ShardSink):
            """Kills a worker right after the 3rd rank commits — inside
            the window between commit and finalize, where later ranks
            are still queued or in flight."""

            commits = 0

            def commit(inner_self, task, outcome):
                super().commit(task, outcome)
                inner_self.commits += 1
                if inner_self.commits == 3:
                    pool.revoke_workers(1)
                    pool.add_workers(1)

        out = tmp_path / "late-churn"
        sink = RevokeAfterCommit(out)
        try:
            execute(
                self._plan(),
                sink,
                config=RunConfig(backend=pool, scheduler=WorkQueueScheduler()),
                failure_injector=_hold_tile_open,
            )
            assert pool.stats().revoked == 1
        finally:
            pool.shutdown()
        assert sink.commits == self.N_RANKS
        assert self._snapshot(out) == reference

    def test_worker_process_death_rebuilds_pool_and_matches(self, tmp_path):
        from repro.engine import RunConfig, ShardSink, WorkQueueScheduler, execute
        from repro.parallel import MultiprocessingBackend
        from repro.runtime import MetricsRegistry

        reference = self._reference(tmp_path)
        backend = MultiprocessingBackend(processes=2)
        metrics = MetricsRegistry()
        out = tmp_path / "process-death"
        try:
            execute(
                self._plan(),
                ShardSink(out),
                config=RunConfig(
                    backend=backend, scheduler=WorkQueueScheduler()
                ),
                metrics=metrics,
                failure_injector=_KillWorkerProcessOnce(str(tmp_path), 4),
            )
        finally:
            backend.shutdown()
        assert (tmp_path / "killed").exists()
        assert self._snapshot(out) == reference
        snap = metrics.snapshot()
        assert snap["counters"]["engine.reassigned_tasks"] >= 1
        assert snap["gauges"].get("engine.shm_leaked", 0) == 0
