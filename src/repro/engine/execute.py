"""The single generation loop: plan → schedule → execute → sink.

One worker function (:func:`_run_rank_task`) streams a rank's tiles out
of the plan's generator model (:meth:`GeneratorModel.tile_iter` — for
the deterministic Kronecker model, ``Ap = Bp ⊗ C`` through the
bounded-memory tiled kernel :func:`repro.kron.kron_tiles`; for the
stochastic family, counter-seeded edge batches), applies the plan's
transforms (design loop removal, vertex scramble) per tile, and streams
the tiles into the sink's consumer — so peak memory per rank is bounded
by ``memory_budget_entries`` (plus the model's single-row floor) instead
of the whole rank block.

:func:`execute` drives the whole run through one dispatch loop over
:meth:`~repro.runtime.RankExecutor.run_iter` (retry/backoff/timeout/
straggler accounting come for free).  The scheduler returns ordered
groups of tasks; tasks are submitted in that order and land in whatever
order workers finish, and a **reorder buffer** holds
completed-but-not-yet-committable outcomes so ``sink.commit`` happens in
ascending rank order under every scheduler — shard bytes,
``manifest.json``, and resume behavior never depend on the scheduler.
Two admission rules gate each submission:

* **barrier** — a group is submitted only after every task of the
  previous group has committed (``StaticScheduler(batch_size=1)`` thus
  commits rank by rank; a one-group scheduler has no barrier at all);
* **backpressure** — when buffered estimated entries exceed the plan's
  ``memory_budget_entries``, submission pauses except for the
  commit-pointer task itself, which is always eligible so the buffer
  can drain and the run cannot deadlock.

Fatal failures (``StorageError``, ``FatalRankError``,
``RetryExhaustedError``) abort the sink — which leaves a resumable
``failed`` manifest when the sink is a
:class:`~repro.engine.sinks.ShardSink` — then re-raise.  A
:class:`~repro.runtime.checkpoint.SimulatedCrash` (a ``BaseException``)
deliberately sails past this handling, exactly as a real SIGKILL would.

Metrics: ``engine.tasks`` (executed, excluding skipped),
``engine.tiles`` (total tiles across all ranks — how often the kernel
had to cut), ``engine.peak_tile_entries`` (the realized memory
high-water mark, reset at the start of every run),
``engine.queue_depth`` (peak in-flight tasks of a work-queue run; 0
under static groups), ``engine.worker_utilization`` (busy worker-seconds
over ``workers × wall``), and ``engine.straggler_gap_s`` (slowest final
attempt minus the median).  Elastic backends add
``engine.workers_active`` (live members), ``engine.revocations``,
``engine.lease_expiries``, and ``engine.reassigned_tasks`` (tasks
resubmitted after losing their worker — also incremented by ``run_iter``
for broken process pools).

NOTE Imports from ``repro.parallel`` are function-local only — see
:mod:`repro.engine.plan` on the import cycle.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.engine.config import RunConfig, resolve_run_config
from repro.engine.plan import GenerationPlan, RankTask
from repro.engine.scheduler import StaticScheduler
from repro.engine.sinks import Sink
from repro.errors import (
    FatalRankError,
    GenerationError,
    RetryExhaustedError,
    StorageError,
)
from repro.kron import _fast
from repro.models import default_model
from repro.runtime.events import RankEvents
from repro.runtime.executor import ExecutionResult, RankExecutor, RankReport
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.tracing import Tracer

if TYPE_CHECKING:
    from repro.parallel.scramble import ScramblePermutation
    from repro.sparse.coo import COOMatrix


@dataclass(frozen=True)
class _RankWork:
    """Everything one worker invocation needs (picklable).

    ``model`` produces the tiles (:meth:`GeneratorModel.tile_iter`); the
    deterministic Kronecker singleton by default.  For that model ``c``
    is the materialized right factor — or ``None`` when the run moves it
    through shared memory, in which case ``c_ref`` points at the
    coordinator-owned segment and the worker attaches (cached per
    process, zero-copy).  Models without a shared factor ignore
    ``b_local``/``col_base``/``c`` and read their per-rank ``spec``
    instead.  ``kernel`` is already resolved to a concrete
    implementation (never ``"auto"``) by :func:`execute`.
    """

    rank: int
    b_local: Optional["COOMatrix"]
    col_base: int
    c: Optional["COOMatrix"]
    loop_vertex: Optional[int]
    scramble: Optional["ScramblePermutation"]
    max_tile_entries: Optional[int]
    consumer_factory: Callable
    kernel: str = "numpy"
    c_ref: object = None
    spec: object = None
    model: object = field(default_factory=default_model)


@dataclass(frozen=True)
class _RankMappedInjector:
    """Adapts the executor's ``(item_index, attempt)`` callback to the
    ``(rank, attempt)`` contract.

    The mapping is explicit ``(index, rank)`` pairs — task identity, not
    submission position — so an injected failure is never misattributed
    when submission order ≠ rank order.  Frozen and module-level so it
    pickles across the multiprocessing boundary (the wrapped injector
    must be picklable itself, as before)."""

    rank_by_index: Tuple[Tuple[int, int], ...]
    injector: Callable[[int, int], None]

    def __call__(self, index: int, attempt: int) -> None:
        for idx, rank in self.rank_by_index:
            if idx == index:
                self.injector(rank, attempt)
                return
        raise GenerationError(
            f"failure injector saw unknown task index {index}; known "
            f"indices {[i for i, _ in self.rank_by_index]}"
        )


@dataclass(frozen=True)
class TaskOutcome:
    """One rank's completed work, as returned by the worker."""

    rank: int
    nnz: int
    tiles: int
    peak_tile_entries: int
    elapsed_s: float
    payload: object


@dataclass(frozen=True)
class TaskStats:
    """Coordinator-side per-task accounting (no payload)."""

    rank: int
    nnz: int
    tiles: int
    peak_tile_entries: int
    elapsed_s: float


@dataclass(frozen=True)
class EngineResult:
    """The full outcome of one :func:`execute` run."""

    plan: GenerationPlan
    sink_result: object
    stats: Tuple[TaskStats, ...]
    skipped_ranks: Tuple[int, ...]
    execution: ExecutionResult
    elapsed_s: float

    @property
    def total_nnz(self) -> int:
        return sum(s.nnz for s in self.stats)

    @property
    def total_tiles(self) -> int:
        return sum(s.tiles for s in self.stats)

    @property
    def peak_tile_entries(self) -> int:
        return max((s.peak_tile_entries for s in self.stats), default=0)


def _transform_tile(work, rows, cols, vals):
    """Apply the plan's shared transforms (loop removal, then vertex
    scramble) to one model tile — the one definition both the worker
    loop and :func:`iter_task_tiles` use, so a tile served any other
    way (e.g. over HTTP by :mod:`repro.serve`) is byte-identical to
    what a sink consumer would have seen."""
    if work.loop_vertex is not None:
        hit = (rows == work.loop_vertex) & (cols == work.loop_vertex)
        if hit.any():
            keep = ~hit
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if work.scramble is not None:
        rows = work.scramble.apply_array(rows)
        cols = work.scramble.apply_array(cols)
    return rows, cols, vals


def iter_task_tiles(plan: GenerationPlan, task: RankTask):
    """Yield one rank's post-transform ``(rows, cols, vals)`` tiles.

    The coordinator-side twin of the worker loop in
    :func:`_run_rank_task`: the plan's model produces the tiles and the
    plan's transforms (design loop removal, vertex scramble) are applied
    through the same :func:`_transform_tile` code path, so concatenating
    the yielded tiles reproduces — byte for byte — the block a sink
    consumer would have accumulated for ``task``.  No sink, no executor:
    tiles are yielded and dropped, so peak memory is one tile.  This is
    the generation surface :mod:`repro.serve` streams over HTTP.
    """
    model = plan.model
    kernel = model.resolve_kernel(plan.kernel)
    shared_c = plan.c_matrix if model.shared_factor else None
    work = _RankWork(
        rank=task.rank,
        b_local=None if task.assignment is None else task.assignment.b_local,
        col_base=0 if task.assignment is None else task.assignment.col_base,
        c=shared_c,
        loop_vertex=plan.loop_vertex,
        scramble=plan.scramble,
        max_tile_entries=plan.memory_budget_entries,
        consumer_factory=None,
        kernel=kernel,
        spec=task.spec,
        model=model,
    )
    for rows, cols, vals in model.tile_iter(work):
        yield _transform_tile(work, rows, cols, vals)


def _run_rank_task(work: _RankWork) -> TaskOutcome:
    """Worker: stream one rank's tiles into its consumer.

    The model produces global-coordinate tiles
    (:meth:`GeneratorModel.tile_iter`); the worker applies the shared
    transforms (loop removal, vertex scramble) and the peak-memory
    accounting, identically for every model.  The consumer is created
    *inside* the worker, per attempt, so a retried rank starts from a
    clean slate; on any failure — including ``BaseException`` like a
    simulated crash — the partial consumer state is aborted before the
    error propagates.
    """
    t0 = time.perf_counter()
    consumer = work.consumer_factory(work.rank)
    nnz = 0
    tiles = 0
    peak = 0
    try:
        for rows, cols, vals in work.model.tile_iter(work):
            tiles += 1
            # Peak is the pre-transform tile size: the memory actually
            # held, before loop removal can shrink it.
            peak = max(peak, len(rows))
            rows, cols, vals = _transform_tile(work, rows, cols, vals)
            consumer.consume(rows, cols, vals)
            nnz += len(rows)
        payload = consumer.result()
    except BaseException:
        consumer.abort()
        raise
    return TaskOutcome(
        rank=work.rank,
        nnz=nnz,
        tiles=tiles,
        peak_tile_entries=peak,
        elapsed_s=time.perf_counter() - t0,
        payload=payload,
    )


def execute(
    plan: GenerationPlan,
    sink: Sink,
    *,
    config: RunConfig | None = None,
    executor: RankExecutor | None = None,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    events: RankEvents | None = None,
    max_retries: int = 0,
    rank_timeout_s: float | None = None,
    failure_injector: Callable[[int, int], None] | None = None,
    scale_policy: Callable | None = None,
) -> EngineResult:
    """Run ``plan`` through ``sink`` — the one generation loop.

    ``config`` shapes the run
    (:class:`~repro.engine.config.RunConfig`): ``execute`` honours its
    ``backend``, ``scheduler``, and ``kernel`` fields (a non-``"auto"``
    config kernel overrides the plan's); the remaining fields belong to
    the higher-level drivers and raise here.

    ``executor`` overrides the backend/retry/timeout arguments when
    given; the scheduler defaults to a single all-task group
    (:class:`~repro.engine.scheduler.StaticScheduler`).  Every scheduler
    runs through the same dispatch loop; its groups only decide where
    the barriers sit, so commit order — and therefore all sink output —
    is identical under every scheduler.  ``failure_injector`` is called
    as ``injector(rank, attempt)`` inside the worker, before the kernel
    — the adversary hook the failure tests drive.

    A backend resolved here from a name or ``None`` belongs to this call
    and is shut down before it returns; a backend *instance* (or an
    ``executor``) belongs to the caller and stays open for reuse.

    On an elastic backend (:class:`~repro.typing.ElasticBackend`, e.g.
    :class:`~repro.runtime.elastic.ElasticWorkerPool`) the engine binds
    the pool's churn metrics into ``metrics``, bounds the in-flight
    window by the pool's *live* worker count, and installs
    ``scale_policy`` (a ``PoolStats -> target size | None`` callable
    consulted on submit/completion/tick — the autoscaler hook).  Passing
    ``scale_policy`` with a non-elastic backend raises
    :class:`~repro.errors.GenerationError`.  Membership churn never
    changes output: lost tasks are reassigned with their original
    identity and the reorder buffer still commits in ascending rank
    order, so shard bytes, ``manifest.json``, and resume behavior match
    a static run exactly.
    """
    cfg = resolve_run_config(
        "execute",
        config,
        unsupported=(
            "memory_budget_entries",
            "transport",
            "checkpoint_dir",
            "resume",
            "scramble_seed",
            "model",
        ),
    )
    if cfg.kernel != "auto" and cfg.kernel != plan.kernel:
        plan = replace(plan, kernel=cfg.kernel)
    owned_backend = None
    if executor is None:
        from repro.parallel.backends import resolve_backend

        resolved = resolve_backend(cfg.backend)
        if resolved is not cfg.backend:
            owned_backend = resolved
        executor = RankExecutor(
            resolved,
            max_retries=max_retries,
            rank_timeout_s=rank_timeout_s,
            metrics=metrics,
            tracer=tracer,
            events=events,
        )
    try:
        return _execute(
            plan,
            sink,
            executor,
            cfg.scheduler or StaticScheduler(),
            metrics=metrics,
            tracer=tracer,
            failure_injector=failure_injector,
            scale_policy=scale_policy,
        )
    finally:
        if owned_backend is not None:
            getattr(owned_backend, "shutdown", lambda: None)()


def _require_ascending_groups(groups: List[Tuple[RankTask, ...]]) -> None:
    """Refuse group orders the commit barrier would deadlock on.

    Group k+1 is submitted only once group k has committed, and commits
    go in ascending rank order — so every rank of group k must precede
    every rank of group k+1.
    """
    for k in range(1, len(groups)):
        top = max(t.rank for t in groups[k - 1])
        if min(t.rank for t in groups[k]) < top:
            raise GenerationError(
                f"scheduler group {k} starts below rank {top} of group "
                f"{k - 1}; groups after the first must ascend in rank"
            )


def _execute(
    plan: GenerationPlan,
    sink: Sink,
    executor: RankExecutor,
    scheduler,
    *,
    metrics: MetricsRegistry | None,
    tracer: Tracer | None,
    failure_injector: Callable[[int, int], None] | None,
    scale_policy: Callable | None,
) -> EngineResult:
    """The dispatch loop behind :func:`execute` (its backend resolved)."""
    from repro.parallel.backends import backend_worker_count
    from repro.typing import ElasticBackend

    elastic = isinstance(executor.backend, ElasticBackend)
    if scale_policy is not None and not elastic:
        raise GenerationError(
            "scale_policy requires an elastic backend "
            "(repro.runtime.elastic.ElasticWorkerPool); got "
            f"{getattr(executor.backend, 'name', type(executor.backend).__name__)!r}"
        )
    if elastic:
        if metrics is not None:
            executor.backend.bind_metrics(metrics)
        if scale_policy is not None:
            executor.backend.set_scale_policy(scale_policy)
    if metrics is not None:
        # Gauges persist across runs on a reused registry; a small
        # second run must not report the first run's peak/depth.
        metrics.gauge("engine.peak_tile_entries").set(0)
        metrics.gauge("engine.queue_depth").set(0)
    model = plan.model
    # Resolve the kernel once, coordinator-side — resolution is
    # model-owned: every worker gets a concrete "numpy"/"native" (a
    # strict request the model cannot satisfy fails here, before any
    # work is dispatched), and a native run compiles now so forked
    # workers inherit the compiled code.
    kernel = model.resolve_kernel(plan.kernel)
    if kernel == "native":
        _fast.warmup_native()
    # Zero-copy tile handoff: for sinks whose payload IS the triples
    # (payload_kind == "triples") on a backend advertising
    # ``zero_copy_tiles``, tiles move through a coordinator-owned
    # shared-memory pool instead of being pickled back.  Only models
    # with a shared right factor use the pool; other models' tiles
    # travel by pickle.  The pool's lifecycle is tied to this call (see
    # the ``finally`` below).
    pool = None
    c_ref = None
    if (
        getattr(sink, "payload_kind", "opaque") == "triples"
        and getattr(executor.backend, "zero_copy_tiles", False)
        and model.shared_factor
    ):
        from repro.parallel.shm import (
            SharedTilePool,
            ShmConsumerFactory,
            ShmTriplesHandle,
        )

        pool = SharedTilePool()
        c_ref = pool.share_coo(plan.c_matrix)
    skipped = tuple(sorted(sink.open(plan, metrics=metrics)))
    t0 = time.perf_counter()
    skip_set = set(skipped)
    pending = [t for t in plan.tasks if t.rank not in skip_set]
    if metrics is not None:
        metrics.counter("engine.tasks").inc(len(pending))
    stats: List[TaskStats] = []
    peak = 0
    queue_depth_peak = 0

    def make_work(t: RankTask) -> _RankWork:
        if pool is not None:
            # "triples" promises the consumer just accumulates consumed
            # tiles, so the engine may substitute the shared-memory
            # consumer for the sink's own.
            factory = ShmConsumerFactory(
                pool.allocate_output(t.estimated_entries)
            )
        else:
            factory = sink.consumer_factory(t)
        shared_c = None
        if model.shared_factor and pool is None:
            shared_c = plan.c_matrix
        return _RankWork(
            rank=t.rank,
            b_local=None if t.assignment is None else t.assignment.b_local,
            col_base=0 if t.assignment is None else t.assignment.col_base,
            c=shared_c,
            loop_vertex=plan.loop_vertex,
            scramble=plan.scramble,
            max_tile_entries=plan.memory_budget_entries,
            consumer_factory=factory,
            kernel=kernel,
            c_ref=c_ref,
            spec=t.spec,
            model=model,
        )

    def commit(task: RankTask, outcome: TaskOutcome) -> None:
        nonlocal peak
        if pool is not None and isinstance(outcome.payload, ShmTriplesHandle):
            # The one owning copy of the zero-copy path: materialize the
            # triples and release the segment before the sink sees them.
            outcome = replace(outcome, payload=pool.take(outcome.payload))
        sink.commit(task, outcome)
        stats.append(
            TaskStats(
                rank=outcome.rank,
                nnz=outcome.nnz,
                tiles=outcome.tiles,
                peak_tile_entries=outcome.peak_tile_entries,
                elapsed_s=outcome.elapsed_s,
            )
        )
        if metrics is not None:
            metrics.counter("engine.tiles").inc(outcome.tiles)
            if outcome.peak_tile_entries > peak:
                peak = outcome.peak_tile_entries
                metrics.gauge("engine.peak_tile_entries").set(peak)

    try:
        groups = [
            g
            for g in scheduler.order(
                pending, memory_budget_entries=plan.memory_budget_entries
            )
            if g
        ]
        _require_ascending_groups(groups)
        order = [t for g in groups for t in g]
        group_of = [k for k, g in enumerate(groups) for _ in g]
        uncommitted = [len(g) for g in groups]
        open_group = 0
        work = [make_work(t) for t in order]
        injector = (
            None
            if failure_injector is None
            else _RankMappedInjector(
                tuple((i, t.rank) for i, t in enumerate(order)),
                failure_injector,
            )
        )
        # Commit pointer: item indices in ascending-rank order; the
        # reorder buffer drains along this sequence.
        commit_seq = sorted(range(len(order)), key=lambda i: order[i].rank)
        buffered: Dict[int, TaskOutcome] = {}
        buffered_entries = 0
        pos = 0
        budget = plan.memory_budget_entries

        def submit_hook(unsubmitted: Tuple[int, ...]) -> Optional[int]:
            # Barrier: a later group waits until the open one has fully
            # committed.
            if group_of[unsubmitted[0]] != open_group:
                return None
            # Backpressure: once buffered-but-uncommittable outcomes
            # exceed the budget, only the commit-pointer task may still
            # be submitted — it is what the buffer is waiting on, so
            # refusing it would deadlock while admitting it drains the
            # buffer.
            if budget is None or buffered_entries <= budget:
                return unsubmitted[0]
            head = commit_seq[pos]
            if head in unsubmitted:
                return head
            return None

        max_in_flight = getattr(scheduler, "max_in_flight", None)
        if max_in_flight is None:
            if elastic:
                # The window must track the *live* membership as workers
                # join and leave; run_iter re-evaluates the callable
                # before each submission (clamped >= 1 so an empty pool
                # queues instead of stalling).
                max_in_flight = executor.backend.worker_count
            else:
                max_in_flight = backend_worker_count(executor.backend)
        results_by_index: Dict[int, TaskOutcome] = {}
        reports_by_index: Dict[int, RankReport] = {}
        span_cm = (
            tracer.span("engine.dispatch", ranks=len(order), groups=len(groups))
            if tracer is not None
            else nullcontext()
        )
        with span_cm:
            for done in executor.run_iter(
                _run_rank_task,
                work,
                injector=injector,
                max_in_flight=max_in_flight,
                submit_hook=submit_hook,
            ):
                queue_depth_peak = max(queue_depth_peak, done.in_flight)
                results_by_index[done.index] = done.value
                reports_by_index[done.index] = done.report
                buffered[done.index] = done.value
                buffered_entries += order[done.index].estimated_entries
                while pos < len(commit_seq) and commit_seq[pos] in buffered:
                    i = commit_seq[pos]
                    outcome = buffered.pop(i)
                    buffered_entries -= order[i].estimated_entries
                    commit(order[i], outcome)
                    pos += 1
                    uncommitted[group_of[i]] -= 1
                    while (
                        open_group < len(groups)
                        and uncommitted[open_group] == 0
                    ):
                        open_group += 1
        execution = ExecutionResult(
            results=[results_by_index[i] for i in range(len(order))],
            reports=[reports_by_index[i] for i in range(len(order))],
        )
    except (StorageError, FatalRankError, RetryExhaustedError) as exc:
        # Storage is unusable or a rank is unrecoverable: let the sink
        # leave clean state behind (ShardSink commits a `failed`
        # manifest), then re-raise for the caller.  SimulatedCrash is a
        # BaseException and deliberately bypasses this (but not the
        # pool shutdown below — coordinator-side segment reclaim is
        # what the resource tracker would do for a real SIGKILL).
        sink.abort(exc)
        raise
    finally:
        if pool is not None:
            reclaimed = pool.shutdown()
            # The shared C segment is released here by design; anything
            # else still outstanding is a leaked output segment.
            c_name = c_ref.triples.name
            leaked = [n for n in reclaimed if n != c_name]
            if metrics is not None:
                metrics.gauge("engine.shm_leaked").set(len(leaked))
    elapsed = time.perf_counter() - t0
    if metrics is not None:
        if hasattr(scheduler, "max_in_flight"):
            # A work queue (a scheduler sizing its own in-flight window)
            # reports its peak depth; static groups keep the gauge at 0.
            metrics.gauge("engine.queue_depth").set(queue_depth_peak)
        workers = backend_worker_count(executor.backend)
        # Busy time counts every attempt (retries included): it is what
        # the workers actually did with the wall-clock they had.
        busy = sum(a.elapsed_s for r in execution.reports for a in r.attempts)
        if elapsed > 0:
            metrics.gauge("engine.worker_utilization").set(
                min(1.0, busy / (workers * elapsed))
            )
        finals = [
            r.elapsed_s
            for r in execution.reports
            if r.attempts and r.attempts[-1].ok
        ]
        if len(finals) >= 2:
            metrics.gauge("engine.straggler_gap_s").set(
                max(0.0, max(finals) - statistics.median(finals))
            )
    stats.sort(key=lambda s: s.rank)
    sink_result = sink.finalize(plan, elapsed_s=elapsed, skipped=skipped)
    return EngineResult(
        plan=plan,
        sink_result=sink_result,
        stats=tuple(stats),
        skipped_ranks=skipped,
        execution=execution,
        elapsed_s=elapsed,
    )
