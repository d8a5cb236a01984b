"""Elastic worker pools: membership churn without changing a byte.

The paper's premise (arXiv:1803.01281) is that every tile of a Kronecker
power-law graph is deterministically addressable from the design
fingerprint, rank, and tile index — any tile can be recomputed anywhere,
any time, with no coordination.  :class:`ElasticWorkerPool` cashes that
in for preemptible capacity: a backend whose members can
**join** (:meth:`~ElasticWorkerPool.add_workers`), **leave gracefully**
(:meth:`~ElasticWorkerPool.remove_workers` — in-flight work finishes,
no new dispatch) or **vanish abruptly**
(:meth:`~ElasticWorkerPool.revoke_workers` — spot-style kill) mid-run,
while the engine's rank-order commit keeps shard/manifest/resume bytes
identical to a static run.

Design notes:

* **Logical members, physical inner backend.**  The pool tracks
  *membership* (who may hold a task lease) and delegates *computation*
  to any inner backend (thread / multiprocessing / serial).
  Revoking a member therefore never needs to kill a thread: the
  member's lease is voided, its handle resolves to
  :class:`~repro.errors.WorkerLostError`, and any late result from the
  "ghost" computation is discarded unseen.  Ghost tile work is
  harmless by construction — every consumer write is idempotent
  (unique temp files renamed atomically, shm segments rewritten with
  identical bytes) because the work itself is deterministic.
* **Leases, not timeouts.**  Every dispatch grants a lease
  (``lease_timeout_s``).  The coordinator's :meth:`check_leases` tick
  renews leases for members that are alive (modelling heartbeat
  receipt) and expires leases held by dead members — that is how a
  *silently* revoked worker (no goodbye, just gone) is detected.  Loud
  revocation expires the lease immediately.
* **Coordinator-driven.**  There is no daemon thread: lease checks,
  autoscaling, and stall detection run inside
  :meth:`~ElasticWorkerPool.as_completed`'s wait loop, so a pool with
  no outstanding work costs nothing.  ``as_completed`` yields outside
  the pool lock — callers may abandon the generator at any point.
* **Stall → fatal, not hang.**  Queued work with zero eligible members
  and no autoscaler rescue fails after ``stall_timeout_s`` with
  :class:`~repro.errors.FatalRankError`, so the engine aborts the sink
  and leaves a clean, *resumable* failed manifest instead of blocking
  forever.

:class:`WorkerRevoker` is the chaos adversary: a deterministic churn
schedule (:class:`ChurnAction`) keyed on pool event counts —
``FailureInjector``'s philosophy applied to membership instead of task
outcomes.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import FatalRankError, GenerationError, WorkerLostError
from repro.typing import Backend, WorkHandle

__all__ = [
    "ChurnAction",
    "ElasticWorkerPool",
    "PoolStats",
    "ScalePolicy",
    "WorkerRevoker",
]

#: Seconds a lease stays valid without a heartbeat renewal.
DEFAULT_LEASE_TIMEOUT_S = 1.0

#: Seconds ``as_completed`` waits between coordinator ticks.
DEFAULT_POLL_INTERVAL_S = 0.005

#: Seconds of queued-work-with-no-workers before the pool declares a stall.
DEFAULT_STALL_TIMEOUT_S = 30.0

#: ``scale_policy(stats) -> target worker count | None`` (None = no change).
ScalePolicy = Callable[["PoolStats"], Optional[int]]


@dataclass(frozen=True)
class PoolStats:
    """Snapshot of pool state handed to ``scale_policy`` callables."""

    #: Members alive and eligible for new dispatches (excludes draining).
    workers: int
    #: Members alive but draining (finishing their last task).
    draining: int
    #: Tasks submitted but not yet dispatched to any member.
    queued: int
    #: Tasks currently held under a lease.
    in_flight: int
    #: Tasks submitted over the pool's lifetime.
    submitted: int
    #: Tasks completed (success or task error — not worker loss).
    completed: int
    #: Members revoked over the pool's lifetime.
    revoked: int

    @property
    def utilization(self) -> float:
        """In-flight tasks per eligible worker (0.0 when empty)."""
        if self.workers <= 0:
            return 0.0
        return self.in_flight / self.workers


class _ElasticHandle:
    """Handle for one submitted task; resolves exactly once."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: object = None
        self._error: Optional[BaseException] = None

    def _resolve(
        self, value: object = None, error: Optional[BaseException] = None
    ) -> bool:
        """First resolution wins; late (ghost) results are discarded."""
        if self._event.is_set():
            return False
        self._value = value
        self._error = error
        self._event.set()
        return True

    def done(self) -> bool:
        return self._event.is_set()

    def result(self) -> object:
        self._event.wait()
        if self._error is not None:
            raise self._error
        return self._value


@dataclass
class _QueuedTask:
    fn: Callable
    item: object
    handle: _ElasticHandle


@dataclass
class _Member:
    """One logical pool member (a lease holder, not an OS thread)."""

    id: int
    alive: bool = True
    draining: bool = False
    task: Optional[_QueuedTask] = None
    lease_deadline: float = 0.0


class ElasticWorkerPool:
    """A :class:`~repro.typing.ElasticBackend` over any inner backend.

    Parameters
    ----------
    inner:
        Backend that actually runs tasks.  Defaults to a
        lazily created :class:`~repro.parallel.backends.ThreadBackend`
        sized generously (threads spawn on demand), so the *logical*
        membership — not the inner pool — bounds concurrency.
    workers:
        Initial member count.
    lease_timeout_s:
        How long a dispatch lease survives without heartbeat renewal.
        Alive members renew on every coordinator tick; a lease still
        held past its deadline means the member died silently and the
        task resolves to :class:`~repro.errors.WorkerLostError`.
    stall_timeout_s:
        Queued-work-with-zero-eligible-members grace period before the
        queued handles fail with :class:`~repro.errors.FatalRankError`.
    scale_policy:
        Optional autoscaler: ``PoolStats -> target size | None``,
        consulted on submit, completion, and every coordinator tick.
    metrics:
        Optional :class:`~repro.runtime.metrics.MetricsRegistry`; see
        :meth:`bind_metrics`.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    name = "elastic"

    def __init__(
        self,
        inner: Optional[Backend] = None,
        *,
        workers: int = 2,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
        scale_policy: Optional[ScalePolicy] = None,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 0:
            raise GenerationError(f"workers must be >= 0, got {workers}")
        if lease_timeout_s <= 0:
            raise GenerationError(
                f"lease_timeout_s must be > 0, got {lease_timeout_s}"
            )
        self._owns_inner = inner is None
        if inner is None:
            from repro.parallel.backends import ThreadBackend

            inner = ThreadBackend(max_workers=max(32, 4 * workers))
        self._inner = inner
        #: Mirrored so the engine's zero-copy shm path sees through the pool.
        self.zero_copy_tiles = bool(getattr(inner, "zero_copy_tiles", False))
        self.lease_timeout_s = lease_timeout_s
        self.stall_timeout_s = stall_timeout_s
        self.poll_interval_s = poll_interval_s
        self._clock = clock
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._members: Dict[int, _Member] = {}
        self._queue: List[_QueuedTask] = []
        self._observers: List[Callable[[str, dict], None]] = []
        self._scale_policy = scale_policy
        self._scaling = False  # reentrancy guard for policy-driven changes
        self._dispatching = False  # reentrancy guard for eager inner handles
        self._metrics = None
        self._next_id = 0
        self._submitted = 0
        self._completed = 0
        self._dispatches = 0
        self._revoked = 0
        self._lease_expiries = 0
        self._stall_since: Optional[float] = None
        self._closed = False
        if metrics is not None:
            self.bind_metrics(metrics)
        if workers:
            self.add_workers(workers)

    # -- wiring ---------------------------------------------------------------
    def bind_metrics(self, metrics) -> None:
        """Publish pool state into ``metrics``: the
        ``engine.workers_active`` gauge plus the ``engine.revocations``
        and ``engine.lease_expiries`` counters (touched to zero so they
        appear in snapshots even for churn-free runs)."""
        with self._lock:
            self._metrics = metrics
            metrics.counter("engine.revocations").inc(0)
            metrics.counter("engine.lease_expiries").inc(0)
            self._update_gauges_locked()

    def set_scale_policy(self, policy: Optional[ScalePolicy]) -> None:
        """Install (or clear) the autoscaler callback."""
        with self._lock:
            self._scale_policy = policy
            self._maybe_autoscale_locked()

    def add_observer(self, fn: Callable[[str, dict], None]) -> None:
        """Register ``fn(event, info)`` for pool lifecycle events
        (``submit`` / ``dispatch`` / ``complete`` / ``add`` / ``remove``
        / ``revoke`` / ``drained`` / ``lease_expired`` / ``stalled``).
        Observers run under the pool lock (re-entrant: an observer may
        mutate membership — that is how :class:`WorkerRevoker` works).
        """
        with self._lock:
            self._observers.append(fn)

    def _emit(self, event: str, **info) -> None:
        for fn in list(self._observers):
            fn(event, info)

    # -- membership -----------------------------------------------------------
    def add_workers(self, n: int) -> Tuple[int, ...]:
        """Grow the pool by ``n`` members; returns their new ids."""
        if n < 0:
            raise GenerationError(f"add_workers(n) needs n >= 0, got {n}")
        with self._lock:
            self._require_open()
            ids = []
            for _ in range(n):
                member = _Member(id=self._next_id)
                self._next_id += 1
                self._members[member.id] = member
                ids.append(member.id)
                self._emit("add", member=member.id)
            self._update_gauges_locked()
            self._dispatch_locked()
            self._cond.notify_all()
            return tuple(ids)

    def remove_workers(self, n: int) -> Tuple[int, ...]:
        """Shrink gracefully by ``n`` members.

        Idle members retire immediately; busy members are marked
        *draining* — they finish the task they hold, then retire, and
        are never dispatched again.  Newest members go first, so a
        grow-then-shrink cycle converges back to the original cohort.
        """
        if n < 0:
            raise GenerationError(f"remove_workers(n) needs n >= 0, got {n}")
        with self._lock:
            self._require_open()
            eligible = [
                m for m in self._members.values() if m.alive and not m.draining
            ]
            if n > len(eligible):
                raise GenerationError(
                    f"cannot remove {n} workers: only {len(eligible)} eligible"
                )
            idle = sorted(
                (m for m in eligible if m.task is None), key=lambda m: -m.id
            )
            busy = sorted(
                (m for m in eligible if m.task is not None), key=lambda m: -m.id
            )
            removed = []
            for member in (idle + busy)[:n]:
                if member.task is None:
                    member.alive = False
                else:
                    member.draining = True
                removed.append(member.id)
                self._emit(
                    "remove", member=member.id, draining=member.task is not None
                )
            self._update_gauges_locked()
            self._cond.notify_all()
            return tuple(removed)

    def revoke_workers(self, n: int, *, silent: bool = False) -> Tuple[int, ...]:
        """Kill ``n`` members abruptly (spot-style revocation).

        Busy members are preferred (a revocation that loses in-flight
        work is the case worth exercising).  With ``silent=False`` the
        lost task's lease expires immediately — its handle resolves to
        :class:`~repro.errors.WorkerLostError` right away.  With
        ``silent=True`` the member just stops heartbeating: the lease
        stays open until :meth:`check_leases` notices the missed
        deadline, exactly like a real spot kill with no goodbye packet.
        Any result the ghost computation later produces is discarded.
        """
        if n < 0:
            raise GenerationError(f"revoke_workers(n) needs n >= 0, got {n}")
        with self._lock:
            self._require_open()
            alive = [m for m in self._members.values() if m.alive]
            if n > len(alive):
                raise GenerationError(
                    f"cannot revoke {n} workers: only {len(alive)} alive"
                )
            busy = sorted(
                (m for m in alive if m.task is not None), key=lambda m: m.id
            )
            idle = sorted(
                (m for m in alive if m.task is None), key=lambda m: m.id
            )
            revoked = []
            for member in (busy + idle)[:n]:
                member.alive = False
                member.draining = False
                self._revoked += 1
                if self._metrics is not None:
                    self._metrics.counter("engine.revocations").inc()
                self._emit(
                    "revoke",
                    member=member.id,
                    silent=silent,
                    mid_task=member.task is not None,
                )
                if member.task is not None and not silent:
                    self._expire_lease_locked(
                        member, reason=f"worker {member.id} revoked"
                    )
                revoked.append(member.id)
            self._update_gauges_locked()
            self._cond.notify_all()
            return tuple(revoked)

    def worker_count(self) -> int:
        """Members alive and eligible for new dispatches."""
        with self._lock:
            return sum(
                1
                for m in self._members.values()
                if m.alive and not m.draining
            )

    @property
    def max_workers(self) -> int:
        """Current eligible-member count (lets
        :func:`~repro.parallel.backends.backend_worker_count` size the
        in-flight window for the pool like for any other backend)."""
        return self.worker_count()

    def stats(self) -> PoolStats:
        """Consistent snapshot for scale policies and tests."""
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> PoolStats:
        members = list(self._members.values())
        return PoolStats(
            workers=sum(1 for m in members if m.alive and not m.draining),
            draining=sum(1 for m in members if m.alive and m.draining),
            queued=len(self._queue),
            in_flight=sum(1 for m in members if m.task is not None),
            submitted=self._submitted,
            completed=self._completed,
            revoked=self._revoked,
        )

    # -- lease / heartbeat layer ----------------------------------------------
    def check_leases(self) -> Tuple[int, ...]:
        """One heartbeat round: renew leases held by alive members,
        expire leases held by dead ones past their deadline.  Returns
        the member ids whose leases expired this round.  Called from
        :meth:`as_completed`'s tick; safe to call directly in tests."""
        with self._lock:
            now = self._clock()
            expired = []
            for member in self._members.values():
                if member.task is None:
                    continue
                if member.alive:
                    member.lease_deadline = now + self.lease_timeout_s
                elif now >= member.lease_deadline:
                    expired.append(member)
            for member in expired:
                self._lease_expiries += 1
                if self._metrics is not None:
                    self._metrics.counter("engine.lease_expiries").inc()
                self._emit("lease_expired", member=member.id)
                self._expire_lease_locked(
                    member,
                    reason=(
                        f"worker {member.id} missed heartbeats for "
                        f"{self.lease_timeout_s}s"
                    ),
                )
            if expired:
                self._cond.notify_all()
            return tuple(m.id for m in expired)

    def _expire_lease_locked(self, member: _Member, *, reason: str) -> None:
        task = member.task
        member.task = None
        if task is not None:
            task.handle._resolve(
                error=WorkerLostError(f"{reason} while holding a task lease")
            )

    # -- work intake / dispatch -----------------------------------------------
    def submit(self, fn: Callable, item: object) -> WorkHandle:
        handle = _ElasticHandle()
        with self._lock:
            self._require_open()
            self._submitted += 1
            self._queue.append(_QueuedTask(fn, item, handle))
            self._emit("submit", seq=self._submitted)
            self._maybe_autoscale_locked()
            self._dispatch_locked()
        return handle

    def _dispatch_locked(self) -> None:
        # An eager inner backend (serial) completes the task inside
        # ``inner.submit``, re-entering here via ``_finish``; the guard
        # keeps that recursion flat — the outer loop drains the queue.
        if self._dispatching:
            return
        self._dispatching = True
        try:
            self._dispatch_loop_locked()
        finally:
            self._dispatching = False
        self._stall_check_locked()

    def _dispatch_loop_locked(self) -> None:
        while self._queue:
            free = sorted(
                (
                    m
                    for m in self._members.values()
                    if m.alive and not m.draining and m.task is None
                ),
                key=lambda m: m.id,
            )
            if not free:
                break
            member = free[0]
            task = self._queue.pop(0)
            if task.handle.done():
                continue  # already failed (stall) or resolved elsewhere
            member.task = task
            member.lease_deadline = self._clock() + self.lease_timeout_s
            self._dispatches += 1
            # Observers fire *before* the inner submit so a revoke-at-
            # dispatch schedule deterministically loses this task on any
            # inner backend — including the eager serial one, which
            # would otherwise have finished before the adversary ran.
            self._emit("dispatch", member=member.id, seq=self._dispatches)
            if not member.alive:
                self._expire_lease_locked(
                    member,
                    reason=f"worker {member.id} revoked at dispatch",
                )
                continue
            try:
                inner_handle = self._inner.submit(task.fn, task.item)
            except BrokenExecutor as exc:
                member.task = None
                task.handle._resolve(
                    error=WorkerLostError(
                        f"inner backend pool broke at submit: {exc}"
                    )
                )
                continue
            self._attach_completion(member.id, task, inner_handle)

    def _attach_completion(
        self, member_id: int, task: _QueuedTask, inner_handle
    ) -> None:
        add_cb = getattr(inner_handle, "add_done_callback", None)
        if add_cb is not None:
            add_cb(lambda fut: self._finish(member_id, task, fut))
        else:
            # Eager inner handles (serial backend) are already done.
            self._finish(member_id, task, inner_handle)

    def _finish(self, member_id: int, task: _QueuedTask, inner_handle) -> None:
        try:
            value, error = inner_handle.result(), None
        except BaseException as exc:  # noqa: BLE001 - re-raised via handle
            value, error = None, exc
        if isinstance(error, BrokenExecutor):
            # The inner pool lost a process mid-task: same contract as a
            # revocation — the task is lost, not failed.
            error = WorkerLostError(f"inner backend worker died: {error}")
        with self._lock:
            member = self._members.get(member_id)
            if member is None or member.task is not task:
                return  # ghost result of an already-expired lease
            if not member.alive:
                # Silently revoked while computing: the worker is gone,
                # so its result must be discarded; the open lease is
                # left for check_leases to expire (heartbeat detection).
                if isinstance(error, WorkerLostError):
                    # ... unless the inner itself died too — then there
                    # is nothing left to heartbeat about.
                    self._expire_lease_locked(member, reason=str(error))
                return
            member.task = None
            if member.draining:
                member.alive = False
                member.draining = False
                self._emit("drained", member=member_id)
                self._update_gauges_locked()
            if task.handle._resolve(value=value, error=error):
                self._completed += 1
                self._emit(
                    "complete",
                    member=member_id,
                    seq=self._completed,
                    ok=error is None,
                )
            self._maybe_autoscale_locked()
            self._dispatch_locked()
            self._cond.notify_all()

    # -- completion stream ----------------------------------------------------
    def as_completed(
        self, handles: Sequence[WorkHandle]
    ) -> Iterator[WorkHandle]:
        """Yield handles as they finish.  Each wait iteration runs one
        coordinator tick (lease checks, autoscaling, stall detection).
        Yields happen outside the pool lock, so callers may abandon the
        generator mid-stream (the executor does)."""
        pending = list(handles)
        while pending:
            with self._cond:
                while True:
                    ready = [h for h in pending if h.done()]
                    if ready:
                        break
                    self._tick_locked()
                    ready = [h for h in pending if h.done()]
                    if ready:
                        break
                    self._cond.wait(timeout=self.poll_interval_s)
            for handle in ready:
                pending.remove(handle)
                yield handle

    def _tick_locked(self) -> None:
        self.check_leases()
        self._maybe_autoscale_locked()
        self._dispatch_locked()

    def _stall_check_locked(self) -> None:
        eligible = any(
            m.alive and not m.draining for m in self._members.values()
        )
        pending = [t for t in self._queue if not t.handle.done()]
        if eligible or not pending:
            self._stall_since = None
            return
        now = self._clock()
        if self._stall_since is None:
            self._stall_since = now
            return
        if now - self._stall_since < self.stall_timeout_s:
            return
        self._emit("stalled", queued=len(pending))
        error = FatalRankError(
            f"elastic pool stalled: {len(pending)} task(s) queued with no "
            f"workers for {self.stall_timeout_s}s (no scale policy added "
            "capacity); failing queued tasks so the run aborts resumably"
        )
        for task in pending:
            task.handle._resolve(error=error)
        self._queue.clear()
        self._stall_since = None
        self._cond.notify_all()

    # -- autoscaler hook -------------------------------------------------------
    def _maybe_autoscale_locked(self) -> None:
        if self._scale_policy is None or self._scaling:
            return
        self._scaling = True
        try:
            target = self._scale_policy(self._stats_locked())
            if target is None:
                return
            target = max(0, int(target))
            current = sum(
                1
                for m in self._members.values()
                if m.alive and not m.draining
            )
            if target > current:
                self.add_workers(target - current)
            elif target < current:
                self.remove_workers(current - target)
        finally:
            self._scaling = False

    # -- lifecycle -------------------------------------------------------------
    def shutdown(self) -> None:
        """Retire all members and (if owned) shut the inner backend
        down.  Queued tasks fail; in-flight ghosts are joined by the
        inner shutdown."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            error = GenerationError("elastic pool shut down with tasks queued")
            for task in self._queue:
                task.handle._resolve(error=error)
            self._queue.clear()
            for member in self._members.values():
                if member.task is not None:
                    self._expire_lease_locked(
                        member,
                        reason=f"worker {member.id} retired at shutdown",
                    )
                member.alive = False
                member.draining = False
            self._update_gauges_locked()
            self._cond.notify_all()
        if self._owns_inner:
            getattr(self._inner, "shutdown", lambda: None)()

    def _require_open(self) -> None:
        if self._closed:
            raise GenerationError("elastic pool is shut down")

    def _update_gauges_locked(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge("engine.workers_active").set(
                sum(
                    1
                    for m in self._members.values()
                    if m.alive and not m.draining
                )
            )


# -- chaos adversary -----------------------------------------------------------
_TRIGGERS = ("submit", "dispatch", "complete")
_OPS = ("revoke", "add", "remove")


@dataclass(frozen=True)
class ChurnAction:
    """One planned membership change, keyed on a pool event count.

    ``trigger``
        Which pool event stream to count: ``"submit"``, ``"dispatch"``,
        or ``"complete"``.
    ``at``
        1-based occurrence of that event at which to fire.  Dispatch
        counts make *mid-tile* kills expressible: the action runs after
        the lease is granted but before the inner backend sees the
        task, so the task is deterministically lost on any inner.
    ``op`` / ``workers`` / ``silent``
        What to do: ``"revoke"`` (``silent=True`` for a
        missed-heartbeat kill), ``"add"``, or ``"remove"``, applied to
        ``workers`` members.
    """

    trigger: str
    at: int
    op: str
    workers: int = 1
    silent: bool = False

    def __post_init__(self) -> None:
        if self.trigger not in _TRIGGERS:
            raise GenerationError(
                f"unknown trigger {self.trigger!r}; expected one of {_TRIGGERS}"
            )
        if self.op not in _OPS:
            raise GenerationError(
                f"unknown op {self.op!r}; expected one of {_OPS}"
            )
        if self.at < 1:
            raise GenerationError(f"at must be >= 1, got {self.at}")
        if self.workers < 1:
            raise GenerationError(f"workers must be >= 1, got {self.workers}")


class WorkerRevoker:
    """Deterministic churn adversary, in the mold of
    :class:`~repro.runtime.FailureInjector` / ``FaultyTransport``.

    Attach to a pool and it observes the pool's event stream, firing
    each :class:`ChurnAction` exactly once when its trigger count is
    reached.  Revoke/remove amounts are clamped to what the pool
    actually has (an adversary never crashes the run setup); the
    ``fired`` log records what really happened for assertions.
    """

    def __init__(self, actions: Sequence[ChurnAction]) -> None:
        self.actions: Tuple[ChurnAction, ...] = tuple(actions)
        #: ``(action, member_ids_affected)`` in firing order.
        self.fired: List[Tuple[ChurnAction, Tuple[int, ...]]] = []
        self._pending = list(range(len(self.actions)))
        self._pool: Optional[ElasticWorkerPool] = None

    def attach(self, pool: ElasticWorkerPool) -> "WorkerRevoker":
        self._pool = pool
        pool.add_observer(self._observe)
        return self

    def _observe(self, event: str, info: dict) -> None:
        if event not in _TRIGGERS or self._pool is None:
            return
        seq = info.get("seq")
        for slot in list(self._pending):
            action = self.actions[slot]
            if action.trigger != event or action.at != seq:
                continue
            self._pending.remove(slot)
            self.fired.append((action, self._apply(action)))

    def _apply(self, action: ChurnAction) -> Tuple[int, ...]:
        pool = self._pool
        assert pool is not None
        if action.op == "add":
            return pool.add_workers(action.workers)
        stats = pool.stats()
        if action.op == "revoke":
            n = min(action.workers, stats.workers + stats.draining)
            if n <= 0:
                return ()
            return pool.revoke_workers(n, silent=action.silent)
        n = min(action.workers, stats.workers)
        if n <= 0:
            return ()
        return pool.remove_workers(n)
