"""Ordering rank tasks into groups for the engine's one dispatch loop.

A scheduler has one method, ``order(tasks, *, memory_budget_entries)``,
returning an ordered list of *groups* (tuples of tasks).  The engine
feeds every group through the same completion-driven loop
(:meth:`~repro.runtime.RankExecutor.run_iter` plus a rank-order reorder
buffer) and submits a group only after every task of the previous group
has committed — a barrier between groups, none inside one.  Group
shape is therefore the knob between the driver shapes:

* one group holding every task (``StaticScheduler()``) — the assembled
  generator's shape: maximal backend parallelism in rank order;
* one task per group (``StaticScheduler(batch_size=1)``) — the streamed
  generator's shape: the sink commits after every rank before the next
  rank starts;
* one group in longest-processing-time-first order
  (:class:`WorkQueueScheduler`) — tasks go to whichever worker frees up,
  so one straggler no longer idles the rest of the pool.

Buffered outcomes are bounded by the plan's ``memory_budget_entries``
under every scheduler: the engine pauses submission once the reorder
buffer holds more estimated entries than the budget.  Groups after the
first must ascend in rank, since commits do; the engine refuses any
other shape rather than deadlock on it.

Determinism contract: *commits* happen in ascending rank order under
every scheduler — sink commit order and manifest write order follow it
regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.engine.plan import RankTask
from repro.errors import GenerationError


def _require_unique_ranks(tasks: Sequence[RankTask]) -> None:
    """Reject task lists with duplicate ranks.

    A duplicate rank would make two tasks race for one shard filename
    and one manifest slot — caught here, at scheduling time, for both
    scheduler families.
    """
    seen = set()
    dupes = set()
    for task in tasks:
        if task.rank in seen:
            dupes.add(task.rank)
        seen.add(task.rank)
    if dupes:
        raise GenerationError(
            f"duplicate rank(s) in task list: {sorted(dupes)}"
        )


@dataclass(frozen=True)
class StaticScheduler:
    """Deterministic rank-order groups (the default scheduler).

    ``batch_size`` fixes the group length; without it all tasks form one
    group.
    """

    batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size < 1:
            raise GenerationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )

    def order(
        self,
        tasks: Sequence[RankTask],
        *,
        memory_budget_entries: Optional[int] = None,
    ) -> List[Tuple[RankTask, ...]]:
        _require_unique_ranks(tasks)
        ordered = sorted(tasks, key=lambda t: t.rank)
        if not ordered:
            return []
        if self.batch_size is None:
            return [tuple(ordered)]
        return [
            tuple(ordered[i : i + self.batch_size])
            for i in range(0, len(ordered), self.batch_size)
        ]


@dataclass(frozen=True)
class WorkQueueScheduler:
    """Completion-driven scheduling: one group in LPT order, no barriers.

    Tasks are submitted longest-estimated-first (LPT — the classic
    greedy bound for minimizing makespan on identical machines, within
    4/3 of optimal) and each is handed to whichever worker frees up
    first.  Output stays byte-identical to :class:`StaticScheduler`
    because the engine commits completions through a reorder buffer in
    ascending rank order.

    ``max_in_flight`` caps concurrent submissions; ``None`` lets the
    engine size the window from the backend's worker count.
    """

    max_in_flight: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise GenerationError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )

    def order(
        self,
        tasks: Sequence[RankTask],
        *,
        memory_budget_entries: Optional[int] = None,
    ) -> List[Tuple[RankTask, ...]]:
        """One group: estimated entries descending, rank ascending.

        ``memory_budget_entries`` is accepted for protocol symmetry —
        backpressure against the budget is applied by the engine (it
        knows what is buffered), not by the ordering.
        """
        _require_unique_ranks(tasks)
        if not tasks:
            return []
        return [
            tuple(sorted(tasks, key=lambda t: (-t.estimated_entries, t.rank)))
        ]
