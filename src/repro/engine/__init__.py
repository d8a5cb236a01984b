"""The generation engine: plan → schedule → execute → sink.

The paper's Section-V insight — every rank's ``Ap = Bp ⊗ C`` is an
independent, communication-free unit of work — used to be re-implemented
by four separate drivers.  This package is the single implementation
they now share:

* :mod:`repro.engine.plan` — the :class:`GenerationPlan` IR: partition,
  per-rank tasks with exact size predictions, run fingerprint,
  generation-time transforms, and the memory budget;
* :mod:`repro.engine.scheduler` — :class:`StaticScheduler`: deterministic
  rank-order groups with a barrier between them (whole-run or
  per-rank); and :class:`WorkQueueScheduler`: one LPT-ordered group
  (no barriers);
* :mod:`repro.engine.execute` — :func:`execute`: the one loop, running
  tiled kernels (:func:`repro.kron.kron_tiles`) through
  :meth:`~repro.runtime.RankExecutor.run_iter` and a rank-order reorder
  buffer into a sink;
* :mod:`repro.engine.sinks` — :class:`AssemblySink` (in-memory union),
  :class:`ShardSink` (crash-safe atomic shards + manifest),
  :class:`DegreeSink` (streaming degree histogram, no edge storage).

:mod:`repro.net` layers a fourth sink on top:
:class:`~repro.net.TransportSink` streams tiles over a transport to a
collector process feeding any of the sinks above, byte-identically.

Memory semantics: ``memory_budget_entries`` bounds both the B/C split
(each half's nnz) and the per-tile output size inside a rank, so peak
per-rank memory is ``max(budget, largest single Bp row × nnz(C))``
rather than ``nnz(Bp) · nnz(C)``.
"""

from repro.engine.config import RunConfig, resolve_run_config
from repro.engine.execute import (
    EngineResult,
    TaskOutcome,
    TaskStats,
    execute,
    iter_task_tiles,
)
from repro.engine.plan import (
    DEFAULT_MEMORY_BUDGET_ENTRIES,
    GenerationPlan,
    RankTask,
    chain_fingerprint,
    plan_from_chain,
    plan_from_design,
    plan_from_model,
    plan_from_partition,
)
from repro.engine.scheduler import StaticScheduler, WorkQueueScheduler
from repro.engine.sinks import (
    AssemblyResult,
    AssemblySink,
    DegreeSink,
    ShardSink,
    Sink,
    StreamingDegreeAccumulator,
    StreamSummary,
)

__all__ = [
    "DEFAULT_MEMORY_BUDGET_ENTRIES",
    "RunConfig",
    "resolve_run_config",
    "GenerationPlan",
    "RankTask",
    "chain_fingerprint",
    "plan_from_chain",
    "plan_from_design",
    "plan_from_model",
    "plan_from_partition",
    "StaticScheduler",
    "WorkQueueScheduler",
    "Sink",
    "AssemblySink",
    "AssemblyResult",
    "ShardSink",
    "DegreeSink",
    "StreamSummary",
    "StreamingDegreeAccumulator",
    "execute",
    "iter_task_tiles",
    "EngineResult",
    "TaskStats",
    "TaskOutcome",
]
