"""Shared type aliases used across :mod:`repro`.

The library deliberately keeps two numeric worlds apart:

* **Exact world** (design path): Python ``int`` — arbitrary precision, used
  for vertex/edge/triangle counts and degree distributions of graphs that
  may have :math:`10^{30}` edges.
* **Realized world** (generation path): NumPy integer arrays — used only
  when a graph is actually materialized in memory.

Aliases here make that split visible in signatures.
"""

from __future__ import annotations

from typing import (
    Callable,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    runtime_checkable,
)

import numpy as np
import numpy.typing as npt

_T_contra = TypeVar("_T_contra", contravariant=True)
_R_co = TypeVar("_R_co", covariant=True)


@runtime_checkable
class WorkHandle(Protocol):
    """A submitted unit of work (``concurrent.futures.Future``-shaped).

    ``result()`` blocks until the work finishes, then returns its value
    or re-raises its exception.
    """

    def result(self) -> object: ...


@runtime_checkable
class Backend(Protocol):
    """The formal contract every execution backend satisfies.

    ``submit`` starts one item and returns a :class:`WorkHandle`;
    ``as_completed`` yields handles in the order they *finish* (not the
    order they were submitted) — the primitive behind the engine's one
    dispatch loop.  Implementations may additionally expose
    ``shutdown()`` to release pooled resources; callers must treat it as
    optional (``getattr(backend, "shutdown", lambda: None)()``).
    """

    #: Registry key and display name ("serial", "thread", ...).
    name: str

    def submit(
        self, fn: Callable[[_T_contra], _R_co], item: _T_contra
    ) -> WorkHandle:
        """Start ``fn(item)`` and return a handle to its result."""
        ...

    def as_completed(self, handles: Sequence[WorkHandle]):
        """Yield ``handles`` as each finishes, earliest completion first."""
        ...


@runtime_checkable
class ElasticBackend(Backend, Protocol):
    """A backend whose worker pool can change mid-run.

    Extends :class:`Backend` with membership operations: the pool can
    **grow** (``add_workers``), **shrink gracefully**
    (``remove_workers`` — in-flight tasks finish, no new dispatch), or
    **lose members abruptly** (``revoke_workers`` — spot-style kill,
    in-flight tasks are lost and surface as
    :class:`~repro.errors.WorkerLostError` for the executor to
    reassign).  ``worker_count()`` reports the members currently
    eligible for new work, which the engine uses as a *dynamic*
    in-flight limit; ``set_scale_policy`` installs an autoscaler
    callback and ``bind_metrics`` wires pool gauges/counters into a
    :class:`~repro.runtime.metrics.MetricsRegistry`.

    The reference implementation is
    :class:`repro.runtime.elastic.ElasticWorkerPool`.
    """

    def worker_count(self) -> int:
        """Members currently alive and accepting new dispatches."""
        ...

    def add_workers(self, n: int) -> Tuple[int, ...]:
        """Grow the pool by ``n`` members; returns their ids."""
        ...

    def remove_workers(self, n: int) -> Tuple[int, ...]:
        """Shrink gracefully by ``n`` members (drain, then retire)."""
        ...

    def revoke_workers(self, n: int, *, silent: bool = False) -> Tuple[int, ...]:
        """Kill ``n`` members abruptly, losing their in-flight tasks."""
        ...

    def set_scale_policy(self, policy: object) -> None:
        """Install an autoscaler callback (``PoolStats -> target size``)."""
        ...

    def bind_metrics(self, metrics: object) -> None:
        """Publish pool gauges/counters into a metrics registry."""
        ...


#: An exact (arbitrary-precision) count: vertices, edges, triangles...
ExactInt = int

#: A degree distribution: maps degree ``d`` -> number of vertices with that
#: degree ``n(d)``.  Both keys and values are exact ints.
DegreeMap = dict[int, int]

#: Row/column index arrays of a realized sparse matrix.
IndexArray = npt.NDArray[np.int64]

#: Value array of a realized sparse matrix.
ValueArray = np.ndarray

#: (rows, cols, vals) triple arrays describing sparse nonzeros.
Triples = Tuple[IndexArray, IndexArray, ValueArray]

#: A shape (always square for adjacency matrices, but kept general).
Shape = Tuple[int, int]

#: Anything accepted where a list of star sizes is expected.
StarSizes = Sequence[int]

#: A scalar accepted by semiring ops.
Scalar = Union[int, float, bool, np.integer, np.floating, np.bool_]
