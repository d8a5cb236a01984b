"""The simulated parallel machine.

:class:`VirtualCluster` stands in for the paper's supercomputer: it
fixes the rank count and the per-rank memory budget (in stored matrix
entries) that the B/C split must respect.  Ranks are purely logical —
the generator executes each rank's computation either in-process or in a
worker pool; nothing here models network behaviour because the paper's
algorithm *has no communication to model*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitionError


@dataclass(frozen=True)
class VirtualCluster:
    """A logical machine with ``n_ranks`` identical processors.

    Parameters
    ----------
    n_ranks:
        Number of processors (the paper's ``Np``).
    memory_budget_entries:
        Per-rank memory budget expressed as the maximum number of stored
        sparse-matrix entries a rank may hold at once (constituent halves
        B and C must each fit).  Defaults to 5e7 entries (~1.2 GB of
        int64 triples), a laptop-class budget.
    name:
        Optional label for reports.
    """

    n_ranks: int
    memory_budget_entries: int = 50_000_000
    name: str = "virtual-cluster"

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise PartitionError(f"need at least one rank, got {self.n_ranks}")
        if self.memory_budget_entries < 1:
            raise PartitionError(
                "memory budget must be positive, got "
                f"{self.memory_budget_entries}"
            )

    @property
    def ranks(self) -> range:
        """Iterable of rank identifiers ``0..n_ranks-1``."""
        return range(self.n_ranks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VirtualCluster({self.name!r}, n_ranks={self.n_ranks}, "
            f"memory_budget_entries={self.memory_budget_entries:,})"
        )

