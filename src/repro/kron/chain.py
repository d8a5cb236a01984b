"""Lazy Kronecker chains.

:class:`KroneckerChain` represents ``A = A₁ ⊗ ... ⊗ A_N`` symbolically: it
stores only the (tiny) constituent matrices and answers queries about the
product via mixed-radix index arithmetic.  Nothing is materialized until
:meth:`materialize` (or :meth:`split` + the parallel generator) is called,
so a chain describing a 10³⁰-edge graph costs a few kilobytes.
"""

from __future__ import annotations

from math import prod
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ProductTooLargeError, ShapeError
from repro.semiring.base import Semiring
from repro.semiring.standard import PLUS_TIMES
from repro.kron.indexing import MixedRadix
from repro.kron.sparse_kron import kron_chain
from repro.sparse.convert import AnySparse, as_coo
from repro.sparse.coo import COOMatrix


class KroneckerChain:
    """A lazy ``⊗``-chain of square sparse factors.

    Parameters
    ----------
    factors:
        Constituent adjacency matrices (any library sparse type or dense
        ndarray).  Each must be square — the chain represents a graph.
    """

    __slots__ = ("factors", "_row_radix", "_col_radix")

    def __init__(self, factors: Sequence[AnySparse]) -> None:
        mats: List[COOMatrix] = [as_coo(f) for f in factors]
        if not mats:
            raise ShapeError("KroneckerChain needs at least one factor")
        for k, m in enumerate(mats):
            if m.shape[0] != m.shape[1]:
                raise ShapeError(f"factor {k} is not square: shape {m.shape}")
        self.factors = tuple(mats)
        self._row_radix = MixedRadix([m.shape[0] for m in mats])
        self._col_radix = MixedRadix([m.shape[1] for m in mats])

    # -- exact product metadata (never materializes) ------------------------
    @property
    def num_factors(self) -> int:
        return len(self.factors)

    @property
    def num_vertices(self) -> int:
        """∏ m_k — exact Python int."""
        return prod(m.shape[0] for m in self.factors)

    @property
    def nnz(self) -> int:
        """∏ nnz(A_k) — exact Python int (the paper's edge count)."""
        return prod(m.nnz for m in self.factors)

    @property
    def shape(self) -> Tuple[int, int]:
        n = self.num_vertices
        return (n, n)

    # -- element & row queries ------------------------------------------------
    def entry(self, i: int, j: int):
        """Value of the product at (i, j) without materializing.

        Decomposes the indices into constituent digits and multiplies the
        factor entries; any zero factor short-circuits.
        """
        di = self._row_radix.decode(i)
        dj = self._col_radix.decode(j)
        value = 1
        for m, a, b in zip(self.factors, di, dj):
            v = m.get(a, b, 0)
            if v == 0:
                return 0
            value *= v
        return value

    def row_nnz_of(self, i: int) -> int:
        """Exact nnz of product row i = ∏ nnz of constituent rows."""
        digits = self._row_radix.decode(i)
        counts = 1
        for m, a in zip(self.factors, digits):
            rn = int(np.count_nonzero(m.rows == a))
            if rn == 0:
                return 0
            counts *= rn
        return counts

    def degree_of(self, i: int) -> int:
        """Degree (row nnz) of vertex i — works at any scale."""
        return self.row_nnz_of(i)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of product row i, materialized.

        Cost is the row's nnz; only call when that is small enough to
        hold (it always is for star chains, whose max degree is ∏ m̂_k of
        a few factors — guard at 10**7 entries).
        """
        digits = self._row_radix.decode(i)
        cols = np.array([0], dtype=object)
        vals = np.array([1], dtype=object)
        size = 1
        for m, a in zip(self.factors, digits):
            sel = m.rows == a
            fc, fv = m.cols[sel], m.vals[sel]
            size *= len(fc)
            if size > 10**7:
                raise ProductTooLargeError(
                    f"row {i} has more than 10^7 entries; use row_nnz_of"
                )
            if len(fc) == 0:
                return np.empty(0, dtype=object), np.empty(0, dtype=object)
            width = m.shape[1]
            cols = np.repeat(cols * width, len(fc)) + np.tile(fc.astype(object), len(cols))
            vals = np.repeat(vals, len(fv)) * np.tile(fv.astype(object), len(vals))
        return cols, vals

    # -- composition --------------------------------------------------------------
    def split(self, k: int) -> Tuple["KroneckerChain", "KroneckerChain"]:
        """Split into ``(B, C)`` with ``B = A₁⊗...⊗A_k`` and the rest.

        This is the paper's Section V decomposition ``A = B ⊗ C``.
        """
        if not 1 <= k < self.num_factors:
            raise ShapeError(
                f"split point must be in [1, {self.num_factors - 1}], got {k}"
            )
        return KroneckerChain(self.factors[:k]), KroneckerChain(self.factors[k:])

    def __mul__(self, other: "KroneckerChain") -> "KroneckerChain":
        """Concatenate chains: ``(B * C).materialize() == B ⊗ C``."""
        return KroneckerChain(self.factors + other.factors)

    def __iter__(self) -> Iterator[COOMatrix]:
        return iter(self.factors)

    # -- realization -----------------------------------------------------------------
    def materialize(self, semiring: Semiring = PLUS_TIMES) -> COOMatrix:
        """Form the full product as a canonical COO matrix.

        Refuses products whose nnz exceeds ``5·10^7`` — at that point use
        the parallel generator and stream per-rank blocks instead.
        """
        if self.nnz > 5 * 10**7:
            raise ProductTooLargeError(
                f"product has {self.nnz} stored entries; materializing would "
                "exhaust memory — use repro.parallel to generate blocks"
            )
        return kron_chain(self.factors, semiring)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = "x".join(str(m.shape[0]) for m in self.factors)
        return f"KroneckerChain({self.num_factors} factors: {sizes}, nnz={self.nnz})"
