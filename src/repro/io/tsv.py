"""TSV edge lists — the interchange format of the Graph500/GraphChallenge
ecosystem the paper's generator feeds.

One line per stored entry: ``row<TAB>col<TAB>value``, written and read
by the codec in :mod:`repro.io.tsv_codec` (the same bytes and line rules
as the shard sink and the shard readers).  The writers stream one encoded
block at a time, so an export needs no more memory than its matrix.  The
per-rank writers mirror the paper's production mode, where every rank
streams its own block to its own file with no coordination.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.errors import IOFormatError
from repro.io.tsv_codec import iter_tsv_blocks, iter_tsv_triples
from repro.sparse.convert import AnySparse, as_coo
from repro.sparse.coo import COOMatrix
from repro.sparse.kernels import INDEX_DTYPE

if TYPE_CHECKING:
    from repro.parallel.generator import RankBlock


def _require_integral(path: Path, vals) -> None:
    """Refuse values the integer TSV format would truncate.

    The codec writes floats like ``int()`` (toward zero), so 2.5 would
    come back as 2; raise before ``path`` is created instead.
    """
    vals = np.asarray(vals)
    if vals.dtype.kind in "biu":
        return
    # Float and object (Python int/float) columns; integers stay integral.
    as_float = vals.astype(np.float64)
    if not np.all(np.isfinite(as_float) & (as_float == np.trunc(as_float))):
        raise IOFormatError(
            f"{path}: TSV values must be integers; the matrix holds "
            "non-integral values that would be truncated"
        )


def write_tsv_edges(path: str | Path, matrix: AnySparse) -> int:
    """Write a matrix's triples as TSV; returns the number of lines.

    Raises :class:`~repro.errors.IOFormatError` (and writes nothing) if
    a value is not an integer.
    """
    coo = as_coo(matrix)
    path = Path(path)
    _require_integral(path, coo.vals)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.writelines(iter_tsv_blocks(coo.rows, coo.cols, coo.vals))
    return coo.nnz


def read_tsv_edges(path: str | Path, shape: Tuple[int, int]) -> COOMatrix:
    """Read TSV triples back into a canonical COO matrix."""
    chunks = list(iter_tsv_triples(path)) or [(np.empty(0, dtype=np.int64),) * 3]
    rows, cols, vals = (np.concatenate(column) for column in zip(*chunks))
    return COOMatrix(
        shape,
        rows.astype(INDEX_DTYPE, copy=False),
        cols.astype(INDEX_DTYPE, copy=False),
        vals,
    )


def write_rank_files(
    directory: str | Path, blocks: Sequence["RankBlock"], *, prefix: str = "edges"
) -> List[Path]:
    """Write each rank block (global coordinates) to ``prefix.<rank>.tsv``.

    Every block's values are checked before any file is created: a
    non-integral value raises :class:`~repro.errors.IOFormatError`
    naming the file it would have gone to.
    """
    directory = Path(directory)
    paths = [directory / f"{prefix}.{block.rank}.tsv" for block in blocks]
    for block, path in zip(blocks, paths):
        _require_integral(path, block.block.vals)
    directory.mkdir(parents=True, exist_ok=True)
    for block, path in zip(blocks, paths):
        with open(path, "wb") as fh:
            fh.writelines(iter_tsv_blocks(*block.global_triples()))
    return paths


def read_rank_files(
    directory: str | Path, shape: Tuple[int, int], *, prefix: str = "edges"
) -> COOMatrix:
    """Union all ``prefix.*.tsv`` rank files into one matrix."""
    directory = Path(directory)
    files = sorted(
        p for p in directory.iterdir() if p.name.startswith(prefix + ".") and p.suffix == ".tsv"
    )
    if not files:
        raise IOFormatError(f"no {prefix}.*.tsv files in {directory}")
    parts = [read_tsv_edges(p, shape) for p in files]
    rows = np.concatenate([p.rows for p in parts])
    cols = np.concatenate([p.cols for p in parts])
    vals = np.concatenate([p.vals for p in parts])
    return COOMatrix(shape, rows, cols, vals)
