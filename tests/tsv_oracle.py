"""The historical per-entry TSV serializer, kept as the byte oracle.

Every TSV writer in the library (the shard sink, ``repro.io.tsv`` and the
native kernel) must produce exactly these bytes.
"""

from typing import Tuple

import numpy as np


def serialize_tile_oracle(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> Tuple[bytes, int]:
    """One tile as TSV bytes (the exact historical shard line format)."""
    lines = [
        f"{int(r)}\t{int(c)}\t{int(v)}\n" for r, c, v in zip(rows, cols, vals)
    ]
    return "".join(lines).encode("ascii"), len(lines)
