"""The TSV edge-line codec: ``row<TAB>col<TAB>value<NEWLINE>``.

One encoder and one chunked reader for every TSV shard and export in the
repository: the engine's shard sink, :mod:`repro.io.tsv`, the streamed
degree reader and the streamed triangle validator all go through here.
The module is a leaf (it imports only NumPy and :mod:`repro.errors`), so
engine code can use it without importing :mod:`repro.parallel`.

**Encoding** is byte-identical to ``f"{int(r)}\\t{int(c)}\\t{int(v)}\\n"``
per entry, but vectorized.  Each column becomes a sign mask and a uint64
magnitude (``INT64_MIN`` works through ``.view(np.uint64)``); its digit
counts come from comparisons against powers of ten; a ``cumsum`` over the
line widths places every line; then separators, ``-`` signs and digits
are scattered into one ``uint8`` buffer, digits least-significant first
over a shrinking set of entries that still have digits left.  Integer,
unsigned (up to ``2**64 - 1``), bool and float columns are accepted, and
so are object columns of Python integers (what
:meth:`~repro.parallel.scramble.ScramblePermutation.apply_array` returns
for large vertex counts), converted to int64 or uint64 first; floats
truncate toward zero like ``int()``, and NaN or infinity raise the same
``ValueError`` / ``OverflowError`` that ``int()`` raises.  Entries are
encoded ``ENCODE_BLOCK_ENTRIES`` at a time (:func:`iter_tsv_blocks`),
which keeps the temporaries below what the per-entry f-string needed and
lets file writers stream a matrix of any size in constant extra memory.

**Decoding** reads a file in ``chunk_bytes`` slabs, cuts each at its last
newline and parses it in one ``np.fromstring`` call.  Every line must end
in a newline and hold three decimal int64 tokens separated by single
tabs; blank lines, lines starting with ``#`` and CRLF line ends are
skipped or accepted.  Anything else, including a token outside the int64
range, raises :class:`~repro.errors.IOFormatError` naming the file.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import IOFormatError

#: Entries encoded per vectorized pass: bounds the encoder's temporaries
#: (a few MB) however large the tile.
ENCODE_BLOCK_ENTRIES = 16_384

#: Bytes per read in the chunked reader — large enough that NumPy parsing
#: dominates, small enough to stay out of the way of the engine's
#: budget-sized-tile memory story.
READ_CHUNK_BYTES = 1 << 24

_TAB, _NEWLINE, _MINUS, _ASCII_ZERO = 9, 10, 45, 48
_UINT64_LIMIT = 2.0**64
#: Every byte a well-formed line may hold besides its separators.
_TOKEN_BYTES = b"0123456789-"
_LINE_SEPARATORS = b"\t\t\n"
#: A blank or ``#`` comment line (after CRLF became LF).
_SKIPPED_LINE = re.compile(rb"^(?:#[^\n]*)?\n", re.MULTILINE)
_INT64_INFO = np.iinfo(np.int64)


# -- encoding -------------------------------------------------------------------
def _raise_on_non_finite(columns: List[np.ndarray]) -> None:
    """Raise what ``int()`` raises on the first NaN or infinity, in line
    order, of the float columns."""
    first = None
    for column in columns:
        if column.dtype.kind != "f":
            continue
        bad = np.flatnonzero(~np.isfinite(column))
        # Columns come in line order, so a tie keeps the earlier column.
        if bad.size and (first is None or bad[0] < first[0]):
            first = (bad[0], column[bad[0]])
    if first is None:
        return
    if np.isnan(first[1]):
        raise ValueError("cannot convert float NaN to integer")
    raise OverflowError("cannot convert float infinity to integer")


def _sign_magnitude(column: np.ndarray) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """``(negative mask or None, uint64 magnitude)`` of one column."""
    kind = column.dtype.kind
    neg = None
    if kind in "bu":
        mag = column.astype(np.uint64, copy=False)
    elif kind == "i":
        signed = column.astype(np.int64, copy=False)
        neg = signed < 0
        mag = signed.view(np.uint64)
        if neg.any():
            # Two's-complement negation in uint64: exact for INT64_MIN.
            mag = np.negative(mag, out=mag.copy(), where=neg)
    elif kind == "f":
        whole = np.trunc(column.astype(np.float64, copy=False))
        magnitude = np.abs(whole)
        if (magnitude >= _UINT64_LIMIT).any():
            raise OverflowError(
                "TSV encoding supports magnitudes below 2**64; a float "
                "column holds a larger value"
            )
        neg = whole < 0
        mag = magnitude.astype(np.uint64)
    else:
        raise TypeError(
            f"cannot TSV-encode a column of dtype {column.dtype}; expected "
            "integer, unsigned, bool or float values"
        )
    if neg is not None and not neg.any():
        neg = None
    return neg, mag


def _digit_counts(mag: np.ndarray) -> np.ndarray:
    """Decimal digit count of every magnitude (0 has one digit)."""
    counts = np.ones(mag.shape, dtype=np.intp)
    top = int(mag.max())
    power = 10
    while power <= top:
        counts += mag >= power
        power *= 10
    return counts


def _scatter_digits(buf: np.ndarray, mag: np.ndarray, last: np.ndarray) -> None:
    """Write each magnitude's digits ending at ``last`` (inclusive),
    least-significant first, dropping entries whose digits run out."""
    ten = mag.dtype.type(10)
    while True:
        quotient = mag // ten
        buf[last] = (mag - quotient * ten).astype(np.uint8) + _ASCII_ZERO
        live = np.flatnonzero(quotient)
        if not live.size:
            return
        if live.size == quotient.size:
            mag, last = quotient, last - 1
        else:
            mag, last = quotient[live], last[live] - 1


def _encode_block(columns: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> bytes:
    fields = [_sign_magnitude(column) for column in columns]
    widths = []
    for neg, mag in fields:
        width = _digit_counts(mag)
        if neg is not None:
            width += neg
        widths.append(width)
    ends = np.cumsum(widths[0] + widths[1] + widths[2] + 3)
    buf = np.empty(int(ends[-1]), dtype=np.uint8)
    # The index one past each field's last digit: tab, tab, newline.
    stop_v = ends - 1
    stop_c = stop_v - widths[2] - 1
    stop_r = stop_c - widths[1] - 1
    buf[stop_r] = _TAB
    buf[stop_c] = _TAB
    buf[stop_v] = _NEWLINE
    for (neg, mag), width, stop in zip(fields, widths, (stop_r, stop_c, stop_v)):
        if neg is not None:
            buf[(stop - width)[neg]] = _MINUS
        _scatter_digits(buf, mag, stop - 1)
    return buf.tobytes()


def _integer_column(column: np.ndarray) -> np.ndarray:
    """An object column as int64, or uint64 when it holds values past
    int64 (``int()`` converts each entry, so its errors are ``int()``'s)."""
    try:
        return column.astype(np.int64)
    except OverflowError:
        return column.astype(np.uint64)


def iter_tsv_blocks(rows, cols, vals) -> Iterator[bytes]:
    """TSV bytes of the triples, ``ENCODE_BLOCK_ENTRIES`` lines at a time.

    The blocks joined are byte-identical to
    ``f"{int(r)}\\t{int(c)}\\t{int(v)}\\n"`` over the entries (see the
    module docstring for the accepted dtypes).
    """
    columns = [np.asarray(a) for a in (rows, cols, vals)]
    n = len(columns[0])
    if any(len(column) != n for column in columns):
        raise ValueError(
            f"rows, cols and vals differ in length: "
            f"{[len(column) for column in columns]}"
        )
    columns = [
        _integer_column(column) if column.dtype.kind == "O" else column
        for column in columns
    ]
    _raise_on_non_finite(columns)
    for start in range(0, n, ENCODE_BLOCK_ENTRIES):
        yield _encode_block(
            tuple(column[start : start + ENCODE_BLOCK_ENTRIES] for column in columns)
        )


def encode_tsv_lines(rows, cols, vals) -> bytes:
    """TSV bytes of the triples, one ``row\\tcol\\tvalue\\n`` line each."""
    return b"".join(iter_tsv_blocks(rows, cols, vals))


# -- decoding -------------------------------------------------------------------
def _parse_slab(path: Path, slab: bytes) -> np.ndarray:
    """Parse whole lines into an ``(lines, 3)`` int64 array, skipping
    blank and ``#`` comment lines and accepting CRLF line ends."""
    try:
        return _parse_plain_lines(path, slab)
    except IOFormatError:
        # Only a slab the plain parse refused pays for the clean-up.
        cleaned = _SKIPPED_LINE.sub(b"", slab.replace(b"\r\n", b"\n"))
        if cleaned == slab:
            raise
        return _parse_plain_lines(path, cleaned)


def _parse_plain_lines(path: Path, slab: bytes) -> np.ndarray:
    """Parse lines of exactly three int64 tokens separated by single tabs."""
    try:
        tokens = np.fromstring(slab, dtype=np.int64, sep="\t")
    except ValueError as exc:
        raise IOFormatError(
            f"{path}: TSV file holds a token that is not a decimal integer"
        ) from exc
    separators = slab.translate(None, _TOKEN_BYTES)
    lines = len(separators) // 3
    if (
        tokens.size != 3 * lines
        or len(separators) != 3 * lines
        or separators.count(_LINE_SEPARATORS) != lines
    ):
        newlines = slab.count(b"\n")
        raise IOFormatError(
            f"{path}: malformed TSV file (expected 3 tab-separated "
            f"integers per line; {tokens.size} tokens on {newlines} lines)"
        )
    # np.fromstring saturates out-of-range tokens to the int64 limits, so
    # the (rare) tokens at a limit are re-read exactly.
    if tokens.size and (
        tokens.max() == _INT64_INFO.max or tokens.min() == _INT64_INFO.min
    ):
        texts = slab.split()
        at_limit = np.flatnonzero(
            (tokens == _INT64_INFO.max) | (tokens == _INT64_INFO.min)
        )
        for index in at_limit:
            if int(texts[index]) != tokens[index]:
                raise IOFormatError(
                    f"{path}: TSV token {texts[index].decode()} is outside "
                    "the int64 range"
                )
    return tokens.reshape(lines, 3)


def iter_tsv_triples(
    path: str | Path, chunk_bytes: int = READ_CHUNK_BYTES
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(rows, cols, vals)`` int64 views of one TSV file, one
    ~``chunk_bytes`` slab of whole lines at a time."""
    if chunk_bytes < 1:
        # A zero-byte read looks like end of file: nothing would be read.
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    path = Path(path)
    with open(path, "rb") as fh:
        tail = b""
        while True:
            data = fh.read(chunk_bytes)
            if not data:
                break
            data = tail + data
            cut = data.rfind(b"\n")
            if cut < 0:
                tail = data
                continue
            tail = data[cut + 1 :]
            triples = _parse_slab(path, data[: cut + 1])
            yield triples[:, 0], triples[:, 1], triples[:, 2]
    if tail.strip():
        raise IOFormatError(f"{path}: trailing partial line {tail!r}")
