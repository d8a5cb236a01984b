"""The vectorized TSV codec against the historical f-string oracle.

Every TSV byte the library writes goes through
:func:`repro.io.tsv_codec.encode_tsv_lines`; these tests hold it to the
per-entry f-string in :mod:`tests.tsv_oracle` across dtypes, the whole
int64/uint64 range and every encode-block boundary, and hold the chunked
reader to typed errors on malformed shards.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.engine.sinks as sinks
from repro.design import PowerLawDesign
from repro.engine import RunConfig
from repro.engine.sinks import _serialize_tile
from repro.errors import IOFormatError
from repro.io import read_tsv_edges, write_rank_files, write_tsv_edges
from repro.io.tsv_codec import (
    ENCODE_BLOCK_ENTRIES,
    encode_tsv_lines,
    iter_tsv_triples,
)
from repro.models import StochasticKroneckerModel
from repro.parallel import ParallelKroneckerGenerator, VirtualCluster
from repro.parallel.stream import generate_to_disk, read_streamed_degree_distribution
from repro.sparse import COOMatrix, from_dense
from repro.validate.triangle_stream import iter_shard_edges
from tests.conftest import random_dense
from tests.tsv_oracle import serialize_tile_oracle


def oracle_bytes(rows, cols, vals) -> bytes:
    return serialize_tile_oracle(rows, cols, vals)[0]


# Column strategies: each dtype over its full range (floats finite and
# below 2**64 in magnitude, the encoder's domain).
_ELEMENTS = {
    np.dtype(np.int64): st.integers(-(2**63), 2**63 - 1),
    np.dtype(np.uint64): st.integers(0, 2**64 - 1),
    np.dtype(np.int8): st.integers(-(2**7), 2**7 - 1),
    np.dtype(np.int32): st.integers(-(2**31), 2**31 - 1),
    np.dtype(np.bool_): st.booleans(),
    np.dtype(np.float64): st.floats(
        min_value=-1.8e19,
        max_value=1.8e19,
        allow_nan=False,
        allow_infinity=False,
    ),
}


@st.composite
def tiles(draw):
    """Three equal-length columns, each of an independently drawn dtype."""
    n = draw(st.integers(0, 40))
    dtypes = [draw(st.sampled_from(sorted(_ELEMENTS, key=str))) for _ in range(3)]
    return tuple(
        draw(hnp.arrays(dtype, n, elements=_ELEMENTS[dtype])) for dtype in dtypes
    )


class TestEncoderMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(tile=tiles())
    def test_hypothesis_any_dtype_mix(self, tile):
        assert encode_tsv_lines(*tile) == oracle_bytes(*tile)

    def test_int64_and_uint64_extremes(self):
        extremes = np.array(
            [0, 1, -1, 9, -9, 10, -10, 99, 100, -100, 2**63 - 1, -(2**63)],
            dtype=np.int64,
        )
        unsigned = np.array(
            [0, 9, 10, 10**19 - 1, 10**19, 2**63, 2**64 - 1] + [1] * 5,
            dtype=np.uint64,
        )
        tile = (extremes, unsigned, extremes[::-1].copy())
        assert encode_tsv_lines(*tile) == oracle_bytes(*tile)

    def test_float_truncates_like_int(self):
        floats = np.array([-0.0, -0.5, 0.5, -1.5, 2.999, -2.999, 1e18, -1e18])
        ints = np.arange(len(floats))
        assert encode_tsv_lines(floats, ints, floats) == oracle_bytes(
            floats, ints, floats
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_raises_like_int(self, bad):
        vals = np.array([1.0, bad])
        rows = np.array([0, 1])
        with pytest.raises(Exception) as expected:
            oracle_bytes(rows, rows, vals)
        with pytest.raises(type(expected.value), match=str(expected.value)):
            encode_tsv_lines(rows, rows, vals)

    @pytest.mark.parametrize(
        "rows, vals",
        [
            ([np.inf, 0.0], [1.0, np.nan]),  # earlier line wins
            ([0.0, np.nan], [-np.inf, 1.0]),
            ([np.nan, 0.0], [np.inf, 1.0]),  # same line: earlier column
        ],
    )
    def test_first_non_finite_in_line_order_decides(self, rows, vals):
        rows, vals = np.array(rows), np.array(vals)
        cols = np.arange(2)
        with pytest.raises(Exception) as expected:
            oracle_bytes(rows, cols, vals)
        with pytest.raises(type(expected.value), match=str(expected.value)):
            encode_tsv_lines(rows, cols, vals)

    def test_digit_count_boundaries(self):
        powers = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
        tile = (powers - np.uint64(1), powers, powers + np.uint64(1))
        assert encode_tsv_lines(*tile) == oracle_bytes(*tile)

    def test_empty_tile(self):
        empty = np.array([], dtype=np.int64)
        assert encode_tsv_lines(empty, empty, empty) == b""
        assert _serialize_tile(empty, empty, empty) == (b"", 0)

    @pytest.mark.parametrize(
        "n",
        [ENCODE_BLOCK_ENTRIES - 1, ENCODE_BLOCK_ENTRIES, ENCODE_BLOCK_ENTRIES + 1],
    )
    def test_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        # Mixed widths and signs, so every line length shifts the layout.
        scale = 10 ** rng.integers(0, 19, size=n)
        rows = rng.integers(0, 2**62, size=n) // scale
        cols = -(rng.integers(0, 2**62, size=n) // scale)
        vals = rng.integers(-(2**63), 2**63 - 1, size=n)
        assert _serialize_tile(rows, cols, vals) == serialize_tile_oracle(
            rows, cols, vals
        )

    def test_strided_views(self):
        base = np.arange(-50, 50, dtype=np.int64)
        tile = (base[::2], base[1::2], base[::-2])
        assert encode_tsv_lines(*tile) == oracle_bytes(*tile)

    def test_object_integer_columns(self):
        tile = (
            np.array([0, 2**63 - 1, 5], dtype=object),
            np.array([2**64 - 1, 2**63, 7], dtype=object),
            np.array([-(2**63), -1, 3], dtype=object),
        )
        assert encode_tsv_lines(*tile) == oracle_bytes(*tile)

    def test_object_column_errors_are_ints(self):
        column = np.array([1, float("nan")], dtype=object)
        with pytest.raises(ValueError, match="NaN"):
            encode_tsv_lines(column, column, column)


class TestScrambledShards:
    def test_scrambled_skg_past_2_31_vertices_matches_oracle(
        self, tmp_path, monkeypatch
    ):
        # 2**32 vertices: the scramble relabels through Python ints and
        # hands the sink object columns.
        config = RunConfig(
            model=StochasticKroneckerModel(levels=32, num_edges=300, seed=4),
            scramble_seed=9,
        )
        design = PowerLawDesign([3, 4, 5])
        generate_to_disk(design, 3, tmp_path / "codec", config=config)
        monkeypatch.setattr(sinks, "_serialize_tile", serialize_tile_oracle)
        generate_to_disk(design, 3, tmp_path / "oracle", config=config)
        shards = sorted((tmp_path / "oracle").glob("edges.*.tsv"))
        assert len(shards) == 3
        assert sum(len(path.read_bytes().splitlines()) for path in shards) == 300
        for path in [*shards, tmp_path / "oracle" / "manifest.json"]:
            assert (tmp_path / "codec" / path.name).read_bytes() == path.read_bytes()


class TestWritersMatchOracle:
    def test_write_tsv_edges_bytes(self, tmp_path, rng):
        m = from_dense(random_dense(rng, 9, 9) * 3 - 4)
        path = tmp_path / "edges.tsv"
        write_tsv_edges(path, m)
        assert path.read_bytes() == oracle_bytes(m.rows, m.cols, m.vals)

    def test_write_rank_files_bytes(self, tmp_path):
        design = PowerLawDesign([3, 4, 2])
        blocks = ParallelKroneckerGenerator(
            design.to_chain(), VirtualCluster(4)
        ).generate_blocks()
        paths = write_rank_files(tmp_path, blocks)
        for block, path in zip(blocks, paths):
            assert path.read_bytes() == oracle_bytes(*block.global_triples())

    def test_write_tsv_edges_streams_in_blocks(self, tmp_path):
        n = 32 * ENCODE_BLOCK_ENTRIES
        index = np.arange(n, dtype=np.int64) * 10**9
        m = COOMatrix((10**15, 10**15), index, index, index + 1)
        path = tmp_path / "big.tsv"
        tracemalloc.start()
        try:
            write_tsv_edges(path, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Encoding the whole file at once would need its size (and a copy);
        # one block's temporaries are a few MB.
        assert peak < path.stat().st_size / 4
        with open(path, "rb") as fh:
            head = [next(fh) for _ in range(3)]
        assert b"".join(head) == oracle_bytes(index[:3], index[:3], index[:3] + 1)
        assert path.stat().st_size == len(encode_tsv_lines(index, index, index + 1))


def _readers(tmp_path, text: str):
    """Both chunked shard readers pointed at one shard holding ``text``."""
    shard = tmp_path / "edges.0.tsv"
    shard.write_bytes(text.encode("ascii"))
    (tmp_path / "manifest.json").write_text(
        json.dumps({"shards": [{"filename": shard.name}]})
    )
    return {
        "degree": lambda: read_streamed_degree_distribution([shard], 8),
        "triangle": lambda: list(iter_shard_edges(tmp_path)),
        "export": lambda: read_tsv_edges(shard, (8, 8)),
    }


_READERS = ["degree", "triangle", "export"]


class TestChunkedReader:
    def test_round_trip_across_chunk_cuts(self, tmp_path):
        rng = np.random.default_rng(3)
        tile = tuple(rng.integers(-(10**12), 10**12, size=500) for _ in range(3))
        path = tmp_path / "edges.0.tsv"
        path.write_bytes(encode_tsv_lines(*tile))
        chunks = list(iter_tsv_triples(path, chunk_bytes=37))
        assert len(chunks) > 1
        for got, want in zip(zip(*chunks), tile):
            np.testing.assert_array_equal(np.concatenate(got), want)

    @pytest.mark.parametrize("reader", _READERS)
    def test_non_numeric_byte_is_a_typed_error(self, tmp_path, reader):
        read = _readers(tmp_path, "1\t2\t1\n3\tx\t1\n")[reader]
        with pytest.raises(IOFormatError, match="edges.0.tsv"):
            read()

    @pytest.mark.parametrize("reader", _READERS)
    def test_tokens_split_across_lines_are_refused(self, tmp_path, reader):
        # Six tokens on two lines used to read as the edges (1,2), (4,1).
        read = _readers(tmp_path, "1\t2\n3\t4\t1\t5\n")[reader]
        with pytest.raises(IOFormatError, match="edges.0.tsv"):
            read()

    @pytest.mark.parametrize("reader", _READERS)
    @pytest.mark.parametrize(
        "token", ["99999999999999999999", "9223372036854775808", "-9223372036854775809"]
    )
    def test_token_past_int64_is_refused(self, tmp_path, reader, token):
        # np.fromstring saturates these to an int64 limit without error.
        read = _readers(tmp_path, f"1\t2\t1\n{token}\t1\t1\n")[reader]
        with pytest.raises(IOFormatError, match="int64"):
            read()

    @pytest.mark.parametrize("row", [8, -1, 2**63 - 1])
    def test_degree_reader_refuses_rows_out_of_range(self, tmp_path, row):
        # A row of INT64_MAX made np.bincount write past its output.
        read = _readers(tmp_path, f"1\t2\t1\n{row}\t1\t1\n")["degree"]
        with pytest.raises(IOFormatError, match="row id outside"):
            read()

    def test_int64_limits_themselves_read_exactly(self, tmp_path):
        path = tmp_path / "edges.0.tsv"
        tile = (np.array([2**63 - 1]), np.array([-(2**63)]), np.array([0]))
        path.write_bytes(encode_tsv_lines(*tile))
        (rows, cols, vals), = iter_tsv_triples(path)
        assert (rows[0], cols[0], vals[0]) == (2**63 - 1, -(2**63), 0)

    @pytest.mark.parametrize(
        "text",
        ["1 2 3\n", "1\t\t2\t3\n", "1\t2\t3\n4\t5", "1\t2\t3 \n", "1\t2\t3\r\r\n", "+1\t2\t3\n"],
    )
    def test_other_malformed_shards_refused(self, tmp_path, text):
        path = tmp_path / "edges.0.tsv"
        path.write_text(text, newline="")
        with pytest.raises(IOFormatError):
            list(iter_tsv_triples(path))

    @pytest.mark.parametrize("reader", _READERS)
    def test_blank_comment_and_crlf_lines_are_skipped(self, tmp_path, reader):
        # One rule set for every reader: the export reader always skipped
        # these, and the streamed readers accepted blank lines and CRLF.
        clean = _readers(tmp_path, "0\t1\t1\n2\t3\t1\n")[reader]()
        messy = _readers(
            tmp_path, "# header\r\n\n0\t1\t1\r\n\n# note\n2\t3\t1\n\n"
        )[reader]()
        if reader == "triangle":
            np.testing.assert_array_equal(np.hstack(messy), np.hstack(clean))
        elif reader == "export":
            assert messy.equal(clean)
        else:
            assert messy == clean

    @pytest.mark.parametrize("chunk_bytes", [0, -1])
    def test_non_positive_chunk_is_refused(self, tmp_path, chunk_bytes):
        # A zero-byte chunk used to read as an empty file: every degree 0.
        path = tmp_path / "edges.0.tsv"
        path.write_text("1\t2\t1\n")
        with pytest.raises(ValueError, match="chunk_bytes"):
            read_streamed_degree_distribution([path], 8, chunk_bytes=chunk_bytes)
