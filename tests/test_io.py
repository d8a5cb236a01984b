"""Unit tests for the I/O layer."""

import numpy as np
import pytest

from repro.design import PowerLawDesign
from repro.errors import IOFormatError
from repro.io import (
    load_design,
    load_matrix,
    read_rank_files,
    read_tsv_edges,
    save_design,
    save_matrix,
    write_rank_files,
    write_tsv_edges,
)
from repro.parallel import ParallelKroneckerGenerator, VirtualCluster
from repro.sparse import from_dense
from tests.conftest import random_dense


class TestTSV:
    def test_roundtrip(self, tmp_path, rng):
        m = from_dense(random_dense(rng, 6, 6))
        path = tmp_path / "edges.tsv"
        count = write_tsv_edges(path, m)
        assert count == m.nnz
        assert read_tsv_edges(path, m.shape).equal(m)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("# header\n0\t1\t1\n\n1\t0\t1\n")
        m = read_tsv_edges(path, (2, 2))
        assert m.nnz == 2

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\n")
        with pytest.raises(IOFormatError):
            read_tsv_edges(path, (2, 2))

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "bad2.tsv"
        path.write_text("0\tx\t1\n")
        with pytest.raises(IOFormatError):
            read_tsv_edges(path, (2, 2))

    def test_rank_files_roundtrip(self, tmp_path):
        design = PowerLawDesign([3, 4, 2])
        gen = ParallelKroneckerGenerator(design.to_chain(), VirtualCluster(4))
        blocks = gen.generate_blocks()
        paths = write_rank_files(tmp_path, blocks)
        assert len(paths) == 4
        merged = read_rank_files(tmp_path, (design.num_vertices, design.num_vertices))
        assert merged.equal(design.to_chain().materialize())

    def test_rank_files_missing(self, tmp_path):
        with pytest.raises(IOFormatError):
            read_rank_files(tmp_path, (2, 2))

    def test_non_integral_values_refused_before_writing(self, tmp_path):
        # 0.5 and 2.5 would be written as 0 and 2 (read back as one entry).
        m = from_dense(np.array([[0.0, 0.5], [2.5, 0.0]]))
        path = tmp_path / "out" / "edges.tsv"
        with pytest.raises(IOFormatError, match="edges.tsv"):
            write_tsv_edges(path, m)
        assert not path.exists()

    def test_whole_float_values_still_written(self, tmp_path):
        m = from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))
        path = tmp_path / "edges.tsv"
        assert write_tsv_edges(path, m) == 2
        assert path.read_bytes() == b"0\t1\t1\n1\t0\t2\n"

    def test_rank_files_refuse_non_integral_values(self, tmp_path):
        from repro.parallel.generator import RankBlock

        whole = from_dense(np.array([[0, 1], [2, 0]]))
        halves = from_dense(np.array([[0.0, 0.5], [2.5, 0.0]]))
        blocks = [RankBlock(0, whole, 0, 2, 0.0), RankBlock(1, halves, 1, 2, 0.0)]
        with pytest.raises(IOFormatError, match=r"edges\.1\.tsv"):
            write_rank_files(tmp_path / "ranks", blocks)
        # Checked before any file is created, rank 0's included.
        assert not (tmp_path / "ranks").exists()


class TestNPZ:
    def test_matrix_roundtrip(self, tmp_path, rng):
        m = from_dense(random_dense(rng, 8, 5))
        path = tmp_path / "m.npz"
        save_matrix(path, m)
        assert load_matrix(path).equal(m)

    def test_corrupt_npz_missing_field(self, tmp_path, rng):
        path = tmp_path / "bad.npz"
        np.savez(path, rows=np.array([0]))
        with pytest.raises(IOFormatError):
            load_matrix(path)


class TestDesignJSON:
    def test_roundtrip(self, tmp_path):
        design = PowerLawDesign([3, 4, 5], "center")
        path = tmp_path / "design.json"
        save_design(path, design)
        loaded = load_design(path)
        assert loaded.star_sizes == design.star_sizes
        assert loaded.self_loop == design.self_loop
        assert loaded.num_edges == design.num_edges

    def test_tampered_counts_detected(self, tmp_path):
        design = PowerLawDesign([3, 4])
        path = tmp_path / "design.json"
        save_design(path, design)
        text = path.read_text().replace(str(design.num_edges), str(design.num_edges + 1))
        path.write_text(text)
        with pytest.raises(IOFormatError):
            load_design(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{not json")
        with pytest.raises(IOFormatError):
            load_design(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"self_loop": "none"}')
        with pytest.raises(IOFormatError):
            load_design(path)
