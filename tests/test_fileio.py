import csv
import json
import tracemalloc

import numpy as np
import pytest

from frdecomp import fileio
from frdecomp.graphs import GraphOperator, cycle_graph, scale_blocks
from frdecomp.weights import DiscreteWeightFamily, ScalePlan


def test_kernel_binary_roundtrip(tmp_path):
    arr = np.arange(24.0).reshape(4, 6)
    path = tmp_path / "k.bin"
    fileio.write_kernel_binary(path, [2, 4, 3.5, 0.25, 12.0], arr)
    header, payload = fileio.read_kernel_binary(path, shape=(4, 6))
    np.testing.assert_array_equal(header, [2, 4, 3.5, 0.25, 12.0])
    np.testing.assert_array_equal(payload, arr)


def test_kernel_binary_header_length(tmp_path):
    with pytest.raises(ValueError):
        fileio.write_kernel_binary(tmp_path / "bad.bin", [1, 2, 3], np.ones(2))


def test_block_dump_with_sidecar(tmp_path, mollifier, norm1):
    op = GraphOperator(cycle_graph(8), "resolvent", m2=1.0)
    fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
    blk = scale_blocks(op, fam, ScalePlan(j_min=1, j_max=2))[1][-1]
    base = tmp_path / "block"
    fileio.write_block(str(base), blk, op.m2, op.B, extra={"kind": "resolvent"})
    header, payload = fileio.read_kernel_binary(f"{base}.bin", shape=(8, 8))
    np.testing.assert_array_equal(header, [0.0, 8.0, 4.0, 1.0, 3.0])
    np.testing.assert_array_equal(payload, blk.matrix)
    with open(f"{base}.json") as fh:
        sidecar = json.load(fh)
    for key in ("min_eig", "max_out_of_range", "j", "L_ratio"):
        assert key in sidecar
    assert sidecar["j"] == 2
    assert sidecar["kind"] == "resolvent"


def test_samples_dump(tmp_path):
    kept = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4)
    path = tmp_path / "samples.bin"
    fileio.write_samples(path, kept, "graph", j_min=0, j_max=1, seed=9)
    raw = np.fromfile(path, dtype=np.float64)
    record = 5 + 3 * 4
    assert len(raw) == 2 * record
    np.testing.assert_array_equal(raw[:5], [2.0, 4.0, 0.0, 1.0, 9.0])
    np.testing.assert_array_equal(raw[5:record], kept[0].ravel())
    np.testing.assert_array_equal(raw[record + 5:], kept[1].ravel())


def test_samples_dump_empty(tmp_path):
    path = tmp_path / "s.bin"
    fileio.write_samples(path, np.zeros((0, 2, 3)), "torus", 0, 1, seed=1)
    assert path.read_bytes() == b""


def test_csv_writer_deterministic(tmp_path):
    columns = [np.array([1, 2]), np.array([0.1, 0.2])]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    fileio.write_columns_csv(p1, ["i", "v"], columns)
    fileio.write_columns_csv(p2, ["i", "v"], columns)
    assert p1.read_bytes() == p2.read_bytes()


def csv_writer_bytes(path, header, columns):
    """Reference: csv.writer rows with every float given as repr(float(v))."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*(c.tolist() for c in columns)):
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return path.read_bytes()


class TestColumnsCsv:
    SPECIAL = [-0.0, 0.0, 1e16, 9999999999999998.0, 1e-05, 5e-324, np.nan,
               np.inf, -np.inf, 0.1, 1.0 / 3.0, 1.7976931348623157e308, -2.5e-300]

    def test_matches_csv_writer_across_chunks(self, tmp_path):
        rows = fileio.CSV_CHUNK_ROWS + 123
        rng = np.random.default_rng(5)
        floats = rng.standard_normal(rows) * 10.0 ** rng.uniform(-30, 30, rows)
        floats[:len(self.SPECIAL)] = self.SPECIAL
        floats[-len(self.SPECIAL):] = self.SPECIAL
        ints = rng.integers(-2**62, 2**62, rows)
        ints[:3] = [0, -1, 2**63 - 1]
        header = ["i", "x", "y", "u"]
        columns = [np.arange(rows), floats, ints, np.arange(rows, dtype=np.uint8)]
        path = tmp_path / "c.csv"
        fileio.write_columns_csv(path, header, columns)
        assert path.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", header,
                                                     columns)

    def test_specials_and_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        fileio.write_columns_csv(path, ["v"], [np.array(self.SPECIAL)])
        assert path.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", ["v"],
                                                     [np.array(self.SPECIAL)])
        assert path.read_text().splitlines()[1:4] == ["-0.0", "0.0", "1e+16"]
        fileio.write_columns_csv(path, ["a", "b"], [np.empty(0), np.empty(0)])
        assert path.read_bytes() == b"a,b\r\n"

    def test_peak_memory_bounded_by_chunk(self, tmp_path):
        # a graph covariance report's five columns: the formatting peak (input
        # columns excluded) is one chunk's, about 1 MiB, for any row count
        rng = np.random.default_rng(2)
        header = ["x", "y", "empirical", "oracle", "z"]
        peaks = []
        for rows in (3 * fileio.CSV_CHUNK_ROWS, 30 * fileio.CSV_CHUNK_ROWS):
            columns = [np.arange(rows), np.arange(rows)] + [
                rng.standard_normal(rows) for _ in range(3)]
            tracemalloc.start()
            try:
                fileio.write_columns_csv(tmp_path / "big.csv", header, columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks
        assert peaks[1] < 2 * 2**20, peaks

    def test_chunked_matches_columns(self, tmp_path):
        # any split of the rows into chunks, empty chunks included, writes the
        # bytes of the whole columns
        rng = np.random.default_rng(9)
        rows = 1000
        columns = [np.arange(rows), rng.standard_normal(rows) * 1e3]
        header = ["i", "v"]
        whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
        fileio.write_columns_csv(whole, header, columns)
        cuts = [0, 0, 1, 17, 17, 500, 999, rows]
        fileio.write_chunked_csv(chunked, header, ([c[a:b] for c in columns]
                                                   for a, b in zip(cuts, cuts[1:])))
        assert chunked.read_bytes() == whole.read_bytes()
        fileio.write_chunked_csv(chunked, header, fileio.chunk_columns(columns))
        assert chunked.read_bytes() == whole.read_bytes()
        fileio.write_chunked_csv(chunked, header, [])
        assert chunked.read_bytes() == b"i,v\r\n"

    def test_rejects_bad_chunks(self, tmp_path):
        path = tmp_path / "bad.csv"
        for chunk in ([np.ones(2), np.ones(3)], [np.ones(2)],
                      [np.ones((2, 1)), np.ones((2, 1))]):
            with pytest.raises(ValueError, match="a chunk needs"):
                fileio.write_chunked_csv(path, ["a", "b"], [[np.ones(1), np.ones(1)],
                                                            chunk])
        with pytest.raises(ValueError, match="quoting"):
            fileio.write_chunked_csv(path, ["a\n"], [])

    def test_rejects_bad_tables(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            fileio.write_columns_csv(path, ["a", "b"], [np.ones(2), np.ones(3)])
        with pytest.raises(ValueError):
            fileio.write_columns_csv(path, ["a"], [np.ones(2), np.ones(2)])
        with pytest.raises(ValueError):
            fileio.write_columns_csv(path, ["a,b"], [np.ones(2)])
        with pytest.raises(TypeError):
            fileio.write_columns_csv(path, ["a"], [np.array(["x", "y"])])
        if np.dtype(np.longdouble).itemsize > 8:
            with pytest.raises(TypeError, match="at most 64 bits"):
                fileio.write_columns_csv(path, ["a"], [np.ones(2, dtype=np.longdouble)])

    @pytest.mark.parametrize("chunk_rows", [1, 7, 1024])
    def test_distinct_cells_match_csv_writer(self, tmp_path, monkeypatch, chunk_rows):
        # each distinct value of a chunk's column is formatted once and gathered
        # to its rows: repeated values, 0.0 beside -0.0, nan (two payloads)
        # and +-inf, float32, bool, int8, uint64 and a strided column keep
        # csv.writer's bytes for any chunk size
        monkeypatch.setattr(fileio, "CSV_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(11)
        rows = 2500
        other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        float32 = rng.standard_normal(rows).astype(np.float32)
        float32[::3] = float32[0]
        strided = rng.standard_normal((rows, 3))[:, 1]
        assert not strided.flags.contiguous
        columns = [
            rng.choice([0.1, 1.0 / 3.0, -2.5e-300, 7.0], rows),
            rng.choice([0.0, -0.0], rows),
            rng.choice([np.nan, other_nan, np.inf, -np.inf, 1.0], rows),
            float32,
            rng.integers(0, 2, rows).astype(bool),
            rng.integers(-128, 128, rows, dtype=np.int8),
            rng.choice(np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64), rows),
            strided,
        ]
        header = ["repeated", "zeros", "specials", "f32", "b", "i8", "u64", "strided"]
        path = tmp_path / "d.csv"
        fileio.write_columns_csv(path, header, columns)
        assert path.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", header,
                                                     columns)
        zeros = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
        assert set(zeros) == {"0.0", "-0.0"}
