"""Binary and CSV artifact formats.

Kernel/block dumps are a 5-field float64 header followed by the row-major
float64 payload:

    (d, N, t, m2, B)   torus kernels: d >= 1, N the side length
    (0, n, t, m2, B)   graph blocks: payload is the n x n matrix, t = L^j,
                       m2 = NaN for the laplacian and killed operators

Sample dumps hold one record per row of the samplers' kept array: the header
(backend_id, size, j_min, j_max, seed) with backend_id 1 = torus, 2 = graph,
then the (scales + 1, size) components of that replicate (white piece first,
their sum over scales is not stored).
CSV tables are written column-wise by write_columns_csv, or chunk by chunk of
rows by write_chunked_csv: floats as their shortest round-trip decimal
(repr), integers in full.  All writers are deterministic: identical inputs
produce identical bytes.
"""

import json

import numpy as np

BACKEND_IDS = {"torus": 1.0, "graph": 2.0}
FORMAT_VERSION = 1
# Rows formatted at a time: a chunk of covariance-report rows takes about
# 1 MiB while it is formatted.
CSV_CHUNK_ROWS = 4096


def write_kernel_binary(path, header, array):
    header = np.asarray(header, dtype=np.float64)
    if header.shape != (5,):
        raise ValueError("header must have exactly 5 fields")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(array, dtype=np.float64).tobytes())


def read_kernel_binary(path, shape=None):
    raw = np.fromfile(path, dtype=np.float64)
    header, payload = raw[:5], raw[5:]
    if shape is not None:
        payload = payload.reshape(shape)
    return header, payload


def write_block(path_base, block, m2, B, extra=None):
    """Binary matrix + JSON certificate sidecar for a graph scale block.

    The header is (0, n, L^j, m2, B), with m2 = NaN when m2 is None (the
    laplacian and killed operators); extra goes into the sidecar.
    """
    n = block.matrix.shape[0]
    header = [0.0, float(n), block.L_ratio**block.j,
              np.nan if m2 is None else float(m2), float(B)]
    write_kernel_binary(f"{path_base}.bin", header, block.matrix)
    sidecar = {"j": block.j, "L_ratio": block.L_ratio,
               "format_version": FORMAT_VERSION}
    if extra:
        sidecar.update(extra)
    with open(f"{path_base}.json", "w") as fh:
        fh.write(block.certificates.to_json(extra=sidecar))
        fh.write("\n")


def write_samples(path, kept, backend, j_min, j_max, seed):
    """One binary record per row of kept (replicates, scales, size)."""
    header = np.array([BACKEND_IDS[backend], kept.shape[2],
                       float(j_min), float(j_max), float(seed)])
    with open(path, "wb") as fh:
        for components in kept:
            fh.write(header.tobytes())
            fh.write(components.tobytes())


def _csv_cells(column):
    if column.dtype.kind == "f":
        return map(repr, column.tolist())
    if column.dtype.kind in "biu":
        return map(str, column.tolist())
    raise TypeError(f"CSV column of dtype {column.dtype} is neither float nor integer")


def write_columns_csv(path, header, columns):
    """CSV table with one column per 1-d array.

    The bytes are those csv.writer writes for the same rows with floats given
    as repr(float(v)): fields joined by ',', each row ended by '\\r\\n'.
    Floats are written by repr, integers by str; rows are formatted
    CSV_CHUNK_ROWS at a time, so the text of the whole table is never held.
    """
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError("one column per header field")
    rows = len(columns[0]) if columns else 0
    if any(c.shape != (rows,) for c in columns):
        raise ValueError("columns must be 1-d arrays of one length")
    write_chunked_csv(path, header, chunk_columns(columns))


def chunk_columns(columns):
    """The rows of equal-length 1-d columns, CSV_CHUNK_ROWS at a time, as the
    chunks of write_chunked_csv."""
    rows = len(columns[0]) if columns else 0
    for lo in range(0, rows, CSV_CHUNK_ROWS):
        yield [c[lo:lo + CSV_CHUNK_ROWS] for c in columns]


def write_chunked_csv(path, header, chunks):
    """The table of write_columns_csv, given as consecutive chunks of its
    rows: each chunk is one 1-d array per header field, all of one length.
    Only one chunk's columns and text are held at a time, so a caller can
    build each chunk's columns as it is written."""
    if any(not name or set(name) & set(',"\r\n') for name in header):
        raise ValueError("header fields must not need CSV quoting")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for chunk in chunks:
            chunk = [np.asarray(c) for c in chunk]
            rows = len(chunk[0]) if chunk else 0
            if len(chunk) != len(header) or any(c.shape != (rows,) for c in chunk):
                raise ValueError("a chunk needs one 1-d array per header field, "
                                 "all of one length")
            if rows:
                cells = [_csv_cells(c) for c in chunk]
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir, command, artifacts):
    """Versioned index of the artifacts a CLI run produced."""
    import os
    write_json(os.path.join(out_dir, "report_manifest.json"),
               {"format_version": FORMAT_VERSION, "command": command,
                "artifacts": sorted(artifacts)})
