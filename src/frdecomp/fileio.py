"""Binary and CSV artifact formats.

Kernel/block dumps are a 5-field float64 header followed by the row-major
float64 payload:

    (d, N, t, m2, B)   torus kernels: d >= 1, N the side length
    (0, n, t, m2, B)   graph blocks: payload is the n x n matrix, t = L^j

Sample dumps hold one record per row of the samplers' kept array: the header
(backend_id, size, j_min, j_max, seed) with backend_id 1 = torus, 2 = graph,
then the (scales + 1, size) components of that replicate (white piece first,
totals not stored).
CSV tables are written column-wise by write_columns_csv: floats as their
shortest round-trip decimal (repr), integers in full.  All writers are
deterministic: identical inputs produce identical bytes.
"""

import json

import numpy as np

BACKEND_IDS = {"torus": 1.0, "graph": 2.0}
FORMAT_VERSION = 1
CSV_CHUNK_ROWS = 65536


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


def write_kernel_csv(path, array):
    """Flat CSV alternative: rows (flat_index, value)."""
    flat = np.asarray(array, dtype=np.float64).ravel()
    write_columns_csv(path, ["index", "value"], [np.arange(flat.size), flat])


def write_block(path_base, block, extra=None):
    """Binary matrix + JSON certificate sidecar for a graph scale block."""
    n = block.matrix.shape[0]
    header = [0.0, float(n), block.L_ratio**block.j, np.nan, np.nan]
    if extra and "m2" in extra:
        header[3] = float(extra["m2"])
    if extra and "B" in extra:
        header[4] = float(extra["B"])
    write_kernel_binary(f"{path_base}.bin", header, block.matrix)
    sidecar = {"j": block.j, "L_ratio": block.L_ratio,
               "format_version": FORMAT_VERSION}
    if extra:
        sidecar.update({k: v for k, v in extra.items() if k not in ("m2", "B")})
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
    if any(not name or set(name) & set(',"\r\n') for name in header):
        raise ValueError("header fields must not need CSV quoting")
    rows = len(columns[0]) if columns else 0
    if any(c.shape != (rows,) for c in columns):
        raise ValueError("columns must be 1-d arrays of one length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, rows, CSV_CHUNK_ROWS):
            cells = [_csv_cells(c[lo:lo + CSV_CHUNK_ROWS]) for c in columns]
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
