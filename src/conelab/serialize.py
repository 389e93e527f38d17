"""On-disk formats: field CSV/binary dumps, plot CSVs, report JSON.

Binary field dump layout: magic b"CNLB1", little-endian uint32 rank,
little-endian uint32 shape per axis, then the lattice values as
little-endian float64 in row-major order.

Every CSV row, of a node table or of a plot, goes through one formatter,
_write_rows: values printed with "%.17g", comma-separated, with the bytes
np.savetxt gives for the same table (the tests keep it as the oracle).
Every JSON text, of a report file or of a command's stdout, is json_text
of the value: two-space indent, sorted keys and a final newline.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import struct

import numpy as np

MAGIC = b"CNLB1"
_CSV_ROWS = 8192    # rows of a CSV formatted per write


def _write_rows(fh, fmts, nrows, cells):
    """Write nrows CSV rows to fh, column j formatted by the % conversion
    fmts[j]; cells(rows) gives each column's values at the slice rows.

    Every _CSV_ROWS rows are one % on a repeated row format, so memory
    holds one chunk of text."""
    row = ",".join(fmts) + "\n"
    for r0 in range(0, nrows, _CSV_ROWS):
        cols = cells(slice(r0, r0 + _CSV_ROWS))
        chunk = tuple(itertools.chain.from_iterable(zip(*cols)))
        fh.write((row * (len(chunk) // len(cols))) % chunk)


def _node_csv(path, grid, mask, columns):
    """One row per node of mask in row-major order: its coordinates
    x1,...,xn, then each named lattice array of columns at that node,
    under a header line of the names.  Each coordinate value is formatted
    once per axis."""
    idx = np.nonzero(mask)
    names = [f"x{d + 1}" for d in range(grid.dim)] + list(columns)
    labels = [np.array(["%.17g" % v for v in ax], dtype=object)
              for ax in grid.axes]
    values = [np.asarray(arr, dtype=float)[mask] for arr in columns.values()]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        _write_rows(fh, ["%s"] * grid.dim + ["%.17g"] * len(values),
                    idx[0].size,
                    lambda rows: ([label[i[rows]]
                                   for label, i in zip(labels, idx)]
                                  + [v[rows].tolist() for v in values]))


def field_to_csv(field, path):
    """Active-node table with header x1,...,xn,value (row-major order)."""
    _node_csv(path, field.grid, field.grid.active, {"value": field.values})


def field_to_binary(field, path):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        shape = field.values.shape
        fh.write(struct.pack("<I", len(shape)))
        fh.write(struct.pack(f"<{len(shape)}I", *shape))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def field_values_from_binary(path):
    """Lattice array back from a binary dump (values only, no grid);
    ValueError naming the path on a bad magic, header or data size."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: bad magic, not a field dump")
        try:
            rank, = struct.unpack("<I", fh.read(4))
            shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
        except struct.error as exc:
            raise ValueError(f"{path}: truncated header: {exc}") from exc
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != int(np.prod(shape)):
        raise ValueError(f"{path}: truncated field dump")
    return data.reshape(shape)


def mask_to_csv(grid, mask, path):
    """Node list of a boolean mask with header x1,...,xn (for plotting)."""
    _node_csv(path, grid, mask, {})


def write_plot_csv(path, comment, columns):
    """One plot file: '#'-prefixed comment naming the columns, then rows.

    columns is an ordered mapping name -> 1-d sequence, all equal length
    (None prints as nan); ValueError, before the file is opened, when the
    lengths differ or there is no column.  Every line of comment gets its
    own '# '.
    """
    data = np.column_stack([np.asarray(col, dtype=float)
                            for col in columns.values()])
    cols = data.T.tolist()
    header = f"{comment}\ncolumns: " + ",".join(columns)
    with open(path, "w") as fh:
        fh.write("# " + header.replace("\n", "\n# ") + "\n")
        _write_rows(fh, ["%.17g"] * len(cols), len(data),
                    lambda rows: [col[rows] for col in cols])


def report_to_dict(report):
    return {
        "name": report.name,
        "config": report.config_echo,
        "runs": report.runs,
        "slopes": [dataclasses.asdict(s) for s in report.slopes],
        "verdicts": [dataclasses.asdict(v) for v in report.verdicts],
    }


def json_text(obj):
    """The JSON text conelab writes for obj, to a file or to stdout."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def report_to_json(report, path):
    """Write the report's JSON text to path; returns the text."""
    text = json_text(report_to_dict(report))
    with open(path, "w") as fh:
        fh.write(text)
    return text


def load_json(path):
    """The JSON value in the file at path; ValueError naming the path when
    the file cannot be read, is not UTF-8 or holds no valid JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc.reason} at offset "
                         f"{exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
