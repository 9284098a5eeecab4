"""gridloop's file formats: every CSV table and JSON file is opened here alone.

A table is a header row and one CRLF-terminated row per record; integers
are written as digits and floats as repr, which round-trips every float64.
The bytes are csv.writer's, but each distinct value of a file is formatted
once.
The readers raise one ValueError naming ``path:line`` (tables: the first
malformed row, else the first value out of its column's domain; every cell
is a number, so a line break in a cell is malformed) or ``path: key``
(JSON), also for undecodable text and rows csv refuses.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from itertools import islice

import numpy as np

__all__ = ["BINARY", "COUNT", "FINITE", "NON_NEGATIVE", "POSITIVE", "UNIT", "WHOLE",
           "read_json", "read_table", "write_json", "write_table"]

# the domain of a column or a JSON number, worded as the error states it
FINITE = "finite"
NON_NEGATIVE = "finite and non-negative"
POSITIVE = "finite and positive"
BINARY = "0 or 1"
COUNT = "a whole number >= 1"
WHOLE = "a whole number >= 0"
UNIT = "in [0, 1]"

_CHECKS = {
    FINITE: np.isfinite,
    NON_NEGATIVE: lambda v: np.isfinite(v) & (v >= 0),
    POSITIVE: lambda v: np.isfinite(v) & (v > 0),
    BINARY: lambda v: (v == 0) | (v == 1),
    COUNT: lambda v: np.isfinite(v) & (v >= 1) & (v == np.floor(v)),
    WHOLE: lambda v: np.isfinite(v) & (v >= 0) & (v == np.floor(v)),
    UNIT: lambda v: (v >= 0) & (v <= 1),
}
# a cell holding one of these is quoted, its quotes doubled
_SPECIAL = re.compile('[,"\r\n]')
# the reader takes rows in blocks of about this many cells, so a long table
# (a year of minute readings is 525,600 rows) is never held whole as text
_BLOCK_CELLS = 1 << 15


def write_table(path, header, columns) -> None:
    """Write equal-length columns under `header`, as csv.writer would.

    A column is an integer, bool or float array, or a list of str, int and
    float cells.
    """
    n = len(columns[0])
    for name, column in zip(header, columns, strict=True):
        if len(column) != n:
            raise ValueError(f"{path}: column {name} has {len(column)} rows, expected {n}")
    alone = len(header) == 1  # csv quotes a row's only cell when it is empty
    cells = np.empty((len(header), n), dtype=object)
    groups = {}  # array columns by dtype; each group is formatted together
    for j, column in enumerate(columns):
        if isinstance(column, np.ndarray):
            groups.setdefault(column.dtype, []).append(j)
        else:
            cells[j] = _quoted(column, alone)
    for dtype, js in groups.items():
        # one repr per distinct bit pattern, so -0.0 and 0.0 stay apart
        bits = np.stack([columns[j] for j in js]).view(f"u{dtype.itemsize}")
        uniq, inv = np.unique(bits, return_inverse=True)
        text = np.array([str(v) for v in uniq.view(dtype).tolist()], dtype=object)
        cells[js] = text[inv.reshape(bits.shape)]  # numpy 2.0.x shapes inv unlike later releases
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(_quoted(header, alone)), *map(",".join, cells.T.tolist()), ""]))


def _quoted(cells, alone: bool) -> list:
    """Each cell as str() and quoted as csv's QUOTE_MINIMAL does, once per distinct text."""
    texts = list(map(str, cells))
    quote = {t: '"' + t.replace('"', '""') + '"' if _SPECIAL.search(t) or (alone and not t) else t
             for t in set(texts)}
    return [quote[t] for t in texts]


def read_table(path, domains: dict) -> dict:
    """Read a table whose header is the keys of `domains`; every column by name, as a float array."""
    with open(path, newline="") as fh:
        records = _csv_rows(path, reader := csv.reader(fh))
        header = next(records, [])
        if header != list(domains):
            raise ValueError(f"{path}:1: unexpected header {','.join(header)}; expected {','.join(domains)}")
        blocks, step, line = [], max(1, _BLOCK_CELLS // len(header)), 2  # line: the block's first row's
        while rows := list(islice(records, step)):
            try:
                block = np.array(rows, dtype=float)
                if block.shape[1] != len(header) or reader.line_num + 1 - line > len(rows):
                    raise ValueError  # a row of another length, or a quoted cell that holds a line break
                blocks.append(block.T)
            except ValueError:
                # name the block's first malformed row; every row before it filled one line
                for i, row in enumerate(rows):
                    if len(row) != len(header):
                        raise ValueError(f"{path}:{line + i}: malformed row: "
                                         f"{len(row)} cells, expected {len(header)}") from None
                    for j, cell in enumerate(row):
                        try:
                            if "\r" in cell or "\n" in cell:
                                raise ValueError  # numpy and float() would take it for space
                            float(cell)
                        except ValueError:
                            raise ValueError(f"{path}:{line + i}: malformed row: "
                                             f"{header[j]} {cell!r} is not a number") from None
            line += len(rows)
    # one contiguous array per column
    values = np.concatenate(blocks, axis=1) if blocks else np.empty((len(header), 0))
    kinds = list(domains.values())
    bad = np.argwhere(~np.stack([_CHECKS[kind](v) for kind, v in zip(kinds, values)]).T)
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"{path}:{i + 2}: {header[j]} {float(values[j, i])!r} must be {kinds[j]}")
    return dict(zip(header, values))


def write_json(path, payload) -> None:
    """Indent 2, sorted keys, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_rows(path, reader):
    """`reader`'s rows; a row csv or the decoder rejects raises a ValueError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: malformed row: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


def _undecodable(path, exc: UnicodeDecodeError) -> ValueError:
    """A ValueError naming the line of the first byte `exc`'s codec cannot decode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as whole:  # offsets in a text stream's error are within one chunk
        exc = whole
    line = data.count(b"\n", 0, exc.start) + 1
    return ValueError(f"{path}:{line}: not {exc.encoding} text: byte 0x{data[exc.start]:02x}")


def _unique_keys(pairs) -> dict:
    """A JSON object's members as a dict; a key given twice raises, where json.load keeps the last."""
    payload = {}
    for key, value in pairs:
        if key in payload:
            raise ValueError(f"repeated key {key!r}")
        payload[key] = value
    return payload


def read_json(path, required: dict | None = None) -> dict:
    """Read a JSON object holding every key of `required`.

    A dotted key reaches into nested objects (``"sweep.points"``). A key
    mapped to a domain must hold a number in that domain; one mapped to
    None may hold any value. A key given twice in one object is rejected.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    except (ValueError, RecursionError) as exc:  # a repeated key, too many digits, or deep nesting
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key, domain in (required or {}).items():
        value, parts = payload, key.split(".")
        for n, part in enumerate(parts):
            if not isinstance(value, dict) or part not in value:
                raise ValueError(f"{path}: missing key {'.'.join(parts[: n + 1])!r}")
            value = value[part]
        number = type(value) in (int, float) and abs(value) <= sys.float_info.max
        if domain is not None and not (number and _CHECKS[domain](float(value))):
            raise ValueError(f"{path}: {key} {value!r} must be a number, {domain}")
    return payload
