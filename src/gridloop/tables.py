"""gridloop's file formats: every CSV table and JSON file is opened here alone.

A table is a header row and one CRLF-terminated row per record; integers
are written as digits and floats as repr, which round-trips every float64.
The bytes are csv.writer's, but each distinct value of a file is formatted
once.
The readers raise one ValueError naming ``path:line`` (tables: where the
row starts, as a quoted text cell, not a number, may span lines) or
``path: key`` (JSON), also for undecodable text and rows csv refuses.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from itertools import islice

import numpy as np

__all__ = ["BINARY", "COUNT", "FINITE", "NON_NEGATIVE", "POSITIVE", "TEXT", "UNIT", "WHOLE",
           "read_json", "read_table", "write_json", "write_table"]

# the domain of a column or a JSON number, worded as the error states it
FINITE = "finite"
NON_NEGATIVE = "finite and non-negative"
POSITIVE = "finite and positive"
BINARY = "0 or 1"
COUNT = "a whole number >= 1"
WHOLE = "a whole number >= 0"
UNIT = "in [0, 1]"
TEXT = "text"

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
    """Read a table whose header is the keys of `domains`.

    Returns every column by name in file order: a float array, or a str
    array for a TEXT column.
    """
    with open(path, newline="") as fh:
        records = _csv_rows(path, reader := csv.reader(fh))
        header = next(records, [])
        if header != list(domains):
            raise ValueError(f"{path}:1: unexpected header {','.join(header)}; expected {','.join(domains)}")
        kinds = list(domains.values())
        numeric = [j for j, kind in enumerate(kinds) if kind != TEXT]
        blocks, text = [], {j: [] for j, kind in enumerate(kinds) if kind == TEXT}
        step, line, firsts = max(1, _BLOCK_CELLS // len(header)), 2, []  # next block's first line; row lines
        while rows := list(islice(records, step)):
            first, line = range(line, reader.line_num + 1), reader.line_num + 1  # each row's first line
            if spans := len(first) > len(rows):  # a quoted cell holds a line break
                first = np.cumsum([first[0]] + [len(re.split("\r\n?|\n", ",".join(r))) for r in rows[:-1]])
            firsts.append(first)
            for i, row in enumerate(rows):
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}:{first[i]}: malformed row: {len(row)} cells, expected {len(header)}"
                    )
            if text:
                cols = list(zip(*rows))
                for j, column in text.items():
                    column += cols[j]
            try:
                if spans and re.search("[\r\n]", ",".join(row[j] for row in rows for j in numeric)):
                    raise ValueError  # numpy and float() would take a line break in a number for space
                blocks.append(np.array([cols[j] for j in numeric], dtype=float) if text
                              else np.array(rows, dtype=float).T)
            except ValueError:
                # name the first cell that holds a line break or that float(), as numpy, rejects
                for i, row in enumerate(rows):
                    for j in numeric:
                        try:
                            if re.search("[\r\n]", row[j]):
                                raise ValueError
                            float(row[j])
                        except ValueError:
                            raise ValueError(f"{path}:{first[i]}: malformed row: "
                                             f"{header[j]} {row[j]!r} is not a number") from None
    # one contiguous array per column
    values = np.concatenate(blocks, axis=1) if blocks else np.empty((len(numeric), 0))
    bad = np.argwhere(~np.stack([_CHECKS[kinds[j]](v) for j, v in zip(numeric, values)]).T)
    if len(bad):
        i, k = bad[0]
        j, line = numeric[k], np.concatenate(firsts)[i]
        raise ValueError(f"{path}:{line}: {header[j]} {float(values[k, i])!r} must be {kinds[j]}")
    numbers = iter(values)
    return {name: np.array(text[j], dtype=str) if j in text else next(numbers)
            for j, name in enumerate(header)}


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


def read_json(path, required: dict | None = None) -> dict:
    """Read a JSON object holding every key of `required`.

    A dotted key reaches into nested objects (``"sweep.points"``). A key
    mapped to a domain must hold a number in that domain; one mapped to
    None may hold any value.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    except (ValueError, RecursionError) as exc:  # an integer past Python's digit limit, or deep nesting
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
