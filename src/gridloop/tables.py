"""gridloop's file formats: every CSV table and JSON object goes through here.

A table is a header row and one CRLF-terminated row per record; integers
are written as digits and floats as repr, which round-trips every float64.
The readers check what they read and raise one ValueError naming
``path:line`` (tables) or ``path: key`` (JSON).
"""

from __future__ import annotations

import csv
import json
import sys
from itertools import islice

import numpy as np

__all__ = ["BINARY", "COUNT", "FINITE", "NON_NEGATIVE", "POSITIVE", "TEXT",
           "read_json", "read_table", "write_json", "write_table"]

# the domain of a column or a JSON number, worded as the error states it
FINITE = "finite"
NON_NEGATIVE = "finite and non-negative"
POSITIVE = "finite and positive"
BINARY = "0 or 1"
COUNT = "a whole number >= 1"
TEXT = "text"

_CHECKS = {
    FINITE: np.isfinite,
    NON_NEGATIVE: lambda v: np.isfinite(v) & (v >= 0),
    POSITIVE: lambda v: np.isfinite(v) & (v > 0),
    BINARY: lambda v: (v == 0) | (v == 1),
    COUNT: lambda v: np.isfinite(v) & (v >= 1) & (v == np.floor(v)),
}
# rows are handled in blocks of about this many cells, so a wide table is
# never held whole as text or as Python floats
_BLOCK_CELLS = 1 << 15


def write_table(path, header, columns) -> None:
    """Write equal-length columns under `header`.

    A column is an integer or float array, or a list of str, int and
    float cells.
    """
    step = max(1, _BLOCK_CELLS // len(header))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(columns[0]), step):
            block = [c[start : start + step] for c in columns]
            cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            writer.writerows(zip(*cells, strict=True))


def read_table(path, domains: dict, more: str | None = None) -> dict:
    """Read a table whose header is the keys of `domains`, followed, if
    `more` is a domain, by one or more columns of that domain.

    Returns every column by name in file order: a float array, or a str
    array for a TEXT column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        names = list(domains)
        if (header[: len(names)] != names or (len(header) > len(names)) != (more is not None)
                or len(set(header)) < len(header)):
            want = ",".join(names + ["..."] * (more is not None))
            raise ValueError(f"{path}:1: unexpected header {','.join(header)}; expected {want}")
        kinds = [domains.get(name, more) for name in header]
        numeric = [j for j, kind in enumerate(kinds) if kind != TEXT]
        blocks, text = [], {j: [] for j, kind in enumerate(kinds) if kind == TEXT}
        step, line = max(1, _BLOCK_CELLS // len(header)), 2  # line of the block's first row
        while rows := list(islice(reader, step)):
            for i, row in enumerate(rows):
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}:{line + i}: malformed row: {len(row)} cells, expected {len(header)}"
                    )
            for j, column in text.items():
                column += [row[j] for row in rows]
            cells = [[row[j] for j in numeric] for row in rows] if text else rows
            try:
                blocks.append(np.array(cells, dtype=float))
            except ValueError:
                # numpy parses as float() does: name the first cell float() rejects
                for i, row in enumerate(rows):
                    for j in numeric:
                        try:
                            float(row[j])
                        except ValueError:
                            raise ValueError(f"{path}:{line + i}: malformed row: "
                                             f"{header[j]} {row[j]!r} is not a number") from None
            line += len(rows)
    # one contiguous array per column
    values = np.concatenate([b.T for b in blocks], axis=1) if blocks else np.empty((len(numeric), 0))
    bad = np.argwhere(~np.stack([_CHECKS[kinds[j]](v) for j, v in zip(numeric, values)]).T)
    if len(bad):
        i, k = bad[0]
        j = numeric[k]
        raise ValueError(f"{path}:{i + 2}: {header[j]} {float(values[k, i])!r} must be {kinds[j]}")
    numbers = iter(values)
    return {name: np.array(text[j], dtype=str) if j in text else next(numbers)
            for j, name in enumerate(header)}


def write_json(path, payload) -> None:
    """Indent 2, sorted keys, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
