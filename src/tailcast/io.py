"""CSV/JSON input and atomic, deterministic output.

Input files are a single numeric column with an optional header, or the
three-column (y, mu, xi) layout for externally filtered series.  All
writes go through a temp file and an atomic rename, so failures never
leave partial outputs; JSON is emitted with sorted keys and no
environment-dependent content, making byte-identical reruns possible.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import tempfile

import numpy as np

from .errors import DomainError

__all__ = [
    "read_numeric_csv",
    "atomic_write_text",
    "write_json",
    "write_csv_rows",
    "jsonable",
]


def _first_fault(rows, columns: int, first: int) -> DomainError:
    """The error for the first faulty row; ``rows`` hold non-blank cells."""
    for i, cells in enumerate(rows, start=first):
        if len(cells) != columns:
            return DomainError(
                f"expected {columns} column(s) but found {len(cells)} at row {i}"
            )
        values = []
        for col, text in enumerate(cells, start=1):
            try:
                values.append(float(text))
            except ValueError:
                return DomainError(
                    f"non-numeric value {text!r} at row {i}, column {col}"
                )
        if not all(map(math.isfinite, values)):
            return DomainError(f"non-finite value at row {i}")


def read_numeric_csv(path: str, columns: int = 1) -> np.ndarray:
    """Read a numeric CSV with an optional single header line: the first
    non-blank row, when its first filled cell is not a number.

    Returns a 1-d array for ``columns=1`` and an ``(n, columns)`` array
    otherwise; blank cells and rows are skipped.  Raises :class:`DomainError`
    for the first malformed row, numbered among the non-blank rows.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cells = list(map(str.strip, itertools.chain.from_iterable(rows)))
    filled = np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
    row_of = np.repeat(np.arange(len(rows)), list(map(len, rows)))
    counts = np.bincount(row_of[filled], minlength=len(rows))
    kept = np.flatnonzero(counts)  # the non-blank rows
    if not kept.size:
        raise DomainError(f"input file {path!r} contains no data")
    data = list(itertools.compress(cells, filled))
    start = 0
    try:
        float(data[0])
    except ValueError:
        start = 1  # header line
    if start == kept.size:
        raise DomainError(f"input file {path!r} contains only a header")
    data = data[counts[kept[0]] * start:]
    try:
        arr = np.fromiter(map(float, data), dtype=float, count=len(data))
        ok = np.all(counts[kept[start:]] == columns) and np.all(np.isfinite(arr))
    except ValueError:
        ok = False
    if not ok:
        bad = ([c.strip() for c in rows[r] if c.strip()] for r in kept[start:])
        raise _first_fault(bad, columns, start + 1)
    return arr if columns == 1 else arr.reshape(-1, columns)


def atomic_write_text(path: str, text: str) -> None:
    """Write via temp file + rename; no partial files on failure."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def jsonable(value):
    """Recursively convert to JSON-safe values (non-finite floats become null)."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    return value


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n")


def _format_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv_rows(path: str, rows: list[dict], columns: list[str] | None = None) -> None:
    """Write dict rows with a fixed column order (caller's or first row's)."""
    atomic_write_text(path, rows_to_csv_text(rows, columns))


def rows_to_csv_text(rows: list[dict], columns: list[str] | None = None) -> str:
    if not rows:
        raise DomainError("no rows to format")
    cols = columns or list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"
