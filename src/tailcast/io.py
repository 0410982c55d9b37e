"""CSV/JSON input and atomic, deterministic output.

Input files are a single numeric column with an optional header, or the
three-column (y, mu, xi) layout for externally filtered series.  All
writes go through a temp file and an atomic rename, so failures never
leave partial outputs; JSON is emitted with sorted keys and no
environment-dependent content, making byte-identical reruns possible.
"""

from __future__ import annotations

import csv
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


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(
            f"non-numeric value {text!r} at row {row}, column {col + 1}"
        ) from None


def read_numeric_csv(path: str, columns: int = 1) -> np.ndarray:
    """Read a numeric CSV with an optional single header line.

    Returns a 1-d array for ``columns=1`` and an ``(n, columns)`` array
    otherwise.  Raises :class:`DomainError` with the offending row number
    for malformed content.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DomainError(f"input file {path!r} contains no data")
    start = 0
    first = rows[0]
    try:
        float(first[0])
    except ValueError:
        start = 1  # header line
    if start == len(rows):
        raise DomainError(f"input file {path!r} contains only a header")
    data = []
    for i, row in enumerate(rows[start:], start=start + 1):
        cells = [c for c in row if c.strip()]
        if len(cells) != columns:
            raise DomainError(
                f"expected {columns} column(s) but found {len(cells)} at row {i}"
            )
        data.append([_parse_cell(c.strip(), i, j) for j, c in enumerate(cells)])
    arr = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(arr)):
        bad = int(np.argwhere(~np.isfinite(arr))[0][0]) + start + 1
        raise DomainError(f"non-finite value at row {bad}")
    return arr[:, 0] if columns == 1 else arr


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
