"""The CSV artifact format shared by the trajectory, tracking and frontier files.

A header row names the columns; every data row holds one finite float
per column written with 17 significant digits, which round-trips a
double.
"""

from __future__ import annotations

import numpy as np


def write_rows(path, columns: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(f"{value:.17g}" for value in row) + "\n")


def read_rows(path, columns: tuple[str, ...], schema_error) -> np.ndarray:
    """The data rows as a 2-D array; a header or width other than
    ``columns``, no data row or a non-finite cell raises ``schema_error``
    naming the first mismatch."""
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        names = tuple(part.strip() for part in header.split(","))
        if names != columns:
            for position, expected in enumerate(columns):
                found = names[position] if position < len(names) else "nothing"
                if found != expected:
                    raise schema_error(
                        f"column {position}: expected {expected!r}, found {found!r}"
                    )
            raise schema_error(f"unexpected extra columns {names[len(columns):]!r}")
        lines = handle.readlines()
    if not any(line.strip() for line in lines):
        raise schema_error("no data rows after the header")
    data = np.loadtxt(lines, delimiter=",", ndmin=2)
    if data.shape[1] != len(columns):
        raise schema_error(f"expected {len(columns)} columns, found {data.shape[1]}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise schema_error(
            f"row {row + 1}, column {columns[col]!r}: {float(data[row, col])!r}"
            " is not finite"
        )
    return data
