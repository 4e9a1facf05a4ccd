"""The CSV artifact format shared by the trajectory, tracking and frontier files.

A header row names the columns; every data row holds one float per
column written with 17 significant digits, which round-trips a double.
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
    ``columns`` raises ``schema_error`` naming the first mismatch."""
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
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.shape[1] != len(columns):
        raise schema_error(f"expected {len(columns)} columns, found {data.shape[1]}")
    return data
