"""The CSV artifact format shared by the trajectory, tracking and frontier files.

A header row names the columns; every data row holds one finite float
per column written with 17 significant digits, which round-trips a
double.  Each file has one layout: a dict from column name to the
record field it holds, in file order.
"""

from __future__ import annotations

import numpy as np


class SchemaError(ValueError):
    """A CSV artifact does not match its layout."""


def _write(path, layout: dict[str, str], rows) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(",".join(layout) + "\n")
        for row in rows:
            handle.write(",".join(f"{value:.17g}" for value in row) + "\n")


def write_records(path, layout: dict[str, str], records) -> None:
    """One row per record: its layout fields, each a float."""
    fields = layout.values()
    _write(path, layout, ([getattr(r, field) for field in fields] for r in records))


def write_samples(path, layout: dict[str, str], record) -> None:
    """One row per sample of a record whose layout fields are equal-length arrays."""
    columns = (getattr(record, field).tolist() for field in layout.values())
    _write(path, layout, zip(*columns))


def read_rows(path, layout: dict[str, str]) -> np.ndarray:
    """The data rows as a 2-D array, one column per layout entry; a header
    other than the layout's, no data row, a malformed row or a non-finite
    cell raises SchemaError naming the first mismatch."""
    columns = tuple(layout)
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        names = tuple(part.strip() for part in header.split(","))
        if names != columns:
            for position, expected in enumerate(columns):
                found = names[position] if position < len(names) else "nothing"
                if found != expected:
                    raise SchemaError(
                        f"column {position}: expected {expected!r}, found {found!r}"
                    )
            raise SchemaError(f"unexpected extra columns {names[len(columns):]!r}")
        lines = handle.readlines()
    if not any(line.strip() for line in lines):
        raise SchemaError("no data rows after the header")
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError:
        _raise_malformed_row(lines, columns)
        raise
    if data.shape[1] != len(columns):
        raise SchemaError(f"expected {len(columns)} columns, found {data.shape[1]}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise SchemaError(
            f"row {row + 1}, column {columns[col]!r}: {float(data[row, col])!r}"
            " is not finite"
        )
    return data


def _raise_malformed_row(lines, columns: tuple[str, ...]) -> None:
    """Raise SchemaError for the first data line np.loadtxt rejects.

    Rows are counted from 1 as np.loadtxt counts them, skipping empty
    and comment-only lines.  A cell is a number when float() reads it
    and it is ASCII without underscores, which float() alone accepts.
    """
    row = 0
    for line in lines:
        cells = line.split("#", 1)[0].rstrip("\r\n").split(",")
        if cells == [""]:
            continue
        row += 1
        if len(cells) != len(columns):
            raise SchemaError(
                f"row {row}: expected {len(columns)} columns, found {len(cells)}"
            )
        for name, cell in zip(columns, cells):
            try:
                float(cell if cell.isascii() and "_" not in cell else "?")
            except ValueError:
                raise SchemaError(
                    f"row {row}, column {name!r}: {cell!r} is not a number"
                ) from None
