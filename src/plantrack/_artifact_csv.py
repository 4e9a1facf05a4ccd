"""The CSV artifact format shared by the trajectory, tracking and frontier files.

A header row names the columns; every data row holds one finite float
per column written with 17 significant digits, which round-trips a
double.  Each file has one layout: a dict from column name to the
record field it holds, in file order.

Below the header, each line is cut at its first ``#`` and its line end;
what is left, unless empty, is a data row, counted from 1.  A cell is a
number when float() reads it stripped, as ASCII without underscores.
"""

from __future__ import annotations

import itertools
import math

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


# Samples are written a block at a time: as Python floats, a column takes
# 32 bytes a sample, and the eleven of a million-step flight 0.35 GB.
_BLOCK = 4096


def write_samples(path, layout: dict[str, str], record) -> None:
    """One row per sample of a record whose layout fields are equal-length arrays."""
    arrays = [getattr(record, field) for field in layout.values()]
    blocks = (
        zip(*(array[start : start + _BLOCK].tolist() for array in arrays))
        for start in range(0, arrays[0].size, _BLOCK)
    )
    _write(path, layout, itertools.chain.from_iterable(blocks))


def read_rows(path, layout: dict[str, str]) -> np.ndarray:
    """The data rows as a 2-D array, one column per layout entry; SchemaError
    names the first mismatch: a header, a row's width or cell, or no row."""
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
    rows = []
    for line in lines:
        cells = line.split("#", 1)[0].rstrip("\r\n").split(",")
        if cells == [""]:
            continue
        number = len(rows) + 1
        if len(cells) != len(columns):
            raise SchemaError(
                f"row {number}: expected {len(columns)} columns, found {len(cells)}"
            )
        row = []
        for name, cell in zip(columns, cells):
            text = cell.strip()
            try:
                value = float(text if text.isascii() and "_" not in text else "?")
            except ValueError:
                raise SchemaError(
                    f"row {number}, column {name!r}: {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise SchemaError(
                    f"row {number}, column {name!r}: {value!r} is not finite"
                )
            row.append(value)
        rows.append(row)
    if not rows:
        raise SchemaError("no data rows after the header")
    return np.array(rows)
