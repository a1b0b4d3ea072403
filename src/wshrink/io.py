"""File formats: numeric CSV matrices, label columns, sparsity-pattern JSON,
and versioned JSON reports.

Matrices are written with 17 significant digits and LF line endings so a
write/read round trip reproduces every double bit-exactly.  Files are read as
UTF-8; a leading byte-order mark, as spreadsheet programs write, is skipped.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .sqa import SparsityPattern

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Malformed input file; message carries path and line number."""


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric CSV (rows = observations or matrix rows).

    An optional single header line is skipped, and so are blank lines; cells
    may carry surrounding whitespace.  Raises ``ParseError`` with the
    offending line number on malformed input, a non-finite cell (``nan``,
    ``inf``, or a number out of range such as ``1e999``) included.

    The file is parsed in bulk by ``np.loadtxt``; a file that it rejects, or
    that holds a non-finite cell, is read again line by line, which accepts
    the same inputs and names the line at fault.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = fh.readline()
        try:
            for cell in first.split(",") if first.strip() else ():
                float(cell)
            fh.seek(0)
        except ValueError:
            pass  # a header line: the bulk parse starts after it
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: the line parser reports it
                matrix = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            matrix = None
    if matrix is not None and matrix.size and np.isfinite(matrix).all():
        return matrix
    return _read_matrix_lines(path)


def _read_matrix_lines(path: Path) -> np.ndarray:
    """``read_matrix_csv``, one line at a time: every error names its line."""
    rows, linenos = [], []
    width = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                row = [float(c) for c in line.split(",")]  # float() skips surrounding whitespace
            except ValueError:
                if lineno == 1:
                    continue  # header line
                raise ParseError(f"{path}:{lineno}: expected comma-separated numbers, got {line!r}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            rows.append(row)
            linenos.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no numeric rows found")
    matrix = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(matrix)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ParseError(f"{path}:{linenos[row]}: non-finite value in column {col + 1}")
    return matrix


def write_matrix_csv(path, matrix) -> None:
    M = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in M:
            fh.write(",".join(format(v, ".17g") for v in row))
            fh.write("\n")


def read_labels_csv(path) -> np.ndarray:
    """Read a single-column label file (integers if possible, else strings)."""
    path = Path(path)
    labels = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if "," in line:
                raise ParseError(f"{path}:{lineno}: labels must be a single column")
            labels.append(line)
    if not labels:
        raise ParseError(f"{path}: no labels found")
    try:
        return np.asarray([int(v) for v in labels])
    except ValueError:
        return np.asarray(labels)


def json_int(value) -> int:
    """An integral JSON number as an ``int``: an integer (not a boolean) or a
    float with no fractional part.  Raises ``ValueError`` on anything else, so a
    count or an index is never silently truncated."""
    if type(value) is int or type(value) is float and value.is_integer():  # bool is a subclass of int
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def read_pattern_json(path) -> SparsityPattern:
    """Load a sparsity pattern ``{"p": int, "zeros": [[i, j], ...]}``.

    Indices are 1-based in the file, and 0-based in the pattern and its errors;
    symmetric closure is applied on load.
    ``p`` and every index must be integral (see ``json_int``).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or "p" not in doc or "zeros" not in doc:
        raise ParseError(f'{path}: expected an object with "p" and "zeros"')
    try:
        zeros = [(json_int(i) - 1, json_int(j) - 1) for i, j in doc["zeros"]]
        return SparsityPattern(json_int(doc["p"]), zeros)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_json(path, payload: dict) -> None:
    doc = {"schema": SCHEMA_VERSION}
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
