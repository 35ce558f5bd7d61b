"""Plain-text interchange formats for complex matrices, real vectors, and
optimization traces.

Complex matrix format, row-major with interleaved parts:

    # cmatrix <rows> <cols>
    <re> <im> <re> <im> ...      one line per row, cols (re, im) pairs

Real vector format (phase vectors, eigenvalues):

    # rvector <n>
    <value>                       one per line

Values are written with 17 significant digits so a save/load round trip is
bit-exact for float64. A file the loaders cannot open or parse raises
:class:`ConfigurationError` naming its path.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import List, Sequence

import numpy as np

from .errors import ConfigurationError

_FMT = "%.17g"


@contextmanager
def _reading(path: str | Path):
    """Turn an unreadable file, an unparsable value or a CSV the reader
    rejects into a configuration error that names the file."""
    try:
        yield
    except (OSError, ValueError, csv.Error) as exc:
        raise ConfigurationError(f"{path}: cannot read ({exc})") from exc


def save_complex_matrix(path: str | Path, m: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    rows, cols = m.shape
    with open(path, "w") as fh:
        fh.write(f"# cmatrix {rows} {cols}\n")
        for r in range(rows):
            parts = []
            for c in range(cols):
                parts.append(_FMT % m[r, c].real)
                parts.append(_FMT % m[r, c].imag)
            fh.write(" ".join(parts) + "\n")


def load_complex_matrix(path: str | Path) -> np.ndarray:
    with _reading(path), open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[:2] != ["#", "cmatrix"]:
            raise ConfigurationError(f"{path}: not a cmatrix file")
        rows, cols = int(header[2]), int(header[3])
        out = np.empty((rows, cols), dtype=complex)
        for r in range(rows):
            vals = np.array(fh.readline().split(), dtype=float)
            if vals.size != 2 * cols:
                raise ConfigurationError(f"{path}: row {r} has wrong width")
            out[r] = vals[0::2] + 1j * vals[1::2]
    return out


def save_real_vector(path: str | Path, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=float).ravel()
    with open(path, "w") as fh:
        fh.write(f"# rvector {v.size}\n")
        for x in v:
            fh.write((_FMT % x) + "\n")


def load_real_vector(path: str | Path) -> np.ndarray:
    with _reading(path), open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[:2] != ["#", "rvector"]:
            raise ConfigurationError(f"{path}: not an rvector file")
        n = int(header[2])
        vals = np.array([float(fh.readline()) for _ in range(n)])
    return vals


def save_csv(path: str | Path, header: Sequence[str], rows: List[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with _reading(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        return [], []
    return rows[0], rows[1:]
