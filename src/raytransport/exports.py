"""CSV and PGM writers.

One rule turns a number into CSV text: :func:`write_csv` formats each column
once, from its numpy dtype, booleans as ``true``/``false``, integers with
``str`` and floats with ``repr``, the shortest text that reads back as the
same float (``-0.0``, ``nan`` and ``inf`` as such).  So identical inputs give
byte-identical files.  A column is typed as a whole: one that mixed ints and
floats would print its ints as floats.  The PGM range sidecar prints its two
floats with the same ``repr``.
"""

from __future__ import annotations

import os

import numpy as np

from .geodesic import GeodesicPath
from .phasegrid import GridFunction


# the PGM gray levels as written, str(0) .. str(255)
_LEVELS = tuple(str(i) for i in range(256))


def _column_text(column) -> list[str]:
    a = np.asarray(column)
    if a.dtype == bool:
        return [("false", "true")[v] for v in a.tolist()]
    if a.dtype.kind in "iu":
        return list(map(str, a.tolist()))
    return list(map(repr, a.astype(float, copy=False).tolist()))


def write_csv(path: str, header, columns) -> str:
    """A CSV of equal-length columns (else ValueError) under ``header``, each formatted by its dtype."""
    text = [_column_text(c) for c in columns]
    lines = [",".join(row) + "\n" for row in zip(*text, strict=True)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)
    return path


def write_gridfunction_csv(gf: GridFunction, path: str) -> str:
    """Rows in linear index order; i, j, k are the 1-based grid labels."""
    g = gf.grid
    labels = np.indices((g.I, g.J, g.K)).reshape(3, -1) + 1
    return write_csv(path, ["i", "j", "k", "r", "phi", "theta", "value"],
                     [*labels, g.r, g.phi, g.theta, gf.values])


def write_path_csv(path_obj: GeodesicPath, path: str) -> str:
    dim = path_obj.xs.shape[1]
    header = ["tau"] + [f"x{d + 1}" for d in range(dim)] + [f"v{d + 1}" for d in range(dim)]
    return write_csv(path, header, [path_obj.taus, *path_obj.xs.T, *path_obj.vs.T])


def write_pgm_slice(gf: GridFunction, k: int, path: str) -> str:
    """ASCII PGM of the (i, j) slice at direction index k (0-based).

    Values map linearly onto [0, 255]; the data range is recorded in a
    sidecar ``<name>.range.txt``.  A constant slice renders as a single gray
    level 0.
    """
    sl = gf.slice_k(k)
    lo, hi = float(sl.min()), float(sl.max())
    if hi > lo:
        img = np.rint((sl - lo) / (hi - lo) * 255.0).astype(int)
    else:
        img = np.zeros_like(sl, dtype=int)
    with open(path, "w") as fh:
        fh.write("P2\n")
        fh.write(f"{sl.shape[1]} {sl.shape[0]}\n255\n")
        for row in img.tolist():
            fh.write(" ".join([_LEVELS[v] for v in row]) + "\n")
    base, _ = os.path.splitext(path)
    with open(base + ".range.txt", "w") as fh:
        fh.write(f"min {lo!r}\nmax {hi!r}\n")
    return path


def write_sweep_csv(sweep, path: str) -> str:
    reports = sweep.reports
    return write_csv(
        path,
        ["epsilon", "l2_rel_err", "linf_rel_err", "iterations", "residual", "converged"],
        [sweep.epsilons, sweep.l2, sweep.linf, [r.iterations for r in reports],
         [r.final_residual for r in reports], [r.converged for r in reports]],
    )
