"""CSV and PGM writers.

All writers format floats with ``str`` (shortest round-trip representation),
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

from .geodesic import GeodesicPath
from .phasegrid import GridFunction


# the PGM gray levels as written, str(0) .. str(255)
_LEVELS = tuple(str(i) for i in range(256))


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(float(v))


def write_rows_csv(path: str, header, rows) -> str:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_gridfunction_csv(gf: GridFunction, path: str) -> str:
    """Rows in linear index order; i, j, k are the 1-based grid labels.

    Formats column by column, ``str`` of the labels and ``repr`` of the
    floats, the bytes :func:`write_rows_csv` writes for the same rows.
    """
    g = gf.grid
    labels = (np.indices((g.I, g.J, g.K)).reshape(3, -1) + 1).tolist()
    floats = (g.r.tolist(), g.phi.tolist(), g.theta.tolist(), gf.values.tolist())
    columns = [map(str, c) for c in labels] + [map(repr, c) for c in floats]
    with open(path, "w") as fh:
        fh.write("i,j,k,r,phi,theta,value\n")
        fh.writelines([",".join(row) + "\n" for row in zip(*columns)])
    return path


def write_path_csv(path_obj: GeodesicPath, path: str) -> str:
    dim = path_obj.xs.shape[1]
    header = ["tau"] + [f"x{d + 1}" for d in range(dim)] + [f"v{d + 1}" for d in range(dim)]
    rows = [
        (path_obj.taus[i], *path_obj.xs[i], *path_obj.vs[i])
        for i in range(len(path_obj))
    ]
    return write_rows_csv(path, header, rows)


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
        fh.write(f"min {_fmt(lo)}\nmax {_fmt(hi)}\n")
    return path


def write_sweep_csv(sweep, path: str) -> str:
    return write_rows_csv(
        path,
        ["epsilon", "l2_rel_err", "linf_rel_err", "iterations", "residual", "converged"],
        sweep.rows(),
    )

