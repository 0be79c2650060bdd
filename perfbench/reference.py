"""A fixed reference job that measures how fast this machine is right now.

The machine the benchmark runs on is shared: its cores slow down by up to 2x
for minutes at a time while other tenants run, so two runs of the same
workload a few minutes apart can differ by 50%.  ``run.py`` times this job
right before and right after every workload run, on the same core, and
reports the run's time divided by the mean of the two, which cancels that
slowdown.

The job uses numpy and scipy only, never ``raytransport``, so no change to
the program can change it.  Each piece mixes the kinds of work the workloads
spend their time in: an incomplete LU factorization of a sparse matrix (like
the solver's ``spilu``), elementwise numpy arithmetic on arrays of a few
thousand rows (like the characteristic oracle) and copies of arrays larger
than the processor's caches (the memory traffic of both).  The job's time is
the median piece time times the number of pieces: a piece hit by a short
stall moves a median little, while a slowdown that lasts moves every piece.
Results are discarded; only times count.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

GRID = 16             # the sparse matrix is the 7-point operator on a GRID**3 lattice
ROWS = 4000           # rows of the elementwise arrays, a typical oracle batch
STEPS = 400           # elementwise update steps per piece
COPY_LEN = 4_000_000  # doubles per copied array: 32 MB
COPIES = 10           # array copies per piece
PIECES = 9            # pieces per measurement; about 0.2 s each on a quiet core


class Reference:
    """The reference job with its inputs built once."""

    def __init__(self) -> None:
        line = sp.diags([-1.0, 2.2, -1.0], [-1, 0, 1], shape=(GRID, GRID))
        eye = sp.identity(GRID)
        op = (
            sp.kron(sp.kron(line, eye), eye)
            + sp.kron(sp.kron(eye, line), eye)
            + sp.kron(sp.kron(eye, eye), line)
        )
        self.matrix = (op + sp.diags(np.linspace(0.0, 0.1, GRID**3))).tocsc()
        self.points = np.linspace(0.0, 1.0, 3 * ROWS).reshape(ROWS, 3)
        self.source = np.ones(COPY_LEN)
        self.target = np.empty(COPY_LEN)
        self._piece()  # warm-up: first touch of the arrays and of scipy's LU code

    def _piece(self) -> None:
        spla.spilu(self.matrix, drop_tol=1e-4, fill_factor=10)
        y = self.points.copy()
        for _ in range(STEPS):
            r2 = np.einsum("ij,ij->i", y, y)
            y = y + 1e-3 * (y * r2[:, None] - 0.5 * y)
            y /= np.sqrt(1.0 + r2)[:, None]
        for _ in range(COPIES):
            np.copyto(self.target, self.source)

    def measure(self) -> tuple[float, float]:
        """Wall and CPU seconds of the job: median piece times PIECES."""
        walls, cpus = [], []
        for _ in range(PIECES):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            self._piece()
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
        return statistics.median(walls) * PIECES, statistics.median(cpus) * PIECES
