"""Assembly and solution of the discrete viscosity problem.

The stationary system discretizes

    -eps Delta u + H u + alpha u = f . xi^m

on the phase grid, with the boundary ring pinned: the ring is the
contiguous tail of the linear order and carries the Dirichlet data, so only
the n interior rows are equations.  Outflow nodes carry the supplied data,
inflow and glancing nodes carry 0.  eps = 0 is allowed and gives the pure
upwind transport system.

The time-dependent problem is stepped with implicit Euler,

    (u^{n+1} - u^n) / dt + L_eps u^{n+1} = f(t_{n+1}) . xi^m,

with boundary data read at t_{n+1} and u^0 = 0.  Each step is the pinned
stationary system at absorption alpha + 1/dt, assembled once by
:func:`assemble`, with u^n/dt added to the source on the interior rows.

The operator is assembled from eps-free parts, T = H + alpha I and the
Laplacian, each built and cut once into its interior block [:n, :n] and
ring coupling [:n, n:], and combined per eps as T - eps Delta.  The pinned
matrix is built only when read.

Solves are restarted GMRES on the interior block, the ring values, held only
in the ring rows of the right-hand side, moved to its interior rows through
the coupling.  The preconditioner is an incomplete LU factorization, with a
Jacobi fallback, of the interior block of T (at alpha + 1/dt for the implicit
Euler step), not of the viscous block: T does not depend on eps, so an eps
sweep factors it once and every solve of the sweep reuses it, and for small
eps the viscous block is a small perturbation of it.  The block is factored in
downwind order, strong component by strong component (a transport sweep):
upwind H couples a node only to its upwind neighbours, so in that order T is
block lower triangular and the factors fill in only inside the small
components where characteristics close on themselves.  GMRES has one call
site, :func:`solve_static`.  Reports name the preconditioner that was actually
built and carry an independently recomputed relative residual of the full
pinned system, for an implicit Euler step the step system.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError, NumericalError
from .phasegrid import (
    BoundaryMask,
    GridFunction,
    PhaseGrid,
    classify_boundary,
    h_matrix,
    laplace_matrix,
)
from .refractive import RefractiveModel
from .tensorfield import SymmetricTensorField, moment
from .transport import Attenuation


@dataclass
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    wall_time: float
    method: str


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """The assembled operator's interior block [:n, :n] and ring coupling [:n, n:].

    ``transport`` is the interior block of H + alpha I, the matrix the
    preconditioner is built from.  ``rhs`` alone holds the ring data, on the ring.
    """

    interior: sp.csr_matrix
    coupling: sp.csr_matrix
    transport: sp.csr_matrix
    rhs: np.ndarray
    grid: PhaseGrid
    mask: BoundaryMask
    epsilon: float

    @property
    def matrix(self) -> sp.csr_matrix:
        """The pinned matrix, interior rows over identity ring rows, for readers; no solve uses it."""
        n, size = self.grid.n_interior, self.grid.size
        return sp.vstack([sp.hstack([self.interior, self.coupling]), sp.eye(size - n, size, k=n)],
                         format="csr")


def symmetric_part(a: sp.spmatrix) -> sp.csr_matrix:
    return (0.5 * (a + a.T)).tocsr()


@dataclass(frozen=True, eq=False)
class OperatorParts:
    """Interior blocks and ring couplings of H + alpha I and of the Laplacian (None if eps = 0 only)."""

    transport: sp.csr_matrix
    transport_coupling: sp.csr_matrix
    laplacian: sp.csr_matrix | None = None
    laplacian_coupling: sp.csr_matrix | None = None


def operator_parts(
    grid: PhaseGrid,
    model: RefractiveModel,
    att: Attenuation,
    viscous: bool = True,
) -> OperatorParts:
    """Build H + alpha I and, if ``viscous``, the Laplacian, each cut into its two blocks."""
    n = grid.n_interior
    t = h_matrix(grid, model) + sp.diags(np.full(grid.size, att.alpha0))
    if not viscous:
        return OperatorParts(t[:n, :n], t[:n, n:])
    lap = laplace_matrix(grid, model)
    return OperatorParts(t[:n, :n], t[:n, n:], lap[:n, :n], lap[:n, n:])


def interior_operator(parts: OperatorParts, epsilon: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The interior block and ring coupling of -eps*Laplace + H + alpha*I."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if epsilon == 0.0:
        return parts.transport, parts.transport_coupling
    with np.errstate(over="ignore"):  # an overflow is the non-finite entry assemble reports
        return (parts.transport - epsilon * parts.laplacian,
                parts.transport_coupling - epsilon * parts.laplacian_coupling)


def assemble(
    grid: PhaseGrid,
    model: RefractiveModel,
    f: SymmetricTensorField,
    att: Attenuation,
    epsilon: float,
    boundary_data,
    t: float = 0.0,
    parts: OperatorParts | None = None,
) -> LinearSystem:
    """Assemble the stationary system with pinned boundary ring.

    ``boundary_data`` is a full-grid array, read only at the outflow nodes.
    ``parts`` are the operator's eps-free parts when already built (an eps
    sweep builds them once); they must come from the same grid, model and
    attenuation.
    """
    data = np.asarray(boundary_data, dtype=float)
    if data.shape != (grid.size,):
        raise AssemblyError(f"boundary data shape {data.shape} != grid ({grid.size},)")
    mask = classify_boundary(grid, model)

    parts = parts or operator_parts(grid, model, att, viscous=epsilon > 0.0)
    interior, coupling = interior_operator(parts, epsilon)
    b = _rhs(grid, mask, f, t, data[mask.outflow_idx])
    if not all(np.all(np.isfinite(v)) for v in (interior.data, coupling.data, b)):
        raise NumericalError("assembled system contains non-finite entries")
    return LinearSystem(interior=interior, coupling=coupling, transport=parts.transport, rhs=b,
                        grid=grid, mask=mask, epsilon=epsilon)


def _rhs(grid: PhaseGrid, mask: BoundaryMask, f: SymmetricTensorField, t: float,
         outflow: np.ndarray) -> np.ndarray:
    """f(t) . xi^m on the interior rows, ``outflow`` (in outflow order) on the outflow nodes, else 0."""
    n = grid.n_interior
    b = np.zeros(grid.size)
    b[:n] = moment(f, t, grid.x[:n], grid.xi[:n])
    b[mask.outflow_idx] = outflow
    return b


# ---------------------------------------------------------------------------
# Krylov solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Preconditioner:
    """An approximate inverse (None for "none") and the kind actually built."""

    operator: spla.LinearOperator | None
    kind: str


NO_PRECONDITIONER = Preconditioner(None, "none")


def sweep_order(block: sp.spmatrix) -> np.ndarray:
    """The nodes of a transport block in downwind order, strong component by strong component.

    Row i of an upwind operator couples node i only to its upwind
    neighbours, so the block is lower triangular in an order that puts every
    node after them, up to the strongly connected components of its graph
    (where characteristics close on themselves).  SciPy labels the strong
    components in topological order, dependencies first; a stable sort by
    label keeps each component's nodes in their linear order.
    """
    _, labels = connected_components(block, directed=True, connection="strong")
    return np.argsort(labels, kind="stable")


def make_preconditioner(block: sp.csr_matrix, kind: str) -> Preconditioner:
    """A ``kind`` preconditioner built from ``block``, a transport-operator block.

    The ILU factors the block permuted into :func:`sweep_order`, with no
    further column ordering.  A failed ILU factorization falls back to
    Jacobi.
    """
    if kind == "none":
        return NO_PRECONDITIONER
    if kind == "jacobi":
        d = block.diagonal()
        d = np.where(np.abs(d) > 0.0, d, 1.0)
        return Preconditioner(spla.LinearOperator(block.shape, matvec=lambda v: v / d), kind)
    if kind == "ilu":
        order = sweep_order(block)
        back = np.argsort(order)
        try:
            ilu = spla.spilu(block[order][:, order].tocsc(), drop_tol=1e-6, fill_factor=30,
                             permc_spec="NATURAL")
        except RuntimeError:
            return make_preconditioner(block, "jacobi")
        return Preconditioner(
            spla.LinearOperator(block.shape, matvec=lambda v: ilu.solve(v[order])[back]), kind)
    raise ValueError(f"unknown preconditioner {kind!r}")


def time_levels(dt: float, t_final: float) -> list[float]:
    """The march times 0, dt, ..., N dt with N = floor(t_final / dt), forgiving round-off."""
    return [s * dt for s in range(int(np.floor(t_final / dt + 1e-9)) + 1)]


def default_max_iter(size: int) -> int:
    """Default cap on restart cycles, 20 * sqrt(system size)."""
    return int(np.ceil(20.0 * np.sqrt(size)))


def solve_static(
    system: LinearSystem,
    tol: float = 1e-10,
    max_iter: int | None = None,
    preconditioner: str | Preconditioner = "ilu",
    x0: np.ndarray | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Solve the assembled system to relative residual <= tol.

    GMRES, restarted every 60 iterations, runs on ``system.interior``
    against rhs[:n] - coupling @ u_b, u_b the ring data, until the interior
    residual falls to tol * |rhs|.  The ring rows of the pinned system hold
    exactly, so that is the residual of the full system, the quantity the
    report gates on.
    ``preconditioner`` is a kind, built here from ``system.transport``, or a
    preconditioner already built from the same transport block.
    ``max_iter`` caps the restart cycles and ``x0`` is a full-length
    starting guess.  Non-convergence is reported, not raised: the best
    iterate is returned with ``converged=False`` and the caller decides.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter is not None and max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    t0 = time.perf_counter()
    n = system.grid.n_interior
    ring_term = system.coupling @ system.rhs[n:]
    b_i = system.rhs[:n] - ring_term
    bnorm = float(np.linalg.norm(system.rhs))

    # a zero right-hand side needs no preconditioner: GMRES returns 0 at once
    if np.linalg.norm(b_i) == 0.0:
        precond = NO_PRECONDITIONER
    elif isinstance(preconditioner, str):
        precond = make_preconditioner(system.transport, preconditioner)
    else:
        precond = preconditioner
    cycles = max_iter if max_iter is not None else default_max_iter(system.grid.size)
    inner = []  # one preconditioned residual norm per inner iteration
    x, _ = spla.gmres(system.interior, b_i, x0=x0[:n] if x0 is not None else None, rtol=0.0,
                      atol=tol * bnorm, restart=60, maxiter=cycles, M=precond.operator,
                      callback=inner.append, callback_type="pr_norm")
    if not np.all(np.isfinite(x)):
        raise NumericalError("GMRES produced non-finite iterates")
    u = system.rhs.copy()
    u[:n] = x
    # bit for bit the pinned rows' sums, as each interior row has at most one ring neighbour
    res = float(np.linalg.norm(system.rhs[:n] - (system.interior @ x + ring_term)))
    res /= bnorm if bnorm > 0.0 else 1.0
    return GridFunction(system.grid, u), SolveReport(
        iterations=len(inner),
        final_residual=res,
        converged=bool(res <= tol),
        wall_time=time.perf_counter() - t0,
        method=f"gmres+{precond.kind}",
    )


def solve_dynamic(
    grid: PhaseGrid,
    model: RefractiveModel,
    f: SymmetricTensorField,
    att: Attenuation,
    epsilon: float,
    dt: float,
    t_final: float,
    boundary_data,
    tol: float = 1e-10,
    max_iter: int | None = None,
    preconditioner: str = "ilu",
) -> tuple[list[GridFunction], list[SolveReport]]:
    """Implicit Euler march of the dynamic problem; returns all steps and their reports.

    ``boundary_data`` is an array of shape (n_steps + 1, n_outflow): row n
    holds the values over the outflow nodes (in outflow-index order) at step
    n.  Step 0 is the initial state u = 0; steps 1..N are solved at
    t_n = n dt, each by :func:`solve_static` on the system :func:`assemble`
    builds at absorption alpha + 1/dt, with source f(t_n) + u^{n-1}/dt, all
    from one preconditioner of its transport block.  As there, non-convergence
    is reported, not raised.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if t_final < dt:
        raise ValueError("t_final must be at least dt")
    times = time_levels(dt, t_final)
    system = assemble(grid, model, f, Attenuation(att.alpha0 + 1.0 / dt), epsilon, np.zeros(grid.size))
    table = np.asarray(boundary_data, dtype=float)
    shape = (len(times), system.mask.outflow_idx.size)
    if table.shape != shape:
        raise AssemblyError(f"boundary table shape {table.shape} != {shape}")
    precond = make_preconditioner(system.transport, preconditioner)
    n = grid.n_interior
    states = [GridFunction(grid, np.zeros(grid.size))]
    reports: list[SolveReport] = []
    for step, t_n in enumerate(times[1:], start=1):
        u = states[-1].values
        rhs = _rhs(grid, system.mask, f, t_n, table[step])
        rhs[:n] += u[:n] / dt
        state, report = solve_static(replace(system, rhs=rhs), tol, max_iter, precond, x0=u)
        states.append(state)
        reports.append(report)
    return states, reports


# ---------------------------------------------------------------------------
# discrete coercivity estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoercivityEstimate:
    lambda_min: float
    reliable: bool
    probes: int


def discrete_coercivity(system: LinearSystem, probes: int = 4, seed: int = 0) -> CoercivityEstimate:
    """Smallest eigenvalue of the symmetric part of the interior block.

    Estimated by shifted Lanczos iterations: with c an upper bound on the
    spectrum (max absolute row sum), the largest eigenvalue of c I - S gives
    lambda_min(S) = c - lambda_max(c I - S).  Each probe restarts the
    iteration from a fresh random vector; a positive result certifies
    discrete coercivity of the assembled operator.
    """
    if probes < 1:
        raise ValueError("probes must be at least 1")
    s = symmetric_part(system.interior)
    n = s.shape[0]
    c = float(np.max(np.abs(s).sum(axis=1)))
    shifted = (sp.identity(n) * c - s).tocsr()
    rng = np.random.default_rng(seed)
    best = -np.inf
    reliable = True
    for _ in range(probes):
        v0 = rng.standard_normal(n)
        try:
            vals = spla.eigsh(
                shifted, k=1, which="LA", v0=v0, return_eigenvectors=False,
                maxiter=max(2000, 40 * n), tol=1e-10,
            )
            best = max(best, float(vals[0]))
        except spla.ArpackError:
            reliable = False
    if not np.isfinite(best):
        return CoercivityEstimate(lambda_min=np.nan, reliable=False, probes=probes)
    return CoercivityEstimate(lambda_min=c - best, reliable=reliable, probes=probes)
