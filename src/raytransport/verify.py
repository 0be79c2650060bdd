"""Numerical verification tools: the fiber-integral identity and the eps sweep.

Two independent checks of the machinery:

* ``check_fiber_identity`` evaluates, over the direction sphere at a fixed base
  point in 3D, the two sides of the integration-by-parts identity

      - oint G^k_ij xi_i xi_j (du/dxi_k) u domega = oint <grad n, xi> / n u^2 domega,

  where u is a test function of the unit direction omega = n xi and the
  fiber derivative du/dxi on the sphere |xi| = 1/n is n times the part of
  u's ambient gradient tangent to the sphere, so no chart of the sphere
  enters.  The metric is g = n^2 delta, so <grad n, xi> is the euclidean
  pairing at the metric-unit xi (|xi| = 1/n), under which the identity
  holds exactly.

* ``epsilon_sweep`` solves the viscosity system for a decreasing list of eps
  against boundary data read off the characteristic solution, and records
  relative errors against that same characteristic reference on the whole
  grid.  The eps-free parts of the operator and the preconditioner of the
  transport block are built once and shared by every eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .geodesic import IntegratorConfig
from .phasegrid import GridFunction, PhaseGrid
from .refractive import RefractiveModel, acceleration
from .solve import SolveReport, assemble, make_preconditioner, operator_parts, solve_static
from .tensorfield import SymmetricTensorField
from .transport import Attenuation, interior_solution_grid


@dataclass(frozen=True)
class FiberFunction:
    """A smooth test function u on the direction sphere, given by an extension to R^3.

    ``value`` maps unit directions omega of shape (..., 3) to u (...), and
    ``grad`` to the ambient gradient (..., 3) of the extension; only its part
    tangent to the sphere enters the check, so any smooth extension will do.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IdentityCheck:
    lhs: float
    rhs: float
    abs_diff: float


def _exp_b(w):
    return np.exp(0.7 * w[..., 1] + 0.3 * w[..., 2])


def standard_fiber_functions() -> list[FiberFunction]:
    """Three smooth sphere functions with their ambient gradients.

    1 + omega_1 / 2, exp(0.7 omega_2 + 0.3 omega_3) and omega_3 + omega_1 omega_2 / 2,
    each differentiated as the function of omega in R^3 that its formula defines.
    """
    return [
        FiberFunction(value=lambda w: 1.0 + 0.5 * w[..., 0],
                      grad=lambda w: np.broadcast_to([0.5, 0.0, 0.0], w.shape)),
        FiberFunction(value=_exp_b, grad=lambda w: _exp_b(w)[..., None] * np.array([0.0, 0.7, 0.3])),
        FiberFunction(value=lambda w: w[..., 2] + 0.5 * w[..., 0] * w[..., 1],
                      grad=lambda w: np.stack([0.5 * w[..., 1], 0.5 * w[..., 0], np.ones(w.shape[:-1])],
                                              axis=-1)),
    ]


def check_fiber_identity(
    model: RefractiveModel,
    u_test: FiberFunction,
    x,
    n_theta: int = 64,
    n_phi: int = 64,
) -> IdentityCheck:
    """Evaluate both sides of the fiber-integral identity at a base point.

    Quadrature is Gauss-Legendre in cos(theta) (which absorbs the sin(theta)
    of the sphere measure) tensored with the trapezoid rule in phi.
    """
    if n_theta < 4 or n_phi < 4:
        raise ValueError("quadrature orders must be at least 4")
    if model.dim != 3:
        raise ValueError("the identity is checked on the 3D sphere bundle")
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) >= 1.0:
        raise ValueError("base point must lie strictly inside the ball")

    s, w = np.polynomial.legendre.leggauss(n_theta)
    th, ph = np.meshgrid(np.arccos(s), 2.0 * np.pi * np.arange(n_phi) / n_phi, indexing="ij")
    wq = w[:, None] * (2.0 * np.pi / n_phi)
    omega = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)

    nval, grad = model.n_grad(x)
    nval = float(nval)
    xi = omega / nval
    u = np.asarray(u_test.value(omega), dtype=float)
    g = np.asarray(u_test.grad(omega), dtype=float)
    # on the sphere |xi| = 1/n the fiber derivative is n times the tangential part of grad u
    du_dxi = nval * (g - np.sum(g * omega, axis=-1, keepdims=True) * omega)

    xb = np.broadcast_to(x, xi.shape)
    a = acceleration(model, xb, xi)  # equals -G^k_ij xi_i xi_j
    lhs_integrand = np.einsum("tpk,tpk->tp", a, du_dxi) * u
    lhs = float(np.sum(wq * lhs_integrand))

    # <grad n, xi> / n with xi = omega / n
    rhs_integrand = np.einsum("k,tpk->tp", grad, omega) / nval**2 * u**2
    rhs = float(np.sum(wq * rhs_integrand))
    return IdentityCheck(lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs))


# ---------------------------------------------------------------------------
# relative errors and the eps sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorNorms:
    l2: float
    linf: float


def relative_error(
    u_num: GridFunction,
    u_ref: GridFunction,
    floor_cut: float | None = None,
) -> tuple[GridFunction, ErrorNorms]:
    """Pointwise |u_num - u_ref| / max(|u_ref|, floor_cut) and its norms.

    The default floor is 1e-12 * max|u_ref| (1.0 when the reference vanishes
    identically).  The norms are taken over the nodes where |u_ref| exceeds
    the floor, or over all nodes when none does; the l2 norm is the
    node-averaged root mean square.
    """
    a, b = u_num.grid, u_ref.grid
    if (a.I, a.J, a.K) != (b.I, b.J, b.K):
        raise ValueError("grid mismatch between numerical and reference fields")
    ref = u_ref.values
    if floor_cut is None:
        m = float(np.max(np.abs(ref)))
        floor_cut = 1e-12 * m if m > 0.0 else 1.0
    field = np.abs(u_num.values - ref) / np.maximum(np.abs(ref), floor_cut)
    above = np.abs(ref) > floor_cut
    counted = field[above] if above.any() else field
    norms = ErrorNorms(l2=float(np.sqrt(np.mean(counted**2))), linf=float(np.max(counted)))
    return GridFunction(u_num.grid, field), norms


@dataclass(eq=False)
class SweepResult:
    """Per-eps relative errors of the viscosity solves against the characteristic reference.

    Norms are :func:`relative_error`'s, over the nodes where |u_ref| exceeds its default floor;
    ``epsilons`` are strictly decreasing and positive, as
    :func:`epsilon_sweep` requires.
    """

    epsilons: tuple[float, ...]
    l2: tuple[float, ...]
    linf: tuple[float, ...]
    reports: list[SolveReport]
    error_fields: list[GridFunction | None]
    solutions: list[GridFunction | None]
    u_ref: GridFunction


def epsilon_sweep(
    model: RefractiveModel,
    f: SymmetricTensorField,
    att: Attenuation,
    grid: PhaseGrid,
    eps_list: Sequence[float],
    cfg: IntegratorConfig | None = None,
    tol: float = 1e-10,
    max_iter: int | None = None,
    workers: int = 1,
) -> SweepResult:
    """Solve the viscosity system for each eps against characteristic boundary data.

    The reference solution is the characteristic integral evaluated at every
    grid node; its restriction to the outflow ring is the Dirichlet data, so
    the relative error vanishes there by construction.  H + alpha I and the
    Laplacian are built once, and the ILU of the transport block, in
    downwind strong-component order, is factored once for all eps.  Solver
    failures are recorded per eps (NaN norms, method "failed") and the sweep
    continues; a failed factorization of the shared ILU raises
    :class:`NumericalError`.
    """
    eps = [float(e) for e in eps_list]
    if not eps or any(not 0.0 < e < np.inf for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("eps_list must be strictly decreasing, positive and finite")
    u_ref_vals = interior_solution_grid(model, f, att, grid, cfg=cfg, workers=workers)
    u_ref = GridFunction(grid, u_ref_vals)

    parts = operator_parts(grid, model, att)
    precond = make_preconditioner(parts.transport)
    l2s, linfs, reports, fields, sols = [], [], [], [], []
    for e in eps:
        try:
            system = assemble(grid, model, f, att, e, u_ref_vals, parts=parts)
            sol, rep = solve_static(system, tol=tol, max_iter=max_iter, preconditioner=precond)
            field, norms = relative_error(sol, u_ref)
            l2s.append(norms.l2)
            linfs.append(norms.linf)
            reports.append(rep)
            fields.append(field)
            sols.append(sol)
        except NumericalError:
            l2s.append(float("nan"))
            linfs.append(float("nan"))
            reports.append(SolveReport(iterations=0, final_residual=float("inf"), converged=False,
                                       wall_time=0.0, method="failed"))
            fields.append(None)
            sols.append(None)
    return SweepResult(
        epsilons=tuple(eps),
        l2=tuple(l2s),
        linf=tuple(linfs),
        reports=reports,
        error_fields=fields,
        solutions=sols,
        u_ref=u_ref,
    )
