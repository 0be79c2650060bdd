"""Polar phase-space grid and finite-difference operators (dim 2).

Nodes live on the product of a polar grid of the unit disk and a uniform
angle grid for the ray direction:

    r_i = i/I (i = 1..I),  phi_j = 2 pi j / J,  theta_k = 2 pi k / K,
    x_ij = r_i (cos phi_j, sin phi_j),
    xi_ijk = (cos theta_k, sin theta_k) / n(x_ij).

Linear ordering is k fastest, then j, then i.  The ring i = I lies exactly on
the unit circle and is classified into outflow / inflow / glancing states by
the sign of <xi, nu>.

Two discrete operators are provided as sparse matrices:

* the ray derivative H u = rdot d_r u + phidot d_phi u + thetadot d_theta u,
  discretized with first-order differences upwinded node by node against the
  sign of each advection coefficient (stability of the transport part); a
  coefficient whose exact value is 0 (rdot at tangential directions, phidot
  and, in a radial medium, thetadot at radial ones) is set to 0 from the
  node's angle indices, so that round-off decides no upwind side;

* the phase Laplacian Delta = Delta_x + Delta_xi with second-order central
  differences (symmetry of the diffusion part), where

      Delta_x  u = (d_rr + d_r / r + d_phiphi / r^2) u / n^2
                   + (grad n . grad_x u) / n^3,
      Delta_xi u = d_thetatheta u

  (the fiber part of the phase Laplacian reduces to a bare second theta
  derivative: the 1/n^2 scale of the ambient fiber derivatives cancels
  against the fiber radius 1/n).

Every stencil is a table of (offset, weight) pairs, a weight one float or
one per node, applied by one periodic builder (phi or theta, wrapping) and
one radial builder (separate tables for the inner rings, the innermost ring
and the boundary ring).  A builder returns the stencil's legs, (row, column,
weight) triples, and each operator places the legs of all its stencils in
one sparse matrix, summing legs that share an entry.  H has one three-entry
table per axis (backward, diagonal, forward), whose zero side adds no leg;
Delta_x folds each node's factors into its tables' weights.  The innermost
ring i = 1 closes its radial stencils through the disk center: the missing
inward neighbor is the antipodal node (r_1, phi + pi, theta), which is the
same ambient state at signed radius -r_1, and the stencil weights account
for the doubled spacing.  The resulting one-sided closure keeps first-order
consistency at the inner ring without a special center equation.  At the
boundary ring one-sided interior differences are used; solver assembly
replaces those rows anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geodesic import GLANCING_TOL
from .refractive import RefractiveModel, turn_rate

OUTFLOW, INFLOW, GLANCING = 1, -1, 0


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    I: int
    J: int
    K: int
    r: np.ndarray        # per node (size,)
    phi: np.ndarray
    theta: np.ndarray
    x: np.ndarray        # (size, 2)
    xi: np.ndarray       # (size, 2)
    n_node: np.ndarray   # n(x) per node

    @property
    def size(self) -> int:
        return self.I * self.J * self.K

    def index(self, i: int, j: int, k: int) -> int:
        """Linear index of 0-based (i, j, k); k fastest, then j, then i."""
        return (i * self.J + j) * self.K + k

    @property
    def n_interior(self) -> int:
        """Number of nodes off the ring r = 1; the ring is the tail of the linear order."""
        return (self.I - 1) * self.J * self.K

    @property
    def boundary_indices(self) -> np.ndarray:
        """Linear indices of the ring r = 1 (0-based i = I - 1)."""
        return np.arange(self.n_interior, self.size)

    @property
    def dr(self) -> float:
        return 1.0 / self.I

    @property
    def dphi(self) -> float:
        return 2.0 * np.pi / self.J

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.K


def build_grid(model: RefractiveModel, I: int, J: int, K: int) -> PhaseGrid:
    if min(I, J, K) < 3:
        raise ValueError(f"grid sizes must be at least 3, got {(I, J, K)}")
    if model.dim != 2:
        raise ValueError("phase grids are 2D")
    rs = np.arange(1, I + 1) / I
    phis = 2.0 * np.pi * np.arange(1, J + 1) / J
    thetas = 2.0 * np.pi * np.arange(1, K + 1) / K
    rr, pp, tt = np.meshgrid(rs, phis, thetas, indexing="ij")
    r = rr.reshape(-1)
    phi = pp.reshape(-1)
    theta = tt.reshape(-1)
    x = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
    n_node = np.asarray(model.n(x), dtype=float)
    xi = np.stack([np.cos(theta), np.sin(theta)], axis=-1) / n_node[:, None]
    return PhaseGrid(
        I=I, J=J, K=K, r=r, phi=phi, theta=theta, x=x, xi=xi, n_node=n_node,
    )


@dataclass(frozen=True, eq=False)
class GridFunction:
    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"value count {self.values.shape} does not match grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function has non-finite values")

    def slice_k(self, k: int) -> np.ndarray:
        """The (I, J) spatial slice at direction index k (0-based)."""
        return self.values.reshape(self.grid.I, self.grid.J, self.grid.K)[:, :, k]


@dataclass(frozen=True, eq=False)
class BoundaryMask:
    """Classification of the boundary ring by the sign of <xi, nu>."""

    classes: np.ndarray        # per boundary node, values in {OUTFLOW, INFLOW, GLANCING}
    boundary_idx: np.ndarray   # linear indices of the ring, in grid order
    outflow_idx: np.ndarray
    inflow_idx: np.ndarray
    glancing_idx: np.ndarray


def classify_boundary(grid: PhaseGrid, model: RefractiveModel) -> BoundaryMask:
    idx = grid.boundary_indices
    # nu = x on the unit circle, so <xi, nu> = cos(theta - phi) / n.
    pairing = np.einsum("ij,ij->i", grid.xi[idx], grid.x[idx])
    classes = np.where(pairing > GLANCING_TOL, OUTFLOW, np.where(pairing < -GLANCING_TOL, INFLOW, GLANCING))
    return BoundaryMask(
        classes=classes,
        boundary_idx=idx,
        outflow_idx=idx[classes == OUTFLOW],
        inflow_idx=idx[classes == INFLOW],
        glancing_idx=idx[classes == GLANCING],
    )


def advection_coefficients(grid: PhaseGrid, model: RefractiveModel):
    """Characteristic velocity (rdot, phidot, thetadot) of the ray flow at each node.

    rdot = xi . rhat, phidot = (xi . phihat) / r, and thetadot is the turning
    rate of the direction angle (:func:`turn_rate`).  A rate whose exact
    value is 0 is set to 0 from the node's angle indices, so that round-off
    picks no upwind side: theta - phi = 2 pi m / (J K) with
    m = (k + 1) J - (j + 1) K (0-based j, k), so the direction is tangential
    (rdot = 0) where 4 m = J K (mod 2 J K) and radial (phidot = 0, and
    thetadot = 0 in a radial medium) where 2 m = 0 (mod J K).
    """
    rdot, phidot = _polar(grid, grid.xi)
    phidot /= grid.r
    thetadot = turn_rate(model, grid.x, grid.xi)
    _, j, k = np.unravel_index(np.arange(grid.size), (grid.I, grid.J, grid.K))
    JK = grid.J * grid.K
    m = (k + 1) * grid.J - (j + 1) * grid.K
    rdot[4 * m % (2 * JK) == JK] = 0.0
    radial = 2 * m % JK == 0
    phidot[radial] = 0.0
    if model.radial:
        thetadot[radial] = 0.0
    return rdot, phidot, thetadot


def rotation_orbits(grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """The nodes grouped by the rotations about the center that map the grid onto itself.

    With g = gcd(J, K), turning node (i, j, k) by 2 pi q / g gives node
    (i, j + q J / g, k + q K / g), both angle indices periodic.  Returns the
    (size / g, g) member table, whose row holds one orbit: the
    representative (i, j, k) with j < J / g in column 0 and its turn by
    2 pi q / g in column q, rows in increasing representative index; and
    the g turn angles.  Every node appears exactly once.
    """
    g = math.gcd(grid.J, grid.K)
    q = np.arange(g)
    i, j, k = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(grid.I), np.arange(grid.J // g), np.arange(grid.K), indexing="ij"))
    members = (i * grid.J + j + q * (grid.J // g)) * grid.K + (k + q * (grid.K // g)) % grid.K
    return members, 2.0 * np.pi * q / g


# ---------------------------------------------------------------------------
# stencils from (offset, weight) tables
# ---------------------------------------------------------------------------

def _polar(grid: PhaseGrid, v: np.ndarray):
    """The components (v . rhat, v . phihat) of one vector per node."""
    rhat = np.stack([np.cos(grid.phi), np.sin(grid.phi)], axis=-1)
    phihat = np.stack([-np.sin(grid.phi), np.cos(grid.phi)], axis=-1)
    return np.einsum("ij,ij->i", v, rhat), np.einsum("ij,ij->i", v, phihat)


def _antipodal_cols(grid: PhaseGrid, lp):
    """(columns, share) pairs realizing the value at (r_1, phi + pi, theta) for the pole nodes ``lp``.

    With J even the angle phi + pi is a grid angle; with J odd it falls
    exactly midway between two, so the ghost value is their mean.
    """
    J, K = grid.J, grid.K
    j0 = lp // K  # the pole ring is the head of the linear order
    ja = (j0 + J // 2) % J
    if J % 2 == 0:
        return ((lp + (ja - j0) * K, 1.0),)
    return (lp + (ja - j0) * K, 0.5), (lp + ((ja + 1) % J - j0) * K, 0.5)


def _periodic_cols(grid: PhaseGrid, lin, axis: str, d: int):
    """Columns of the nodes ``d`` steps from ``lin`` along phi or theta (wrapping)."""
    if axis == "phi":
        j0 = (lin // grid.K) % grid.J
        return lin + (((j0 + d) % grid.J) - j0) * grid.K
    k0 = lin % grid.K
    return lin + ((k0 + d) % grid.K) - k0


def _legs(grid: PhaseGrid, parts, scale):
    """One stencil's legs, (rows, cols, weights) per (rows, cols, table weight)
    part, each weight times ``scale`` (one float or one per node)."""
    size = (grid.size,)
    return [(r, c, np.broadcast_to(w * scale, size)[r]) for r, c, w in parts]


def _matrix(grid: PhaseGrid, *stencils) -> sp.csr_matrix:
    """Place the legs of ``stencils`` in one canonical CSR matrix.

    Zero-weight legs are dropped, legs sharing an entry are summed and a sum
    that cancels to 0 is not stored.  The sums run in the order the legs are
    given: scipy sorts each row's entries with an insertion sort, which is
    stable, up to 16 of them, and no row here holds more.  Rows and columns
    come as int32, the index type scipy gives the matrix, so none is cast.
    """
    legs = [leg for s in stencils for leg in s]
    keep = [w != 0.0 for _, _, w in legs]
    rows, cols, weights = (np.concatenate([leg[i][k] for leg, k in zip(legs, keep)]) for i in range(3))
    out = sp.coo_matrix((weights, (rows, cols)), shape=(grid.size, grid.size)).tocsr()
    out.eliminate_zeros()
    return out


def _central_first(h: float):
    return ((1, 1.0 / (2 * h)), (-1, -1.0 / (2 * h)))


def _central_second(h: float):
    h2 = h ** 2
    return ((-1, 1.0 / h2), (0, -2.0 / h2), (1, 1.0 / h2))


def _radial_first(h: float):
    """(inner, pole, boundary) tables of d_r; pole offsets are (-2h, 0, +h), the boundary one-sided."""
    return (_central_first(h),
            ((-1, -1.0 / (6 * h)), (0, -1.0 / (2 * h)), (1, 2.0 / (3 * h))),
            ((-2, 1.0 / (2 * h)), (-1, -4.0 / (2 * h)), (0, 3.0 / (2 * h))))


def _radial_second(h: float):
    """(inner, pole, boundary) tables of d_rr, on the spacings of :func:`_radial_first`."""
    h2 = h ** 2
    return (_central_second(h),
            ((-1, 1.0 / (3 * h2)), (0, -1.0 / h2), (1, 2.0 / (3 * h2))),
            ((-2, 1.0 / h2), (-1, -2.0 / h2), (0, 1.0 / h2)))


def _upwind(c, step: float, ghost: float = 1.0):
    """Three-entry table of c d/ds on spacing ``step``, the backward neighbor
    ``ghost`` steps away: backward where c > 0, forward where c < 0."""
    up, down = np.maximum(c, 0.0) / step, np.minimum(c, 0.0) / step
    return ((-1, -up / ghost), (0, up / ghost - down), (1, down))


def _periodic(grid: PhaseGrid, axis: str, table, scale=1.0):
    """Legs of the stencil sum_d w_d u(. + d steps) along phi or theta, at every node."""
    lin = np.arange(grid.size, dtype=np.int32)
    return _legs(grid, [(lin, _periodic_cols(grid, lin, axis, d), w) for d, w in table], scale)


def _radial(grid: PhaseGrid, inner, pole, boundary, scale=1.0):
    """Legs of a radial stencil from (offset in rings, weight) tables.

    ``inner`` serves rings 2..I-1, ``pole`` the innermost ring and
    ``boundary`` the ring r = 1.  At the pole offset -1 is the antipodal
    ghost (signed radius -r_1, two steps inward), split over its columns by
    their shares; the pole table carries the matching nonuniform weights.
    """
    lin = np.arange(grid.size, dtype=np.int32)
    JK = grid.J * grid.K
    lp, li, lb = lin[:JK], lin[JK:-JK], lin[-JK:]
    parts = [(li, li + d * JK, w) for d, w in inner]
    for d, w in pole:
        if d == -1:
            parts += [(lp, cols, share * w) for cols, share in _antipodal_cols(grid, lp)]
        else:
            parts.append((lp, lp + d * JK, w))
    parts += [(lb, lb + d * JK, w) for d, w in boundary]
    return _legs(grid, parts, scale)


# ---------------------------------------------------------------------------
# the discrete operators
# ---------------------------------------------------------------------------

def h_matrix(grid: PhaseGrid, model: RefractiveModel) -> sp.csr_matrix:
    """Upwind discretization of the ray derivative H, placed in one matrix.

    Each axis has a three-entry table, c its coefficient and h its step:
    backward -max(c, 0)/h, diagonal |c|/h (as max(c, 0)/h - min(c, 0)/h,
    one of which is 0) and forward min(c, 0)/h, so a zero c adds no leg.
    The pole's backward radial neighbor is the antipodal ghost (spacing
    2h: -max(c, 0)/2h and max(c, 0)/2h - min(c, 0)/h), and the boundary
    ring differences backward whatever the sign of rdot.
    """
    rdot, phidot, thetadot = advection_coefficients(grid, model)
    h = grid.dr
    return _matrix(
        grid,
        _radial(grid, _upwind(rdot, h), _upwind(rdot, h, ghost=2.0),
                boundary=((-1, -rdot / h), (0, rdot / h))),
        _periodic(grid, "phi", _upwind(phidot, grid.dphi)),
        _periodic(grid, "theta", _upwind(thetadot, grid.dtheta)),
    )


def _laplace_x_stencils(grid: PhaseGrid, model: RefractiveModel):
    """Legs of Delta_x, each node's factors folded into the table weights."""
    n2, n3 = grid.n_node ** -2.0, grid.n_node ** -3.0
    g_r, g_phi = _polar(grid, np.asarray(model.grad_n(grid.x), dtype=float))
    return (
        _radial(grid, *_radial_second(grid.dr), scale=n2),
        _radial(grid, *_radial_first(grid.dr), scale=n2 / grid.r + n3 * g_r),
        _periodic(grid, "phi", _central_second(grid.dphi), scale=n2 / grid.r**2),
        _periodic(grid, "phi", _central_first(grid.dphi), scale=n3 * g_phi / grid.r),
    )


def _laplace_xi_stencil(grid: PhaseGrid):
    """Legs of Delta_xi, a bare second theta derivative."""
    return _periodic(grid, "theta", _central_second(grid.dtheta))


def laplace_matrix(grid: PhaseGrid, model: RefractiveModel) -> sp.csr_matrix:
    """The phase Laplacian Delta_x + Delta_xi, the legs of both placed in one matrix."""
    return _matrix(grid, *_laplace_x_stencils(grid, model), _laplace_xi_stencil(grid))
