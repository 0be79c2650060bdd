import numpy as np
import pytest
import scipy.sparse as sp

import raytransport as rt
from raytransport.refractive import turn_rate


@pytest.fixture(scope="session")
def unit_model():
    return rt.constant_model(1.0)


@pytest.fixture(scope="session")
def demo_model():
    return rt.paper4_model()


@pytest.fixture(scope="session")
def demo_field():
    return rt.paper4_field()


@pytest.fixture(scope="session")
def unit_attenuation():
    return rt.constant_attenuation(1.0)


def bouguer_invariant(model, x, v) -> float:
    """Angular momentum n^2(x) (x1 v2 - x2 v1) of a 2D ray state.

    For rotationally symmetric media this is conserved along geodesics
    (Bouguer's law; equal to n |v| r sin(angle to the radial direction)
    times n, and to n r sin(angle) at metric unit speed).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n = float(model.n(x))
    return n * n * float(x[0] * v[1] - x[1] * v[0])


def random_phase_points(model, count, seed, r_lo=0.1, r_hi=0.85):
    """Deterministic interior phase states, bounded away from center and boundary."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        r = r_lo + (r_hi - r_lo) * rng.random()
        ang = 2.0 * np.pi * rng.random()
        theta = 2.0 * np.pi * rng.random()
        x = np.array([r * np.cos(ang), r * np.sin(ang)])
        pts.append(rt.angle_phase_point(model, x, theta))
    return pts


def pinned_matrix(system):
    """The pinned matrix of an assembled system: interior rows over identity ring rows."""
    n, size = system.grid.n_interior, system.grid.size
    return sp.vstack([sp.hstack([system.interior, system.coupling]), sp.eye(size - n, size, k=n)],
                     format="csr")


class StencilError(ValueError):
    """A finite-difference stencil does not fit inside the domain."""


def residual_stencil(model, f, t: float, points, fd_step: float):
    """The times and the states at which the transport residual reads u.

    The times are t, then t +- fd_step when the field depends on time.  The
    states are, per point in order: the center, x1 +- fd_step, x2 +- fd_step
    and theta +- fd_step.  The direction angle is held fixed under spatial
    shifts, with the tangent re-normalized at the shifted base point.
    """
    if model.dim != 2:
        raise ValueError("the transport residual is implemented for dim 2")
    e1 = np.array([fd_step, 0.0])
    e2 = np.array([0.0, fd_step])
    stencil = []
    for p in points:
        x = np.asarray(p.x, dtype=float)
        xi = np.asarray(p.xi, dtype=float)
        r = float(np.linalg.norm(x))
        if r + fd_step >= 1.0 - 1e-12:
            raise StencilError(f"stencil of width {fd_step} does not fit at |x| = {r:.6g}")
        th = float(np.arctan2(xi[1], xi[0]))
        offs = [(x, th), (x + e1, th), (x - e1, th), (x + e2, th), (x - e2, th),
                (x, th + fd_step), (x, th - fd_step)]
        stencil += [rt.angle_phase_point(model, xx, a) for xx, a in offs]
    times = [t, t + fd_step, t - fd_step] if f.is_dynamic else [t]
    return np.array(times), stencil


def residual_combine(model, f, att, t: float, points, fd_step: float, vals: np.ndarray) -> np.ndarray:
    """(d_t u) + H u + alpha u - f . xi^m from u on the stencil, one row per point.

    ``vals`` is (n_points, n_states, n_times) in the order of
    :func:`residual_stencil`.  H u combines central differences in x and
    in the direction angle, the latter weighted by the turning rate of the
    ray; d_t u is the central difference at the center, when there are
    three times.
    """
    x = np.array([p.x for p in points], dtype=float)
    xi = np.array([p.xi for p in points], dtype=float)
    width = 2.0 * fd_step
    u = vals[:, :, 0]
    du_dx1 = (u[:, 1] - u[:, 2]) / width
    du_dx2 = (u[:, 3] - u[:, 4]) / width
    du_dth = (u[:, 5] - u[:, 6]) / width
    h_u = xi[:, 0] * du_dx1 + xi[:, 1] * du_dx2 + turn_rate(model, x, xi) * du_dth
    dt_u = (vals[:, 0, 1] - vals[:, 0, 2]) / width if vals.shape[2] > 1 else 0.0
    src = np.asarray(rt.moment(f, t, x, xi), dtype=float)
    return dt_u + h_u + att.alpha0 * u[:, 0] - src


def oracle_residuals(model, f, att, t, points, fd_step, cfg=None) -> np.ndarray:
    """(d_t u) + H u + alpha u - f . xi^m of the characteristic solution at 2D phase states.

    H u is assembled from central differences of u in the sphere-bundle
    coordinates (x, theta): the x-derivatives hold the direction angle fixed
    (the tangent is re-normalized at the shifted base point) and the fiber
    derivative is a central difference in theta, weighted by the turning
    rate of the ray.  The time derivative is a central difference with the
    same step, evaluated only when the field depends on time (it vanishes
    identically otherwise).  The seven stencil states of every point are
    one ``dynamic_boundary_table`` march, which carries one column per time.
    """
    if not len(points):
        return np.zeros(0)
    times, stencil = residual_stencil(model, f, float(t), points, fd_step)
    xs = np.array([pp.x for pp in stencil])
    xis = np.array([pp.xi for pp in stencil])
    vals = rt.dynamic_boundary_table(model, f, att, xs, xis, times, cfg).T
    return residual_combine(model, f, att, float(t), points, fd_step,
                            vals.reshape(len(points), -1, times.size))
