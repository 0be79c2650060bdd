"""Refractive-index models and pointwise quantities of the conformal metric.

A refractive index n(x) > 0 on the closed unit ball induces the conformal
metric g_ij = n^2(x) delta_ij (Fermat's principle: travel time equals metric
length).  Everything geometric that the rest of the package needs is a closed
form in n and its gradient:

    inner product     <u, v>_g = n^2 (u . v)
    Christoffels      G^k_ij   = (d_j n delta_ik + d_i n delta_jk - d_k n delta_ij) / n
    ray acceleration  a_k      = -G^k_ij v_i v_j
                               = (d_k n |v|^2 - 2 v_k (grad n . v)) / n

where dots and |.| on the right-hand sides are euclidean.  Each model
carries two analytic kernels: ``n_grad`` returns n and grad n at the same
points (there is no Hessian), and ``accel`` returns the ray acceleration,
the one quantity that the ray engine and the turning rate of the
transport operator (:func:`turn_rate`) ask for.  ``accel`` is written per
model family so that no gradient array is formed:

    radial   n = p(s), s = |x|^2, grad n = 2 p'(s) x:
             a = k (x |v|^2 - 2 v (x . v)) with k = 2 p'(s) / n, one Horner
             pass each for p and p' (a constant medium gives a = 0);
    affine   n = a + b . x: the gradient form with the slope b as one (dim,) array.

Dot products are summed in index order.  The Christoffel symbols are not
formed here; the tests check the kernels against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .config import finite_float, finite_floats


@dataclass(frozen=True)
class RefractiveModel:
    """An analytic refractive index on the closed unit ball.

    Both kernels are vectorized over points of shape (..., dim), any memory
    layout.  ``n_grad(x)`` returns (n, grad n) of shapes (...) and
    (..., dim); ``accel(x, v)`` returns the ray acceleration of the states
    (x, v), shape (..., dim).  ``floor`` is a certified lower bound of n on
    the ball, supplied by the model (not estimated from samples).
    ``radial`` states that n depends on |x| only, so that every rotation
    about the center is an isometry of the metric and maps rays to rays.
    """

    dim: int
    n_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    accel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    floor: float
    name: str = ""
    radial: bool = False

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not self.floor > 0.0:
            raise ValueError(f"floor must be positive, got {self.floor}")

    def n(self, x) -> np.ndarray:
        return self.n_grad(x)[0]

    def grad_n(self, x) -> np.ndarray:
        return self.n_grad(x)[1]


def acceleration(model: RefractiveModel, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized ray acceleration for batched states x, v of shape (..., dim).

    No domain check: integrators call this at high rate on states they keep
    inside the ball themselves.
    """
    return model.accel(x, v)


def turn_rate(model: RefractiveModel, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Turning rate (a2 xi1 - a1 xi2) / |xi|^2 of the direction angle of 2D rays, a = ``accel``."""
    a = model.accel(x, xi)
    return (a[..., 1] * xi[..., 0] - a[..., 0] * xi[..., 1]) / _dot(xi, xi)


def _dot(a: np.ndarray, b) -> np.ndarray:
    """Row-wise euclidean product over the last axis, summed in index order."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


# ---------------------------------------------------------------------------
# smallness-of-refraction condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoercivityReport:
    """Suprema of |grad n|/n over the ball in both norm conventions.

    ``sup_riemannian`` is sup |grad n| / n^2 (the metric norm of the metric
    gradient divided by n); ``sup_euclidean`` is sup |grad n| / n.  The
    ``satisfied`` flag compares the Riemannian reading against alpha0, which
    is the reading consistent with pairing the metric gradient with a
    metric-unit direction; the stricter euclidean value is reported so
    callers can apply it instead.
    """

    sup_riemannian: float
    sup_euclidean: float
    alpha0: float
    satisfied: bool


def _ball_shells(dim: int, samples: int):
    """A dense deterministic grid on the closed unit ball, one radial shell at a time.

    ``samples`` radii from r=0 to r=1, at most 160 in 3D: a 3D shell holds
    about 2 samples^2 points (161 x 320 at the cap, 8.2M points over the ball).
    The angular counts are multiples of 4 so that all half-axis directions are
    sampled exactly (boundary maxima of non-radial models sit there).
    """
    if samples < 8:
        raise ValueError("samples must be at least 8")
    if dim == 2:
        nr, nphi = samples, 4 * max(samples // 4, 16)
        phi = np.linspace(0.0, 2.0 * np.pi, nphi, endpoint=False)
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        for r in np.linspace(0.0, 1.0, nr):
            yield np.stack([r * cos_p, r * sin_p], axis=-1)
        return
    nr = min(samples, 160)
    ntheta = max(nr // 2 * 2 + 1, 33)
    nphi = 4 * max(nr // 2, 12)
    theta = np.linspace(0.0, np.pi, ntheta)
    phi = np.linspace(0.0, 2.0 * np.pi, nphi, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    sin_t, cos_t, cos_p, sin_p = np.sin(tt), np.cos(tt), np.cos(pp), np.sin(pp)
    for r in np.linspace(0.0, 1.0, nr):
        yield np.stack([r * sin_t * cos_p, r * sin_t * sin_p, r * cos_t], axis=-1).reshape(-1, 3)


def coercivity_margin(model: RefractiveModel, alpha0: float, samples: int = 512) -> CoercivityReport:
    """Estimate sup |grad n|/n over the ball and compare against alpha0.

    ``samples`` is the radial resolution of the sampling grid (at most 160
    shells in 3D); angular resolutions are derived from it.  The suprema are
    taken shell by shell, so only one shell is held at a time.
    """
    if not alpha0 > 0.0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    maxima = []
    for x in _ball_shells(model.dim, samples):
        n, g = model.n_grad(x)
        gn = np.sqrt(np.einsum("...i,...i->...", g, g))
        maxima.append((np.max(gn / n), np.max(gn / n**2)))
    sup_eucl, sup_riem = np.max(maxima, axis=0)
    return CoercivityReport(
        sup_riemannian=float(sup_riem),
        sup_euclidean=float(sup_eucl),
        alpha0=float(alpha0),
        satisfied=bool(sup_riem < alpha0),
    )


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------
# Builders return picklable models: the kernels are partials of the
# module-level functions below, so grids of transforms can be farmed out to
# worker processes.

def _horner(coeffs: tuple, s):
    """sum_k coeffs[k] s^k, Horner from c_top * s (a bare float for fewer than two coefficients)."""
    if not coeffs:
        return 0.0
    p = coeffs[-1]
    if len(coeffs) > 1:
        p = s * p
        p += coeffs[-2]
        for c in reversed(coeffs[:-2]):
            p *= s
            p += c
    return p


def _radial_n_grad(coeffs: tuple, x) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    s = _dot(x, x)
    n = _horner(coeffs, s)
    if len(coeffs) == 1:
        n = np.full_like(s, n)
    # p'(s) from its coefficients k c_k; a constant medium gets grad n = 0 * x
    dn = 2.0 * _horner(tuple(k * c for k, c in enumerate(coeffs))[1:], s)
    return n, np.asarray(dn)[..., None] * x


def _row_sum(p: np.ndarray) -> np.ndarray:
    """The columns of p added in index order: the row sums of :func:`_dot` from its products."""
    out = p[..., 0] + p[..., 1]
    for i in range(2, p.shape[-1]):
        out += p[..., i]
    return out


def _radial_accel(coeffs: tuple, dcoeffs2: tuple, x, v) -> np.ndarray:
    """k (x |v|^2 - 2 v (x . v)) with k = 2 p'(s) / p(s), s = |x|^2; ``dcoeffs2`` are those of 2 p'.

    |x|^2, |v|^2 and x . v are the row sums of x * x, v * v and x * v, each
    product array formed once in the layout of the states.
    """
    s = _row_sum(x * x)
    k = _horner(dcoeffs2, s) / _horner(coeffs, s)
    v2 = _row_sum(v * v)
    v2 *= k
    xv = _row_sum(x * v)
    xv *= k
    xv *= 2.0
    a = x * v2[..., None]
    a -= v * xv[..., None]
    return a


def _affine_n_grad(a: float, b: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    g[...] = b
    return a + _dot(x, b), g


def _affine_accel(a: float, b: np.ndarray, x, v) -> np.ndarray:
    """(b |v|^2 - 2 v (b . v)) / n with n = a + b . x; v (2 (b . v)) is (2 v) (b . v)
    bit for bit, since doubling is exact."""
    # b_i |v|^2 with the component axis last, in v's layout
    acc = np.multiply.outer(b, _dot(v, v))
    acc = acc.T if acc.ndim == 2 else np.moveaxis(acc, 0, -1)
    acc -= v * (2.0 * _dot(v, b))[..., None]
    acc /= (a + _dot(x, b))[..., None]
    return acc


def radial_poly_model(coeffs, dim: int = 2, name: str = "") -> RefractiveModel:
    """n(x) = c0 + c1 r^2 + c2 r^4 + ... with r = |x| (coefficients in r^2).

    The certified floor is the exact minimum of the polynomial over r in
    [0, 1], found from the real critical points of the 1D polynomial in r^2.
    """
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ValueError("radial model needs at least one coefficient")
    p = np.polynomial.Polynomial(coeffs)
    candidates = [0.0, 1.0]
    if len(coeffs) > 2:
        for root in p.deriv().roots():
            if abs(root.imag) < 1e-12 and 0.0 < root.real < 1.0:
                candidates.append(float(root.real))
    floor = min(float(p(s)) for s in candidates)
    return RefractiveModel(
        dim=dim,
        n_grad=partial(_radial_n_grad, coeffs),
        accel=partial(_radial_accel, coeffs, tuple(2.0 * k * c for k, c in enumerate(coeffs))[1:]),
        floor=floor,
        name=name or "radial:" + ",".join(repr(c) for c in coeffs),
        radial=True,
    )


def constant_model(n0: float, dim: int = 2) -> RefractiveModel:
    """Homogeneous medium n(x) = n0; geodesics are straight chords."""
    return radial_poly_model((float(n0),), dim=dim, name=f"constant:{n0!r}")


def paper4_model(dim: int = 2) -> RefractiveModel:
    """The bundled demo medium n(x) = |x|^2 + 1.5."""
    return radial_poly_model((1.5, 1.0), dim=dim, name="paper4")


def affine_model(a: float, b, name: str = "") -> RefractiveModel:
    """n(x) = a + b . x; requires a > |b| so n stays positive on the ball."""
    b = tuple(float(bi) for bi in b)
    a = float(a)
    floor = a - float(np.linalg.norm(b))
    if not floor > 0.0:
        raise ValueError("affine model is not positive on the ball")
    slope = np.array(b)
    return RefractiveModel(
        dim=len(b),
        n_grad=partial(_affine_n_grad, a, slope),
        accel=partial(_affine_accel, a, slope),
        floor=floor,
        name=name or "affine:" + ",".join(repr(v) for v in (a, *b)),
    )


def parse_model(spec: str, dim: int = 2) -> RefractiveModel:
    """Build a model from a config string.

    Accepted forms: ``paper4``, ``constant:<n0>``, ``radial:<c0,c1,...>``,
    ``affine:<a,b1,b2[,b3]>``.
    """
    spec = spec.strip()
    head, _, tail = spec.partition(":")
    try:
        if head == "paper4" and not tail:
            return paper4_model(dim=dim)
        if head == "constant":
            return constant_model(finite_float(tail), dim=dim)
        if head == "radial":
            return radial_poly_model(finite_floats(tail), dim=dim)
        if head == "affine":
            vals = finite_floats(tail)
            if len(vals) - 1 != dim:
                raise ValueError(f"affine model needs {dim} slope entries")
            return affine_model(vals[0], vals[1:])
    except ValueError as exc:
        raise ValueError(f"bad model spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown model spec {spec!r}")
