"""Geodesic integration on the unit ball with boundary-exit detection.

Rays are solutions of gamma'' = -G(gamma)[gamma', gamma'] integrated with
classical fixed-step RK4.  The affine parameter is metric arc length: states
are kept at metric unit speed, |v| = 1/n(x) euclidean.  Exits through the
unit sphere are refined inside the crossing step by safeguarded Newton on
|gamma(tau)|^2 - 1, each iterate an RK4 step from the step's start, until the
next iterate is within 4 ulp of the bracket's outer end, so entry/exit
parameters are resolved to the rounding of |gamma|^2, far below the step
size.

All rays are marched by one batched engine, :func:`march`: each interval is
one RK4 step that reuses the previous interval's last acceleration as its
first stage, and its mid state is the step's cubic Hermite interpolant.  A
ray whose mid or end state leaves the ball is parked at the state that
began the interval, and all parked rays are refined together at the end.
Every caller configures its march with one :class:`IntegratorConfig`.  The
characteristic oracle integrates along it with the config's step as the
interval; :func:`trace` marches the two rays (x, xi) and (x, -xi) of each
of its states in one batch with interval 2 * step, recording the mid and end
state of every interval as path nodes.

The engine keeps every ray state component-major from entry to exit:
positions and velocities live in C-contiguous (dim, N) arrays and the
kernels receive their (N, dim) transpose views.  Each coordinate of the
batch is then one contiguous row, so the per-component reads of every
kernel (``x[..., i]`` in the medium, the moments and the radius tests) are
unit-stride instead of stride-dim gathers.  Elementwise arithmetic does not
depend on the layout and every row sum runs in index order, so the numbers
are those of a row-major march, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TraceLimitError
from .refractive import RefractiveModel, _dot, acceleration

# Tangential boundary starts below this |<xi, nu>| are treated as glancing.
GLANCING_TOL = 1e-12
# A ray of a radial medium is refused as trapped when its Bouguer invariant exceeds n(1) by more
# than this share, far above the invariant's round-off, so that no state on the sphere is.
TRAPPED_SLACK = 1e-12


@dataclass(frozen=True)
class IntegratorConfig:
    """The one config of every march.

    ``step`` is the interval of the characteristic oracle's march and the
    node spacing of :func:`trace`; ``max_steps`` caps the intervals of a
    march, by default max(20000, 20 / step), enough for rays of metric
    length 20; ``boundary_tol`` is the distance from the sphere within
    which a start point counts as a boundary state.
    """

    step: float = 1e-3
    max_steps: int | None = None
    boundary_tol: float = 1e-10

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.max_steps is None:
            object.__setattr__(self, "max_steps", max(20000, int(20.0 / self.step)))
        elif self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not self.boundary_tol > 0.0:
            raise ValueError("boundary_tol must be positive")


@dataclass(frozen=True)
class PhaseSpacePoint:
    """A position in the ball with a metric-unit tangent (|xi| = 1/n(x))."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))


def unit_phase_point(model: RefractiveModel, x, direction) -> PhaseSpacePoint:
    """Normalize ``direction`` to metric unit speed at x."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(d)
    if nd == 0.0:
        raise ValueError("direction must be non-zero")
    return PhaseSpacePoint(x=x, xi=d / (nd * float(model.n(x))))


def angle_phase_point(model: RefractiveModel, x, theta: float) -> PhaseSpacePoint:
    """2D helper: metric-unit tangent at angle theta."""
    return unit_phase_point(model, x, np.array([np.cos(theta), np.sin(theta)]))


def speed_defect(model: RefractiveModel, x, v) -> np.ndarray:
    """|n(x) |v| - 1| per state (the rows of x and v): deviation from metric unit speed."""
    v = np.asarray(v, dtype=float)
    return np.abs(model.n(np.asarray(x, dtype=float)) * np.sqrt(_dot(v, v)) - 1.0)


def check_states(model: RefractiveModel, x, xi, boundary_tol: float) -> None:
    """Refuse start states (rows of x and xi) that no march may start from.

    Raises ValueError for a zero xi or one whose speed defect exceeds 1e-8,
    and :class:`DomainError` for a point more than 10 boundary_tol outside
    the sphere.  A zero xi is refused before any division by its length.
    """
    x = np.asarray(x, dtype=float).reshape(-1, model.dim)
    xi = np.asarray(xi, dtype=float).reshape(-1, model.dim)
    if np.any(_dot(xi, xi) == 0.0):
        raise ValueError("xi must be non-zero")
    if not np.all(speed_defect(model, x, xi) <= 1e-8):
        raise ValueError("xi is not metric-unit; normalize with unit_phase_point")
    r = np.sqrt(_dot(x, x))
    if not np.all(r <= 1.0 + 10.0 * boundary_tol):
        raise DomainError(f"start point outside the ball: |x| = {np.max(r):.6g}")


@dataclass(frozen=True, eq=False)
class GeodesicPath:
    """A sampled geodesic through tau = 0 with boundary endpoints.

    ``taus`` is strictly increasing from tau_minus to tau_plus; node i holds
    position xs[i] and velocity vs[i].
    """

    taus: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    tau_minus: float
    tau_plus: float
    step: float

    def __len__(self) -> int:
        return self.taus.shape[0]


# ---------------------------------------------------------------------------
# RK4 stepping (batched: states of shape (N, dim), any memory layout)
# ---------------------------------------------------------------------------

def _rk4_sum(y, h, k1, k2, k3, k4):
    """y + (h / 6) * (k1 + 2 k2 + 2 k3 + k4), summed in place in that order."""
    acc = 2.0 * k2
    acc += k1
    acc += 2.0 * k3
    acc += k4
    acc *= h / 6.0
    acc += y
    return acc


def rk4_step(model: RefractiveModel, x: np.ndarray, v: np.ndarray, h, a1=None):
    """One classical RK4 step of size h (scalar or per-row array).

    ``a1``, the acceleration at (x, v), is the first stage; given, it saves
    one acceleration and leaves the result's bits unchanged.  The new
    position never reads the fourth stage; only the new velocity needs it.
    """
    h = np.asarray(h, dtype=float)
    h = h[..., None] if h.ndim else float(h)
    if a1 is None:
        a1 = acceleration(model, x, v)
    v2 = v + 0.5 * h * a1
    a2 = acceleration(model, x + 0.5 * h * v, v2)
    v3 = v + 0.5 * h * a2
    a3 = acceleration(model, x + 0.5 * h * v2, v3)
    v4 = v + h * a3
    a4 = acceleration(model, x + h * v3, v4)
    return _rk4_sum(x, h, v, v2, v3, v4), _rk4_sum(v, h, a1, a2, a3, a4)


def _hermite_mid(y0: np.ndarray, y1: np.ndarray, d0: np.ndarray, d1: np.ndarray, h: float):
    """The cubic Hermite interpolant at the middle of an interval of length h.

    y0, y1 are the end values and d0, d1 their derivatives:
    (y0 + y1) / 2 + (h / 8) (d0 - d1).  On a smooth solution its error
    there is h^4 / 384 times the fourth derivative; it keeps the layout of
    its inputs.
    """
    mid = y0 + y1
    mid *= 0.5
    slope = d0 - d1
    slope *= 0.125 * h
    mid += slope
    return mid


def refine_exit(model: RefractiveModel, x: np.ndarray, v: np.ndarray, hi, iters: int = 60):
    """Find the crossing of |gamma| = 1 inside a step by safeguarded Newton.

    ``x, v`` are the last states strictly inside the ball and the crossing
    happens within step size ``hi`` (scalar or per-row).  Returns
    (s_exit, x_exit, v_exit).  The iterates solve phi(s) = |x(s)|^2 - 1 = 0
    for the position x(s) of an RK4 step of size s from (x, v), with slope
    2 x(s) . v(s) from the same :func:`rk4_step`, so the refined state is an
    RK4 state, not an interpolant; all steps start from (x, v) and share one
    first stage.  Each ray keeps a bracket [lo, hi], lo inside and hi at or
    beyond the sphere: a Newton iterate is taken only in (lo, hi], else the
    bracket's midpoint.  A ray stops once its next iterate is within 4 ulp of
    hi, whose state it already holds, and returns hi: s_exit is the first
    parameter found at or beyond the sphere.  ``iters`` caps the steps per
    ray.  Every ray iterates on its own numbers, so its exit is the same,
    bit for bit, refined alone or in a batch.
    """
    n, dim = x.shape
    lo = np.zeros(n)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,)).copy()
    a1 = acceleration(model, x, v)  # the first stage of every iterate
    x_exit, v_exit = np.empty((dim, n)).T, np.empty((dim, n)).T
    held = np.zeros(n, dtype=bool)  # x_exit, v_exit hold the state at hi
    # the rays still searching: their states, last iterate, phi and slope there
    rays, xk, vk, ak = np.arange(n), x, v, a1
    s, phi, slope = np.zeros(n), _dot(x, x) - 1.0, 2.0 * _dot(x, v)
    for _ in range(iters):
        lo_k, hi_k = lo[rays], hi[rays]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = s - phi / slope
        t = np.where((t > lo_k) & (t <= hi_k), t, 0.5 * (lo_k + hi_k))
        go = ~(held[rays] & (hi_k - t <= 4.0 * np.spacing(hi_k)))
        if not go.all():
            rays, t, xk, vk, ak = rays[go], t[go], _keep(xk, go), _keep(vk, go), _keep(ak, go)
            if not rays.size:
                break
        xt, vt = rk4_step(model, xk, vk, t, ak)
        phi, slope = _dot(xt, xt) - 1.0, 2.0 * _dot(xt, vt)
        out = phi >= 0.0
        hit = rays[out]
        hi[hit], x_exit[hit], v_exit[hit], held[hit] = t[out], xt[out], vt[out], True
        lo[rays[~out]] = t[~out]
        s = t
    # a ray that reached the cap before any step landed at or beyond the sphere
    if not held.all():
        miss = ~held
        x_exit[miss], v_exit[miss] = rk4_step(
            model, _keep(x, miss), _keep(v, miss), hi[miss], _keep(a1, miss))
    return hi, x_exit, v_exit


def _refuse_trapped(model: RefractiveModel, x, v, heading, inside) -> None:
    """Raise TraceLimitError for the rays of a radial medium that provably never reach the sphere.

    Along a ray of a radial medium the Bouguer invariant n(|x|) |x| sin(x, v)
    is constant and at most n(r) r at every radius r the ray reaches, so a
    ray started strictly inside the sphere whose invariant exceeds n(1)
    never reaches it and would march to the step cap.
    """
    xx, vv = _dot(x, x), _dot(v, v)
    bouguer = model.n(x) * np.sqrt(np.maximum(xx * vv - heading * heading, 0.0) / vv)
    n1 = float(model.n(np.eye(model.dim)[0]))
    trapped = inside & (xx < 1.0) & (bouguer > n1 * (1.0 + TRAPPED_SLACK))
    if trapped.any():
        raise TraceLimitError(
            f"{np.count_nonzero(trapped)} rays are trapped and never reach the sphere: their "
            f"Bouguer invariant n |x| sin(x, v), up to {bouguer[trapped].max():.6g}, exceeds n(1) = {n1:.6g}"
        )


def _keep(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The rows of a selected by mask, in a's component-major layout.

    ``a.T`` puts the ray axis last, so compressing it keeps every component a
    contiguous row; ``a[mask]`` would return a row-major copy.
    """
    return np.compress(mask, a.T, axis=-1).T


@dataclass(frozen=True, eq=False)
class Exits:
    """The marched rays at their exits, in the order they left the ball.

    ``rays`` indexes the march's input rows.  ``x, v`` and ``carry`` are the
    state and the caller's data at the start of the crossing interval, which
    begins at parameter ``s``, the running sum of the whole intervals before
    it; the sphere is reached at parameter ``s + ds`` in state
    (x_exit, v_exit).
    """

    rays: np.ndarray
    x: np.ndarray
    v: np.ndarray
    s: np.ndarray
    ds: np.ndarray
    x_exit: np.ndarray
    v_exit: np.ndarray
    carry: tuple


def march(
    model: RefractiveModel,
    x0: np.ndarray,
    v0: np.ndarray,
    step: float,
    cfg: IntegratorConfig,
    carry: tuple = (),
    advance=None,
) -> Exits:
    """March rays (x0, v0) forward to the unit sphere in intervals of ``step``.

    Each interval is one :func:`rk4_step` of size step, started from the
    acceleration the previous interval ended on, so only the end state's
    acceleration is new: four accelerations per interval and ray.  The mid
    state (xm, vm) is the cubic Hermite interpolant of the interval's end
    states at step/2; it differs from an RK4 half-step by O(step^4).

    A ray that starts on the sphere without heading strictly inward exits at
    once: it is not marched and is absent from the result.  In a radial
    medium, rays from strictly inside the sphere whose Bouguer invariant
    exceeds n(1) never reach it, and the march raises
    :class:`TraceLimitError` for them before its first interval.  Any other ray
    runs until the interpolated mid or the end state of an interval leaves
    the ball; it is parked at the state that began that interval, and all
    parked rays are refined by one batched :func:`refine_exit` once every
    ray has left.  The exit search keeps a bracket whose outer end must be an
    RK4 position outside the ball, so a ray whose end state is inside but
    whose interpolated mid is not is parked only if its RK4 half-step
    position is outside too (the bracket is then step/2); otherwise it
    marches on.  The parameter s is the running sum of whole intervals, one
    float shared by every ray inside, so a ray exits at s + ds, and its exit
    keeps the s of the interval it left in: whatever depends on the
    parameter alone is a function of s.

    ``carry`` holds per-ray arrays that travel with the rays.  After each
    interval, ``advance(rays, s, xm, vm, xe, ve, carry)`` gets the rays still
    inside (indices into x0), their parameter at the interval start as one
    float, their mid and end states and their carry, and returns the new
    carry.

    x0 and v0 may have any memory layout; they are copied once into
    component-major arrays when the rays still inside are selected, and every
    state the march hands out (to ``advance`` and in the returned
    :class:`Exits`) is an (N, dim) transpose view of a C-contiguous (dim, N)
    array.  Rays are compacted and parked batches joined along the ray axis
    of that layout, so no step of the march falls back to row-major copies.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    half = 0.5 * step
    rad = np.sqrt(_dot(x0, x0))
    heading = _dot(v0, x0)
    inside = ~((rad >= 1.0 - 10.0 * cfg.boundary_tol) & (heading >= -GLANCING_TOL))
    if model.radial:
        _refuse_trapped(model, x0, v0, heading, inside)

    alive = np.nonzero(inside)[0]
    # the one conversion: compressing x0.T yields C-contiguous (dim, N) rows
    x, v, s = _keep(x0, inside), _keep(v0, inside), 0.0
    carry = tuple(_keep(np.asarray(c), inside) for c in carry)
    # (rays, x, v, s, search bracket, *carry) per parked batch
    none = np.zeros(0)
    parked = [(alive[:0], x[:0], v[:0], none, none, *(c[:0] for c in carry))]
    a = acceleration(model, x, v)
    k = 0
    while alive.size:
        if k >= cfg.max_steps:
            raise TraceLimitError(
                f"{alive.size} rays did not exit within {cfg.max_steps} intervals of length {step}"
            )
        k += 1
        xe, ve = rk4_step(model, x, v, step, a)
        xm = _hermite_mid(x, xe, v, ve, step)
        out_end = _dot(xe, xe) >= 1.0
        crossed = (_dot(xm, xm) >= 1.0) | out_end
        if crossed.any():
            graze = crossed & ~out_end
            if graze.any():
                xh = rk4_step(model, _keep(x, graze), _keep(v, graze), half, _keep(a, graze))[0]
                crossed[graze] = _dot(xh, xh) >= 1.0
            parked.append(tuple(_keep(b, crossed) for b in (
                alive, x, v, np.full(alive.size, s), np.where(out_end, step, half),
                *carry)))
            keep = ~crossed
            alive, v, a, xm, xe, ve = (_keep(b, keep) for b in (alive, v, a, xm, xe, ve))
            carry = tuple(_keep(c, keep) for c in carry)
            if not alive.size:
                break
        ae = acceleration(model, xe, ve)
        if advance is not None:
            carry = advance(alive, s, xm, _hermite_mid(v, ve, a, ae, step), xe, ve, carry)
        x, v, a, s = xe, ve, ae, s + step

    # join the parked batches along the ray axis, keeping the layout
    rays, xp, vp, sp, hi, *carry_p = (
        np.concatenate([a.T for a in col], axis=-1).T for col in zip(*parked))
    if rays.size:
        ds, x_exit, v_exit = refine_exit(model, xp, vp, hi)
    else:
        ds, x_exit, v_exit = hi, xp, vp
    return Exits(rays, xp, vp, sp, ds, x_exit, v_exit, tuple(carry_p))


def trace(model: RefractiveModel, p, cfg: IntegratorConfig | None = None):
    """Integrate the geodesic through each state p both ways to the boundary.

    ``p`` is one :class:`PhaseSpacePoint`, which gives its
    :class:`GeodesicPath`, or a sequence of them, which gives a list with
    one path per state.  All paths come from one march of the rays (x, xi)
    and (x, -xi) of every state; the second is the backward half, with its
    parameter and velocities negated.  Every ray's arithmetic is its own,
    so a path is the same, bit for bit, traced alone or in a batch.  Nodes
    are cfg.step apart up to the exits; every other node is the march's
    Hermite mid state of an interval.  Starts on the boundary are allowed:
    an outward tangent gives tau_plus = 0, an inward one tau_minus = 0, and
    a glancing tangent returns the trivial single-node path (tau_minus =
    tau_plus = 0).
    """
    cfg = cfg or IntegratorConfig()
    points = [p] if isinstance(p, PhaseSpacePoint) else list(p)
    if not points:
        return []
    x0 = np.array([pt.x for pt in points], dtype=float)
    xi0 = np.array([pt.xi for pt in points], dtype=float)
    check_states(model, x0, xi0, cfg.boundary_tol)
    h = cfg.step
    interval = 2.0 * h
    # ray 2 i is (x_i, xi_i) and ray 2 i + 1 its backward half (x_i, -xi_i)
    sign = np.tile([1.0, -1.0], len(points))
    rays, taus, xs, vs = [2 * np.arange(len(points))], [np.zeros(len(points))], [x0], [xi0]

    def record(alive, s, xm, vm, xe, ve, carry):
        for tau, xn, vn in ((s + h, xm, vm), (s + interval, xe, ve)):
            rays.append(alive)
            taus.append(sign[alive] * tau)
            xs.append(xn)
            vs.append(sign[alive, None] * vn)
        return carry

    ex = march(model, np.repeat(x0, 2, axis=0), sign[:, None] * np.repeat(xi0, 2, axis=0),
               interval, cfg, advance=record)
    rays.append(ex.rays)
    taus.append(sign[ex.rays] * (ex.s + ex.ds))
    xs.append(ex.x_exit)
    vs.append(sign[ex.rays, None] * ex.v_exit)
    # group the nodes by state, keeping their recorded order, then sort each group by parameter
    owner = np.concatenate(rays) // 2
    by_owner = np.argsort(owner, kind="stable")
    taus, xs, vs = np.concatenate(taus), np.concatenate(xs), np.concatenate(vs)
    paths = []
    for nodes in np.split(by_owner, np.searchsorted(owner[by_owner], np.arange(1, len(points)))):
        nodes = nodes[np.argsort(taus[nodes], kind="stable")]
        paths.append(GeodesicPath(
            taus=taus[nodes],
            xs=xs[nodes],
            vs=vs[nodes],
            tau_minus=float(taus[nodes[0]]),
            tau_plus=float(taus[nodes[-1]]),
            step=h,
        ))
    return paths[0] if isinstance(p, PhaseSpacePoint) else paths

