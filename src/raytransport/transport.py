"""Attenuated ray transforms and the characteristic transport solution.

The transform of a rank-m field f with absorption alpha, evaluated at an
outflow boundary state (x, xi), integrates the moment f . gamma'^m along the
ray through (x, xi) from its entry parameter up to 0, damped by the
accumulated absorption:

    value = int_{tau_-}^{0} (f . gamma'^m)(t + tau) exp(-int_tau^0 alpha) dtau.

Evaluating the same integral at interior states extends the transform to the
whole phase space; that extension solves the transport equation

    d_t u + H u + alpha u = f . xi^m,

vanishes on inflow boundary states and restricts to the transform on outflow
states, which makes it the reference solution ("characteristic oracle") for
the grid solvers.

Implementation notes.  Every evaluation is one call of the batched ray
engine :func:`raytransport.geodesic.march`, run backward from the
evaluation states under one :class:`~raytransport.geodesic.IntegratorConfig`
whose step is the interval and whose cap and boundary tolerance are the
march's: rays take one RK4 step per interval, Simpson's rule reads the mid
state off the cubic Hermite interpolant of the step, and the engine parks
boundary exits and refines them in one batch, after which the same interval
rule integrates the stub up to the exit from an RK4 half-step of the stub.
Absorption is constant, so the source at backward parameter s is damped by
exp(-alpha0 s) in closed form.  The rays inside have all marched the same
whole intervals, so the parameter and the damping factors, which carry the
sign (-1)^m of the moment read at the reversed direction, are one float per
interval; only the stubs hold them per ray.  Ray geometry does not depend
on t, so many time levels are one march too: the running integral carries
one column per time of a row shared by every ray, while the damping and the
ray states are shared by all columns; a time must be finite.  The field
decides how it is read: a time-dependent one at t + tau per column, any
other once per state, and a switch-on field, which vanishes before t = 0,
without its cut-off but with each interval's increment weighted by the
share of the interval that lies within parameter length t of the start, so
its integral is interpolated linearly between interval ends at every entry
point alike.
The march carries at most :data:`MAX_BATCH_RAYS` rays: a wider batch is
sorted by the euclidean chord from each state backward to the sphere, a
cheap predictor of its ray's length, and split into ceil(n / MAX_BATCH_RAYS)
consecutive batches, each one march with its own exit refinement.  Every
ray's arithmetic is its own, so no value depends on the batch it is
marched in; the batches keep the march's temporaries in cache, and rays of
like length leave their march together instead of short ones leaving long
ones to march on in a thin tail.
A transform value is :func:`interior_solution` at an outflow state, the
batch of one, so every public entry point exercises the same arithmetic.

In a radial medium every rotation about the center maps rays to rays, and
turning a :class:`~raytransport.phasegrid.PhaseGrid` by 2 pi q / g,
g = gcd(J, K), maps nodes to nodes
(:func:`~raytransport.phasegrid.rotation_orbits`).  So
:func:`interior_solution_grid` marches one ray per orbit of g nodes, and the
running integral carries one column per turn as it carries one per time:
after each interval, and at the exit stubs, the representatives' positions
and directions are turned together into every member's frame, and the
source is read there.  The turn is one stacked matmul: the rows of every
member's 2 x 2 rotation, stacked (2, 1, g - 1, 2), times the representatives'
(x|xi, component, ray) columns, written straight into a C-contiguous
(component, x|xi, turn, ray) block whose turn 0 is a copy of the
representatives.  So the source read finds each component's turns and rays
in one contiguous run, and its (ray, turn) result already has the running
integral's memory order.  The products are four gemms of
M N K = 2 (g - 1) n each; every entry is a two-term sum computed alike at
every column, and a single ray is padded to two columns, since at one
column numpy takes the matrix-vector path, whose bits differ.  So a state's
bits do not depend on its batch, nor, as measured with OpenBLAS 0.3.31, on
the BLAS thread count: on paper4 (80, 80, 40) at step 1e-2 (g = 40, 6400
rays in one batch) the oracle took as much CPU time as wall time with the
BLAS threads unpinned, and wrote the same bytes under one thread and two.
Representatives keep the per-node march's bits and the other members
differ from it by round-off.  A non-radial medium is the orbit of size one
and takes no rotation arithmetic.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .config import finite_float
from .geodesic import IntegratorConfig, PhaseSpacePoint, check_states, march, rk4_step
from .phasegrid import PhaseGrid, rotation_orbits
from .refractive import RefractiveModel
from .tensorfield import SymmetricTensorField, moment


@dataclass(frozen=True)
class Attenuation:
    """A constant absorption coefficient alpha0 > 0 on phase space."""

    alpha0: float

    def __post_init__(self):
        if not self.alpha0 > 0.0:
            raise ValueError("alpha0 must be positive")


def constant_attenuation(a: float) -> Attenuation:
    return Attenuation(alpha0=float(a))


def parse_attenuation(spec: str) -> Attenuation:
    """``constant:<a>`` or a bare positive number."""
    spec = spec.strip()
    head, _, tail = spec.partition(":")
    try:
        if head == "constant":
            return constant_attenuation(finite_float(tail))
        return constant_attenuation(finite_float(spec))
    except ValueError as exc:
        raise ValueError(f"bad attenuation spec {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# the batched backward march
# ---------------------------------------------------------------------------

# The most rays one march carries.  Past about 8000 rays the (2, n) temporaries
# of an RK4 step and its accelerations, several MB per interval, no longer fit a
# 2 MB per-core L2.  Measured on a 2-core Xeon VM (numpy 2.4): rk4_step plus
# acceleration in an affine medium cost 79 ns per ray and step at 4000 rays,
# 102 ns at 8000 and 127 ns at 16000 to 32000; on the affine (40, 40, 20) grid
# at step 1e-2, 3 to 5 length-sorted batches took 0.74 to 0.85 of the one-march
# oracle time, 8 batches 0.96, and unsorted 8000-ray chunks 0.90.
MAX_BATCH_RAYS = 8192


def _chord_length(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The euclidean length from each x along the direction of v to the unit sphere."""
    d = v / np.sqrt(np.sum(v * v, axis=1))[:, None]
    xd = np.sum(x * d, axis=1)
    return -xd + np.sqrt(np.maximum(xd * xd + 1.0 - np.sum(x * x, axis=1), 0.0))


def _march_backward(
    model: RefractiveModel,
    f: SymmetricTensorField,
    att: Attenuation,
    t,
    x0: np.ndarray,
    xi0: np.ndarray,
    cfg: IntegratorConfig | None = None,
    turns=(0.0,),
) -> np.ndarray:
    """Integrate backward along the rays from (x0, xi0), one running integral per turn and time.

    Simpson's rule on intervals of length cfg.step (default
    ``IntegratorConfig()``) integrates each ray, the source at backward
    parameter s damped by exp(-alpha0 s).  Returns the integrals as an
    (n_rays, n_turns, n_times) array; a ray that starts on the sphere
    without heading inward gets 0.

    ``t`` is a time or a row of finite times shared by every ray; column j
    of the values is the integral at time t[j].  The damping and the ray
    states do not depend on t, so every column is carried by the same march.
    A time-dependent field is read at t - s, any other field once per
    state.  A switch-on field is read without its cut-off, and each
    interval's increment, the interval starting at s and of length h, is
    weighted by clip((t - s) / h, 0, 1), the share of it inside the most
    recent stretch of ray of parameter length t: the partial integral is
    interpolated linearly between interval ends.

    ``turns`` are angles of 2D rotations about the center, the first 0.  In a
    radial medium the ray from a turned state is the turned ray, so only
    the given states are marched: turn q of the values is the integral from
    the states turned by turns[q], read off the marched states turned into
    that frame after every interval and at the exit stubs.  Turn 0 is the
    march itself, and a single turn is read with no rotation arithmetic.

    The rays are sorted by :func:`_chord_length` backward from each state
    and marched in ceil(n / MAX_BATCH_RAYS) consecutive batches (the limit
    counts marched rays, not turns), one march each; the values are
    scattered back to the input order.  No value depends on the batching.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    xi0 = np.atleast_2d(np.asarray(xi0, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    cfg = cfg or IntegratorConfig()
    step = float(cfg.step)
    turns = np.asarray(turns, dtype=float)
    cos, sin = np.cos(turns[1:]), np.sin(turns[1:])
    # row c of each further turn's rotation: rows[c, 0, q - 1] = (R_q)[c], C-contiguous (2, 1, g - 1, 2)
    rows = np.stack([np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)])[:, None]
    switched = f.switch_on
    f = replace(f, switch_on=False) if switched else f  # the weights make the cut-off
    a = att.alpha0
    # the march runs backward: the moment at the forward direction -v is (-1)^m times that at v
    sign = -1.0 if f.rank % 2 else 1.0

    def source_at(s, x, xi):
        """The moment at each state in every turn as (n, n_turns, n_times), n_times 1 if not time-dependent.

        x and xi are turned together into one C-contiguous (component,
        x|xi, turn, ray) block whose turn 0 is a copy of the states: one
        stacked matmul multiplies the rows of every further turn's rotation,
        (2, 1, g - 1, 2), with turn 0's (x|xi, component, ray) view, four BLAS
        gemms of M N K = 2 (g - 1) n written straight into turns 1 to g - 1.
        Every entry is a two-term sum computed alike at every column, so a
        state's bits do not depend on its batch.  A single ray is padded to
        two columns, a copy of itself, and sliced off again: at one column
        numpy takes the matrix-vector path, whose bits differ.  The moment
        reads the (n, n_turns, 2) transpose views of the x and xi halves,
        so each component's turns and rays are one contiguous run, and its
        (n, n_turns) result has the integrals' memory order.
        """
        if turns.size > 1:
            n = x.shape[0]
            block = np.empty((2, 2, turns.size, max(n, 2)))
            block[:, 0, 0], block[:, 1, 0] = x.T, xi.T
            np.matmul(rows, block[:, :, 0].transpose(1, 0, 2), out=block[:, :, 1:])
            x, xi = block[:, 0, :, :n].T, block[:, 1, :, :n].T
        else:
            x, xi = x[:, None], xi[:, None]
        if f.time_dependent:
            return np.asarray(moment(f, t - s, x[:, :, None], xi[:, :, None]), dtype=float)
        return np.asarray(moment(f, 0.0, x, xi), dtype=float)[..., None]

    def interval_rule(h, s, xm, vm, xe, ve, I, g):
        """The integrals and the damped source at the end of an interval of length h from s.

        h and s are floats for a whole interval and (n, 1, 1) columns for
        the exit stubs.
        """
        sm, se = s + 0.5 * h, s + h
        gm = source_at(sm, xm, vm) * (sign * np.exp(-a * sm))
        ge = source_at(se, xe, ve) * (sign * np.exp(-a * se))
        dI = (h / 6.0) * (g + 4.0 * gm + ge)
        if switched:
            w = np.clip((t - s) / h, 0.0, 1.0)
            if not w.any():
                return I, ge
            dI = dI * w
        return I + dI, ge

    def advance(rays, s, xm, vm, xe, ve, carry):
        return interval_rule(step, s, xm, vm, xe, ve, *carry)

    n = x0.shape[0]
    values = np.zeros((n, turns.size, t.size))
    order = np.argsort(_chord_length(x0, -xi0), kind="stable")
    for rays in np.array_split(order, max(1, -(-n // MAX_BATCH_RAYS))):
        x, xi = x0[rays], xi0[rays]
        # the integrals are component-major like the ray states: (n_times, n_turns, n_rays) in memory
        start = (np.zeros((t.size, turns.size, rays.size)).T, source_at(0.0, x, xi))
        ex = march(model, x, -xi, step, cfg, carry=start, advance=advance)
        if ex.rays.size:
            xm, vm = rk4_step(model, ex.x, ex.v, 0.5 * ex.ds)
            col = (slice(None), None, None)
            values[rays[ex.rays]] = interval_rule(
                ex.ds[col], ex.s[col], xm, vm, ex.x_exit, ex.v_exit, *ex.carry)[0]
    return values


# ---------------------------------------------------------------------------
# public oracle operations
# ---------------------------------------------------------------------------

def interior_solution(
    model: RefractiveModel,
    f: SymmetricTensorField,
    att: Attenuation,
    t: float,
    p: PhaseSpacePoint,
    cfg: IntegratorConfig | None = None,
) -> float:
    """The characteristic solution u(t, x, xi) at a phase state of the closed ball.

    Vanishes as (x, xi) approaches an inflow boundary state; at an outflow
    boundary state it is the transform, of a time-dependent or switch-on
    field the one read at t + tau along the ray.  The state is checked as
    :func:`raytransport.geodesic.trace` checks its own: xi must be
    metric-unit, and points within 10 cfg.boundary_tol outside the sphere
    count as boundary points.
    """
    cfg = cfg or IntegratorConfig()
    check_states(model, p.x, p.xi, cfg.boundary_tol)
    return float(_march_backward(model, f, att, float(t), p.x, p.xi, cfg)[0, 0, 0])


def interior_solution_grid(
    model: RefractiveModel,
    f: SymmetricTensorField,
    att: Attenuation,
    grid: PhaseGrid,
    cfg: IntegratorConfig | None = None,
    t: float = 0.0,
    workers: int = 1,
) -> np.ndarray:
    """Characteristic solution at every node of a phase grid.

    Inflow and glancing boundary nodes get exactly 0.  In a radial medium
    a :class:`~raytransport.phasegrid.PhaseGrid` is marched one ray per
    rotation orbit (:func:`~raytransport.phasegrid.rotation_orbits`): the
    representative's march, turned into each member's frame, reads the
    source at the member's own states, one running integral per member.
    Representatives get the per-node march's bits; the other members
    differ from it by round-off, within 1e-12 of max |u|.  The grid of a
    non-radial medium is marched one ray per node.  With ``workers > 1``
    the marched rays are split into contiguous chunks evaluated in
    separate processes and reassembled in chunk order; each chunk is
    sorted and split into batches of at most MAX_BATCH_RAYS rays on its
    own, so the batches depend on the worker count and the result does not.
    Grid nodes are metric-unit states of the ball by construction, so unlike
    the other entry points this one does not check its states.
    """
    if model.radial:
        members, turns = rotation_orbits(grid)
    else:
        members, turns = np.arange(grid.size)[:, None], np.zeros(1)
    x, xi = grid.x[members[:, 0]], grid.xi[members[:, 0]]
    run = partial(_march_backward, model, f, att, t, cfg=cfg, turns=turns)
    if workers <= 1:
        vals = run(x, xi)
    else:
        bounds = np.linspace(0, x.shape[0], workers + 1).astype(int)
        jobs = [(x[a:b], xi[a:b]) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            vals = np.concatenate(list(pool.map(run, [j[0] for j in jobs], [j[1] for j in jobs])))
    u = np.empty(members.size)
    u[members] = vals[:, :, 0]
    return u


def dynamic_boundary_table(
    model: RefractiveModel,
    f: SymmetricTensorField,
    att: Attenuation,
    x: np.ndarray,
    xi: np.ndarray,
    times: Sequence[float],
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """Dynamic transform values at the given boundary states for many times.

    Returns an array of shape (len(times), n_states) from a single march,
    each time a column of its carry, or from none when there are no times.
    A time-dependent field is read at t + tau in each column, and a switch-on
    field integrates over the most recent stretch of ray of parameter length
    t, as at every entry point; a field with neither gives the same
    transform at every t.  The states are checked as
    :func:`raytransport.geodesic.trace` checks its own.
    """
    times = np.asarray(list(times), dtype=float)
    if not times.size:
        return np.zeros((0, len(x)))
    if np.any(times < 0.0):
        raise ValueError("times must be nonnegative")
    check_states(model, x, xi, (cfg or IntegratorConfig()).boundary_tol)
    return _march_backward(model, f, att, times, x, xi, cfg)[:, 0].T
