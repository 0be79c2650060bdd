import dataclasses
import math
import os
import subprocess
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

import raytransport as rt
from conftest import StencilError, bouguer_invariant, oracle_residuals, residual_combine, residual_stencil
from raytransport import geodesic, transport
from raytransport.errors import DomainError, TraceLimitError
from raytransport.geodesic import march
from raytransport.phasegrid import rotation_orbits
from raytransport.tensorfield import moment


def reference_transform(model, f, att, x, xi, step):
    """Independent scalar oracle: plain-float RK4 march with the midpoint rule.

    Shares no code with the production integrator.  Rays step in two RK4
    half-steps per interval and the source is sampled at the half-step
    state, so the sum carries the midpoint rule's step^2 error term; see
    :func:`richardson_reference`.
    """
    x1, x2 = float(x[0]), float(x[1])
    v1, v2 = -float(xi[0]), -float(xi[1])

    def acc(x1, x2, v1, v2):
        p = np.array([x1, x2])
        n = float(model.n(p))
        g1, g2 = (float(v) for v in model.grad_n(p))
        gv = g1 * v1 + g2 * v2
        vv = v1 * v1 + v2 * v2
        return (g1 * vv - 2 * v1 * gv) / n, (g2 * vv - 2 * v2 * gv) / n

    def rk(x1, x2, v1, v2, h):
        a1, b1 = acc(x1, x2, v1, v2)
        xa, ya, va, wa = x1 + h / 2 * v1, x2 + h / 2 * v2, v1 + h / 2 * a1, v2 + h / 2 * b1
        a2, b2 = acc(xa, ya, va, wa)
        xb, yb, vb, wb = x1 + h / 2 * va, x2 + h / 2 * wa, v1 + h / 2 * a2, v2 + h / 2 * b2
        a3, b3 = acc(xb, yb, vb, wb)
        xc, yc, vc, wc = x1 + h * vb, x2 + h * wb, v1 + h * a3, v2 + h * b3
        a4, b4 = acc(xc, yc, vc, wc)
        return (
            x1 + h / 6 * (v1 + 2 * va + 2 * vb + vc),
            x2 + h / 6 * (v2 + 2 * wa + 2 * wb + wc),
            v1 + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4),
            v2 + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4),
        )

    def mom(x1, x2, v1, v2):
        return float(moment(f, 0.0, np.array([x1, x2]), np.array([-v1, -v2])))

    total = 0.0
    absorbed = 0.0
    while True:
        xm, ym, vm, wm = rk(x1, x2, v1, v2, step / 2)
        xe, ye, ve, we = rk(xm, ym, vm, wm, step / 2)
        if xe * xe + ye * ye >= 1.0:
            lo, hi = 0.0, step
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                xq, yq, _, _ = rk(x1, x2, v1, v2, mid)
                if xq * xq + yq * yq >= 1.0:
                    hi = mid
                else:
                    lo = mid
            ds = hi
            xm, ym, vm, wm = rk(x1, x2, v1, v2, ds / 2)
            a_mid = absorbed + ds / 2 * att.alpha0
            total += ds * mom(xm, ym, vm, wm) * math.exp(-a_mid)
            return total
        a_mid = absorbed + step / 2 * att.alpha0
        total += step * mom(xm, ym, vm, wm) * math.exp(-a_mid)
        absorbed += step * att.alpha0
        x1, x2, v1, v2 = xe, ye, ve, we


def richardson_reference(model, f, att, x, xi, step):
    """Midpoint-rule references at step and step / 2, combined to cancel their step^2 term.

    What is left is O(step^3), from the partial interval at the ray's exit.
    """
    coarse = reference_transform(model, f, att, x, xi, step)
    fine = reference_transform(model, f, att, x, xi, 0.5 * step)
    return (4.0 * fine - coarse) / 3.0


TINY_ALPHA = rt.constant_attenuation(1e-300)


def _constant(value, t, x):
    return np.full(np.asarray(x).shape[:-1], value)


class TestClosedForms:
    def test_unit_chord_no_absorption(self, unit_model):
        f = rt.constant_vector_field([1.0, 0.0])
        p = rt.unit_phase_point(unit_model, [1.0, 0.0], [1.0, 0.0])
        assert rt.interior_solution(unit_model, f, TINY_ALPHA, 0.0, p) == pytest.approx(2.0, rel=1e-12)

    def test_attenuated_chord(self, unit_model, unit_attenuation):
        f = rt.constant_vector_field([1.0, 0.0])
        p = rt.unit_phase_point(unit_model, [1.0, 0.0], [1.0, 0.0])
        want = 1.0 - math.exp(-2.0)
        got = rt.interior_solution(unit_model, f, unit_attenuation, 0.0, p)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("rank", [0, 1, 2], ids=["rank0", "rank1", "rank2"])
    def test_random_chords_closed_form(self, unit_model, rank):
        """c (1 - e^{-aL}) / a with c = f . xi^m, for a constant rank-m field.

        The march reads the moment at its backward velocity -xi; an odd rank
        fails if the sign (-1)^m is dropped, an even one if it is applied.
        """
        rng = np.random.default_rng(31)
        for _ in range(5):
            beta = rng.uniform(0, 2 * np.pi)
            psi = beta + rng.uniform(-1.2, 1.2)
            a = rng.uniform(0.5, 2.0)
            x = np.array([np.cos(beta), np.sin(beta)])
            xi = np.array([np.cos(psi), np.sin(psi)])
            L = 2.0 * float(np.dot(x, xi))
            fvals = rng.uniform(-1, 1, size=rank + 1)
            if rank == 0:
                f, c = rt.constant_scalar_field(fvals[0]), fvals[0]
            elif rank == 1:
                f, c = rt.constant_vector_field(fvals), float(np.dot(fvals, xi))
            else:
                comps = {idx: partial(_constant, v) for idx, v in zip([(0, 0), (0, 1), (1, 1)], fvals)}
                f = rt.SymmetricTensorField(dim=2, rank=2, components=comps)
                c = fvals[0] * xi[0] ** 2 + 2.0 * fvals[1] * xi[0] * xi[1] + fvals[2] * xi[1] ** 2
            att = rt.constant_attenuation(a)
            p = rt.PhaseSpacePoint(x, xi)
            got = rt.interior_solution(unit_model, f, att, 0.0, p)
            assert got == pytest.approx(c * (1.0 - math.exp(-a * L)) / a, rel=1e-8)


class TestAgainstReferenceOracle:
    def test_demo_configuration(self, demo_model, demo_field, unit_attenuation):
        p = rt.unit_phase_point(demo_model, [np.cos(0.3), np.sin(0.3)], [np.cos(-0.4), np.sin(-0.4)])
        got = rt.interior_solution(demo_model, demo_field, unit_attenuation, 0.0, p, rt.IntegratorConfig(step=1e-3))
        ref = richardson_reference(demo_model, demo_field, unit_attenuation, p.x, p.xi, 4e-3)
        assert got == pytest.approx(ref, rel=1e-6)


class TestDynamicTransform:
    def test_equals_static_for_time_independent(self, demo_model, demo_field, unit_attenuation):
        p = rt.unit_phase_point(demo_model, [np.cos(0.9), np.sin(0.9)], [np.cos(0.5), np.sin(0.5)])
        static = rt.interior_solution(demo_model, demo_field, unit_attenuation, 0.0, p)
        for t in (0.0, 1.3, 42.0):
            dyn = rt.interior_solution(demo_model, demo_field, unit_attenuation, t, p)
            assert abs(dyn - static) <= 1e-12

    def test_switch_on_beyond_travel_time(self, unit_model, demo_field, unit_attenuation):
        f = rt.with_switch_on(demo_field)
        p = rt.unit_phase_point(unit_model, [1.0, 0.0], [1.0, 0.0])
        static = rt.interior_solution(unit_model, demo_field, unit_attenuation, 0.0, p)
        dyn = rt.interior_solution(unit_model, f, unit_attenuation, 2.5, p)
        assert dyn == pytest.approx(static, rel=1e-10)

    def test_switch_on_at_zero(self, unit_model, demo_field, unit_attenuation):
        f = rt.with_switch_on(demo_field)
        cfg = rt.IntegratorConfig(step=1e-3)
        p = rt.unit_phase_point(unit_model, [1.0, 0.0], [1.0, 0.0])
        val = rt.interior_solution(unit_model, f, unit_attenuation, 0.0, p, cfg)
        assert abs(val) <= 2.0 * cfg.step


class TestInteriorSolution:
    def test_center_chord_value(self, unit_model):
        f = rt.constant_vector_field([1.0, 0.0])
        p = rt.unit_phase_point(unit_model, [0.0, 0.0], [1.0, 0.0])
        assert rt.interior_solution(unit_model, f, TINY_ALPHA, 0.0, p) == pytest.approx(1.0, abs=1e-10)

    def test_vanishes_on_inflow(self, demo_model, demo_field, unit_attenuation):
        p = rt.unit_phase_point(demo_model, [0.0, 1.0], [0.2, 0.9])  # outflow state
        pin = rt.PhaseSpacePoint(p.x * (1 - 1e-13), -p.xi)  # flipped: inflow
        assert rt.interior_solution(demo_model, demo_field, unit_attenuation, 0.0, pin) == 0.0

    def test_glancing_convention(self, demo_model, demo_field, unit_attenuation):
        p = rt.unit_phase_point(demo_model, [1.0, 0.0], [0.0, 1.0])
        assert rt.interior_solution(demo_model, demo_field, unit_attenuation, 0.0, p) == 0.0

    def test_boundary_limits_along_ray(self, demo_model, demo_field, unit_attenuation):
        """The interior solution tends to the transform at the outflow end and
        to 0 at the inflow end; the one-sided limits are checked by Richardson
        extrapolation in the offset (the raw offset difference is first order
        in the distance, by the transport equation itself)."""
        from raytransport.geodesic import rk4_step

        p = rt.unit_phase_point(demo_model, [np.cos(0.3), np.sin(0.3)], [np.cos(-0.2), np.sin(-0.2)])
        transform = rt.interior_solution(demo_model, demo_field, unit_attenuation, 0.0, p)

        def u_at_offset(s):
            xb, vb = rk4_step(demo_model, p.x[None, :], -p.xi[None, :], s)
            pin = rt.PhaseSpacePoint(xb[0], -vb[0])
            return rt.interior_solution(demo_model, demo_field, unit_attenuation, 0.0, pin)

        u1, u2 = u_at_offset(1e-4), u_at_offset(2e-4)
        assert abs(u1 - transform) < 1e-3
        assert abs((2 * u1 - u2) - transform) < 1e-6

        path = rt.trace(demo_model, p)
        entry_x, entry_v = path.xs[0], path.vs[0]

        def u_from_entry(s):
            xf, vf = rk4_step(demo_model, entry_x[None, :], entry_v[None, :], s)
            return rt.interior_solution(demo_model, demo_field, unit_attenuation, 0.0,
                                        rt.PhaseSpacePoint(xf[0], vf[0]))

        w1, w2 = u_from_entry(1e-4), u_from_entry(2e-4)
        assert abs(w1) < 1e-3
        assert abs(2 * w1 - w2) < 1e-6

    def test_attenuation_monotonicity(self, unit_model):
        f = rt.constant_vector_field([1.0, 0.0])
        p = rt.unit_phase_point(unit_model, [1.0, 0.0], [1.0, 0.0])
        v1 = rt.interior_solution(unit_model, f, rt.constant_attenuation(1.0), 0.0, p)
        v2 = rt.interior_solution(unit_model, f, rt.constant_attenuation(2.0), 0.0, p)
        assert v2 < v1

    def test_linearity_in_field(self, demo_model, unit_attenuation, demo_field):
        g = rt.constant_vector_field([0.4, -0.7])
        combined = rt.SymmetricTensorField(
            dim=2, rank=1,
            components={
                (0,): lambda t, x: demo_field.components[(0,)](t, x) + 0.4,
                (1,): lambda t, x: demo_field.components[(1,)](t, x) - 0.7,
            },
        )
        p = rt.unit_phase_point(demo_model, [np.cos(1.0), np.sin(1.0)], [np.cos(0.6), np.sin(0.6)])
        vs = [rt.interior_solution(demo_model, h, unit_attenuation, 0.0, p) for h in (demo_field, g, combined)]
        assert vs[2] == pytest.approx(vs[0] + vs[1], abs=1e-12)

    def test_march_step_budget(self, demo_model, demo_field, unit_attenuation):
        p = rt.angle_phase_point(demo_model, [0.0, 0.0], 0.0)
        with pytest.raises(TraceLimitError):
            rt.interior_solution(demo_model, demo_field, unit_attenuation, 0.0, p,
                                 cfg=rt.IntegratorConfig(step=1e-3, max_steps=10))

    def test_rejects_states_beyond_the_boundary_tolerance(self, demo_model, demo_field, unit_attenuation):
        cfg = rt.IntegratorConfig()
        x = np.array([np.cos(0.3), np.sin(0.3)]) * (1.0 + 20.0 * cfg.boundary_tol)
        p = rt.PhaseSpacePoint(x, np.array([np.cos(-0.2), np.sin(-0.2)]) / float(demo_model.n(x)))
        with pytest.raises(DomainError):
            rt.interior_solution(demo_model, demo_field, unit_attenuation, 0.0, p, cfg)

    def test_every_entry_point_rejects_a_nan_time(self, demo_model, demo_field, unit_attenuation):
        """A switch-on field at t = nan is an error, not a nan value."""
        f = rt.with_switch_on(demo_field)
        cfg = rt.IntegratorConfig(step=1e-2)
        grid = rt.build_grid(demo_model, 4, 4, 3)
        idx = rt.classify_boundary(grid, demo_model).outflow_idx
        p = rt.angle_phase_point(demo_model, [0.2, 0.1], 0.5)
        calls = [
            lambda: rt.interior_solution(demo_model, f, unit_attenuation, np.nan, p, cfg),
            lambda: rt.interior_solution_grid(demo_model, f, unit_attenuation, grid, cfg, t=np.nan),
            lambda: rt.dynamic_boundary_table(demo_model, f, unit_attenuation, grid.x[idx], grid.xi[idx],
                                              [np.nan, 0.5], cfg),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


def _refusing_march(*args, **kwargs):
    raise AssertionError("a refused state must not reach the march")


class TestStateChecks:
    """trace, interior_solution and dynamic_boundary_table refuse the same start states."""

    X = np.array([0.1, 0.0])

    @staticmethod
    def entry_points(model, f, att, x, xi):
        return [
            lambda: rt.trace(model, rt.PhaseSpacePoint(x, xi)),
            lambda: rt.interior_solution(model, f, att, 0.0, rt.PhaseSpacePoint(x, xi)),
            lambda: rt.dynamic_boundary_table(model, f, att, x[None], xi[None], [0.0]),
        ]

    @pytest.fixture(autouse=True)
    def no_march(self, monkeypatch):
        monkeypatch.setattr(geodesic, "march", _refusing_march)
        monkeypatch.setattr(transport, "march", _refusing_march)

    def test_zero_xi_raises_at_once_without_a_warning(self, demo_model, demo_field, unit_attenuation):
        for call in self.entry_points(demo_model, demo_field, unit_attenuation, self.X, np.zeros(2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-zero"):
                    call()

    def test_non_unit_xi_raises(self, demo_model, demo_field, unit_attenuation):
        """(3, 0) at (0.1, 0) is three times too fast for metric unit speed 1/n."""
        for call in self.entry_points(demo_model, demo_field, unit_attenuation, self.X, np.array([3.0, 0.0])):
            with pytest.raises(ValueError, match="metric-unit"):
                call()

    def test_point_outside_the_ball_raises(self, demo_model, demo_field, unit_attenuation):
        x = np.array([1.1, 0.0])
        xi = np.array([1.0, 0.0]) / float(demo_model.n(x))
        for call in self.entry_points(demo_model, demo_field, unit_attenuation, x, xi):
            with pytest.raises(DomainError, match="outside the ball"):
                call()

    def test_one_bad_state_of_a_table_raises(self, demo_model, demo_field, unit_attenuation):
        grid = rt.build_grid(demo_model, 6, 6, 4)
        idx = rt.classify_boundary(grid, demo_model).outflow_idx
        xi = grid.xi[idx].copy()
        xi[-1] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="metric-unit"):
            rt.dynamic_boundary_table(demo_model, demo_field, unit_attenuation, grid.x[idx], xi, [0.0, 0.5])


class TestGridOracle:
    def test_matches_single_point_op(self, demo_model, demo_field, unit_attenuation):
        """Grid values are the single-state reader's: bit for bit at orbit
        representatives and in a non-radial medium, and within 1e-12 of max |u|
        at the turned members of a radial one ((2, 3, 1) is one on (6, 6, 4))."""
        for model in (demo_model, rt.parse_model("affine:2,0.3,0.2")):
            grid = rt.build_grid(model, 6, 6, 4)
            vals = rt.interior_solution_grid(model, demo_field, unit_attenuation, grid)
            reps = rotation_orbits(grid)[0][:, 0]
            for i in (grid.index(2, 3, 1), grid.index(4, 0, 2)):
                single = rt.interior_solution(
                    model, demo_field, unit_attenuation, 0.0,
                    rt.PhaseSpacePoint(grid.x[i], grid.xi[i]))
                if model.radial and i not in reps:
                    assert abs(vals[i] - single) <= 1e-12 * np.max(np.abs(vals))
                else:
                    assert vals[i] == single

    def test_inflow_nodes_zero(self, demo_model, demo_field, unit_attenuation):
        grid = rt.build_grid(demo_model, 6, 6, 4)
        mask = rt.classify_boundary(grid, demo_model)
        vals = rt.interior_solution_grid(demo_model, demo_field, unit_attenuation, grid)
        assert_allclose(vals[mask.inflow_idx], 0.0)
        assert_allclose(vals[mask.glancing_idx], 0.0)

    def test_workers_deterministic(self, demo_model, demo_field, unit_attenuation):
        grid = rt.build_grid(demo_model, 5, 6, 4)
        a = rt.interior_solution_grid(demo_model, demo_field, unit_attenuation, grid, workers=1)
        b = rt.interior_solution_grid(demo_model, demo_field, unit_attenuation, grid, workers=2)
        assert np.array_equal(a, b)

    def test_marches_at_the_config_step(self, demo_model, demo_field, unit_attenuation, monkeypatch):
        steps = []

        def recording_march(model, x0, v0, step, *args, **kwargs):
            steps.append(step)
            return march(model, x0, v0, step, *args, **kwargs)

        monkeypatch.setattr(transport, "march", recording_march)
        grid = rt.build_grid(demo_model, 4, 4, 3)
        rt.interior_solution_grid(demo_model, demo_field, unit_attenuation, grid,
                                  cfg=rt.IntegratorConfig(step=2e-2))
        assert steps == [2e-2]

    def test_fourth_order_in_the_quadrature_step(self, demo_model, demo_field, unit_attenuation):
        """RK4 rays with Simpson quadrature: the observed order between steps h, h/2, h/4 is 4.

        Checked on 20 fixed nodes of the demo grid; at these steps the
        differences (~5e-11 and ~3e-12 of max |u| ~ 0.48) sit far above round-off.
        """
        grid = rt.build_grid(demo_model, 30, 30, 10)
        nodes = np.sort(np.random.default_rng(0).choice(grid.size, 20, replace=False))
        u = [rt.dynamic_boundary_table(demo_model, demo_field, unit_attenuation, grid.x[nodes], grid.xi[nodes],
                                       [0.0], rt.IntegratorConfig(step=h))[0] for h in (1.6e-2, 8e-3, 4e-3)]
        coarse, fine = np.max(np.abs(u[0] - u[1])), np.max(np.abs(u[1] - u[2]))
        assert 3.5 <= np.log2(coarse / fine) <= 4.5

    def test_committed_step_agrees_with_a_four_times_finer_one(self, demo_model, demo_field, unit_attenuation):
        """At the demo's step 1e-3 the oracle is within 1e-12 of max |u| of itself at 2.5e-4.

        Checked on 30 fixed nodes of the demo grid (the difference reads ~3e-14).
        """
        grid = rt.build_grid(demo_model, 30, 30, 10)
        nodes = np.sort(np.random.default_rng(1).choice(grid.size, 30, replace=False))
        committed, fine = (rt.dynamic_boundary_table(demo_model, demo_field, unit_attenuation, grid.x[nodes],
                                                     grid.xi[nodes], [0.0], rt.IntegratorConfig(step=h))[0]
                           for h in (1e-3, 2.5e-4))
        assert np.max(np.abs(committed - fine)) <= 1e-12 * np.max(np.abs(fine))


def _rank2_diagonal(t, x):
    return 1.0 + x[..., 0] * x[..., 1]


def _rank2_mixed(t, x):
    return x[..., 0] - 0.5 * x[..., 1]


def _marched_rays(monkeypatch):
    """Record the number of rays of each march."""
    rays = []

    def recording_march(model, x0, *args, **kwargs):
        rays.append(len(x0))
        return march(model, x0, *args, **kwargs)

    monkeypatch.setattr(transport, "march", recording_march)
    return rays


class TestOrbitOracle:
    """The grid oracle of a radial medium marches one ray per rotation orbit."""

    @pytest.mark.parametrize("shape", [(30, 30, 10), (40, 40, 20), (6, 6, 4), (7, 9, 4)])
    def test_member_table_is_a_permutation(self, demo_model, shape):
        grid = rt.build_grid(demo_model, *shape)
        members, turns = rotation_orbits(grid)
        g = math.gcd(shape[1], shape[2])
        assert members.shape == (grid.size // g, g)
        assert np.array_equal(np.sort(members.ravel()), np.arange(grid.size))
        assert np.array_equal(turns, 2.0 * np.pi * np.arange(g) / g)
        # column q is the representative turned by turns[q]: both angles advance by it
        for angle in (grid.phi, grid.theta):
            shift = np.angle(np.exp(1j * (angle[members] - angle[members[:, :1]] - turns)))
            assert np.max(np.abs(shift)) < 1e-12

    def test_coprime_sizes_march_every_node(self, demo_model, demo_field, unit_attenuation, monkeypatch):
        """With gcd(J, K) = 1 every orbit is one node: the per-node march, bit for bit."""
        cfg = rt.IntegratorConfig(step=1e-2)
        grid = rt.build_grid(demo_model, 7, 9, 4)
        rays = _marched_rays(monkeypatch)
        u = rt.interior_solution_grid(demo_model, demo_field, unit_attenuation, grid, cfg)
        assert rays == [grid.size]
        assert np.array_equal(u, rt.dynamic_boundary_table(demo_model, demo_field, unit_attenuation,
                                                           grid.x, grid.xi, [0.0], cfg)[0])

    @pytest.mark.parametrize("kind", ["rank 0", "rank 1", "rank 2", "switch-on", "time-dependent"])
    def test_members_within_round_off_of_the_per_node_march(self, demo_model, demo_field,
                                                            unit_attenuation, kind, monkeypatch):
        """Representatives are the per-node march bit for bit; every node is within
        1e-12 of max |u| of it, for fields of every rank, read at their own t."""
        f, t = {
            "rank 0": (rt.constant_scalar_field(0.7), 0.0),
            "rank 1": (demo_field, 0.0),
            "rank 2": (rt.SymmetricTensorField(
                dim=2, rank=2, components={(0, 0): _rank2_diagonal, (0, 1): _rank2_mixed}), 0.0),
            "switch-on": (rt.with_switch_on(demo_field), 0.3),
            "time-dependent": (dataclasses.replace(
                demo_field, components={i: partial(_ramped, c) for i, c in demo_field.components.items()},
                time_dependent=True), 0.4),
        }[kind]
        cfg = rt.IntegratorConfig(step=1e-2)
        grid = rt.build_grid(demo_model, 8, 10, 10)
        reps = rotation_orbits(grid)[0][:, 0]
        rays = _marched_rays(monkeypatch)
        u = rt.interior_solution_grid(demo_model, f, unit_attenuation, grid, cfg, t=t)
        ref = rt.dynamic_boundary_table(demo_model, f, unit_attenuation, grid.x, grid.xi, [t], cfg)[0]
        assert rays == [grid.size // 10, grid.size]
        assert np.array_equal(u[reps], ref[reps])
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_blas_threads_do_not_move_bits(self):
        """The turn is four small matrix products of M N K = 2 (g - 1) n, whose bits do
        not depend on the BLAS threads: (40, 40, 20) turns each ray into 20 frames,
        with the same bytes under one BLAS thread and two."""
        src = os.path.dirname(os.path.dirname(rt.__file__))
        code = ("import sys, raytransport as rt; m = rt.paper4_model(); "
                "u = rt.interior_solution_grid(m, rt.paper4_field(), rt.constant_attenuation(1.0), "
                "rt.build_grid(m, 40, 40, 20), rt.IntegratorConfig(step=1e-2)); "
                "sys.stdout.buffer.write(u.tobytes())")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr.decode()
            runs.append(proc.stdout)
        assert len(runs[0]) == 32000 * 8 and runs[0] == runs[1]

    def test_worker_counts_agree_bitwise(self, demo_model, demo_field, unit_attenuation):
        cfg = rt.IntegratorConfig(step=1e-2)
        grid = rt.build_grid(demo_model, 8, 10, 10)
        runs = [rt.interior_solution_grid(demo_model, demo_field, unit_attenuation, grid, cfg, workers=w)
                for w in (1, 2, 3)]
        assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])

    def test_non_radial_medium_marches_every_node(self, demo_field, unit_attenuation, monkeypatch):
        model = rt.parse_model("affine:2,0.3,0.2")
        cfg = rt.IntegratorConfig(step=1e-2)
        grid = rt.build_grid(model, 8, 10, 10)
        rays = _marched_rays(monkeypatch)
        u = rt.interior_solution_grid(model, demo_field, unit_attenuation, grid, cfg)
        assert rays == [grid.size]
        assert np.array_equal(u, rt.dynamic_boundary_table(model, demo_field, unit_attenuation,
                                                           grid.x, grid.xi, [0.0], cfg)[0])


class TestBatchedMarch:
    """The backward march splits its rays into length-sorted batches of at most
    MAX_BATCH_RAYS; every ray's arithmetic is its own, so no value moves."""

    LIMIT = 7

    @pytest.mark.parametrize(("medium", "shape", "limit"), [
        pytest.param("affine", (6, 6, 4), LIMIT, id="affine"),
        pytest.param("paper4", (6, 6, 4), LIMIT, id="paper4"),
        pytest.param("paper4", (6, 6, 4), 1, id="paper4-6x6x4-limit1"),
        pytest.param("paper4", (6, 6, 4), 2, id="paper4-6x6x4-limit2"),
        pytest.param("paper4", (6, 8, 8), 1, id="paper4-6x8x8-limit1"),
        pytest.param("paper4", (8, 10, 10), 1, id="paper4-8x10x10-limit1"),
        pytest.param("paper4", (4, 20, 20), 1, id="paper4-4x20x20-limit1"),
        pytest.param("paper4", (4, 20, 20), 3, id="paper4-4x20x20-limit3"),
    ])
    @pytest.mark.parametrize("switched", [False, True], ids=["static", "switch-on"])
    def test_grid_bits_do_not_depend_on_the_batch_limit(self, demo_field, unit_attenuation, monkeypatch,
                                                        medium, shape, limit, switched):
        """paper4 turns each ray into g = gcd(J, K) = 2, 8, 10 or 20 frames; at limit 1 a
        march is one ray, the width at which a plain matrix-vector product would
        take other bits than a wide batch (at g = 20, 19 turn rows at one column)."""
        model = rt.parse_model("affine:2,0.3,0.2" if medium == "affine" else "paper4")
        f, t = (rt.with_switch_on(demo_field), 0.3) if switched else (demo_field, 0.0)
        cfg = rt.IntegratorConfig(step=1e-2)
        grid = rt.build_grid(model, *shape)
        whole = rt.interior_solution_grid(model, f, unit_attenuation, grid, cfg, t=t)
        monkeypatch.setattr(transport, "MAX_BATCH_RAYS", limit)
        rays = _marched_rays(monkeypatch)
        batched = rt.interior_solution_grid(model, f, unit_attenuation, grid, cfg, t=t)
        assert len(rays) > 1
        assert np.array_equal(batched, whole)

    def test_table_bits_do_not_depend_on_the_batch_limit(self, demo_model, demo_field, unit_attenuation,
                                                         monkeypatch):
        f = rt.with_switch_on(demo_field)
        cfg = rt.IntegratorConfig(step=1e-2)
        grid = rt.build_grid(demo_model, 10, 10, 8)
        idx = rt.classify_boundary(grid, demo_model).outflow_idx
        times = [0.0, 0.3, 0.304, 0.55, 2.0]
        whole = rt.dynamic_boundary_table(demo_model, f, unit_attenuation, grid.x[idx], grid.xi[idx], times, cfg)
        monkeypatch.setattr(transport, "MAX_BATCH_RAYS", self.LIMIT)
        batched = rt.dynamic_boundary_table(demo_model, f, unit_attenuation, grid.x[idx], grid.xi[idx], times,
                                            cfg)
        assert np.array_equal(batched, whole)

    def test_worker_counts_agree_bitwise(self, demo_field, unit_attenuation, monkeypatch):
        model = rt.parse_model("affine:2,0.3,0.2")
        cfg = rt.IntegratorConfig(step=1e-2)
        grid = rt.build_grid(model, 6, 6, 4)
        monkeypatch.setattr(transport, "MAX_BATCH_RAYS", self.LIMIT)
        runs = [rt.interior_solution_grid(model, demo_field, unit_attenuation, grid, cfg, workers=w)
                for w in (1, 2, 3)]
        assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])

    def test_one_march_per_batch(self, demo_field, unit_attenuation, monkeypatch):
        """n rays are ceil(n / limit) marches, each of at most limit rays, that march
        every ray once in order of their chord length to the sphere."""
        model = rt.parse_model("affine:2,0.3,0.2")
        grid = rt.build_grid(model, 6, 6, 4)
        monkeypatch.setattr(transport, "MAX_BATCH_RAYS", self.LIMIT)
        starts = []

        def recording_march(model, x0, v0, *args, **kwargs):
            starts.append((x0, v0))
            return march(model, x0, v0, *args, **kwargs)

        monkeypatch.setattr(transport, "march", recording_march)
        rt.interior_solution_grid(model, demo_field, unit_attenuation, grid, rt.IntegratorConfig(step=1e-2))
        assert len(starts) == math.ceil(grid.size / self.LIMIT)
        assert max(len(x0) for x0, _ in starts) <= self.LIMIT
        x0 = np.concatenate([x0 for x0, _ in starts])
        v0 = np.concatenate([v0 for _, v0 in starts])

        def sorted_rows(a):
            return a[np.lexsort(a.T[::-1])]

        assert np.array_equal(sorted_rows(np.hstack([x0, -v0])), sorted_rows(np.hstack([grid.x, grid.xi])))
        assert np.all(np.diff(transport._chord_length(x0, v0)) >= 0.0)


class TestTrappedRays:
    """In n = 1 - 0.45 |x|^2, n r peaks at 0.574 near r = 0.861, above n(1) = 0.55: a
    ray whose Bouguer invariant n^2 |x ^ xi| exceeds n(1) never reaches the sphere."""

    MEDIUM, SHAPE, STEP = "radial:1,-0.45", (12, 12, 8), 1e-2

    def test_refused_before_the_first_interval(self, demo_field, unit_attenuation, monkeypatch):
        model = rt.parse_model(self.MEDIUM)
        grid = rt.build_grid(model, *self.SHAPE)
        reps = rotation_orbits(grid)[0][:, 0]
        bouguer = np.abs([bouguer_invariant(model, x, xi) for x, xi in zip(grid.x[reps], grid.xi[reps])])
        trapped = bouguer[bouguer > float(model.n(np.array([1.0, 0.0])))]
        steps = []
        monkeypatch.setattr(geodesic, "rk4_step", lambda *args: steps.append(args))
        with pytest.raises(TraceLimitError) as err:
            rt.interior_solution_grid(model, demo_field, unit_attenuation, grid, rt.IntegratorConfig(step=self.STEP))
        assert trapped.size == 14 and steps == []
        assert str(err.value).startswith("14 rays are trapped")
        assert f"up to {trapped.max():.6g}, exceeds n(1) = 0.55" in str(err.value)

    def test_states_on_the_sphere_are_marched(self, demo_field, unit_attenuation):
        """Every state of the boundary ring, glancing ones included, exits.  A state on
        the sphere tilted off its tangent by 1e-12 has the invariant n(1) to the last
        bit and is not refused: it marches, and its near-grazing orbit hits the cap."""
        model = rt.parse_model(self.MEDIUM)
        cfg = rt.IntegratorConfig(step=self.STEP)
        grid = rt.build_grid(model, *self.SHAPE)
        ring = rt.classify_boundary(grid, model).boundary_idx
        table = rt.dynamic_boundary_table(model, demo_field, unit_attenuation, grid.x[ring], grid.xi[ring],
                                          [0.0], cfg)
        assert np.all(np.isfinite(table))
        p = rt.angle_phase_point(model, [0.0, 1.0], 1e-12)
        with pytest.raises(TraceLimitError, match="did not exit within 50 intervals"):
            rt.interior_solution(model, demo_field, unit_attenuation, 0.0, p,
                                 rt.IntegratorConfig(step=self.STEP, max_steps=50))


def _time_component(t, x):
    return np.asarray(t, dtype=float) + np.zeros(np.asarray(x).shape[:-1])


def _ramped(component, t, x):
    """A field component scaled by 1 + t, so the field depends on time."""
    return (1.0 + np.asarray(t, dtype=float)) * component(t, x)


class TestDynamicBoundaryTable:
    def test_switch_on_table_matches_direct(self, unit_model, demo_field, unit_attenuation):
        """The switch-on table, each interval's increment weighted by the share
        of it that lies within parameter length t, equals the per-time marches
        bit for bit: every entry point applies the same weights.  0.3004 is not
        a multiple of the step."""
        f = rt.with_switch_on(demo_field)
        cfg = rt.IntegratorConfig(step=1e-3)
        angles = np.array([0.0, 1.0, 2.5])
        x = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        xi = np.stack([np.cos(angles - 0.4), np.sin(angles - 0.4)], axis=-1)
        times = [0.3, 0.3004, 0.9, 2.2]
        table = rt.dynamic_boundary_table(unit_model, f, unit_attenuation, x, xi, times, cfg)
        for r, t in enumerate(times):
            for c in range(x.shape[0]):
                p = rt.PhaseSpacePoint(x[c], xi[c] / float(unit_model.n(x[c])))
                assert table[r, c] == rt.interior_solution(unit_model, f, unit_attenuation, t, p, cfg)

    def test_switch_on_grid_matches_table(self, demo_model, demo_field, unit_attenuation):
        """The grid oracle of a switched field at t = 0.3 is the table on the outflow ring:
        bit for bit at orbit representatives and in a non-radial medium, and within
        1e-12 of max |u| at the turned members of a radial one."""
        f = rt.with_switch_on(demo_field)
        cfg = rt.IntegratorConfig(step=1e-2)
        for model in (demo_model, rt.parse_model("affine:2,0.3,0.2")):
            grid = rt.build_grid(model, 10, 10, 8)
            idx = rt.classify_boundary(grid, model).outflow_idx
            vals = rt.interior_solution_grid(model, f, unit_attenuation, grid, cfg, t=0.3)
            table = rt.dynamic_boundary_table(model, f, unit_attenuation, grid.x[idx], grid.xi[idx],
                                              [0.3], cfg)
            exact = np.isin(idx, rotation_orbits(grid)[0][:, 0]) if model.radial else np.ones(idx.size, bool)
            assert np.array_equal(vals[idx][exact], table[0][exact])
            assert np.max(np.abs(vals[idx] - table[0])) <= 1e-12 * np.max(np.abs(vals))

    def test_switch_on_closed_form(self, unit_model):
        """A switched-on constant source in the unit medium: the value at time t
        is (1 - exp(-a min(t, L))) / a, L = 2 cos(tilt) the chord length, to
        the weights' second-order error, at every entry point."""
        a = 0.7
        att = rt.constant_attenuation(a)
        f = rt.with_switch_on(rt.constant_scalar_field(1.0))
        angles = np.array([0.0, 1.0, 2.5])
        tilts = np.array([0.0, 0.4, -1.1])
        x = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        xi = np.stack([np.cos(angles + tilts), np.sin(angles + tilts)], axis=-1)
        length = 2.0 * np.cos(tilts)
        times = [0.0, 0.3, 0.3004, 0.955, 1.7, 2.5]
        cfg = rt.IntegratorConfig(step=1e-2)
        table = rt.dynamic_boundary_table(unit_model, f, att, x, xi, times, cfg)
        for r, t in enumerate(times):
            closed = (1.0 - np.exp(-a * np.minimum(t, length))) / a
            assert np.max(np.abs(table[r] - closed)) <= 1e-4
            for c in range(x.shape[0]):
                p = rt.PhaseSpacePoint(x[c], xi[c])
                assert abs(rt.interior_solution(unit_model, f, att, t, p, cfg) - closed[c]) <= 1e-4

    def test_switch_on_time_dependent_rows_are_direct(self, unit_model, demo_field, unit_attenuation):
        """A field that is both time-dependent and switched on: every row is the
        per-time transform bit for bit, also at a time off the step grid."""
        f = rt.with_switch_on(dataclasses.replace(
            demo_field, components={i: partial(_ramped, c) for i, c in demo_field.components.items()},
            time_dependent=True))
        cfg = rt.IntegratorConfig(step=1e-3)
        angles = np.array([0.0, 1.0, 2.5])
        x = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        xi = np.stack([np.cos(angles - 0.4), np.sin(angles - 0.4)], axis=-1)
        times = [0.0, 0.3, 0.3004, 2.2]
        table = rt.dynamic_boundary_table(unit_model, f, unit_attenuation, x, xi, times, cfg)
        for r, t in enumerate(times):
            for c in range(x.shape[0]):
                p = rt.PhaseSpacePoint(x[c], xi[c])
                assert table[r, c] == rt.interior_solution(unit_model, f, unit_attenuation, t, p, cfg)

    @pytest.mark.parametrize("kind", ["static", "switch_on", "time_dependent"])
    def test_one_march_per_table(self, unit_model, demo_field, unit_attenuation, monkeypatch, kind):
        f = {
            "static": demo_field,
            "switch_on": rt.with_switch_on(demo_field),
            "time_dependent": rt.SymmetricTensorField(
                dim=2, rank=0, components={(): _time_component}, time_dependent=True),
        }[kind]
        calls = []

        def counting_march(*args, **kwargs):
            calls.append(1)
            return march(*args, **kwargs)

        monkeypatch.setattr(transport, "march", counting_march)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        xi = np.array([[np.cos(0.5), np.sin(0.5)], [np.cos(1.2), np.sin(1.2)]])
        table = rt.dynamic_boundary_table(unit_model, f, unit_attenuation, x, xi, [0.0, 0.5, 1.0],
                                          rt.IntegratorConfig(step=1e-2))
        assert table.shape == (3, 2)
        assert len(calls) == 1

    def test_switch_on_table_saturates_to_static(self, unit_model, demo_field, unit_attenuation):
        """Once t reaches the ray length L = 2 cos(tilt) the whole ray counts: a
        row at t in [L, L + step) or past it is the static transform, the exit
        stub weighted by the share of its own length."""
        f = rt.with_switch_on(demo_field)
        cfg = rt.IntegratorConfig(step=1e-2)
        angles = np.array([0.0, 1.0, 2.5])
        tilts = np.array([0.0, 0.4, -1.1])
        x = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        xi = np.stack([np.cos(angles + tilts), np.sin(angles + tilts)], axis=-1)
        for c, length in enumerate(2.0 * np.cos(tilts)):
            times = [length + 0.25 * cfg.step, length + 0.75 * cfg.step, 2.5]
            table = rt.dynamic_boundary_table(unit_model, f, unit_attenuation, x[c:c + 1], xi[c:c + 1],
                                              times, cfg)
            p = rt.PhaseSpacePoint(x[c], xi[c])
            static = rt.interior_solution(unit_model, demo_field, unit_attenuation, 0.0, p, cfg)
            assert table[0, 0] == table[1, 0] == table[2, 0] == static

    def test_static_field_rows_constant(self, unit_model, demo_field, unit_attenuation):
        x = np.array([[1.0, 0.0]])
        xi = np.array([[np.cos(0.5), np.sin(0.5)]])
        table = rt.dynamic_boundary_table(unit_model, demo_field, unit_attenuation, x, xi, [0.0, 1.0, 7.0])
        assert table[0, 0] == table[1, 0] == table[2, 0]

    def test_time_dependent_field(self, unit_model):
        """f(t, x) = t: every time level matches the closed form and the per-time march.

        In the unit medium the backward ray from a boundary state at angle
        tilt to the normal is a chord of length L = 2 cos(tilt), so the row at
        time t is int_{-L}^0 (t + tau) e^{a tau} dtau.
        """
        a = 0.7
        att = rt.constant_attenuation(a)
        f = rt.SymmetricTensorField(dim=2, rank=0, components={(): _time_component}, time_dependent=True)
        angles = np.array([0.0, 1.0, 2.5])
        tilts = np.array([0.0, 0.4, -1.1])
        x = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        xi = np.stack([np.cos(angles + tilts), np.sin(angles + tilts)], axis=-1)
        times = [0.0, 0.5, 1.25]
        cfg = rt.IntegratorConfig(step=1e-3)
        table = rt.dynamic_boundary_table(unit_model, f, att, x, xi, times, cfg)
        length = 2.0 * np.cos(tilts)
        decay = np.exp(-a * length)
        for r, t in enumerate(times):
            closed = t * (1.0 - decay) / a - 1.0 / a**2 + decay * (length / a + 1.0 / a**2)
            assert_allclose(table[r], closed, rtol=1e-9)
            for c in range(x.shape[0]):
                p = rt.PhaseSpacePoint(x[c], xi[c])
                assert table[r, c] == rt.interior_solution(unit_model, f, att, t, p, cfg)

    def test_all_inflow_states(self, unit_model, demo_field, unit_attenuation):
        f = rt.with_switch_on(demo_field)
        x = np.array([[1.0, 0.0]])
        xi = np.array([[-1.0, 0.0]])  # inflow: empty integral at every time
        table = rt.dynamic_boundary_table(unit_model, f, unit_attenuation, x, xi, [0.0, 0.7])
        assert_allclose(table, 0.0)

    @pytest.mark.parametrize("kind", ["static", "switch_on", "time_dependent"])
    def test_no_times_gives_empty_table(self, unit_model, demo_field, unit_attenuation, kind,
                                        monkeypatch):
        marches = []
        monkeypatch.setattr(transport, "march", lambda *a, **k: marches.append(1) or march(*a, **k))
        f = {
            "static": demo_field,
            "switch_on": rt.with_switch_on(demo_field),
            "time_dependent": rt.SymmetricTensorField(
                dim=2, rank=0, components={(): _time_component}, time_dependent=True),
        }[kind]
        angles = np.array([0.0, 1.0, 2.5])
        x = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        xi = np.stack([np.cos(angles - 0.4), np.sin(angles - 0.4)], axis=-1)
        cfg = rt.IntegratorConfig(step=1e-2)
        table = rt.dynamic_boundary_table(unit_model, f, unit_attenuation, x, xi, [], cfg)
        assert table.shape == (0, 3)
        assert table.dtype == float
        assert not marches


class TestThreeDimensional:
    def test_chord_transform_closed_form(self):
        model = rt.constant_model(1.0, dim=3)
        att = rt.constant_attenuation(1.0)
        f = rt.SymmetricTensorField(
            dim=3, rank=1,
            components={(2,): lambda t, x: np.full(np.asarray(x).shape[:-1], 1.0)})
        p = rt.unit_phase_point(model, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        want = 1.0 - math.exp(-2.0)
        got = rt.interior_solution(model, f, att, 0.0, p)
        assert got == pytest.approx(want, rel=1e-10)

    def test_oblique_chord_interior(self):
        model = rt.constant_model(1.0, dim=3)
        f = rt.constant_vector_field([0.0, 1.0, 0.0])
        d = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        p = rt.unit_phase_point(model, [0.0, 0.0, 0.0], d)
        got = rt.interior_solution(model, f, TINY_ALPHA, 0.0, p)
        # entry at distance 1 behind the center; integrand is the constant d_y
        assert got == pytest.approx(d[1], abs=1e-9)

    def test_transform_at_a_normalized_boundary_state(self):
        """A normalized 3D boundary point may have |x| one rounding above 1; it
        is still a boundary state, and the reader returns the transform there."""
        model = rt.constant_model(1.0, dim=3)
        x = np.array([0.9698243673082586, -0.03271874667890908, -0.24159921396994988])
        assert np.linalg.norm(x) > 1.0
        d = 0.6 * x + np.array([0.0, 0.0, 0.8])
        p = rt.unit_phase_point(model, x, d)
        fvec, a = np.array([0.3, -0.5, 0.8]), 0.9
        got = rt.interior_solution(model, rt.constant_vector_field(fvec), rt.constant_attenuation(a), 0.0, p)
        L = 2.0 * float(np.dot(p.x, p.xi))
        want = float(np.dot(fvec, p.xi)) * (1.0 - math.exp(-a * L)) / a
        assert got == pytest.approx(want, rel=1e-10)


def residual_of(model, f, att, u, t, p, fd_step):
    """The residual combination of a user-supplied u(t, p) read on the oracle's stencil."""
    times, stencil = residual_stencil(model, f, t, [p], fd_step)
    vals = np.array([[[float(u(tt, pp)) for tt in times] for pp in stencil]])
    return float(residual_combine(model, f, att, t, [p], fd_step, vals)[0])


class TestResidual:
    def test_zero_function_zero_field(self, demo_model, unit_attenuation):
        f0 = rt.constant_scalar_field(0.0)
        p = rt.angle_phase_point(demo_model, [0.2, 0.1], 0.5)
        res = residual_of(demo_model, f0, unit_attenuation, lambda t, pp: 0.0, 0.0, p, 0.01)
        assert res == 0.0

    def test_constant_function(self, demo_model, unit_attenuation):
        f0 = rt.constant_scalar_field(0.0)
        p = rt.angle_phase_point(demo_model, [0.2, 0.1], 0.5)
        res = residual_of(demo_model, f0, unit_attenuation, lambda t, pp: 1.0, 0.0, p, 0.01)
        assert res == pytest.approx(1.0, abs=1e-12)

    def test_oracle_residual_second_order(self, demo_model, demo_field, unit_attenuation):
        from conftest import random_phase_points

        pts = random_phase_points(demo_model, 10, seed=2)
        cfg = rt.IntegratorConfig(step=1e-3)
        r1 = oracle_residuals(demo_model, demo_field, unit_attenuation, 0.0, pts, 0.02, cfg)
        r2 = oracle_residuals(demo_model, demo_field, unit_attenuation, 0.0, pts, 0.01, cfg)
        ratio = np.linalg.norm(r1) / np.linalg.norm(r2)
        assert 3.0 <= ratio <= 5.0

    @pytest.mark.parametrize("spec", ["paper4", "affine:2,0.3,0.2", "constant:1.0"])
    def test_switch_on_residuals_small(self, spec, demo_field, unit_attenuation):
        """The switched-on oracle solves the transport equation: its residual at
        t = 0.4 is small, also where the stencil straddles the switch-on."""
        model = rt.parse_model(spec)
        f = rt.with_switch_on(demo_field)
        points = [rt.angle_phase_point(model, x, theta)
                  for x, theta in [([0.3, -0.2], 1.1), ([0.0, 0.0], 0.4), ([-0.6, 0.5], 2.9)]]
        res = oracle_residuals(model, f, unit_attenuation, 0.4, points, 1e-3, rt.IntegratorConfig(step=1e-2))
        assert np.max(np.abs(res)) <= 1e-4

    @pytest.mark.parametrize("kind", ["switch-on", "time-dependent"])
    def test_dynamic_field_marches_seven_rays_per_point(self, demo_model, demo_field, unit_attenuation,
                                                        kind, monkeypatch):
        """The seven stencil states of a point are marched once, carrying t and t +- fd_step."""
        f = rt.with_switch_on(demo_field) if kind == "switch-on" else dataclasses.replace(
            demo_field, components={i: partial(_ramped, c) for i, c in demo_field.components.items()},
            time_dependent=True)
        points = [rt.angle_phase_point(demo_model, x, theta)
                  for x, theta in [([0.3, -0.2], 1.1), ([0.0, 0.0], 0.4), ([-0.6, 0.5], 2.9)]]
        rays = _marched_rays(monkeypatch)
        oracle_residuals(demo_model, f, unit_attenuation, 0.4, points, 1e-3, rt.IntegratorConfig(step=1e-2))
        assert rays == [7 * len(points)]

    def test_stencil_near_boundary(self, demo_model, demo_field, unit_attenuation):
        p = rt.angle_phase_point(demo_model, [0.995, 0.0], 2.0)
        with pytest.raises(StencilError):
            oracle_residuals(demo_model, demo_field, unit_attenuation, 0.0, [p], 0.01)
