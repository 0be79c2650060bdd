import numpy as np
import pytest
from numpy.testing import assert_allclose

import raytransport as rt
from raytransport.errors import DomainError, TraceLimitError
from raytransport.geodesic import speed_defect


def path_speed_defect(model, path):
    return max(speed_defect(model, x, v) for x, v in zip(path.xs, path.vs))


class TestStraightMedium:
    def test_center_chord(self, unit_model):
        path = rt.trace(unit_model, rt.unit_phase_point(unit_model, [0, 0], [1, 0]))
        assert path.tau_minus == pytest.approx(-1.0, abs=1e-9)
        assert path.tau_plus == pytest.approx(1.0, abs=1e-9)
        assert_allclose(path.xs[0], [-1.0, 0.0], atol=1e-9)
        assert_allclose(path.xs[-1], [1.0, 0.0], atol=1e-9)

    def test_offset_chord_bounds(self, unit_model):
        p = rt.unit_phase_point(unit_model, [0.5, 0.0], [1.0, 0.0])
        tm, tp = rt.tau_bounds(unit_model, p)
        assert tm == pytest.approx(-1.5, abs=1e-9)
        assert tp == pytest.approx(0.5, abs=1e-9)

    def test_chord_recovery(self, unit_model):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=2)
            th = rng.uniform(0, 2 * np.pi)
            p = rt.angle_phase_point(unit_model, x, th)
            path = rt.trace(unit_model, p)
            chord = x[None, :] + path.taus[:, None] * p.xi[None, :]
            assert np.abs(path.xs - chord).max() < 1e-10

    def test_center_bounds_any_direction(self, unit_model):
        p = rt.angle_phase_point(unit_model, [0.0, 0.0], 1.1)
        tm, tp = rt.tau_bounds(unit_model, p)
        assert (tm, tp) == (pytest.approx(-1.0, abs=1e-9), pytest.approx(1.0, abs=1e-9))


class TestDemoMedium:
    def test_radial_ray_stays_radial(self, demo_model):
        p = rt.unit_phase_point(demo_model, [1.0, 0.0], [-1.0, 0.0])
        path = rt.trace(demo_model, p)
        assert np.abs(path.xs[:, 1]).max() == 0.0
        assert path.tau_minus == 0.0
        # metric diameter of the disk for n = r^2 + 1.5 is 2 * (1/3 + 1.5)
        assert path.tau_plus == pytest.approx(11.0 / 3.0, abs=1e-3)

    def test_center_start_is_symmetric(self, demo_model):
        p = rt.unit_phase_point(demo_model, [0.0, 0.0], [1.0 / 1.5, 0.0])
        tm, tp = rt.tau_bounds(demo_model, p)
        assert abs(abs(tm) - tp) < 1e-8

    def test_bouguer_invariant_drift(self, demo_model):
        rng = np.random.default_rng(23)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=2)
            p = rt.angle_phase_point(demo_model, x, rng.uniform(0, 2 * np.pi))
            path = rt.trace(demo_model, p)
            J = np.array([rt.bouguer_invariant(demo_model, xx, vv) for xx, vv in zip(path.xs, path.vs)])
            span = path.tau_plus - path.tau_minus
            drift = (J.max() - J.min()) / max(np.abs(J).max(), 1e-12) / span
            assert drift < 1e-6

    def test_speed_conservation(self, demo_model):
        p = rt.angle_phase_point(demo_model, [0.3, -0.2], 0.7)
        path = rt.trace(demo_model, p)
        assert path_speed_defect(demo_model, path) <= 1e-7

    def test_time_reversal(self, demo_model):
        p = rt.angle_phase_point(demo_model, [0.25, 0.1], 2.0)
        path = rt.trace(demo_model, p)
        back = rt.trace(demo_model, rt.PhaseSpacePoint(path.xs[-1], -path.vs[-1]))
        assert np.linalg.norm(back.xs[-1] - path.xs[0]) < 1e-6

    def test_rk4_order_at_boundary(self, demo_model):
        """Halving the step cuts the exit-point error by about 2^4."""
        start = rt.unit_phase_point(demo_model, [0.2, -0.1], [0.8, 0.5])
        href = 0.01 / 16.0
        ref = rt.trace(demo_model, start, rt.IntegratorConfig(step=href)).xs[-1]
        errs = []
        for h in (0.02, 0.01):
            exit_pt = rt.trace(demo_model, start, rt.IntegratorConfig(step=h)).xs[-1]
            errs.append(np.linalg.norm(exit_pt - ref))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0


class TestPathInvariants:
    def test_node_structure(self, demo_model):
        path = rt.trace(demo_model, rt.angle_phase_point(demo_model, [0.1, 0.4], -0.3))
        assert np.all(np.diff(path.taus) > 0)
        assert path.taus[0] == path.tau_minus
        assert path.taus[-1] == path.tau_plus
        assert abs(np.linalg.norm(path.xs[0]) - 1.0) <= 1e-9
        assert abs(np.linalg.norm(path.xs[-1]) - 1.0) <= 1e-9

    def test_boundary_inward_start(self, demo_model):
        p = rt.unit_phase_point(demo_model, [0.0, 1.0], [0.3, -0.8])
        path = rt.trace(demo_model, p)
        assert path.tau_minus == 0.0
        assert path.tau_plus > 0.0

    def test_boundary_outward_start(self, demo_model):
        p = rt.unit_phase_point(demo_model, [0.0, 1.0], [0.3, 0.8])
        path = rt.trace(demo_model, p)
        assert path.tau_plus == 0.0
        assert path.tau_minus < 0.0

    def test_glancing_start_is_trivial(self, demo_model):
        p = rt.unit_phase_point(demo_model, [1.0, 0.0], [0.0, 1.0])
        path = rt.trace(demo_model, p)
        assert (path.tau_minus, path.tau_plus) == (0.0, 0.0)
        assert len(path) == 1


class TestErrors:
    def test_zero_direction(self, unit_model):
        with pytest.raises(ValueError):
            rt.trace(unit_model, rt.PhaseSpacePoint([0.0, 0.0], [0.0, 0.0]))

    def test_not_unit_speed(self, demo_model):
        with pytest.raises(ValueError):
            rt.trace(demo_model, rt.PhaseSpacePoint([0.0, 0.0], [1.0, 0.0]))

    def test_outside_ball(self, unit_model):
        with pytest.raises(DomainError):
            rt.trace(unit_model, rt.PhaseSpacePoint([1.5, 0.0], [1.0, 0.0]))

    def test_step_budget(self, unit_model):
        p = rt.unit_phase_point(unit_model, [0.0, 0.0], [1.0, 0.0])
        with pytest.raises(TraceLimitError):
            rt.trace(unit_model, p, rt.IntegratorConfig(step=1e-3, max_steps=5))


class TestOneEngine:
    def test_trace_and_oracle_share_the_exit_parameter(self, demo_model, demo_field, unit_attenuation):
        """The entry and exit parameters of a trace at step h are the oracle's at
        quadrature step 2h, marched from (x, xi) and from (x, -xi), bit for bit."""
        from raytransport.transport import _march_backward

        h = 5e-3
        cfg = rt.IntegratorConfig(step=h)
        q = rt.QuadratureConfig(step=2.0 * h)
        starts = [([0.3, -0.2], 1.1), ([0.0, 0.0], 0.4), ([-0.6, 0.5], 2.9), ([0.0, 1.0], -1.2)]
        for x, theta in starts:
            p = rt.angle_phase_point(demo_model, x, theta)
            tau = [
                _march_backward(demo_model, demo_field, unit_attenuation, 0.0, p.x, xi, q, cfg,
                                dynamic=False).tau_minus[0]
                for xi in (p.xi, -p.xi)
            ]
            assert rt.tau_bounds(demo_model, p, cfg) == (tau[0], -tau[1])
