import numpy as np
import pytest
from numpy.testing import assert_allclose

import raytransport as rt
from raytransport.errors import DomainError, TraceLimitError
from raytransport.geodesic import march, refine_exit, rk4_step, speed_defect
from raytransport.refractive import acceleration


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


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _layouts(a):
    """The same rows stored row-major, component-major and as a strided view."""
    return {
        "row-major": np.ascontiguousarray(a),
        "component-major": np.ascontiguousarray(a.T).T,
        "strided": np.repeat(a, 2, axis=0)[::2],
    }


class TestLayoutIndependence:
    """Every kernel of the march returns the same bits for any memory layout of its states."""

    MEDIA = [("paper4", 2), ("affine:2,0.3,0.2", 2), ("paper4", 3)]

    @pytest.fixture(params=MEDIA, ids=lambda m: f"{m[0]}-{m[1]}d")
    def medium(self, request):
        spec, dim = request.param
        model = rt.parse_model(spec, dim=dim)
        rng = np.random.default_rng(41)
        d = rng.standard_normal((300, dim))
        x = rng.uniform(0.0, 0.9, (300, 1)) * d / np.linalg.norm(d, axis=1, keepdims=True)
        v = rng.standard_normal((300, dim))
        v /= (np.linalg.norm(v, axis=1) * model.n(x))[:, None]
        return model, x, v

    @staticmethod
    def _each_layout(x, v, fn):
        xs, vs = _layouts(x), _layouts(v)
        bits = {name: _bits(*fn(xs[name], vs[name])) for name in xs}
        assert bits["component-major"] == bits["row-major"]
        assert bits["strided"] == bits["row-major"]

    def test_acceleration(self, medium):
        model, x, v = medium
        self._each_layout(x, v, lambda xl, vl: (acceleration(model, xl, vl),))

    def test_rk4_step(self, medium):
        model, x, v = medium
        h = np.linspace(1e-3, 5e-2, x.shape[0])
        self._each_layout(x, v, lambda xl, vl: rk4_step(model, xl, vl, 1e-2))
        self._each_layout(x, v, lambda xl, vl: rk4_step(model, xl, vl, h))

    def test_refine_exit(self, medium):
        model, x, v = medium
        self._each_layout(x, v, lambda xl, vl: refine_exit(model, xl, vl, 3.0))

    def test_march(self, medium):
        model, x, v = medium
        cfg = rt.IntegratorConfig()
        carry = (np.arange(x.shape[0], dtype=float), np.ones((x.shape[0], 2)))

        def run(xl, vl):
            seen = []

            def advance(rays, s, xm, vm, xe, ve, carry):
                for a in (xm, vm, xe, ve):
                    assert a.T.flags["C_CONTIGUOUS"]
                seen.extend([rays, s, xm, ve])
                return (carry[0] + s, carry[1] * 0.5)

            ex = march(model, xl, vl, 0.05, cfg, carry=carry, advance=advance)
            for a in (ex.x, ex.v, ex.x_exit, ex.v_exit):
                assert a.T.flags["C_CONTIGUOUS"]
            return (ex.rays, ex.interval, ex.x, ex.v, ex.s, ex.ds, ex.x_exit, ex.v_exit, *ex.carry, *seen)

        self._each_layout(x, v, run)
