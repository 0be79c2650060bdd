import numpy as np
import pytest
from numpy.testing import assert_allclose

import raytransport as rt
from conftest import bouguer_invariant
from raytransport import geodesic
from raytransport.errors import DomainError, TraceLimitError
from raytransport.geodesic import march, refine_exit, rk4_step, speed_defect
from raytransport.refractive import _dot, acceleration

# the engine's media: radial and non-radial in 2D, radial in 3D
MEDIA = [("paper4", 2), ("affine:2,0.3,0.2", 2), ("paper4", 3)]


def path_speed_defect(model, path):
    return max(speed_defect(model, x, v) for x, v in zip(path.xs, path.vs))


def interior_states(model, count, seed, r_max):
    """Metric-unit states at random points of the ball of radius r_max, random directions."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((count, model.dim))
    x = rng.uniform(0.0, r_max, (count, 1)) * d / np.linalg.norm(d, axis=1, keepdims=True)
    v = rng.standard_normal((count, model.dim))
    v /= (np.linalg.norm(v, axis=1) * model.n(x))[:, None]
    return x, v


@pytest.fixture(params=MEDIA, ids=lambda m: f"{m[0]}-{m[1]}d")
def engine_model(request):
    spec, dim = request.param
    return rt.parse_model(spec, dim=dim)


class TestStraightMedium:
    def test_center_chord(self, unit_model):
        path = rt.trace(unit_model, rt.unit_phase_point(unit_model, [0, 0], [1, 0]))
        assert path.tau_minus == pytest.approx(-1.0, abs=1e-9)
        assert path.tau_plus == pytest.approx(1.0, abs=1e-9)
        assert_allclose(path.xs[0], [-1.0, 0.0], atol=1e-9)
        assert_allclose(path.xs[-1], [1.0, 0.0], atol=1e-9)

    def test_offset_chord_bounds(self, unit_model):
        p = rt.unit_phase_point(unit_model, [0.5, 0.0], [1.0, 0.0])
        path = rt.trace(unit_model, p)
        tm, tp = path.tau_minus, path.tau_plus
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
        path = rt.trace(unit_model, p)
        tm, tp = path.tau_minus, path.tau_plus
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
        path = rt.trace(demo_model, p)
        tm, tp = path.tau_minus, path.tau_plus
        assert abs(abs(tm) - tp) < 1e-8

    def test_bouguer_invariant_drift(self, demo_model):
        rng = np.random.default_rng(23)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=2)
            p = rt.angle_phase_point(demo_model, x, rng.uniform(0, 2 * np.pi))
            path = rt.trace(demo_model, p)
            J = np.array([bouguer_invariant(demo_model, xx, vv) for xx, vv in zip(path.xs, path.vs)])
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


class TestBatchTrace:
    def test_batch_is_the_single_traces(self, engine_model):
        """One call traces many states in one march; each path is the single
        trace's bit for bit, boundary starts (outward, inward, glancing) included."""
        x, v = interior_states(engine_model, 6, 7, 0.9)
        points = [rt.PhaseSpacePoint(a, b) for a, b in zip(x, v)]
        e1, e2 = np.eye(engine_model.dim)[:2]
        points += [rt.unit_phase_point(engine_model, e1, d) for d in (e1 + e2, -e1 + e2, e2)]
        cfg = rt.IntegratorConfig(step=5e-3)
        paths = rt.trace(engine_model, points, cfg)
        assert len(paths) == len(points)
        for p, path in zip(points, paths):
            single = rt.trace(engine_model, p, cfg)
            assert isinstance(single, rt.GeodesicPath)
            for name in ("taus", "xs", "vs"):
                assert np.array_equal(getattr(path, name), getattr(single, name))
            assert (path.tau_minus, path.tau_plus) == (single.tau_minus, single.tau_plus)
        assert paths[-1].tau_minus == paths[-1].tau_plus == 0.0
        assert rt.trace(engine_model, [], cfg) == []


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
    def test_trace_and_oracle_share_the_exit_parameter(self, demo_model):
        """The entry and exit parameters of a trace at step h are the exits s + ds of
        the oracle's march at interval 2h from (x, -xi) and from (x, xi), bit for bit;
        a ray that starts on the sphere heading out is not marched and exits at 0."""
        h = 5e-3
        cfg = rt.IntegratorConfig(step=h)
        starts = [([0.3, -0.2], 1.1), ([0.0, 0.0], 0.4), ([-0.6, 0.5], 2.9), ([0.0, 1.0], -1.2)]
        for x, theta in starts:
            p = rt.angle_phase_point(demo_model, x, theta)
            ex = march(demo_model, [p.x, p.x], [p.xi, -p.xi], 2.0 * h, cfg)
            tau = np.zeros(2)
            tau[ex.rays] = ex.s + ex.ds
            path = rt.trace(demo_model, p, cfg)
            assert (path.tau_minus, path.tau_plus) == (-tau[1], tau[0])


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

    @pytest.fixture
    def medium(self, engine_model):
        return (engine_model, *interior_states(engine_model, 300, 41, 0.9))

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
        self._each_layout(x, v, lambda xl, vl: rk4_step(model, xl, vl, h, acceleration(model, xl, vl)))
        # a given first stage is the one rk4_step would compute
        assert _bits(*rk4_step(model, x, v, h, acceleration(model, x, v))) == _bits(*rk4_step(model, x, v, h))

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
            return (ex.rays, ex.x, ex.v, ex.s, ex.ds, ex.x_exit, ex.v_exit, *ex.carry, *seen)

        self._each_layout(x, v, run)


class TestOneStepPerInterval:
    """Each march interval is one RK4 step; its mid state is the Hermite interpolant."""

    STEP = 1e-3

    def test_midpoint_is_an_rk4_half_step(self, engine_model):
        model = engine_model
        x, v = interior_states(model, 40, 7, 0.9)
        start_x, start_v = x.copy(), v.copy()  # each ray's current interval start
        worst = []

        def advance(rays, s, xm, vm, xe, ve, carry):
            xh, vh = rk4_step(model, start_x[rays], start_v[rays], 0.5 * self.STEP)
            worst.append(max(np.abs(xm - xh).max(), np.abs(vm - vh).max()))
            start_x[rays], start_v[rays] = xe, ve
            return carry

        march(model, x, v, self.STEP, rt.IntegratorConfig(), advance=advance)
        assert len(worst) > 100
        assert max(worst) <= 1e-12

    def test_four_accelerations_per_interval(self, engine_model, monkeypatch):
        """K intervals of a batch that stays inside cost 4 K + 1 full-batch accelerations."""
        model = engine_model
        x, v = interior_states(model, 25, 8, 0.5)
        rows = []

        def counting(model, x, v):
            rows.append(x.shape[0])
            return acceleration(model, x, v)

        monkeypatch.setattr(geodesic, "acceleration", counting)
        intervals = 30
        with pytest.raises(TraceLimitError):
            march(model, x, v, self.STEP, rt.IntegratorConfig(max_steps=intervals))
        assert rows == [x.shape[0]] * (4 * intervals + 1)


class TestSharedParameter:
    """Every ray inside has marched the same whole intervals: s is one float."""

    STEP = 0.1  # a running sum of 0.1 drifts from k * 0.1, so the sum itself is checked

    def test_advance_gets_a_float_and_exits_keep_the_running_sum(self, engine_model):
        model = engine_model
        x, v = interior_states(model, 60, 11, 0.95)
        seen = []

        def advance(rays, s, xm, vm, xe, ve, carry):
            seen.append(s)
            return carry

        ex = march(model, x, v, self.STEP, rt.IntegratorConfig(), advance=advance)
        assert seen and all(type(s) is float for s in seen)
        sums = [0.0]
        for _ in seen:
            sums.append(sums[-1] + self.STEP)
        assert seen == sums[:-1]
        # a ray parked in an interval keeps the running sum that began it
        assert set(ex.s.tolist()) <= set(sums)
        assert ex.s.max() == sums[-1]


class TestExitStates:
    """Every exit of a batched backward march lies on the sphere, bracketed from inside."""

    @staticmethod
    def _check_exits(model, x, xi, step):
        ex = march(model, x, -xi, step, rt.IntegratorConfig())
        assert ex.rays.size
        r_exit = np.sqrt(np.sum(ex.x_exit ** 2, axis=1))
        assert np.all(r_exit >= 1.0) and np.all(r_exit <= 1.0 + 1e-12)
        assert np.all(np.sum(ex.x ** 2, axis=1) < 1.0)
        assert np.all(ex.ds > 0.0) and np.all(ex.ds <= step)
        return ex

    @pytest.mark.parametrize("spec, shape", [("paper4", (30, 30, 10)), ("affine:2,0.3,0.2", (10, 10, 8))])
    def test_every_grid_node(self, spec, shape):
        model = rt.parse_model(spec)
        grid = rt.build_grid(model, *shape)
        ex = self._check_exits(model, grid.x, grid.xi, 1e-3)
        assert np.array_equal(np.sort(ex.rays), np.unique(ex.rays))

    def test_ray_reentering_within_an_interval(self):
        """A ray whose mid state is out of the ball and whose end state is back in
        exits in that interval, below the half-step.

        In n = 1 - 0.45 |x|^2 rays bend inward faster than the unit circle, so
        rays started just inside and barely outward dip out and back in.  Out
        means both the Hermite mid state and the RK4 half-step position.
        """
        model = rt.parse_model("radial:1,-0.45")
        rng = np.random.default_rng(3)
        tilt = rng.uniform(0.03, 0.1, 200)
        x = np.stack([1.0 - rng.uniform(0.0, 1e-4, 200), np.zeros(200)], axis=1)
        xi = -np.stack([np.sin(tilt), np.cos(tilt)], axis=1) / model.n(x)[:, None]
        step = 0.1
        ex = self._check_exits(model, x, xi, step)
        xe, ve = rk4_step(model, x, -xi, step)
        xm = 0.5 * (x + xe) + 0.125 * step * (-xi - ve)
        xh = rk4_step(model, x, -xi, 0.5 * step)[0]
        out = [np.sum(y ** 2, axis=1) >= 1.0 for y in (xm, xh, xe)]
        dipped = np.isin(ex.rays, np.nonzero(out[0] & out[1] & ~out[2])[0])
        assert dipped.sum() >= 10
        assert np.all(ex.s[dipped] == 0.0)
        assert np.all(ex.ds[dipped] <= 0.5 * step)

    def test_interpolated_mid_alone_parks_no_ray(self, unit_model, monkeypatch):
        """A mid state out of the ball parks a ray only if its RK4 half-step position is out too.

        The first interval's interpolated mid states are moved out of the
        ball; the straight rays must march on and exit on the sphere later.
        """
        hermite, calls = geodesic._hermite_mid, []

        def outside_once(*args):
            calls.append(args)
            mid = hermite(*args)
            return mid + 2.0 if len(calls) == 1 else mid

        monkeypatch.setattr(geodesic, "_hermite_mid", outside_once)
        x, v = interior_states(unit_model, 20, 9, 0.5)
        ex = self._check_exits(unit_model, x, -v, 1e-2)
        assert len(calls) > 1
        assert np.all(ex.s > 0.0)


def near_tangent_states(model, count, seed):
    """States just inside the sphere, |x| in [1 - 1e-4, 1), heading along it.

    Each is tilted inward or outward by 0.025 to 0.05 rad and has metric unit
    speed.  In n = 1 - 0.45 |x|^2 such rays swing out of the ball and back,
    some of them within half an interval of size 0.1.
    """
    rng = np.random.default_rng(seed)
    tilt = rng.uniform(0.025, 0.05, count) * rng.choice([-1.0, 1.0], count)
    x = np.stack([1.0 - rng.uniform(0.0, 1e-4, count), np.zeros(count)], axis=1)
    v = np.stack([np.sin(tilt), np.cos(tilt)], axis=1) / model.n(x)[:, None]
    return x, v


def unseen_dips(monkeypatch, step):
    """Count, per whole march interval of size ``step``, the unseen dips out of the ball.

    A dip is unseen when the interval's RK4 half-step position is at or
    beyond the sphere while its Hermite mid and its end are inside.  Whole
    intervals are the ``rk4_step`` calls of scalar size ``step`` given their
    first stage; the list holds one count per interval.
    """
    step_rk4, counts = geodesic.rk4_step, []

    def counting(model, x, v, h, a1=None):
        xe, ve = step_rk4(model, x, v, h, a1)
        if np.ndim(h) == 0 and h == step and a1 is not None:
            xh = step_rk4(model, x, v, 0.5 * h, a1)[0]
            xm = geodesic._hermite_mid(x, xe, v, ve, h)
            unseen = (_dot(xh, xh) >= 1.0) & (_dot(xm, xm) < 1.0) & (_dot(xe, xe) < 1.0)
            counts.append(int(np.count_nonzero(unseen)))
        return xe, ve

    monkeypatch.setattr(geodesic, "rk4_step", counting)
    return counts


class TestUnseenDips:
    """The crossing test reads the Hermite mid and the end of each interval, so a
    ray out of the ball for less than the sampling marches on.  None is marched
    on the bundled grids at their steps; near-tangent rays show that one can be."""

    @pytest.mark.parametrize("spec, shape, step", [
        ("paper4", (30, 30, 10), 1e-3), ("affine:2,0.3,0.2", (40, 40, 20), 1e-2)])
    def test_none_in_the_bundled_oracles(self, spec, shape, step, monkeypatch):
        model = rt.parse_model(spec)
        grid = rt.build_grid(model, *shape)
        counts = unseen_dips(monkeypatch, step)
        rt.interior_solution_grid(model, rt.paper4_field(), rt.constant_attenuation(1.0), grid,
                                  rt.IntegratorConfig(step=step))
        assert len(counts) > 900
        assert sum(counts) == 0

    def test_near_tangent_rays_dip_unseen(self, monkeypatch):
        """The control: rays whose dips the test misses exit at a later swing."""
        model = rt.parse_model("radial:1,-0.45")
        x, v = near_tangent_states(model, 400, 2)
        counts = unseen_dips(monkeypatch, 0.1)
        ex = march(model, x, v, 0.1, rt.IntegratorConfig(step=0.1))
        assert sum(counts) > 0
        assert ex.rays.size == x.shape[0]


def crossing_states(model, step, seed):
    """States whose next RK4 step of size ``step`` ends at or beyond the sphere.

    Interior starts and near-grazing ones, just inside the sphere and heading
    along it (tilted outward by 0 to 1e-3 rad), each stepped until its next
    step would leave the ball.
    """
    x, v = interior_states(model, 30, seed, 0.95)
    ang = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    depth = np.tile([1e-4, 1e-8, 1e-12], 4)
    tilt = np.repeat([0.0, 1e-9, 1e-6, 1e-3], 3)
    xg = (1.0 - depth)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    dg = np.stack([-np.sin(ang + tilt), np.cos(ang + tilt)], axis=1)
    x, v = np.concatenate([x, xg]), np.concatenate([v, dg / model.n(xg)[:, None]])
    for _ in range(100000):
        xn, vn = rk4_step(model, x, v, step)
        inside = _dot(xn, xn) < 1.0
        if not inside.any():
            return x, v
        x[inside], v[inside] = xn[inside], vn[inside]
    raise AssertionError("rays did not reach the sphere")


def bisected_exit(model, x, v, hi, iters=60):
    """The exit parameter by ``iters`` bisections of [0, hi] on the RK4 position's |x|^2 >= 1."""
    lo, hi = np.zeros(x.shape[0]), np.full(x.shape[0], hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        xm = rk4_step(model, x, v, mid)[0]
        out = _dot(xm, xm) >= 1.0
        lo, hi = np.where(out, lo, mid), np.where(out, mid, hi)
    return hi


class TestExitSearch:
    """refine_exit's safeguarded Newton search, on radial, affine and straight rays."""

    STEP = 1e-2

    @pytest.fixture(params=["paper4", "affine:2,0.3,0.2", "constant:1.0"])
    def crossing(self, request):
        model = rt.parse_model(request.param)
        return (model, *crossing_states(model, self.STEP, 17))

    def test_a_ray_alone_is_its_batch_row(self, crossing):
        model, x, v = crossing
        batch = refine_exit(model, x, v, self.STEP)
        for i in range(x.shape[0]):
            alone = refine_exit(model, x[i:i + 1], v[i:i + 1], self.STEP)
            assert _bits(*alone) == _bits(*(b[i:i + 1] for b in batch))

    def test_exit_state_is_the_rk4_step_at_or_beyond_the_sphere(self, crossing):
        model, x, v = crossing
        s, x_exit, v_exit = refine_exit(model, x, v, self.STEP)
        assert np.all((s > 0.0) & (s <= self.STEP))
        xs, vs = rk4_step(model, x, v, s)
        assert _bits(xs, vs) == _bits(x_exit, v_exit)
        assert np.all(_dot(xs, xs) >= 1.0)

    def test_agrees_with_bisection(self, crossing):
        """s is the 60-step bisection's within 1e-15, or within the rounding of
        |x|^2 - 1 (a few eps) over its slope 2 x . v where the exit grazes."""
        model, x, v = crossing
        s, x_exit, v_exit = refine_exit(model, x, v, self.STEP)
        tol = np.maximum(1e-15, 4.0 * np.finfo(float).eps / np.abs(2.0 * _dot(x_exit, v_exit)))
        assert np.all(np.abs(s - bisected_exit(model, x, v, self.STEP)) <= tol)

    def test_grazing_exit_ends_within_the_cap(self, crossing, monkeypatch):
        model, x, v = crossing
        graze = np.abs(_dot(x, v)) < 1e-3
        assert graze.sum() >= 6
        steps = []

        def counting(*args):
            steps.append(args[1].shape[0])
            return rk4_step(*args)

        monkeypatch.setattr(geodesic, "rk4_step", counting)
        s, x_exit, _ = refine_exit(model, x[graze], v[graze], self.STEP)
        assert len(steps) < geodesic.EXIT_NEWTON_STEPS
        assert np.all(_dot(x_exit, x_exit) >= 1.0)
