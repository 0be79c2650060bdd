import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import raytransport as rt
from raytransport import verify
from raytransport.errors import NumericalError
from raytransport.refractive import acceleration

MODELS_3D = [rt.paper4_model(dim=3), rt.affine_model(2.0, [0.3, 0.0, -0.2])]
POINTS_3D = [(0.2, 0.1, -0.3), (-0.4, 0.25, 0.1), (0.0, 0.0, 0.5)]


class TestFiberIdentity:
    def test_straight_medium_both_sides_vanish(self):
        model = rt.constant_model(1.0, dim=3)
        for fn in rt.standard_fiber_functions():
            chk = rt.check_fiber_identity(model, fn, (0.2, 0.1, 0.0), 16, 16)
            assert chk.lhs == pytest.approx(0.0, abs=1e-14)
            assert chk.rhs == pytest.approx(0.0, abs=1e-14)

    def test_constant_function(self):
        """u = 1 kills the derivative side; the other side integrates an odd
        direction field over the whole sphere."""
        const = rt.FiberFunction(value=lambda w: np.ones(w.shape[:-1]), grad=np.zeros_like)
        chk = rt.check_fiber_identity(MODELS_3D[0], const, (0.3, 0.1, -0.2), 32, 32)
        assert chk.abs_diff <= 1e-12

    def test_euclidean_gradient_reading_misses(self):
        """Pairing the euclidean gradient in the metric puts an extra n^2 on the right-hand side;
        that reading misses by an O(1) factor, not by quadrature error."""
        metric = euclidean = 0.0
        for model in MODELS_3D:
            for fn in rt.standard_fiber_functions():
                for x in POINTS_3D:
                    chk = rt.check_fiber_identity(model, fn, x, 32, 32)
                    metric = max(metric, chk.abs_diff / (1.0 + abs(chk.rhs)))
                    rhs = chk.rhs * float(model.n(np.asarray(x))) ** 2
                    euclidean = max(euclidean, abs(chk.lhs - rhs) / (1.0 + abs(rhs)))
        assert metric < 1e-10
        assert euclidean > 1e-2

    def test_identity_at_tolerance(self):
        for model in MODELS_3D:
            for fn in rt.standard_fiber_functions():
                for x in POINTS_3D:
                    chk = rt.check_fiber_identity(model, fn, x, 64, 64)
                    assert chk.abs_diff <= 1e-6 * (1.0 + abs(chk.rhs))
                    assert chk.abs_diff == abs(chk.lhs - chk.rhs)

    def test_refinement_shrinks_discrepancy(self):
        fn = rt.standard_fiber_functions()[1]
        d8 = rt.check_fiber_identity(MODELS_3D[0], fn, POINTS_3D[0], 8, 8).abs_diff
        d16 = rt.check_fiber_identity(MODELS_3D[0], fn, POINTS_3D[0], 16, 16).abs_diff
        assert d8 > 1e-9  # coarse orders sit above the rounding floor
        assert d16 <= d8 / 4.0

    def test_only_the_tangential_gradient_counts(self):
        """U |omega|^2 equals U on the sphere but has the extra normal gradient 2 U omega."""
        for model in MODELS_3D:
            for fn in rt.standard_fiber_functions():
                def value(w, fn=fn):
                    return fn.value(w) * np.sum(w * w, axis=-1)

                def grad(w, fn=fn):
                    return np.sum(w * w, axis=-1)[..., None] * fn.grad(w) + 2.0 * fn.value(w)[..., None] * w

                extended = rt.FiberFunction(value=value, grad=grad)
                for x in POINTS_3D:
                    lhs = rt.check_fiber_identity(model, fn, x, 32, 32).lhs
                    assert rt.check_fiber_identity(model, extended, x, 32, 32).lhs == pytest.approx(
                        lhs, rel=0.0, abs=1e-15)

    def test_matches_the_sphere_chart(self):
        """exp(0.7 omega_2 + 0.3 omega_3) differentiated through the (theta, phi) chart."""
        model, x, order = MODELS_3D[1], np.array(POINTS_3D[1]), 32
        s, w = np.polynomial.legendre.leggauss(order)
        th, ph = np.meshgrid(np.arccos(s), 2.0 * np.pi * np.arange(order) / order, indexing="ij")
        sin_t, cos_t, sin_p, cos_p = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
        omega = np.stack([sin_t * cos_p, sin_t * sin_p, cos_t], axis=-1)
        u = np.exp(0.7 * sin_t * sin_p + 0.3 * cos_t)
        u_th = u * (0.7 * cos_t * sin_p - 0.3 * sin_t)
        u_ph = u * 0.7 * sin_t * cos_p
        n = float(model.n(x))
        du_dxi = n * np.stack([cos_p * cos_t * u_th - sin_p / sin_t * u_ph,
                               sin_p * cos_t * u_th + cos_p / sin_t * u_ph, -sin_t * u_th], axis=-1)
        a = acceleration(model, np.broadcast_to(x, omega.shape), omega / n)
        lhs = np.sum(w[:, None] * (2.0 * np.pi / order) * np.sum(a * du_dxi, axis=-1) * u)
        chk = rt.check_fiber_identity(model, rt.standard_fiber_functions()[1], x, order, order)
        assert chk.lhs == pytest.approx(lhs, rel=0.0, abs=1e-14)

    def test_argument_errors(self):
        fn = rt.standard_fiber_functions()[0]
        with pytest.raises(ValueError):
            rt.check_fiber_identity(MODELS_3D[0], fn, POINTS_3D[0], 3, 16)
        with pytest.raises(ValueError):
            rt.check_fiber_identity(rt.paper4_model(dim=2), fn, (0.1, 0.1), 16, 16)
        with pytest.raises(ValueError):
            rt.check_fiber_identity(MODELS_3D[0], fn, (1.2, 0.0, 0.0), 16, 16)


@pytest.fixture(scope="module")
def grid():
    return rt.build_grid(rt.paper4_model(), 5, 6, 4)


@pytest.fixture(scope="module")
def sweep_setup():
    model = rt.paper4_model()
    field = rt.paper4_field()
    att = rt.constant_attenuation(1.0)
    grid = rt.build_grid(model, 12, 12, 6)
    return model, field, att, grid


class TestRelativeError:
    def test_identical_fields(self, grid):
        u = rt.GridFunction(grid, np.sin(grid.theta))
        field, norms = rt.relative_error(u, u)
        assert_allclose(field.values, 0.0)
        assert norms.l2 == 0.0 and norms.linf == 0.0

    def test_doubled_field(self, grid):
        ref = rt.GridFunction(grid, 1.0 + 0.2 * np.cos(grid.phi))
        num = rt.GridFunction(grid, 2.0 * ref.values)
        field, norms = rt.relative_error(num, ref)
        assert_allclose(field.values, 1.0, rtol=1e-12)
        assert norms.linf == pytest.approx(1.0, rel=1e-12)

    def test_zero_reference_floor(self, grid):
        """A reference that vanishes identically divides by the floor 1.0, and every node counts."""
        ref = rt.GridFunction(grid, np.zeros(grid.size))
        num = rt.GridFunction(grid, np.full(grid.size, 0.5))
        field, norms = rt.relative_error(num, ref)
        assert np.all(field.values == 0.5)
        assert norms.l2 == 0.5 and norms.linf == 0.5

    def test_norms_skip_nodes_at_the_floor(self, grid):
        """Where the reference is zero the pointwise error is |u|/floor; the norms leave it out."""
        ref_vals = np.where(grid.theta < np.pi, 1.0 + 0.2 * np.cos(grid.phi), 0.0)
        ref = rt.GridFunction(grid, ref_vals)
        num = rt.GridFunction(grid, ref_vals + 0.1)
        field, norms = rt.relative_error(num, ref)
        above = ref_vals > 0.0
        assert 0 < above.sum() < grid.size
        assert norms.l2 == np.sqrt(np.mean(field.values[above] ** 2))
        assert norms.linf == np.max(field.values[above])
        assert norms.linf < 0.2

    def test_grid_mismatch(self, grid):
        model = rt.paper4_model()
        # (4,5,6) and (6,5,4) have the same node count
        for a, b in ((grid, rt.build_grid(model, 4, 4, 4)),
                     (rt.build_grid(model, 4, 5, 6), rt.build_grid(model, 6, 5, 4))):
            with pytest.raises(ValueError):
                rt.relative_error(rt.GridFunction(a, np.zeros(a.size)),
                                  rt.GridFunction(b, np.ones(b.size)))


class TestEpsilonSweep:
    def test_errors_non_increasing(self, sweep_setup):
        model, field, att, grid = sweep_setup
        sweep = rt.epsilon_sweep(model, field, att, grid, [1e-3, 1e-6, 1e-9])
        assert all(r.converged for r in sweep.reports)
        assert sweep.l2[0] >= sweep.l2[1] >= sweep.l2[2]

    def test_one_factorization_per_sweep(self, monkeypatch):
        model = rt.paper4_model()
        grid = rt.build_grid(model, 10, 10, 8)
        calls = []
        spilu = spla.spilu

        def counting_spilu(*args, **kwargs):
            calls.append(args[0])
            return spilu(*args, **kwargs)

        monkeypatch.setattr(spla, "spilu", counting_spilu)
        sweep = rt.epsilon_sweep(model, rt.paper4_field(), rt.constant_attenuation(1.0), grid,
                                 [1e-3, 1e-6, 1e-9])
        n = grid.n_interior
        assert [a.shape for a in calls] == [(n, n)]
        # a symmetric permutation of the interior transport block
        block = rt.assemble(grid, model, rt.paper4_field(), rt.constant_attenuation(1.0), 1e-3,
                            np.zeros(grid.size)).transport
        assert calls[0].nnz == block.nnz
        assert np.array_equal(np.sort(calls[0].diagonal()), np.sort(block.diagonal()))
        assert np.array_equal(np.sort(calls[0].data), np.sort(block.data))
        assert all(r.converged for r in sweep.reports)
        assert {r.method for r in sweep.reports} == {"gmres+ilu"}

    def test_failed_eps_recorded(self, sweep_setup, monkeypatch):
        model, field, att, grid = sweep_setup
        solve_static = verify.solve_static

        def failing_at_1e6(system, **kwargs):
            if system.epsilon == 1e-6:
                raise NumericalError("solver produced non-finite iterates")
            return solve_static(system, **kwargs)

        monkeypatch.setattr(verify, "solve_static", failing_at_1e6)
        sweep = rt.epsilon_sweep(model, field, att, grid, [1e-3, 1e-6, 1e-9])
        assert np.isnan(sweep.l2[1]) and np.isnan(sweep.linf[1])
        failed = sweep.reports[1]
        assert not failed.converged and failed.method == "failed"
        assert sweep.solutions[1] is None and sweep.error_fields[1] is None
        assert sweep.reports[0].converged and sweep.reports[2].converged
        assert np.isfinite(sweep.l2[0]) and np.isfinite(sweep.l2[2])

    def test_zero_field_zero_errors(self, sweep_setup):
        model, _, att, grid = sweep_setup
        f0 = rt.constant_scalar_field(0.0)
        sweep = rt.epsilon_sweep(model, f0, att, grid, [1e-3, 1e-6])
        for sol in sweep.solutions:
            assert np.abs(sol.values).max() <= 1e-10

    def test_error_vanishes_at_outflow_nodes(self, sweep_setup):
        model, field, att, grid = sweep_setup
        mask = rt.classify_boundary(grid, model)
        sweep = rt.epsilon_sweep(model, field, att, grid, [1e-3])
        assert_allclose(sweep.error_fields[0].values[mask.outflow_idx], 0.0)

    def test_determinism(self, sweep_setup):
        model, field, att, grid = sweep_setup
        a = rt.epsilon_sweep(model, field, att, grid, [1e-4])
        b = rt.epsilon_sweep(model, field, att, grid, [1e-4])
        assert np.array_equal(a.solutions[0].values, b.solutions[0].values)
        assert a.l2 == b.l2 and a.linf == b.linf

    def test_eps_list_validation(self, sweep_setup):
        model, field, att, grid = sweep_setup
        with pytest.raises(ValueError):
            rt.epsilon_sweep(model, field, att, grid, [1e-6, 1e-3])
        with pytest.raises(ValueError):
            rt.epsilon_sweep(model, field, att, grid, [])
        for eps in ([np.inf], [np.nan], [1e-3, np.nan], [np.inf, 1e-3]):
            with pytest.raises(ValueError, match="positive and finite"):
                rt.epsilon_sweep(model, field, att, grid, eps)
