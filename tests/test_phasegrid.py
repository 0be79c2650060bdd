import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import raytransport as rt
from conftest import laplace_x_matrix, laplace_xi_matrix
from raytransport.geodesic import speed_defect
from raytransport.phasegrid import (
    GLANCING,
    INFLOW,
    OUTFLOW,
    _central_first,
    _central_second,
    _matrix,
    _periodic,
    _radial,
    _radial_first,
    _radial_second,
    h_matrix,
    laplace_matrix,
)


def apply_H(grid, model, u):
    """Upwind ray derivative of a grid function."""
    return rt.GridFunction(grid, h_matrix(grid, model) @ u.values)


def apply_laplace(grid, model, u):
    """Phase Laplacian (spatial + fiber part) of a grid function."""
    return rt.GridFunction(grid, laplace_matrix(grid, model) @ u.values)


def node_rings(grid):
    lin = np.arange(grid.size)
    return lin // (grid.J * grid.K)


class TestGridConstruction:
    def test_demo_grid_size(self, demo_model):
        grid = rt.build_grid(demo_model, 30, 30, 10)
        assert grid.size == 9000

    def test_small_grid_nodes(self, demo_model):
        grid = rt.build_grid(demo_model, 3, 3, 3)
        assert grid.size == 27
        assert_allclose(grid.r[::grid.J * grid.K], [1 / 3, 2 / 3, 1.0])

    def test_boundary_radius_exact(self, demo_model):
        grid = rt.build_grid(demo_model, 12, 8, 6)
        r = np.linalg.norm(grid.x[grid.boundary_indices], axis=1)
        assert_allclose(r, 1.0, rtol=0, atol=1e-15)

    def test_index_bijection(self, demo_model):
        grid = rt.build_grid(demo_model, 4, 5, 6)
        seen = set()
        for i in range(4):
            for j in range(5):
                for k in range(6):
                    idx = grid.index(i, j, k)
                    assert 0 <= idx < grid.size
                    seen.add(idx)
        assert len(seen) == grid.size

    def test_nodes_are_unit_speed_states(self, demo_model):
        grid = rt.build_grid(demo_model, 6, 7, 5)
        for i in range(0, grid.size, 29):
            assert speed_defect(demo_model, grid.x[i], grid.xi[i]) <= 1e-10

    def test_degenerate_sizes_rejected(self, demo_model):
        with pytest.raises(ValueError):
            rt.build_grid(demo_model, 2, 5, 5)


class TestBoundaryClassification:
    def test_classes(self, demo_model):
        grid = rt.build_grid(demo_model, 8, 8, 8)
        mask = rt.classify_boundary(grid, demo_model)
        classes = {}
        for pos, idx in enumerate(mask.boundary_idx):
            j = (idx // grid.K) % grid.J
            k = idx % grid.K
            classes[(j, k)] = mask.classes[pos]
        # theta_k = phi_j  -> radially outward
        assert classes[(2, 2)] == OUTFLOW
        # theta = phi + pi -> radially inward (k - j = 4 on an 8-grid)
        assert classes[(2, 6)] == INFLOW
        # theta = phi + pi/2 -> tangential (k - j = 2)
        assert classes[(2, 4)] == GLANCING

    def test_partition(self, demo_model):
        grid = rt.build_grid(demo_model, 6, 10, 8)
        mask = rt.classify_boundary(grid, demo_model)
        total = mask.outflow_idx.size + mask.inflow_idx.size + mask.glancing_idx.size
        assert total == grid.J * grid.K


class TestAdvectionCoefficients:
    def test_straight_medium_no_turning(self, unit_model):
        grid = rt.build_grid(unit_model, 6, 6, 6)
        _, _, thetadot = rt.advection_coefficients(grid, unit_model)
        assert_allclose(thetadot, 0.0, atol=1e-15)

    def test_radial_directions_do_not_turn(self, demo_model):
        grid = rt.build_grid(demo_model, 8, 8, 8)
        rdot, phidot, thetadot = rt.advection_coefficients(grid, demo_model)
        # nodes with theta == phi move radially in a rotationally symmetric medium
        lin = np.arange(grid.size)
        j = (lin // grid.K) % grid.J
        k = lin % grid.K
        radial = j == k
        assert np.all(thetadot[radial] == 0.0)
        assert np.all(phidot[radial] == 0.0)

    def test_turning_rate_matches_traced_ray(self, demo_model):
        """thetadot agrees with d/dtau of the traced direction angle."""
        grid = rt.build_grid(demo_model, 8, 8, 8)
        _, _, thetadot = rt.advection_coefficients(grid, demo_model)
        nodes = (grid.index(3, 2, 5), grid.index(5, 6, 1))
        paths = rt.trace(demo_model, [rt.PhaseSpacePoint(grid.x[i], grid.xi[i]) for i in nodes],
                         rt.IntegratorConfig(step=1e-4, max_steps=120000))
        for i, path in zip(nodes, paths):
            mid = np.searchsorted(path.taus, 0.0)
            ang = np.unwrap(np.arctan2(path.vs[:, 1], path.vs[:, 0]))
            fd = (ang[mid + 1] - ang[mid - 1]) / (path.taus[mid + 1] - path.taus[mid - 1])
            assert thetadot[i] == pytest.approx(fd, abs=1e-6)


class TestUpwindDerivative:
    def test_constant_annihilated(self, unit_model):
        grid = rt.build_grid(unit_model, 10, 10, 6)
        out = apply_H(grid, unit_model, rt.GridFunction(grid, np.ones(grid.size)))
        assert_allclose(out.values, 0.0, atol=1e-13)

    def test_linear_function_straight_medium(self, unit_model):
        grid = rt.build_grid(unit_model, 16, 16, 8)
        u = rt.GridFunction(grid, grid.x[:, 0])
        out = apply_H(grid, unit_model, u)
        # H x1 = xi_1 = cos(theta); first-order scheme, O(spacing) error
        spacing = max(grid.dr, grid.dphi, grid.dtheta)
        assert np.abs(out.values - np.cos(grid.theta)).max() <= spacing

    def test_first_order_convergence(self, demo_model):
        def exact(grid):
            _, _, thetadot = rt.advection_coefficients(grid, demo_model)
            e = np.exp(grid.x[:, 0])
            c, s = np.cos(grid.x[:, 1]), np.sin(grid.x[:, 1])
            w = 1 + 0.3 * np.sin(grid.theta)
            du1, du2 = e * c * w, -e * s * w
            duth = e * c * 0.3 * np.cos(grid.theta)
            return grid.xi[:, 0] * du1 + grid.xi[:, 1] * du2 + thetadot * duth

        errs = []
        for (I, J, K) in [(16, 16, 12), (32, 32, 24)]:
            grid = rt.build_grid(demo_model, I, J, K)
            u = rt.GridFunction(
                grid, np.exp(grid.x[:, 0]) * np.cos(grid.x[:, 1]) * (1 + 0.3 * np.sin(grid.theta)))
            got = apply_H(grid, demo_model, u).values
            errs.append(np.abs(got - exact(grid)).max())
        assert 1.5 <= errs[0] / errs[1] <= 2.5

    def test_matches_flow_derivative(self, demo_model):
        """Discrete H approximates d/dtau u(ray(tau)) sampled along traced rays."""
        grid = rt.build_grid(demo_model, 24, 24, 16)

        def u_fn(x, theta):
            return np.exp(x[..., 0]) * np.cos(x[..., 1]) * (1 + 0.3 * np.sin(theta))

        u = rt.GridFunction(grid, u_fn(grid.x, grid.theta))
        hu = apply_H(grid, demo_model, u).values
        nodes = (grid.index(10, 5, 3), grid.index(15, 20, 9))
        paths = rt.trace(demo_model, [rt.PhaseSpacePoint(grid.x[i], grid.xi[i]) for i in nodes],
                         rt.IntegratorConfig(step=1e-4, max_steps=120000))
        for i, path in zip(nodes, paths):
            mid = np.searchsorted(path.taus, 0.0)
            ang = np.unwrap(np.arctan2(path.vs[:, 1], path.vs[:, 0]))
            uv = u_fn(path.xs, ang)
            fd = (uv[mid + 1] - uv[mid - 1]) / (path.taus[mid + 1] - path.taus[mid - 1])
            assert hu[i] == pytest.approx(fd, abs=3 * max(grid.dr, grid.dphi, grid.dtheta))

    def test_upwind_uses_upstream_neighbors(self, demo_model):
        """White-box: rows never reference the downstream radial/angular neighbor."""
        grid = rt.build_grid(demo_model, 8, 8, 8)
        rdot, phidot, _ = rt.advection_coefficients(grid, demo_model)
        h = h_matrix(grid, demo_model).tolil()
        rings = node_rings(grid)
        lin = np.arange(grid.size)
        JK = grid.J * grid.K
        checked = 0
        for i in lin[(rings >= 1) & (rings <= grid.I - 2)][::17]:
            row = dict(zip(h.rows[i], h.data[i]))
            down_r = i + JK if rdot[i] >= 0 else i - JK
            assert row.get(down_r, 0.0) == 0.0
            j0 = (i // grid.K) % grid.J
            jp = i + (((j0 + 1) % grid.J) - j0) * grid.K
            jm = i + (((j0 - 1) % grid.J) - j0) * grid.K
            down_phi = jp if phidot[i] >= 0 else jm
            assert row.get(down_phi, 0.0) == 0.0
            checked += 1
        assert checked > 10

    def test_periodic_wraparound_structure(self, demo_model):
        """Angle stencils wrap: seam nodes reference their upstream neighbor
        across the periodic boundary."""
        grid = rt.build_grid(demo_model, 6, 9, 7)
        _, phidot, thetadot = rt.advection_coefficients(grid, demo_model)
        h = h_matrix(grid, demo_model).tolil()
        wraps = 0
        for k in range(grid.K):
            i = grid.index(2, 0, k)
            up = grid.index(2, grid.J - 1, k) if phidot[i] >= 0 else grid.index(2, 1, k)
            assert up in set(h.rows[i])
            wraps += phidot[i] >= 0
        for j in range(grid.J):
            i = grid.index(2, j, 0)
            up = grid.index(2, j, grid.K - 1) if thetadot[i] >= 0 else grid.index(2, j, 1)
            assert up in set(h.rows[i])
            wraps += thetadot[i] >= 0
        assert wraps > 0


class TestZeroRates:
    """A rate that is exactly 0 on the grid adds no leg to H, whatever its round-off."""

    @pytest.mark.parametrize("spec, shape", [
        ("paper4", (10, 10, 8)), ("paper4", (30, 30, 10)), ("affine:2,0.3,0.2", (40, 40, 20))])
    def test_no_legs_along_zero_rates(self, spec, shape):
        model = rt.parse_model(spec)
        grid = rt.build_grid(model, *shape)
        h = h_matrix(grid, model).tocoo()
        assert np.all(h.data != 0.0)
        ri, rj, rk = np.unravel_index(h.row, shape)
        ci, cj, ck = np.unravel_index(h.col, shape)
        J = shape[1]
        # the pole's upstream radial neighbor: the node(s) at phi + pi in ring 1
        antipodal = (ri == 0) & (ci == 0) & (ck == rk) & ((cj - rj - J // 2) % J <= J % 2)
        phi_leg = (ci == ri) & (ck == rk) & (cj != rj) & ~antipodal
        theta_leg = (ci == ri) & (cj == rj) & (ck != rk)
        radial_leg = (ci != ri) | antipodal
        angle = grid.theta[h.row] - grid.phi[h.row]
        radial = np.abs(np.sin(angle)) < 1e-9
        tangential = np.abs(np.cos(angle)) < 1e-9
        assert radial.any()
        assert not np.any(radial & phi_leg)
        if model.radial:
            assert not np.any(radial & theta_leg)
        assert not np.any(tangential & radial_leg)


class TestLaplacian:
    def test_constant_annihilated(self, demo_model):
        grid = rt.build_grid(demo_model, 10, 10, 6)
        out = apply_laplace(grid, demo_model, rt.GridFunction(grid, np.ones(grid.size)))
        assert_allclose(out.values, 0.0, atol=1e-12)

    def test_quadratic_radial_function(self, unit_model):
        grid = rt.build_grid(unit_model, 12, 12, 8)
        lap = laplace_x_matrix(grid, unit_model) @ (grid.r**2)
        rings = node_rings(grid)
        interior = (rings >= 1) & (rings <= grid.I - 2)
        assert_allclose(lap[interior], 4.0, atol=(grid.dr**2) * 10 + 1e-12)

    def test_fiber_second_derivative(self, demo_model):
        grid = rt.build_grid(demo_model, 6, 6, 24)
        u = np.cos(grid.theta)
        got = laplace_xi_matrix(grid, demo_model) @ u
        assert_allclose(got, -np.cos(grid.theta), atol=grid.dtheta**2)

    def test_fiber_part_matches_ambient_formula(self, demo_model):
        """The theta stencil reproduces the ambient fiber Laplacian 1/n^2 sum d^2/dxi_i^2
        applied to the degree-0 homogeneous extension, here checked on cos(3 theta)
        by refinement against the exact fiber derivative."""
        gaps = []
        for K in (24, 48):
            grid = rt.build_grid(demo_model, 5, 5, K)
            u = np.cos(3 * grid.theta)
            got = laplace_xi_matrix(grid, demo_model) @ u
            # ambient value via central differences in the xi plane
            n = grid.n_node
            h = 1e-4
            amb = np.zeros(grid.size)
            for d, e in enumerate(np.eye(2)):
                for sgn in (1.0, -1.0):
                    xi = grid.xi + sgn * h * e
                    ang = np.arctan2(xi[:, 1], xi[:, 0])
                    amb += np.cos(3 * ang)
                amb -= 2 * np.cos(3 * grid.theta)
            amb = amb / h**2 / n**2
            gaps.append(np.abs(got - amb).max())
        assert gaps[0] / gaps[1] > 3.0

    def test_second_order_convergence(self, unit_model):
        errs = []
        for (I, J, K) in [(12, 12, 8), (24, 24, 16)]:
            grid = rt.build_grid(unit_model, I, J, K)
            u = np.exp(grid.x[:, 0]) * np.cos(grid.x[:, 1])  # harmonic: Delta_x u = 0
            lap = laplace_x_matrix(grid, unit_model) @ u
            rings = node_rings(grid)
            interior = (rings >= 1) & (rings <= grid.I - 2)
            errs.append(np.abs(lap[interior]).max())
        assert 3.0 <= errs[0] / errs[1] <= 5.5

    def test_periodicity_exact(self, demo_model):
        grid = rt.build_grid(demo_model, 6, 9, 7)  # odd angle counts hit the interpolated pole closure
        u_vals = np.sin(2 * grid.phi) * np.cos(grid.theta) + grid.r
        a = apply_laplace(grid, demo_model, rt.GridFunction(grid, u_vals)).values
        b = apply_laplace(grid, demo_model, rt.GridFunction(grid, u_vals.copy())).values
        assert np.array_equal(a, b)


def assert_canonical(m):
    """CSR with strictly increasing columns in each row and no stored zero."""
    assert m.format == "csr"
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    assert np.all(np.diff(rows * m.shape[1] + m.indices) > 0)
    assert np.all(m.data != 0.0)


# at J = 3 the pole's antipodal columns are also its phi neighbors
PLACEMENT_CASES = [(medium, shape) for medium in ("paper4", "affine:2,0.3,0.2", "constant:1.0")
                   for shape in ((3, 3, 3), (6, 9, 7), (10, 10, 8))]


class TestPlacement:
    """Each operator is one placement of its stencils' legs; Delta_x equals its
    single-stencil matrices scaled node by node with sp.diags."""

    @staticmethod
    def old_algebra(grid, model):
        """Delta_x and Delta from the five single-stencil matrices, scaled by sp.diags."""
        d2r = _matrix(grid, _radial(grid, *_radial_second(grid.dr)))
        d1r = _matrix(grid, _radial(grid, *_radial_first(grid.dr)))
        d2p = _matrix(grid, _periodic(grid, "phi", _central_second(grid.dphi)))
        d1p = _matrix(grid, _periodic(grid, "phi", _central_first(grid.dphi)))
        d2t = _matrix(grid, _periodic(grid, "theta", _central_second(grid.dtheta)))
        n = grid.n_node
        g = np.asarray(model.grad_n(grid.x), dtype=float)
        c, s = np.cos(grid.phi), np.sin(grid.phi)
        g_r, g_phi = g[:, 0] * c + g[:, 1] * s, -g[:, 0] * s + g[:, 1] * c
        euclid = d2r + sp.diags(1.0 / grid.r) @ d1r + sp.diags(1.0 / grid.r**2) @ d2p
        drift = sp.diags(g_r) @ d1r + sp.diags(g_phi / grid.r) @ d1p
        lx = (sp.diags(n**-2.0) @ euclid + sp.diags(n**-3.0) @ drift).tocsr()
        return lx, (lx + d2t).tocsr()

    @pytest.fixture(params=PLACEMENT_CASES, ids=str)
    def operators(self, request):
        spec, shape = request.param
        model = rt.parse_model(spec)
        grid = rt.build_grid(model, *shape)
        ops = [f(grid, model) for f in (h_matrix, laplace_x_matrix, laplace_xi_matrix, laplace_matrix)]
        return grid, model, ops

    def test_canonical_without_zeros(self, operators):
        for m in operators[2]:
            assert_canonical(m)

    def test_laplacian_is_union_of_parts(self, operators):
        _, _, (_, lx, lxi, lap) = operators
        union = (abs(lx) + abs(lxi)).tocsr()
        assert np.array_equal(lap.indptr, union.indptr)
        assert np.array_equal(lap.indices, union.indices)
        assert abs(lap - (lx + lxi)).max() <= 1e-15 * abs(lap).max()

    def test_matches_diagonal_scaling(self, operators):
        grid, model, (_, lx, _, lap) = operators
        for got, ref in zip((lx, lap), self.old_algebra(grid, model)):
            assert abs(got - ref).max() <= 1e-15 * abs(got).max()


class TestGridFunction:
    def test_size_validation(self, demo_model):
        grid = rt.build_grid(demo_model, 4, 4, 4)
        with pytest.raises(ValueError):
            rt.GridFunction(grid, np.zeros(grid.size - 1))

    def test_finite_validation(self, demo_model):
        grid = rt.build_grid(demo_model, 4, 4, 4)
        bad = np.zeros(grid.size)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            rt.GridFunction(grid, bad)

    def test_slice_shape(self, demo_model):
        grid = rt.build_grid(demo_model, 5, 7, 3)
        gf = rt.GridFunction(grid, np.arange(grid.size, dtype=float))
        assert gf.slice_k(1).shape == (5, 7)
