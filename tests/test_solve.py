import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import connected_components

import raytransport as rt
from conftest import pinned_matrix
from raytransport import phasegrid as pg
from raytransport import solve
from raytransport.errors import AssemblyError, NumericalError


@pytest.fixture(scope="module")
def small_setup():
    model = rt.paper4_model()
    field = rt.paper4_field()
    att = rt.constant_attenuation(1.0)
    grid = rt.build_grid(model, 10, 10, 8)
    return model, field, att, grid


class TestAssemble:
    def test_zero_data_zero_solution(self, small_setup):
        model, _, att, grid = small_setup
        f0 = rt.constant_scalar_field(0.0)
        system = rt.assemble(grid, model, f0, att, 1e-3, np.zeros(grid.size))
        sol, rep = rt.solve_static(system)
        assert_allclose(sol.values, 0.0)
        assert rep.iterations <= 1
        assert rep.converged and rep.method == "gmres+none"

    def test_constant_injection_row_sums(self, small_setup):
        """Interior rows kill constants except for the absorption term."""
        model, field, att, grid = small_setup
        system = rt.assemble(grid, model, field, att, 1e-3, np.zeros(grid.size))
        c = 3.7
        au = pinned_matrix(system) @ np.full(grid.size, c)
        assert_allclose(au[:grid.n_interior], 1.0 * c, atol=1e-12)

    def test_dirichlet_rows_identity(self, small_setup):
        model, field, att, grid = small_setup
        mask = rt.classify_boundary(grid, model)
        data = np.full(grid.size, 0.5)
        system = rt.assemble(grid, model, field, att, 1e-3, data)
        ring = grid.boundary_indices
        a = pinned_matrix(system)
        for i in ring[::7]:
            row = a.getrow(i)
            assert row.nnz == 1 and row.indices[0] == i and row.data[0] == 1.0
        assert_allclose(system.rhs[mask.outflow_idx], 0.5)
        assert_allclose(system.rhs[mask.inflow_idx], 0.0)

    def test_boundary_data_shape(self, small_setup):
        """Boundary data is a full-grid array; an outflow-length one is rejected."""
        model, field, att, grid = small_setup
        outflow = rt.classify_boundary(grid, model).outflow_idx
        with pytest.raises(AssemblyError, match="shape"):
            rt.assemble(grid, model, field, att, 1e-3, np.zeros(outflow.size))

    @pytest.mark.parametrize("spec, shape", [("paper4", (4, 5, 6)), ("affine:2,0.3,0.2", (7, 9, 4))])
    @pytest.mark.parametrize("eps", [1e-3, 0.0])
    def test_blocks_are_slices_of_the_operator(self, spec, shape, eps):
        """interior and coupling are, bit for bit, the interior rows of -eps Laplace + H + alpha I."""
        model = rt.parse_model(spec)
        grid = rt.build_grid(model, *shape)
        att = rt.constant_attenuation(1.0)
        full = pg.h_matrix(grid, model) + sp.diags(np.full(grid.size, att.alpha0))
        if eps > 0.0:
            full = full - eps * pg.laplace_matrix(grid, model)
        full = full.tocsr()
        full.sum_duplicates()
        full.sort_indices()
        system = rt.assemble(grid, model, rt.paper4_field(), att, eps, np.zeros(grid.size))
        n = grid.n_interior
        _assert_bitwise(system.interior, full[:n, :n])
        _assert_bitwise(system.coupling, full[:n, n:])
        if eps == 0.0:
            _assert_bitwise(system.interior, system.transport)

    def test_epsilon_zero_allowed(self, small_setup):
        model, field, att, grid = small_setup
        system = rt.assemble(grid, model, field, att, 0.0, np.zeros(grid.size))
        sol, rep = rt.solve_static(system)
        assert rep.converged


class TestSolveStatic:
    def test_manufactured_solution(self, small_setup):
        """Freeze a smooth target, feed A u* as data, recover u*."""
        model, field, att, grid = small_setup
        system = rt.assemble(grid, model, field, att, 1e-3, np.zeros(grid.size))
        u_star = np.exp(grid.x[:, 0]) * np.cos(grid.x[:, 1]) * (1 + 0.3 * np.sin(grid.theta))
        b = pinned_matrix(system) @ u_star
        made = dataclasses.replace(system, rhs=b)
        tol = 1e-11
        sol, rep = rt.solve_static(made, tol=tol)
        rel = np.linalg.norm(sol.values - u_star) / np.linalg.norm(u_star)
        assert rel <= 10 * tol
        assert rep.converged

    def test_dirichlet_exactness(self, small_setup):
        model, field, att, grid = small_setup
        mask = rt.classify_boundary(grid, model)
        data = np.zeros(grid.size)
        data[mask.outflow_idx] = 0.25 + 0.1 * np.sin(grid.theta[mask.outflow_idx])
        system = rt.assemble(grid, model, field, att, 1e-3, data)
        sol, _ = rt.solve_static(system)
        assert np.array_equal(sol.values[mask.outflow_idx], data[mask.outflow_idx])
        assert np.array_equal(sol.values[mask.inflow_idx], np.zeros(mask.inflow_idx.size))

    def test_residual_contract(self, small_setup):
        model, field, att, grid = small_setup
        system = rt.assemble(grid, model, field, att, 1e-3, np.zeros(grid.size))
        sol, rep = rt.solve_static(system)
        recomputed = np.linalg.norm(system.rhs - pinned_matrix(system) @ sol.values)
        recomputed /= np.linalg.norm(system.rhs)
        assert rep.final_residual == pytest.approx(recomputed, abs=1e-12)
        if rep.converged:
            assert rep.final_residual <= 1e-10

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_max_iter_below_1(self, small_setup, max_iter):
        model, field, att, grid = small_setup
        system = rt.assemble(grid, model, field, att, 1e-3, np.zeros(grid.size))
        with pytest.raises(ValueError, match="max_iter"):
            rt.solve_static(system, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.inf, np.nan])
    def test_rejects_tol_not_positive_and_finite(self, small_setup, tol):
        model, field, att, grid = small_setup
        system = rt.assemble(grid, model, field, att, 1e-3, np.zeros(grid.size))
        with pytest.raises(ValueError, match="tol"):
            rt.solve_static(system, tol=tol)

    def test_nonnegative_solutions(self, small_setup):
        """Nonnegative source and data give solutions above -(solver tolerance)."""
        model, _, att, grid = small_setup
        f1 = rt.constant_scalar_field(1.0)
        for eps in (0.0, 1e-3):
            system = rt.assemble(grid, model, f1, att, eps, np.zeros(grid.size))
            sol, rep = rt.solve_static(system, tol=1e-12)
            assert sol.values.min() >= -1e-10

    def test_linearity_in_data(self, small_setup):
        model, field, att, grid = small_setup
        mask = rt.classify_boundary(grid, model)
        f0 = rt.constant_scalar_field(0.4)
        phi1 = np.zeros(grid.size)
        phi1[mask.outflow_idx] = 0.3
        u1, _ = rt.solve_static(rt.assemble(grid, model, field, att, 1e-3, np.zeros(grid.size)), tol=1e-12)
        u2, _ = rt.solve_static(rt.assemble(grid, model, f0, att, 1e-3, phi1), tol=1e-12)
        # combined problem: both sources and both boundary data at once
        sys12 = rt.assemble(grid, model, field, att, 1e-3, phi1)
        b = sys12.rhs.copy()
        b[:grid.n_interior] += 0.4  # moment of the rank-0 field is its constant
        merged = dataclasses.replace(sys12, rhs=b)
        u12, _ = rt.solve_static(merged, tol=1e-12)
        assert_allclose(u12.values, u1.values + u2.values, atol=1e-9)

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 0.0])
    def test_matches_direct_solve(self, small_setup, eps):
        """The preconditioner comes from H + alpha alone; the solution is still the viscous one."""
        model, field, att, grid = small_setup
        mask = rt.classify_boundary(grid, model)
        data = np.zeros(grid.size)
        data[mask.outflow_idx] = 0.25 + 0.1 * np.sin(grid.theta[mask.outflow_idx])
        system = rt.assemble(grid, model, field, att, eps, data)
        sol, rep = rt.solve_static(system, tol=1e-10)
        assert rep.converged and rep.method == "gmres+ilu"
        direct = spla.spsolve(pinned_matrix(system).tocsc(), system.rhs)
        assert np.linalg.norm(sol.values - direct) <= 1e-8 * np.linalg.norm(direct)


def _assert_bitwise(a, b):
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _failing_spilu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


SWEEP_MEDIA = [
    ("paper4", (10, 10, 8)),
    ("affine:2,0.3,0.2", (16, 24, 12)),
    ("constant:1", (10, 10, 8)),
    ("radial:2,-0.5,0.25", (10, 10, 8)),  # one strong component of all but the radial-direction nodes
]


def _transport_block(spec, shape):
    model = rt.parse_model(spec)
    grid = rt.build_grid(model, *shape)
    parts = solve.operator_parts(grid, model, rt.constant_attenuation(1.0))
    return model, grid, parts.transport


class TestSweepOrder:
    @pytest.mark.parametrize("spec, shape", SWEEP_MEDIA)
    def test_upwind_neighbours_come_first(self, spec, shape):
        _, _, block = _transport_block(spec, shape)
        order = solve.sweep_order(block)
        n = block.shape[0]
        assert np.array_equal(np.sort(order), np.arange(n))
        position = np.argsort(order)
        _, component = connected_components(block, directed=True, connection="strong")
        coo = block.tocoo()  # row i couples node i to its upwind neighbours
        later = position[coo.col] > position[coo.row]
        assert not np.any(later & (component[coo.col] != component[coo.row]))

    @pytest.mark.parametrize("spec, shape", SWEEP_MEDIA)
    def test_preconditioner_inverts_the_block(self, spec, shape):
        _, _, block = _transport_block(spec, shape)
        precond = solve.make_preconditioner(block)
        v = np.random.default_rng(5).standard_normal(block.shape[0])
        assert np.linalg.norm(precond.matvec(block @ v) - v) <= 1e-5 * np.linalg.norm(v)

    def test_failed_factorization_is_a_numerical_failure(self, monkeypatch):
        _, _, block = _transport_block(*SWEEP_MEDIA[0])
        monkeypatch.setattr(spla, "spilu", _failing_spilu)
        with pytest.raises(NumericalError, match="incomplete LU"):
            solve.make_preconditioner(block)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("alpha", [1.0, 1.0 + 1.0 / 0.05])
    @pytest.mark.parametrize("spec, shape", SWEEP_MEDIA + [("paper4", (30, 30, 10))])
    def test_m_matrix_certificate_holds(self, spec, shape, alpha, eps):
        """No positive off-diagonal entry in [A | C] and row sums alpha to round-off, at the static
        alpha and the implicit Euler alpha + 1/dt; at eps = 0, A is the transport block the ILU
        factors, so its row sums are at least alpha and its diagonal positive."""
        model = rt.parse_model(spec)
        grid = rt.build_grid(model, *shape)
        att = rt.constant_attenuation(alpha)
        system = rt.assemble(grid, model, rt.paper4_field(), att, eps, np.zeros(grid.size))
        cert = rt.m_matrix_certificate(system, alpha)
        assert cert.holds
        assert cert.max_offdiag <= 0.0
        assert abs(cert.min_row_excess) <= 1e-12 * alpha
        diag = system.interior.diagonal()
        assert np.all(diag > 0.0)

    def test_m_matrix_certificate_names_failing_rows(self, small_setup):
        """A positive off-diagonal entry and a row sum short of alpha each fail their row."""
        model, field, att, grid = small_setup
        system = rt.assemble(grid, model, field, att, 1e-3, np.zeros(grid.size))
        interior = system.interior.tolil()
        interior[3, 4] = 0.5
        interior[7, 7] -= 0.25
        cert = rt.m_matrix_certificate(dataclasses.replace(system, interior=interior.tocsr()), att.alpha0)
        assert not cert.holds
        assert cert.max_offdiag == 0.5
        assert cert.min_row_excess == pytest.approx(-0.25)
        assert cert.failing_rows.tolist() == [3, 7]
        strict = rt.m_matrix_certificate(system, 2.0 * att.alpha0)
        assert strict.failing_rows.size == grid.n_interior

    def test_single_component_medium_solves(self):
        """Radial-direction nodes neither turn nor sweep in phi, so each is a
        component of its own; every other node lies on one strong component."""
        model, grid, block = _transport_block(*SWEEP_MEDIA[-1])
        count, component = connected_components(block, directed=True, connection="strong")
        n = block.shape[0]
        radial = np.abs(np.sin(grid.theta[:n] - grid.phi[:n])) < 1e-9
        assert count == 37 and radial.sum() == 36
        assert np.all(np.bincount(component)[component[radial]] == 1)
        assert np.unique(component[~radial]).size == 1
        mask = rt.classify_boundary(grid, model)
        data = np.zeros(grid.size)
        data[mask.outflow_idx] = 0.25 + 0.1 * np.sin(grid.theta[mask.outflow_idx])
        system = rt.assemble(grid, model, rt.paper4_field(), rt.constant_attenuation(1.0), 1e-3, data)
        sol, rep = rt.solve_static(system, tol=1e-10)
        assert rep.converged and rep.method == "gmres+ilu"
        direct = spla.spsolve(pinned_matrix(system).tocsc(), system.rhs)
        assert np.linalg.norm(sol.values - direct) <= 1e-8 * np.linalg.norm(direct)


class TestSolveDynamic:
    def test_reports_preconditioner_used(self, small_setup):
        model, field, att, grid = small_setup
        table = np.zeros((3, rt.classify_boundary(grid, model).outflow_idx.size))
        _, reports = rt.solve_dynamic(grid, model, field, att, 1e-3, 0.5, 1.0, table)
        assert {r.method for r in reports} == {"gmres+ilu"}
        assert all(r.converged for r in reports)

    def test_matches_direct_steps(self, small_setup):
        """Each implicit Euler step equals a direct solve of the pinned step system."""
        model, field, att, grid = small_setup
        f = rt.with_switch_on(field)
        mask = rt.classify_boundary(grid, model)
        eps, dt = 1e-3, 0.25
        table = np.random.default_rng(3).standard_normal((5, mask.outflow_idx.size))
        states, reports = rt.solve_dynamic(grid, model, f, att, eps, dt, 1.0, table)
        assert all(r.converged for r in reports)
        n = grid.n_interior
        shift = sp.diags(np.r_[np.full(n, 1.0 / dt), np.zeros(grid.size - n)])
        u = np.zeros(grid.size)
        for step in range(1, 5):
            data = np.zeros(grid.size)
            data[mask.outflow_idx] = table[step]
            system = rt.assemble(grid, model, f, att, eps, data, t=step * dt)
            b = system.rhs.copy()
            b[:n] += u[:n] / dt
            u = spla.spsolve((pinned_matrix(system) + shift).tocsc(), b)
            assert np.linalg.norm(states[step].values - u) <= 1e-8 * np.linalg.norm(u)

    def test_reports_the_step_system_residual(self, small_setup):
        """Each step reports the relative residual of its pinned step system."""
        model, field, att, grid = small_setup
        f = rt.with_switch_on(field)
        mask = rt.classify_boundary(grid, model)
        eps, dt = 1e-3, 0.25
        table = np.random.default_rng(3).standard_normal((5, mask.outflow_idx.size))
        states, reports = rt.solve_dynamic(grid, model, f, att, eps, dt, 1.0, table)
        n = grid.n_interior
        shift = sp.diags(np.r_[np.full(n, 1.0 / dt), np.zeros(grid.size - n)])
        for step in range(1, 5):
            data = np.zeros(grid.size)
            data[mask.outflow_idx] = table[step]
            system = rt.assemble(grid, model, f, att, eps, data, t=step * dt)
            b = system.rhs.copy()
            b[:n] += states[step - 1].values[:n] / dt
            res = np.linalg.norm(b - (pinned_matrix(system) + shift) @ states[step].values) / np.linalg.norm(b)
            assert reports[step - 1].final_residual == pytest.approx(res, rel=1e-9)

    def test_factors_once_per_march(self, small_setup, monkeypatch):
        model, field, att, grid = small_setup
        calls = []
        spilu = spla.spilu
        monkeypatch.setattr(spla, "spilu", lambda *a, **k: calls.append(1) or spilu(*a, **k))
        table = np.ones((5, rt.classify_boundary(grid, model).outflow_idx.size))
        _, reports = rt.solve_dynamic(grid, model, field, att, 1e-3, 0.25, 1.0, table)
        assert {r.method for r in reports} == {"gmres+ilu"}
        assert len(calls) == 1

    def test_slicing_does_not_grow_with_steps(self, small_setup, monkeypatch):
        """The march slices its matrices a fixed number of times, however many steps it takes."""
        model, field, att, grid = small_setup
        cls = type(pinned_matrix(rt.assemble(grid, model, field, att, 1e-3, np.zeros(grid.size))))
        getitem = cls.__getitem__
        calls = []
        monkeypatch.setattr(cls, "__getitem__", lambda self, key: calls.append(1) or getitem(self, key))
        counts = []
        for steps in (4, 8):
            calls.clear()
            table = np.ones((steps + 1, rt.classify_boundary(grid, model).outflow_idx.size))
            rt.solve_dynamic(grid, model, field, att, 1e-3, 1.0 / steps, 1.0, table)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_zero_everything(self, small_setup):
        model, _, att, grid = small_setup
        f0 = rt.constant_scalar_field(0.0)
        mask = rt.classify_boundary(grid, model)
        table = np.zeros((5, mask.outflow_idx.size))
        states, reports = rt.solve_dynamic(grid, model, f0, att, 1e-3, 0.25, 1.0, table)
        assert len(states) == 5
        for s in states:
            assert_allclose(s.values, 0.0)
        assert all(r.converged for r in reports)

    def test_unconverged_steps_are_reported(self, small_setup):
        """Non-convergence is reported per step, not raised, and the march runs to the end."""
        model, field, att, grid = small_setup
        table = np.zeros((3, rt.classify_boundary(grid, model).outflow_idx.size))
        states, reports = rt.solve_dynamic(grid, model, field, att, 1e-3, 0.5, 1.0, table,
                                           tol=1e-30, max_iter=1)
        assert len(states) == 3 and len(reports) == 2
        assert not any(r.converged for r in reports)

    def test_steps_solve_the_system_assembled_at_alpha_plus_1_over_dt(self, small_setup, monkeypatch):
        """Every step's operator is bit for bit ``assemble``'s at absorption alpha + 1/dt."""
        model, field, att, grid = small_setup
        eps, dt = 1e-3, 0.25
        table = np.ones((5, rt.classify_boundary(grid, model).outflow_idx.size))
        systems = []
        solve_static = solve.solve_static
        monkeypatch.setattr(solve, "solve_static",
                            lambda system, *a, **k: systems.append(system) or solve_static(system, *a, **k))
        rt.solve_dynamic(grid, model, field, att, eps, dt, 1.0, table)
        shifted = rt.assemble(grid, model, field, rt.constant_attenuation(att.alpha0 + 1.0 / dt), eps,
                              np.zeros(grid.size))
        assert len(systems) == 4
        for system in systems:
            for name in ("interior", "coupling", "transport"):
                a, b = getattr(system, name), getattr(shifted, name)
                assert (a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes()) == (
                    b.indptr.tobytes(), b.indices.tobytes(), b.data.tobytes()), name

    def test_table_shape_checked(self, small_setup):
        model, field, att, grid = small_setup
        table = np.zeros((2, rt.classify_boundary(grid, model).outflow_idx.size))
        with pytest.raises(AssemblyError, match="boundary table shape"):
            rt.solve_dynamic(grid, model, field, att, 1e-3, 0.5, 1.0, table)


class TestDiscreteCoercivity:
    def test_demo_configuration_positive(self, small_setup):
        model, field, att, grid = small_setup
        system = rt.assemble(grid, model, field, att, 1e-2, np.zeros(grid.size))
        est = rt.discrete_coercivity(system, probes=3, seed=0)
        assert est.reliable
        assert est.lambda_min > 0.0

    @pytest.mark.parametrize("probes", [0, -2])
    def test_rejects_probes_below_1(self, small_setup, probes):
        model, field, att, grid = small_setup
        system = rt.assemble(grid, model, field, att, 1e-2, np.zeros(grid.size))
        with pytest.raises(ValueError, match="probes"):
            rt.discrete_coercivity(system, probes=probes)

    def test_identity_dominated(self, unit_model):
        grid = rt.build_grid(unit_model, 8, 8, 6)
        att = rt.constant_attenuation(1.0)
        system = rt.assemble(grid, unit_model, rt.constant_scalar_field(0.0), att, 1.0, np.zeros(grid.size))
        est = rt.discrete_coercivity(system, probes=2, seed=1)
        assert est.lambda_min > 0.0

    def test_violating_model_recorded(self):
        """When the refraction margin fails, the estimate may go nonpositive;
        it is recorded, not asserted."""
        model = rt.affine_model(2.0, [1.0, 0.0])
        att = rt.constant_attenuation(0.05)
        grid = rt.build_grid(model, 8, 8, 6)
        system = rt.assemble(grid, model, rt.constant_scalar_field(1.0), att, 1e-2, np.zeros(grid.size))
        est = rt.discrete_coercivity(system, probes=2, seed=2)
        assert np.isfinite(est.lambda_min)

    def test_symmetric_part(self, small_setup):
        model, field, att, grid = small_setup
        system = rt.assemble(grid, model, field, att, 1e-3, np.zeros(grid.size))
        s = rt.symmetric_part(pinned_matrix(system))
        assert abs(s - s.T).max() == 0.0
