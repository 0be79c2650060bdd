"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The demo configuration used throughout is the bundled one: medium
n = x1^2 + x2^2 + 1.5 on the unit disk, vector source
(1/(x1^2 + x2^2 + 1), x1 + x2), absorption 1, grid (30, 30, 10).
"""

import math
import os

import numpy as np
import pytest

import raytransport as rt
from conftest import bouguer_invariant, oracle_residuals, random_phase_points

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def demo_sweep_runs(tmp_path_factory):
    """Run the bundled sweep config twice through the CLI (criteria 6 and 10)."""
    from raytransport.cli import run

    outs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"sweep_{tag}")
        os.environ["RAYTRANSPORT_OUTPUT"] = str(out)
        try:
            code = run(["run", os.path.join(REPO, "configs", "paper4_sweep.cfg")])
        finally:
            del os.environ["RAYTRANSPORT_OUTPUT"]
        assert code == 0, f"bundled sweep exited {code}"
        outs.append(out)
    return outs


@pytest.fixture(scope="module")
def demo_sweep(demo_model, demo_field, unit_attenuation):
    """The bundled sweep in process, with the grid it ran on (criteria 11 to 13)."""
    from raytransport.config import load_config

    cfg = load_config(os.path.join(REPO, "configs", "paper4_sweep.cfg"))
    grid = rt.build_grid(demo_model, cfg.grid_i, cfg.grid_j, cfg.grid_k)
    oracle_cfg = rt.IntegratorConfig(step=cfg.quad_step, max_steps=cfg.max_steps,
                                     boundary_tol=cfg.boundary_tol)
    sweep = rt.epsilon_sweep(demo_model, demo_field, unit_attenuation, grid, cfg.epsilons, oracle_cfg,
                             tol=cfg.tol)
    return grid, sweep


def upwind_solution(grid, model, field, att, u_ref) -> np.ndarray:
    """u_0, the eps = 0 solve of the pinned system with the reference's outflow data, at 1e-10."""
    system = rt.assemble(grid, model, field, att, 0.0, u_ref)
    sol, rep = rt.solve_static(system, tol=1e-10)
    assert rep.converged, f"the eps = 0 solve stopped at residual {rep.final_residual:.3e}"
    return sol.values


@pytest.fixture(scope="module")
def demo_upwind(demo_model, demo_field, unit_attenuation, demo_sweep):
    """u_0 on the bundled sweep's grid and reference (criteria 12 and 13)."""
    grid, sweep = demo_sweep
    return upwind_solution(grid, demo_model, demo_field, unit_attenuation, sweep.u_ref.values)


def observed_orders(errors, steps) -> list[float]:
    """log(e_k / e_k+1) / log(h_k / h_k+1) over consecutive pairs."""
    return [math.log(errors[k] / errors[k + 1]) / math.log(steps[k] / steps[k + 1])
            for k in range(len(errors) - 1)]


def test_criterion_1_euclidean_chords():
    """n = 1: traced rays are straight chords to 1e-10."""
    model = rt.constant_model(1.0)
    rng = np.random.default_rng(101)
    points = []
    for _ in range(100):
        r = 0.9 * math.sqrt(rng.random())
        ang = rng.uniform(0.0, 2.0 * np.pi)
        x = np.array([r * np.cos(ang), r * np.sin(ang)])
        points.append(rt.angle_phase_point(model, x, rng.uniform(0.0, 2.0 * np.pi)))
    worst = 0.0
    for p, path in zip(points, rt.trace(model, points, rt.IntegratorConfig(step=1e-3))):
        chord = p.x[None, :] + path.taus[:, None] * p.xi[None, :]
        worst = max(worst, float(np.abs(path.xs - chord).max()))
    report("criterion 1 (euclidean degeneration)", worst < 1e-10,
           f"sup node deviation over 100 chords = {worst:.3e} < 1e-10")


def test_criterion_2_bouguer_drift(demo_model):
    """Rotational invariant n^2 (x1 v2 - x2 v1) drifts < 1e-6 per unit parameter."""
    rng = np.random.default_rng(202)
    points = []
    for _ in range(20):
        r = 0.8 * math.sqrt(rng.random())
        ang = rng.uniform(0.0, 2.0 * np.pi)
        x = np.array([r * np.cos(ang), r * np.sin(ang)])
        points.append(rt.angle_phase_point(demo_model, x, rng.uniform(0.0, 2.0 * np.pi)))
    worst = 0.0
    for path in rt.trace(demo_model, points, rt.IntegratorConfig(step=1e-3)):
        J = np.array([bouguer_invariant(demo_model, xx, vv) for xx, vv in zip(path.xs, path.vs)])
        span = path.tau_plus - path.tau_minus
        drift = (J.max() - J.min()) / max(np.abs(J).max(), 1e-12) / span
        worst = max(worst, float(drift))
    report("criterion 2 (Bouguer invariant)", worst < 1e-6,
           f"worst relative drift per unit tau over 20 rays = {worst:.3e} < 1e-6")


def test_criterion_3_closed_form_transforms():
    """Constant moment, constant absorption: value c (1 - exp(-a L)) / a."""
    model = rt.constant_model(1.0)
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10):
        beta = rng.uniform(0.0, 2.0 * np.pi)
        psi = beta + rng.uniform(-1.2, 1.2)
        a = rng.uniform(0.5, 2.0)
        x = np.array([np.cos(beta), np.sin(beta)])
        xi = np.array([np.cos(psi), np.sin(psi)])
        L = 2.0 * float(np.dot(x, xi))
        fvec = rng.uniform(-1.0, 1.0, size=2)
        c = float(np.dot(fvec, xi))
        got = rt.interior_solution(
            model, rt.constant_vector_field(fvec), rt.constant_attenuation(a), 0.0,
            rt.PhaseSpacePoint(x, xi))
        want = c * (1.0 - math.exp(-a * L)) / a
        worst = max(worst, abs(got - want) / abs(want))
    report("criterion 3 (closed-form transforms)", worst < 1e-8,
           f"worst relative error over 10 chords = {worst:.3e} < 1e-8")


def test_criterion_4_transport_residual(demo_model, demo_field, unit_attenuation):
    """Residual of the characteristic solution decays at second order in the stencil step."""
    pts = random_phase_points(demo_model, 50, seed=404, r_lo=0.1, r_hi=0.85)
    cfg = rt.IntegratorConfig(step=1e-3)
    r_coarse = oracle_residuals(demo_model, demo_field, unit_attenuation, 0.0, pts, 0.02, cfg)
    r_fine = oracle_residuals(demo_model, demo_field, unit_attenuation, 0.0, pts, 0.01, cfg)
    ratio = float(np.linalg.norm(r_coarse) / np.linalg.norm(r_fine))
    ok = 3.0 <= ratio <= 5.0
    report("criterion 4 (transport derivation)", ok,
           f"residual norms {np.linalg.norm(r_coarse):.3e} -> {np.linalg.norm(r_fine):.3e}, "
           f"halving ratio = {ratio:.3f} in [3, 5]")


def test_criterion_5_fiber_identity():
    """Integral identity at orders (64, 64), <grad n, xi> paired at the metric-unit xi."""
    models = [rt.paper4_model(dim=3), rt.affine_model(2.0, [0.3, 0.0, -0.2])]
    points = [(0.2, 0.1, -0.3), (-0.4, 0.25, 0.1), (0.0, 0.0, 0.5)]
    fns = rt.standard_fiber_functions()
    worst = 0.0
    shrink_ok = True
    for model in models:
        for fn in fns:
            for x in points:
                chk = rt.check_fiber_identity(model, fn, x, 64, 64)
                worst = max(worst, chk.abs_diff / (1.0 + abs(chk.rhs)))
                d128 = rt.check_fiber_identity(model, fn, x, 128, 128).abs_diff
                floor = 1e-12 * (1.0 + abs(chk.rhs))
                # doubling shrinks the gap 4x until the rounding floor
                if chk.abs_diff > floor and d128 > chk.abs_diff / 4.0:
                    shrink_ok = False
    ok = worst <= 1e-6 and shrink_ok
    report("criterion 5 (fiber-integral identity)", ok,
           f"worst scaled discrepancy = {worst:.3e} <= 1e-6, "
           f"doubling shrink (or rounding floor) holds = {shrink_ok}")


def test_criterion_6_demo_sweep(demo_sweep_runs):
    """Bundled sweep: l2 relative error strictly decreasing, all solves at 1e-10."""
    lines = (demo_sweep_runs[0] / "sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    eps = [float(r[0]) for r in rows]
    l2 = [float(r[1]) for r in rows]
    conv = [r[5] == "true" for r in rows]
    ok = (
        eps == [1e-3, 1e-6, 1e-9]
        and l2[0] > l2[1] > l2[2]
        and all(conv)
    )
    report("criterion 6 (demo sweep)", ok,
           f"l2 errors {l2[0]:.6f} > {l2[1]:.6f} > {l2[2]:.6f}, all converged at 1e-10")


def test_criterion_12_viscosity_limit_order(demo_sweep, demo_upwind):
    """The viscosity error |u_eps - u_0| / |u_0| of the bundled sweep is first order in eps, u_0
    the eps = 0 solve on the sweep's reference.  Read in the plain nodal l2 norm until one
    phase-space norm serves every check (ROADMAP item 10)."""
    sweep, u0 = demo_sweep[1], demo_upwind
    errors = [float(np.linalg.norm(sol.values - u0) / np.linalg.norm(u0)) for sol in sweep.solutions]
    orders = observed_orders(errors, sweep.epsilons)
    ok = all(0.9 <= p <= 1.1 for p in orders)
    report("criterion 12 (viscosity limit, order in eps)", ok,
           "viscosity errors " + ", ".join(f"{e:.4e}" for e in errors) + " at eps "
           + ", ".join(f"{e:g}" for e in sweep.epsilons) + "; orders "
           + ", ".join(f"{p:.3f}" for p in orders) + " in [0.9, 1.1] (plain l2)")


def test_criterion_13_viscosity_limit_bound(demo_model, demo_field, unit_attenuation, demo_sweep,
                                            demo_upwind):
    """max |u_eps - u_0| <= eps ||Delta u_0||_inf / alpha at every sweep eps: u_eps - u_0 vanishes
    on the ring and solves A e = eps (Delta u_0) on the interior, and where criterion 11's
    certificate holds ||A^-1||_inf <= 1/alpha."""
    from raytransport.phasegrid import laplace_matrix

    grid, sweep = demo_sweep
    alpha, n, u0 = unit_attenuation.alpha0, grid.n_interior, demo_upwind
    lap_u0 = float(np.max(np.abs((laplace_matrix(grid, demo_model) @ u0)[:n])))
    certified, ratios = True, []
    for eps, sol in zip(sweep.epsilons, sweep.solutions):
        system = rt.assemble(grid, demo_model, demo_field, unit_attenuation, eps, sweep.u_ref.values)
        certified &= rt.m_matrix_certificate(system, alpha).holds
        ratios.append(float(np.max(np.abs(sol.values - u0))) / (eps * lap_u0 / alpha))
    ok = certified and max(ratios) <= 1.0
    report("criterion 13 (viscosity limit, max-norm bound)", ok,
           f"certified = {certified}; max |u_eps - u_0| / (eps ||Delta u_0||_inf / alpha) = "
           + ", ".join(f"{r:.4f}" for r in ratios) + " <= 1")


def test_criterion_14_upwind_grid_order(demo_model, demo_field, unit_attenuation):
    """u_0's grid error |u_0 - u_ref| / |u_ref| (plain l2) falls at first order from cubic 20^3
    to 40^3 grids, the oracle at step 8e-3, approaching the upwind scheme's order 1 from below."""
    sizes, errors = (20, 40), []
    for size in sizes:
        grid = rt.build_grid(demo_model, size, size, size)
        u_ref = rt.interior_solution_grid(demo_model, demo_field, unit_attenuation, grid,
                                          rt.IntegratorConfig(step=8e-3))
        u0 = upwind_solution(grid, demo_model, demo_field, unit_attenuation, u_ref)
        errors.append(float(np.linalg.norm(u0 - u_ref) / np.linalg.norm(u_ref)))
    (order,) = observed_orders(errors, [1.0 / s for s in sizes])
    ok = 0.8 <= order <= 1.0
    report("criterion 14 (eps = 0 grid study)", ok,
           f"grid errors {errors[0]:.6f} -> {errors[1]:.6f} on 20^3 -> 40^3, "
           f"observed order {order:.3f} in [0.8, 1.0] (plain l2)")


def test_criterion_7_coercivity_margins():
    """Refraction margins match the analytic maxima; the affine medium fails."""
    rep = rt.coercivity_margin(rt.paper4_model(), 1.0)
    aff = rt.coercivity_margin(rt.affine_model(2.0, [1.0, 0.0]), 0.4)
    ok = (
        abs(rep.sup_riemannian - math.sqrt(2.0) / 4.0) < 1e-3
        and abs(rep.sup_euclidean - 0.8) < 1e-3
        and rep.satisfied
        and aff.sup_euclidean > aff.alpha0
    )
    report("criterion 7 (coercivity condition)", ok,
           f"demo medium: riemannian {rep.sup_riemannian:.6f} (~0.353553), "
           f"euclidean {rep.sup_euclidean:.6f} (~0.8), satisfied={rep.satisfied}; "
           f"affine euclidean {aff.sup_euclidean:.4f} > alpha0 = {aff.alpha0}")


def test_criterion_8_discrete_coercivity(demo_model, demo_field, unit_attenuation):
    """Symmetric part of the assembled interior block is positive definite."""
    grid = rt.build_grid(demo_model, 10, 10, 8)
    system = rt.assemble(grid, demo_model, demo_field, unit_attenuation, 1e-2, np.zeros(grid.size))
    est = rt.discrete_coercivity(system, probes=4, seed=0)
    ok = est.reliable and est.lambda_min > 0.0
    report("criterion 8 (discrete coercivity)", ok,
           f"lambda_min = {est.lambda_min:.6f} > 0 on (10, 10, 8) at eps = 1e-2")


def test_criterion_11_m_matrix_certificate(demo_model, demo_field, unit_attenuation, demo_sweep):
    """The interior rows [A | C] are an M-matrix with row sums alpha on the demo grid at every
    sweep eps and on (40, 40, 32), and the demo sweep's solutions obey the maximum principle
    ||u||_inf <= max(||f . xi^m||_inf / alpha, ||ring data||_inf)."""
    from raytransport.solve import operator_parts

    alpha = unit_attenuation.alpha0
    grid, sweep = demo_sweep
    n = grid.n_interior
    certs, worst_ratio = [], 0.0
    for eps, sol in zip(sweep.epsilons, sweep.solutions):
        system = rt.assemble(grid, demo_model, demo_field, unit_attenuation, eps, sweep.u_ref.values)
        certs.append(rt.m_matrix_certificate(system, alpha))
        bound = max(np.max(np.abs(system.rhs[:n])) / alpha, np.max(np.abs(system.rhs[n:])))
        worst_ratio = max(worst_ratio, np.max(np.abs(sol.values)) / bound)
    fine = rt.build_grid(demo_model, 40, 40, 32)
    parts = operator_parts(fine, demo_model, unit_attenuation)
    for eps in (1e-2,) + sweep.epsilons:
        system = rt.assemble(fine, demo_model, demo_field, unit_attenuation, eps, np.zeros(fine.size),
                             parts=parts)
        certs.append(rt.m_matrix_certificate(system, alpha))
    ok = all(c.holds for c in certs) and worst_ratio <= 1.0
    report("criterion 11 (M-matrix certificate)", ok,
           f"{len(certs)} systems, max off-diagonal {max(c.max_offdiag for c in certs):.3e} <= 0, "
           f"row sums - alpha >= {min(c.min_row_excess for c in certs):.3e}; "
           f"max |u| / maximum-principle bound = {worst_ratio:.4f} <= 1")


def test_criterion_9_dynamic_stationary_limit():
    """Switched-on static field: the implicit-Euler march reaches the static solve.

    The medium is homogeneous with n = 1.2, placing the longest travel time
    (2.4) just below T = 2.5 so the final step is past the stationary time.
    """
    model = rt.constant_model(1.2)
    f_static = rt.paper4_field()
    f_dyn = rt.with_switch_on(f_static)
    att = rt.constant_attenuation(1.0)
    grid = rt.build_grid(model, 16, 16, 8)
    mask = rt.classify_boundary(grid, model)
    idx = mask.outflow_idx
    cfg = rt.IntegratorConfig()

    u_ref = rt.interior_solution_grid(model, f_static, att, grid, cfg=cfg)
    system = rt.assemble(grid, model, f_static, att, 1e-3, u_ref)
    u_static, rep_static = rt.solve_static(system, tol=1e-10)
    static_err = float(np.linalg.norm(u_static.values - u_ref))

    def final_step(dt, t_final=2.5):
        n = int(round(t_final / dt))
        times = [s * dt for s in range(n + 1)]
        table = rt.dynamic_boundary_table(model, f_dyn, att, grid.x[idx], grid.xi[idx], times, cfg)
        states, reports = rt.solve_dynamic(grid, model, f_dyn, att, 1e-3, dt, t_final, table, tol=1e-10)
        assert all(r.converged for r in reports), f"a step of dt = {dt} did not converge"
        return states[-1].values

    u_dt = final_step(0.05)
    gap = float(np.linalg.norm(u_dt - u_static.values))
    u_dt2 = final_step(0.025)
    u_dt4 = final_step(0.0125)
    ratio = float(np.linalg.norm(u_dt - u_dt2) / np.linalg.norm(u_dt2 - u_dt4))
    ok = rep_static.converged and gap <= 2.0 * static_err and 1.5 <= ratio <= 2.5
    report("criterion 9 (dynamic stationary limit)", ok,
           f"|final - static| = {gap:.4f} <= 2 x static error {static_err:.4f}; "
           f"dt-halving ratio = {ratio:.3f} in [1.5, 2.5]")


def test_criterion_10_sweep_determinism(demo_sweep_runs):
    """Two runs of the bundled config produce byte-identical sweep.csv."""
    a = (demo_sweep_runs[0] / "sweep.csv").read_bytes()
    b = (demo_sweep_runs[1] / "sweep.csv").read_bytes()
    report("criterion 10 (determinism)", a == b,
           f"sweep.csv byte-identical across runs ({len(a)} bytes)")
