"""Configuration-driven experiment runner.

Usage: ``raytransport run CONFIG [--workers N] [--allow-unconverged]``.
The subcommand is the ``run.command`` key of the config.  Exit codes:
0 success, 2 config error, 3 numerical failure, 4 non-convergence (unless
``--allow-unconverged``).  The environment variable ``RAYTRANSPORT_OUTPUT``
overrides the configured output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import exports
from .config import ExperimentConfig, load_config
from .errors import ConfigError, DomainError, NonConvergenceError, NumericalError, TraceLimitError
from .geodesic import IntegratorConfig, angle_phase_point, trace
from .phasegrid import build_grid, classify_boundary
from .refractive import coercivity_margin, parse_model
from .solve import assemble, discrete_coercivity, solve_dynamic, solve_static, time_levels
from .tensorfield import parse_field
from .transport import dynamic_boundary_table, parse_attenuation
from .verify import check_fiber_identity, epsilon_sweep, standard_fiber_functions

IDENTITY_POINTS = [(0.2, 0.1, -0.3), (-0.4, 0.25, 0.1), (0.0, 0.0, 0.5)]


def _setup(cfg: ExperimentConfig):
    try:
        model = parse_model(cfg.model_spec, dim=cfg.dim)
    except ValueError as exc:
        raise ConfigError(f"model.model: {exc}") from None
    try:
        att = parse_attenuation(cfg.alpha_spec)
    except ValueError as exc:
        raise ConfigError(f"attenuation.alpha: {exc}") from None

    def march_at(step):
        return IntegratorConfig(step=step, max_steps=cfg.max_steps, boundary_tol=cfg.boundary_tol)

    # the oracle marches at the quadrature step, the trace at the integrator step
    return model, att, march_at(cfg.quad_step), march_at(cfg.int_step)


def _field(cfg: ExperimentConfig):
    try:
        return parse_field(cfg.field_spec, dim=cfg.dim, switch_on=cfg.switch_on)
    except ValueError as exc:
        raise ConfigError(f"field.field: {exc}") from None


def _outdir(cfg: ExperimentConfig) -> str:
    out = os.environ.get("RAYTRANSPORT_OUTPUT", cfg.output_dir)
    os.makedirs(out, exist_ok=True)
    return out


def _outflow_table(model, f, att, grid, times, oracle_cfg):
    """The outflow nodes of the grid and the transform over them, one row per time."""
    idx = classify_boundary(grid, model).outflow_idx
    return idx, dynamic_boundary_table(model, f, att, grid.x[idx], grid.xi[idx], times, oracle_cfg)


def _check_converged(reports, allow: bool):
    bad = [r for r in reports if not r.converged]
    if bad and not allow:
        raise NonConvergenceError(
            f"{len(bad)} solve(s) stopped at residual {max(r.final_residual for r in bad):.3e}"
        )


def _cmd_trace(cfg, args) -> int:
    model, _, _, trace_cfg = _setup(cfg)
    p = angle_phase_point(model, np.asarray(cfg.trace_x), cfg.trace_theta)
    try:
        path = trace(model, p, trace_cfg)
    except DomainError as exc:
        raise ConfigError(f"trace.x: {exc}") from None
    out = os.path.join(_outdir(cfg), "path.csv")
    exports.write_path_csv(path, out)
    print(
        f"trace: tau- = {path.tau_minus:.9g}, tau+ = {path.tau_plus:.9g}, "
        f"{len(path)} nodes, wrote {out}"
    )
    return 0


def _cmd_transform_table(cfg, args) -> int:
    model, att, oracle_cfg, _ = _setup(cfg)
    f = _field(cfg)
    grid = build_grid(model, cfg.grid_i, cfg.grid_j, cfg.grid_k)
    times = time_levels(cfg.dt, cfg.t_final) if f.is_dynamic else [0.0]
    idx, table = _outflow_table(model, f, att, grid, times, oracle_cfg)
    # one row per (time, outflow node), times outermost
    columns = [np.repeat(times, idx.size), np.tile(grid.phi[idx], len(times)),
               np.tile(grid.theta[idx], len(times)), table.ravel()]
    out = os.path.join(_outdir(cfg), "table.csv")
    exports.write_csv(out, ["t", "phi", "theta", "value"], columns)
    print(f"transform-table: {len(times)} time(s) x {idx.size} outflow nodes, wrote {out}")
    return 0


def _cmd_solve_static(cfg, args) -> int:
    model, att, oracle_cfg, _ = _setup(cfg)
    f = _field(cfg)
    grid = build_grid(model, cfg.grid_i, cfg.grid_j, cfg.grid_k)
    idx, table = _outflow_table(model, f, att, grid, [0.0], oracle_cfg)
    data = np.zeros(grid.size)
    data[idx] = table[0]
    eps = cfg.epsilons[0]
    system = assemble(grid, model, f, att, eps, data)
    sol, rep = solve_static(system, tol=cfg.tol, max_iter=cfg.max_iter)
    out = _outdir(cfg)
    exports.write_gridfunction_csv(sol, os.path.join(out, "solution.csv"))
    for k in range(grid.K):
        exports.write_pgm_slice(sol, k, os.path.join(out, f"solution_k{k:02d}.pgm"))
    print(
        f"solve-static: eps = {eps:g}, iters = {rep.iterations}, "
        f"residual = {rep.final_residual:.3e}, converged = {str(rep.converged).lower()}"
    )
    _check_converged([rep], args.allow_unconverged)
    return 0


def _cmd_solve_dynamic(cfg, args) -> int:
    model, att, oracle_cfg, _ = _setup(cfg)
    f = _field(cfg)
    grid = build_grid(model, cfg.grid_i, cfg.grid_j, cfg.grid_k)
    times = time_levels(cfg.dt, cfg.t_final)
    _, table = _outflow_table(model, f, att, grid, times, oracle_cfg)
    states, reports = solve_dynamic(grid, model, f, att, cfg.epsilons[0], cfg.dt, cfg.t_final,
                                    table, tol=cfg.tol, max_iter=cfg.max_iter)
    out = _outdir(cfg)
    exports.write_gridfunction_csv(states[-1], os.path.join(out, "final.csv"))
    total_iters = sum(r.iterations for r in reports)
    print(
        f"solve-dynamic: {len(states) - 1} steps to t = {times[-1]:g}, "
        f"total iters = {total_iters}, max residual = {max(r.final_residual for r in reports):.3e}"
    )
    _check_converged(reports, args.allow_unconverged)
    return 0


def _cmd_sweep(cfg, args) -> int:
    model, att, oracle_cfg, _ = _setup(cfg)
    f = _field(cfg)
    grid = build_grid(model, cfg.grid_i, cfg.grid_j, cfg.grid_k)
    sweep = epsilon_sweep(model, f, att, grid, cfg.epsilons, cfg=oracle_cfg, tol=cfg.tol,
                          max_iter=cfg.max_iter, workers=args.workers)
    out = _outdir(cfg)
    exports.write_sweep_csv(sweep, os.path.join(out, "sweep.csv"))
    for e_idx, (field_fn, sol_fn) in enumerate(zip(sweep.error_fields, sweep.solutions)):
        if sol_fn is None:
            continue
        for k in range(grid.K):
            exports.write_pgm_slice(sol_fn, k, os.path.join(out, f"solution_eps{e_idx}_k{k:02d}.pgm"))
            exports.write_pgm_slice(field_fn, k, os.path.join(out, f"relerr_eps{e_idx}_k{k:02d}.pgm"))
    for eps, l2, linf, rep in zip(sweep.epsilons, sweep.l2, sweep.linf, sweep.reports):
        print(
            f"sweep: eps = {eps:g}, l2 = {l2:.6e}, linf = {linf:.6e}, "
            f"iters = {rep.iterations}, converged = {str(rep.converged).lower()}"
        )
    _check_converged(sweep.reports, args.allow_unconverged)
    return 0


def _identity_rows(model, fns, n_theta, n_phi):
    """The fiber identity's (point, fn, lhs, rhs, abs_diff) rows over ``IDENTITY_POINTS`` and
    ``fns``, and their worst scaled discrepancy abs_diff / (1 + |rhs|)."""
    rows, worst = [], 0.0
    for pi, x in enumerate(IDENTITY_POINTS):
        for fi, fn in enumerate(fns):
            chk = check_fiber_identity(model, fn, x, n_theta, n_phi)
            worst = max(worst, chk.abs_diff / (1.0 + abs(chk.rhs)))
            rows.append((pi, fi, chk.lhs, chk.rhs, chk.abs_diff))
    return rows, worst


def _cmd_check_prop1(cfg, args) -> int:
    model, _, _, _ = _setup(cfg)
    fns = standard_fiber_functions()
    # the refinement record: the worst scaled discrepancy at orders 16 and 32
    coarse, fine = (_identity_rows(model, fns, order, order)[1] for order in (16, 32))
    rows, worst = _identity_rows(model, fns, cfg.n_theta, cfg.n_phi)
    out = os.path.join(_outdir(cfg), "prop1.csv")
    exports.write_csv(out, ["point", "fn", "lhs", "rhs", "abs_diff"], zip(*rows))
    print(
        f"check-prop1: convention = metric-gradient (refinement record {coarse:.3e} -> {fine:.3e}), "
        f"worst scaled discrepancy = {worst:.3e}, wrote {out}"
    )
    return 0


def _cmd_coercivity(cfg, args) -> int:
    model, att, _, _ = _setup(cfg)
    rep = coercivity_margin(model, att.alpha0)
    print(
        f"coercivity: sup_riemannian = {rep.sup_riemannian:.6g}, "
        f"sup_euclidean = {rep.sup_euclidean:.6g}, alpha0 = {rep.alpha0:g}, "
        f"satisfied={str(rep.satisfied).lower()}"
    )
    if cfg.dim == 2:
        f = _field(cfg)
        grid = build_grid(model, cfg.grid_i, cfg.grid_j, cfg.grid_k)
        system = assemble(grid, model, f, att, cfg.epsilons[0], np.zeros(grid.size))
        est = discrete_coercivity(system, probes=4, seed=cfg.seed)
        print(
            f"coercivity: discrete lambda_min = {est.lambda_min:.6g} "
            f"(eps = {cfg.epsilons[0]:g}, reliable = {str(est.reliable).lower()})"
        )
    return 0


_COMMANDS = {
    "trace": _cmd_trace,
    "transform-table": _cmd_transform_table,
    "solve-static": _cmd_solve_static,
    "solve-dynamic": _cmd_solve_dynamic,
    "sweep": _cmd_sweep,
    "check-prop1": _cmd_check_prop1,
    "coercivity": _cmd_coercivity,
}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="raytransport", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    runp = sub.add_parser("run", help="execute the command named in a config file")
    runp.add_argument("config", help="path to the experiment config")
    runp.add_argument("--workers", type=int, default=None, help="override run.workers")
    runp.add_argument(
        "--allow-unconverged", action="store_true",
        help="report non-converged solves instead of failing with exit 4",
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.workers is None:
            args.workers = cfg.workers
        elif args.workers < 1:
            raise ConfigError(f"--workers: must be at least 1, got {args.workers}")
        code = _COMMANDS[cfg.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, TraceLimitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc} (pass --allow-unconverged to accept)", file=sys.stderr)
        return 4
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
