#!/usr/bin/env python3
"""Check that two source trees build bit-identical operators and solutions.

Usage: ``python3 scripts/operator_bits.py OLD_SRC NEW_SRC`` where each
argument is a directory holding the ``raytransport`` package (for example a
checkout's ``src``).  Each tree is imported in its own process, which hashes
the ``indptr``/``indices``/``data`` of H, Delta_x, Delta_xi and Delta for
three media on six grids, and on the small grids also the assembled system,
every matrix handed to ``spilu``, the static and dynamic solutions, their
residuals and the coercivity estimate.  It also hashes the characteristic
oracle: ``interior_solution_grid`` for the three media on the small grids and
for paper4 on (30, 30, 10), the switch-on ``dynamic_boundary_table`` (the
recorded march), the ``trace`` paths of three states and ``oracle_residuals``
at three points.  Exits 1 if any hash differs.
"""

import hashlib
import os
import pickle
import subprocess
import sys

GRIDS = [(3, 3, 3), (4, 5, 6), (7, 9, 4), (10, 10, 8), (30, 30, 10), (40, 40, 20)]
SOLVE_MAX_NODES = 10 * 10 * 8
SMALL_GRIDS = GRIDS[:4]
DEMO_GRID = (30, 30, 10)
TRACE_STATES = [([0.3, -0.2], 1.1), ([0.0, 0.0], 0.4), ([-0.6, 0.5], 2.9)]


def _hash(a):
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() + f":{a.dtype}:{a.shape}"


def _mat(m):
    return _hash(m.indptr), _hash(m.indices), _hash(m.data)


def dump() -> dict:
    import numpy as np
    import scipy.sparse.linalg as spla

    import raytransport as rt
    from raytransport import phasegrid as pg
    from raytransport import solve as sv

    spilu_inputs = []
    spilu = spla.spilu

    def recording_spilu(a, *args, **kwargs):
        spilu_inputs.append(_mat(a))
        return spilu(a, *args, **kwargs)

    spla.spilu = recording_spilu
    media = {
        "paper4": rt.paper4_model(),
        "affine": rt.parse_model("affine:2,0.3,0.2"),
        "constant": rt.constant_model(1.0),
    }
    att = rt.constant_attenuation(1.0)
    field = rt.paper4_field()
    out = {}
    for name, model in media.items():
        for shape in GRIDS:
            grid = rt.build_grid(model, *shape)
            out[("H", name, shape)] = _mat(pg.h_matrix(grid, model))
            out[("Lx", name, shape)] = _mat(pg.laplace_x_matrix(grid, model))
            out[("Lxi", name, shape)] = _mat(pg.laplace_xi_matrix(grid, model))
            out[("L", name, shape)] = _mat(pg.laplace_matrix(grid, model))
            if grid.size > SOLVE_MAX_NODES:
                continue
            data = np.random.default_rng(0).standard_normal(grid.size)
            for eps in (1e-3, 0.0):
                system = sv.assemble(grid, model, field, att, eps, data)
                out[("A", name, shape, eps)] = _mat(system.matrix) + (_hash(system.rhs),)
                for kind in ("ilu", "jacobi"):
                    spilu_inputs.clear()
                    sol, rep = sv.solve_static(system, tol=1e-10, preconditioner=kind)
                    out[("static", kind, name, shape, eps)] = (
                        _hash(sol.values), rep.final_residual.hex(), rep.iterations, rep.method,
                        tuple(spilu_inputs))
            est = sv.discrete_coercivity(system, probes=2, seed=0)
            out[("lambda_min", name, shape)] = (float(est.lambda_min).hex(), est.reliable)
            mask = rt.classify_boundary(grid, model)
            table = np.random.default_rng(1).standard_normal((5, mask.outflow_idx.size))
            spilu_inputs.clear()
            states, reports = sv.solve_dynamic(grid, model, rt.with_switch_on(field), att, 1e-3,
                                               0.25, 1.0, table)
            out[("dynamic", name, shape)] = (
                tuple(_hash(s.values) for s in states), tuple(r.final_residual.hex() for r in reports),
                tuple(r.iterations for r in reports), tuple(spilu_inputs))
    out.update(dump_oracle(media, att, field))
    return out


def dump_oracle(media: dict, att, field) -> dict:
    import numpy as np

    import raytransport as rt

    out = {}
    for name, model in media.items():
        shapes = SMALL_GRIDS + [DEMO_GRID] if name == "paper4" else SMALL_GRIDS
        for shape in shapes:
            grid = rt.build_grid(model, *shape)
            out[("oracle", name, shape)] = _hash(rt.interior_solution_grid(model, field, att, grid))
        grid = rt.build_grid(model, 10, 10, 8)
        idx = rt.classify_boundary(grid, model).outflow_idx
        out[("table", name)] = _hash(rt.dynamic_boundary_table(
            model, rt.with_switch_on(field), att, grid.x[idx], grid.xi[idx], [0.0, 0.3, 0.55, 2.0],
            rt.QuadratureConfig(step=1e-2)))
        for x, theta in TRACE_STATES:
            path = rt.trace(model, rt.angle_phase_point(model, x, theta), rt.IntegratorConfig(step=5e-3))
            out[("trace", name, tuple(x), theta)] = (
                _hash(path.taus), _hash(path.xs), _hash(path.vs), path.tau_minus.hex(), path.tau_plus.hex())
        points = [rt.angle_phase_point(model, x, theta) for x, theta in TRACE_STATES]
        out[("residuals", name)] = _hash(rt.oracle_residuals(
            model, rt.with_switch_on(field), att, 0.4, points, 1e-3, rt.QuadratureConfig(step=1e-2)))
    return out


def _dump_tree(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    raw = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump"], env=env,
                         check=True, stdout=subprocess.PIPE).stdout
    return pickle.loads(raw)


def main(old_src: str, new_src: str) -> int:
    old, new = _dump_tree(old_src), _dump_tree(new_src)
    if old.keys() != new.keys():
        print("the two trees dumped different entries")
        return 1
    differing = [k for k in old if old[k] != new[k]]
    kinds = {}
    for k in old:
        kinds[k[0]] = kinds.get(k[0], 0) + 1
    print(f"compared {len(old)} entries: " + ", ".join(f"{k} {n}" for k, n in kinds.items()))
    for k in differing:
        print(f"differs: {k}")
    print(f"{len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        sys.stdout.buffer.write(pickle.dumps(dump()))
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
