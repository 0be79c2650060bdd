#!/usr/bin/env python3
"""Check that two source trees build bit-identical operators and solutions.

Usage: ``python3 scripts/operator_bits.py OLD_SRC NEW_SRC`` where each
argument is a directory holding the ``raytransport`` package (for example a
checkout's ``src``).  Each tree is imported in its own process, which hashes
the ``indptr``/``indices``/``data`` of H, Delta_x, Delta_xi and Delta for
three media on six grids, and on the small grids also the assembled system
(its pinned matrix and right-hand side), the preconditioner's sweep order of
the transport block, the static and dynamic solutions, their residuals,
every matrix handed to ``spilu`` (an entry of its own per solve, so that a
reordered factorization input is told apart from a changed solution) and the
coercivity estimate.  It also hashes
the characteristic oracle: ``interior_solution_grid`` for the three media on
the small grids, for paper4 on (30, 30, 10), for the affine medium on
(40, 40, 20) at step 1e-2 (32000 rays, the one grid marched in more than
one batch), for paper4 on the same grid and step (1600 rays, each turned
into g = 20 member frames), for paper4 on (8, 10, 10) and (4, 20, 20) at
step 1e-2 with ``transport.MAX_BATCH_RAYS`` set to 1 (80 marches of one ray
each, turned into 10 and 20 frames, the width at which a plain
matrix-vector turn would take other bits) and for a rank-0 and a rank-2
field on (4, 5, 6) (even ranks, whose moments keep their sign under the
march's reversed velocity), three
``dynamic_boundary_table`` runs (a switch-on field, a time-dependent one and
one that is both, each at times on and off the quadrature step, every table
one march with a column per time), ``interior_solution_grid`` of the
switch-on field at t = 0.3 on (10, 10, 8), the ``trace`` paths of three
states, the transport residual of the switch-on field at those three states,
and ``interior_solution`` at them and at two outflow states of the
(10, 10, 8) ring, once static and once switched on at t = 0.3, and the
``march`` exits (``rays``, ``s``, ``ds``, ``x_exit``, ``v_exit``) of 400
near-tangent rays in n = 1 - 0.45 |x|^2 at step 0.1, the batch whose graze
re-test runs and whose dips the crossing test partly misses.  Last, the
demo sweep: ``epsilon_sweep`` of paper4 on (30, 30, 10) at eps 1e-3, 1e-6
and 1e-9 with the oracle at step 8e-3, whose entry holds the l2 and linf
arrays, the iteration counts and the criterion-6 gap l2(1e-6) - l2(1e-9).
The fiber-integral check: ``check_fiber_identity``'s lhs and rhs for the two
3D media of acceptance criterion 5 (paper4 and the affine medium
2 + 0.3 x_1 - 0.2 x_3), each of ``standard_fiber_functions()``, criterion
5's three base points and orders (16, 16) and (64, 64), keyed without a
pairing convention, so a tree whose check still takes one is compared at
its default, the metric-gradient pairing.  ``coercivity_margin``'s two
suprema for paper4 and an affine medium in 2D and in 3D.  And the config
layer: for each of ``configs/*.cfg`` and the seed-0 config text of the
three ``perfbench`` workloads (read from this script's checkout, so both
trees parse the same texts), ``parse_config_text(text)``'s ``to_text()``
and the ``dataclasses.astuple`` of the parsed config.  The CLI's files: each
of those texts and four small ones (a trace, a transform table of a
switch-on field at 6 times, a solve-static run in the affine medium and a
check-prop1 run) is run by ``raytransport.cli.run`` into a temporary
directory named by ``RAYTRANSPORT_OUTPUT``, and every file it wrote gets an
entry of its sha256, keyed by the config and the file's name, next to an
entry of the exit code.  Stdout is left out, since it prints the output
path.
The pinned matrix, Delta_x, Delta_xi and the transport residual are the
tests' own (``pinned_matrix``, ``laplace_x_matrix``, ``laplace_xi_matrix``
and ``oracle_residuals`` of ``tests/conftest.py``, read from this script's
checkout, so both trees compute them with the same code on their own
``raytransport``: the two Laplacian parts from its ``_matrix`` and stencil
helpers).
Exits 1 if any hash differs.

Every differing entry is printed with two max relative changes, so that a
moved solver residual does not hide how far the solutions moved: over the
entry's float arrays and sparse matrices, the largest
max |new - old| / max |old| (matrices are subtracted as matrices, so a
moved sparsity pattern counts by the values it moves), and over its floats
stored as hex strings (a single-state oracle value, a trace endpoint, a
solver residual, lambda_min, the criterion-6 gap), the largest
|new - old| / |old|; "-" where the entry holds none of that kind.
Differences in the entry's other fields are named next to it by their
position in the entry:
a moved sparsity pattern or integer array as such, and each scalar (solver
residuals, iteration counts, methods) as old -> new.
"""

import dataclasses
import glob
import hashlib
import itertools
import os
import pickle
import subprocess
import sys
from functools import partial

GRIDS = [(3, 3, 3), (4, 5, 6), (7, 9, 4), (10, 10, 8), (30, 30, 10), (40, 40, 20)]
SOLVE_MAX_NODES = 10 * 10 * 8
SMALL_GRIDS = GRIDS[:4]
DEMO_GRID = (30, 30, 10)
# the grid whose affine march is split into batches and whose paper4 rays are turned into 20 frames
BATCHED_GRID, BATCHED_STEP = (40, 40, 20), 1e-2
# paper4 grids marched one ray per batch, each ray turned into gcd(J, K) = 10 and 20 frames
SINGLE_RAY_GRIDS = [(8, 10, 10), (4, 20, 20)]
EVEN_RANK_GRID = (4, 5, 6)
TRACE_STATES = [([0.3, -0.2], 1.1), ([0.0, 0.0], 0.4), ([-0.6, 0.5], 2.9)]
SWEEP_EPS = (1e-3, 1e-6, 1e-9)
SWEEP_STEP = 8e-3
# near-tangent rays whose dips out of the ball the march's crossing test partly misses
GRAZE_MEDIUM, GRAZE_RAYS, GRAZE_SEED, GRAZE_STEP = "radial:1,-0.45", 400, 2, 0.1
FIBER_POINTS = [(0.2, 0.1, -0.3), (-0.4, 0.25, 0.1), (0.0, 0.0, 0.5)]
FIBER_ORDERS = (16, 64)
MARGIN_MEDIA = [("paper4", 2), ("paper4", 3), ("affine:2,0.3,0.2", 2), ("affine:2,0.3,0.2,-0.2", 3)]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")


class Digest:
    """The sha256 of an array's bytes; a float array also keeps its values."""

    def __init__(self, a):
        import numpy as np

        a = np.ascontiguousarray(a)
        self.text = hashlib.sha256(a.tobytes()).hexdigest() + f":{a.dtype}:{a.shape}"
        self.values = a if a.dtype.kind == "f" else None

    def __eq__(self, other):
        return isinstance(other, Digest) and self.text == other.text

    def __hash__(self):
        return hash(self.text)


class MatrixDigest:
    """The digests of a CSR matrix's ``indptr``, ``indices`` and ``data``; keeps the matrix."""

    def __init__(self, m):
        self.text = tuple(Digest(a).text for a in (m.indptr, m.indices, m.data))
        self.matrix = m

    def __eq__(self, other):
        return isinstance(other, MatrixDigest) and self.text == other.text

    def __hash__(self):
        return hash(self.text)


def dump() -> dict:
    import numpy as np
    import scipy.sparse.linalg as spla

    import raytransport as rt
    from raytransport import phasegrid as pg
    from raytransport import solve as sv

    sys.path.insert(0, TESTS)
    from conftest import laplace_x_matrix, laplace_xi_matrix, pinned_matrix

    spilu_inputs = []
    spilu = spla.spilu

    def recording_spilu(a, *args, **kwargs):
        spilu_inputs.append(MatrixDigest(a))
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
            out[("H", name, shape)] = MatrixDigest(pg.h_matrix(grid, model))
            out[("Lx", name, shape)] = MatrixDigest(laplace_x_matrix(grid, model))
            out[("Lxi", name, shape)] = MatrixDigest(laplace_xi_matrix(grid, model))
            out[("L", name, shape)] = MatrixDigest(pg.laplace_matrix(grid, model))
            if grid.size > SOLVE_MAX_NODES:
                continue
            data = np.random.default_rng(0).standard_normal(grid.size)
            for eps in (1e-3, 0.0):
                system = sv.assemble(grid, model, field, att, eps, data)
                out[("A", name, shape, eps)] = (MatrixDigest(pinned_matrix(system)), Digest(system.rhs))
                spilu_inputs.clear()
                sol, rep = sv.solve_static(system, tol=1e-10)
                out[("static", name, shape, eps)] = (
                    Digest(sol.values), rep.final_residual.hex(), rep.iterations, rep.method)
                out[("spilu", "static", name, shape, eps)] = tuple(spilu_inputs)
            # the order the ILU factors the transport block in
            out[("sweep order", name, shape)] = Digest(sv.sweep_order(system.transport))
            est = sv.discrete_coercivity(system, probes=2, seed=0)
            out[("lambda_min", name, shape)] = (float(est.lambda_min).hex(), est.reliable)
            mask = rt.classify_boundary(grid, model)
            table = np.random.default_rng(1).standard_normal((5, mask.outflow_idx.size))
            spilu_inputs.clear()
            states, reports = sv.solve_dynamic(grid, model, rt.with_switch_on(field), att, 1e-3,
                                               0.25, 1.0, table)
            out[("dynamic", name, shape)] = (
                tuple(Digest(s.values) for s in states), tuple(r.final_residual.hex() for r in reports),
                tuple(r.iterations for r in reports))
            out[("spilu", "dynamic", name, shape)] = tuple(spilu_inputs)
    out.update(dump_oracle(media, att, field))
    out.update(dump_sweep(media["paper4"], att, field))
    out.update(dump_fiber())
    out.update(dump_margins())
    out.update(dump_config())
    out.update(dump_cli())
    return out


def _ramped(component, t, x):
    """A field component scaled by 1 + t, so the field depends on time."""
    return (1.0 + t) * component(t, x)


def _rank2_diagonal(t, x):
    return 1.0 / (1.0 + x[..., 0] ** 2)


def _rank2_mixed(t, x):
    return x[..., 0] - 0.5 * x[..., 1]


def dump_oracle(media: dict, att, field) -> dict:
    import numpy as np

    import raytransport as rt
    from raytransport import transport

    sys.path.insert(0, TESTS)
    from conftest import oracle_residuals

    coarse = rt.IntegratorConfig(step=1e-2)
    ramped = dataclasses.replace(
        field, components={i: partial(_ramped, c) for i, c in field.components.items()},
        time_dependent=True)
    even_fields = {
        "rank 0": rt.constant_scalar_field(0.7),
        "rank 2": rt.SymmetricTensorField(
            dim=2, rank=2, components={(0, 0): _rank2_diagonal, (0, 1): _rank2_mixed}),
    }
    out = {}
    for name, model in media.items():
        shapes = SMALL_GRIDS + [DEMO_GRID] if name == "paper4" else SMALL_GRIDS
        for shape in shapes:
            grid = rt.build_grid(model, *shape)
            out[("oracle", name, shape)] = Digest(rt.interior_solution_grid(model, field, att, grid))
        if name in ("affine", "paper4"):
            grid = rt.build_grid(model, *BATCHED_GRID)
            out[("oracle", name, BATCHED_GRID, BATCHED_STEP)] = Digest(rt.interior_solution_grid(
                model, field, att, grid, rt.IntegratorConfig(step=BATCHED_STEP)))
        if name == "paper4":
            limit, transport.MAX_BATCH_RAYS = transport.MAX_BATCH_RAYS, 1
            try:
                for shape in SINGLE_RAY_GRIDS:
                    grid = rt.build_grid(model, *shape)
                    out[("oracle", name, shape, BATCHED_STEP, "MAX_BATCH_RAYS = 1")] = Digest(
                        rt.interior_solution_grid(model, field, att, grid, coarse))
            finally:
                transport.MAX_BATCH_RAYS = limit
        grid = rt.build_grid(model, *EVEN_RANK_GRID)
        for rank, even in even_fields.items():
            out[("oracle", rank, name, EVEN_RANK_GRID)] = Digest(
                rt.interior_solution_grid(model, even, att, grid))
        grid = rt.build_grid(model, 10, 10, 8)
        idx = rt.classify_boundary(grid, model).outflow_idx
        out[("table", name)] = Digest(rt.dynamic_boundary_table(
            model, rt.with_switch_on(field), att, grid.x[idx], grid.xi[idx], [0.0, 0.3, 0.304, 0.55, 2.0],
            coarse))
        out[("time-dependent table", name)] = Digest(rt.dynamic_boundary_table(
            model, ramped, att, grid.x[idx], grid.xi[idx], [0.0, 0.3, 0.304, 0.55],
            coarse))
        out[("switch-on time-dependent table", name)] = Digest(rt.dynamic_boundary_table(
            model, rt.with_switch_on(ramped), att, grid.x[idx], grid.xi[idx], [0.0, 0.3, 0.304, 0.55],
            coarse))
        out[("switch-on oracle", name, (10, 10, 8))] = Digest(rt.interior_solution_grid(
            model, rt.with_switch_on(field), att, grid, coarse, t=0.3))
        for x, theta in TRACE_STATES:
            path = rt.trace(model, rt.angle_phase_point(model, x, theta), rt.IntegratorConfig(step=5e-3))
            out[("trace", name, tuple(x), theta)] = (
                Digest(path.taus), Digest(path.xs), Digest(path.vs), path.tau_minus.hex(), path.tau_plus.hex())
        points = [rt.angle_phase_point(model, x, theta) for x, theta in TRACE_STATES]
        out[("residuals", name)] = Digest(oracle_residuals(
            model, rt.with_switch_on(field), att, 0.4, points, 1e-3, coarse))
        ring = [rt.PhaseSpacePoint(grid.x[i], grid.xi[i]) for i in (idx[0], idx[idx.size // 2])]
        for kind, f, t in (("static", field, 0.0), ("switch-on", rt.with_switch_on(field), 0.3)):
            out[("interior_solution", kind, name)] = tuple(
                rt.interior_solution(model, f, att, t, p, coarse).hex() for p in points + ring)
    out[("grazing exits", GRAZE_MEDIUM, GRAZE_STEP)] = dump_grazing()
    return out


def dump_grazing() -> tuple:
    """The exits of a march of near-tangent rays, every field a graze re-test can move."""
    import numpy as np

    import raytransport as rt
    from raytransport.geodesic import march

    model = rt.parse_model(GRAZE_MEDIUM)
    rng = np.random.default_rng(GRAZE_SEED)
    tilt = rng.uniform(0.025, 0.05, GRAZE_RAYS) * rng.choice([-1.0, 1.0], GRAZE_RAYS)
    x = np.stack([1.0 - rng.uniform(0.0, 1e-4, GRAZE_RAYS), np.zeros(GRAZE_RAYS)], axis=1)
    v = np.stack([np.sin(tilt), np.cos(tilt)], axis=1) / model.n(x)[:, None]
    ex = march(model, x, v, GRAZE_STEP, rt.IntegratorConfig(step=GRAZE_STEP))
    return tuple(Digest(a) for a in (ex.rays, ex.s, ex.ds, ex.x_exit, ex.v_exit))


def dump_sweep(model, att, field) -> dict:
    import numpy as np

    import raytransport as rt

    sweep = rt.epsilon_sweep(model, field, att, rt.build_grid(model, *DEMO_GRID), SWEEP_EPS,
                             rt.IntegratorConfig(step=SWEEP_STEP), tol=1e-10)
    gap = sweep.l2[1] - sweep.l2[2]
    return {("demo sweep", DEMO_GRID, SWEEP_STEP): (
        Digest(np.array(sweep.l2)), Digest(np.array(sweep.linf)),
        tuple(r.iterations for r in sweep.reports), gap.hex())}


def dump_fiber() -> dict:
    import raytransport as rt

    media = {"paper4": rt.paper4_model(dim=3), "affine": rt.affine_model(2.0, [0.3, 0.0, -0.2])}
    out = {}
    for name, model in media.items():
        for fi, fn in enumerate(rt.standard_fiber_functions()):
            for x, order in itertools.product(FIBER_POINTS, FIBER_ORDERS):
                chk = rt.check_fiber_identity(model, fn, x, order, order)
                out[("fiber", name, fi, x, order)] = (chk.lhs.hex(), chk.rhs.hex())
    return out


def dump_margins() -> dict:
    import raytransport as rt

    out = {}
    for spec, dim in MARGIN_MEDIA:
        rep = rt.coercivity_margin(rt.parse_model(spec, dim=dim), 1.0)
        out[("coercivity margin", spec, dim)] = (rep.sup_riemannian.hex(), rep.sup_euclidean.hex())
    return out


def config_texts() -> dict:
    """The text of each of ``configs/*.cfg`` and the seed-0 config of each perfbench workload."""
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS, config_text

    texts = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg"))):
        with open(path) as fh:
            texts[os.path.basename(path)] = fh.read()
    texts.update((w, config_text(w, 0)) for w in WORKLOADS)
    return texts


def dump_config() -> dict:
    from raytransport.config import parse_config_text

    out = {}
    for name, text in config_texts().items():
        cfg = parse_config_text(text)
        out[("config", name)] = (cfg.to_text(), dataclasses.astuple(cfg))
    return out


# small configs of the commands the bundled and benchmark configs do not run
CLI_TEXTS = {
    "trace": "[run]\ncommand = trace\n[model]\nmodel = paper4\n"
             "[integrator]\nstep = 5e-3\n[trace]\nx = 0.3,-0.2\ntheta = 1.1\n",
    "transform-table": "[run]\ncommand = transform-table\n[model]\nmodel = paper4\n"
                       "[field]\nfield = paper4\nswitch_on = true\n[grid]\ni = 10\nj = 10\nk = 8\n"
                       "[quadrature]\nstep = 1e-2\n[dynamic]\ndt = 0.1\nt_final = 0.5\n",
    "solve-static": "[run]\ncommand = solve-static\n[model]\nmodel = affine:2,0.3,0.2\n"
                    "[grid]\ni = 10\nj = 10\nk = 8\n[quadrature]\nstep = 1e-2\n[solver]\nepsilon = 1e-3\n",
    "check-prop1": "[run]\ncommand = check-prop1\n[model]\nmodel = paper4\ndim = 3\n"
                   "[prop1]\nn_theta = 24\nn_phi = 24\n",
}


def dump_cli() -> dict:
    """The exit code and every written file's sha256 of a CLI run of each config text."""
    import contextlib
    import io
    import tempfile

    from raytransport.cli import run

    out = {}
    for name, text in {**config_texts(), **CLI_TEXTS}.items():
        with tempfile.TemporaryDirectory() as tmp:
            cfg, written = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
            with open(cfg, "w") as fh:
                fh.write(text)
            os.environ["RAYTRANSPORT_OUTPUT"] = written
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    out[("cli exit", name)] = run(["run", cfg])
            finally:
                del os.environ["RAYTRANSPORT_OUTPUT"]
            for path in sorted(glob.glob(os.path.join(written, "*"))):
                with open(path, "rb") as fh:
                    out[("cli", name, os.path.basename(path))] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _is_hex_float(value) -> bool:
    """Whether a scalar field is a float stored as a hex string (``float.hex``)."""
    return isinstance(value, str) and value.lstrip("-").startswith("0x")


def _floats(entry):
    """(is a hex-float scalar, value) for the hex-float scalars (as 0-d arrays), float arrays and
    sparse matrices of an entry, in order."""
    import numpy as np

    if _is_hex_float(entry):
        yield True, np.array(float.fromhex(entry))
    elif isinstance(entry, Digest):
        if entry.values is not None:
            yield False, entry.values
    elif isinstance(entry, MatrixDigest):
        yield False, entry.matrix
    elif isinstance(entry, tuple):
        for e in entry:
            yield from _floats(e)


def _skeleton(entry):
    """The entry with each float array replaced by its shape and each matrix by its pattern."""
    if isinstance(entry, Digest):
        return ("float", entry.values.shape) if entry.values is not None else entry.text
    if isinstance(entry, MatrixDigest):
        return entry.text[:2]  # the sparsity pattern
    if isinstance(entry, tuple):
        return tuple(_skeleton(e) for e in entry)
    return entry


def _show(value) -> str:
    """A scalar field for printing; floats stored as hex are shown in decimal."""
    if _is_hex_float(value):
        return repr(float.fromhex(value))
    return repr(value)


def field_changes(old, new, where="entry"):
    """Each differing field of two entries other than float values, as a line of text."""
    if isinstance(old, tuple) and isinstance(new, tuple) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from field_changes(a, b, f"{where}[{i}]")
    elif isinstance(old, (Digest, MatrixDigest)) or isinstance(new, (Digest, MatrixDigest)):
        if _skeleton(old) != _skeleton(new):
            what = "sparsity" if isinstance(old, MatrixDigest) else "contents or shape"
            yield f"{where} {what} differs"
    elif old != new:
        yield f"{where} {_show(old)} -> {_show(new)}"


def max_relative_change(old, new, scalars: bool) -> float | None:
    """max |new - old| / max |old| over the entry's hex-float scalars if ``scalars``, else over its
    float arrays and matrices; None if the entry holds none.

    Matrices are compared as matrices, so a moved sparsity pattern counts
    only by the values it moves.  inf if the two entries do not pair up.
    """
    import numpy as np
    import scipy.sparse as sp

    pairs = list(itertools.zip_longest(*([v for is_scalar, v in _floats(e) if is_scalar == scalars]
                                         for e in (old, new))))
    if not pairs:
        return None
    worst = 0.0
    for a, b in pairs:
        if a is None or b is None or a.shape != b.shape:
            return float("inf")
        if sp.issparse(a):
            scale, change = abs(a).max(), abs(b - a).max()
        elif np.array_equal(a, b, equal_nan=True):
            continue
        else:
            scale, change = np.max(np.abs(a)), np.max(np.abs(b - a))
        if change:
            worst = max(worst, float(change) / float(scale) if scale else float("inf"))
    return worst


def _change(value: float | None) -> str:
    return "-" if value is None else f"{value:.2e}"


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
        note = "".join(f"; {c}" for c in field_changes(old[k], new[k]))
        arrays, scalars = (max_relative_change(old[k], new[k], kind) for kind in (False, True))
        print(f"differs: {k}  max relative change: arrays {_change(arrays)}, scalars {_change(scalars)}{note}")
    print(f"{len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        sys.stdout.buffer.write(pickle.dumps(dump()))
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
