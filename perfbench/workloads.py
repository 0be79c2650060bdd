"""Benchmark workloads: the config each seed gives, and the check of its outputs.

Seed 0 gives the inputs the golden files in ``golden/`` were recorded from.
Other seeds vary only what leaves the amount of work unchanged, so runs on
different seeds measure the same work with different numbers:

* ``demo_sweep`` and ``dynamic_march`` draw the absorption alpha from
  [1.0, 1.5]; ray geometry does not depend on alpha.
* ``affine_sweep`` rotates the slope vector b at fixed |b| = sqrt(0.13) by a
  multiple of 18 degrees, a symmetry of the (40, 40, 20) grid (2 steps of
  phi, 1 step of theta), so each seed is the seed-0 problem rotated.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import re
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
DEMO_CONFIG = os.path.join(ROOT, "configs", "paper4_sweep.cfg")

WORKLOADS = ("demo_sweep", "affine_sweep", "dynamic_march")

# Output file each workload is checked on.
OUTPUT = {"demo_sweep": "sweep.csv", "affine_sweep": "sweep.csv", "dynamic_march": "final.csv"}

# Error norms in sweep.csv must match golden within this relative tolerance.
# On demo_sweep, 1e-7 of l2 = 0.858 is 8.6e-8 absolute, far below the
# ~7e-6 gap by which l2 decreases from eps 1e-6 to eps 1e-9 (criterion 6).
NORM_RTOL = 1e-7
# final.csv values must match golden within this share of max |value|.
VALUE_RTOL = 1e-7
# final.csv golden keeps every VALUE_STRIDE-th value plus norms of all values.
VALUE_STRIDE = 8

AFFINE_CONFIG = """\
[run]
command = sweep
output_dir = out/affine_sweep
workers = 1

[model]
model = affine:{a},{b1},{b2}
dim = 2

[field]
field = paper4
switch_on = false

[attenuation]
alpha = 1.0

[grid]
i = 40
j = 40
k = 20

[quadrature]
rule = simpson
step = 1e-2

[integrator]
step = 1e-2
max_steps = 20000
boundary_tol = 1e-10

[solver]
epsilon = 1e-3,1e-6,1e-9
tol = 1e-10
preconditioner = ilu
method = gmres
"""

DYNAMIC_CONFIG = """\
[run]
command = solve-dynamic
output_dir = out/dynamic_march
workers = 1

[model]
model = paper4
dim = 2

[field]
field = paper4
switch_on = true

[attenuation]
alpha = {alpha}

[grid]
i = 40
j = 40
k = 20

[quadrature]
rule = simpson
step = 1e-3

[integrator]
step = 1e-3
max_steps = 20000
boundary_tol = 1e-10

[solver]
epsilon = 1e-3
tol = 1e-10
preconditioner = ilu
method = gmres

[dynamic]
dt = 0.05
t_final = 1.0
"""


def _alpha(seed: int) -> str:
    return "1.0" if seed == 0 else repr(round(random.Random(seed).uniform(1.0, 1.5), 4))


def config_text(workload: str, seed: int) -> str:
    """The config the program receives for this workload and seed."""
    if workload == "demo_sweep":
        with open(DEMO_CONFIG) as fh:
            text = fh.read()
        if seed == 0:
            return text
        return re.sub(r"(?m)^alpha\s*=.*$", f"alpha = {_alpha(seed)}", text, count=1)
    if workload == "affine_sweep":
        if seed == 0:
            return AFFINE_CONFIG.format(a="2", b1="0.3", b2="0.2")
        turn = 2.0 * math.pi * random.Random(seed).randrange(1, 20) / 20.0
        c, s = math.cos(turn), math.sin(turn)
        return AFFINE_CONFIG.format(a="2", b1=repr(0.3 * c - 0.2 * s), b2=repr(0.3 * s + 0.2 * c))
    if workload == "dynamic_march":
        return DYNAMIC_CONFIG.format(alpha=_alpha(seed))
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(value: float, golden: float, rtol: float) -> bool:
    return abs(value - golden) <= rtol * abs(golden)


def _value_summary(values: list[float]) -> dict:
    return {
        "rows": len(values),
        "max_abs": max(abs(v) for v in values),
        "l1": math.fsum(abs(v) for v in values),
        "l2": math.sqrt(math.fsum(v * v for v in values)),
        "sum": math.fsum(values),
    }


def golden_path(workload: str) -> str:
    suffix = "sweep.csv" if OUTPUT[workload] == "sweep.csv" else "final.json"
    return os.path.join(GOLDEN, f"{workload}.{suffix}")


def record_golden(workload: str, outdir: str) -> str:
    """Store the seed-0 output of one workload as its golden file."""
    src = os.path.join(outdir, OUTPUT[workload])
    dst = golden_path(workload)
    os.makedirs(GOLDEN, exist_ok=True)
    if OUTPUT[workload] == "sweep.csv":
        return shutil.copyfile(src, dst)
    values = [float(r["value"]) for r in _read_rows(src)]
    doc = {
        "sha256": _sha256(src),
        "stride": VALUE_STRIDE,
        "summary": _value_summary(values),
        "samples": values[::VALUE_STRIDE],
    }
    with open(dst, "w") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    return dst


def _check_sweep(workload: str, seed: int, path: str) -> tuple[list[str], bool | None]:
    rows = _read_rows(path)
    problems = [f"eps {r['epsilon']}: converged = {r['converged']}" for r in rows if r["converged"] != "true"]
    if len(rows) != 3:
        problems.append(f"sweep.csv has {len(rows)} rows, expected 3")
    if seed != 0 or problems:
        return problems, None
    gold = golden_path(workload)
    want = _read_rows(gold)
    for r, g in zip(rows, want):
        if float(r["epsilon"]) != float(g["epsilon"]):
            problems.append(f"epsilon {r['epsilon']} != golden {g['epsilon']}")
        for key in ("l2_rel_err", "linf_rel_err"):
            if not _close(float(r[key]), float(g[key]), NORM_RTOL):
                problems.append(f"eps {g['epsilon']}: {key} {r[key]} != golden {g[key]} (rtol {NORM_RTOL:g})")
    if workload == "demo_sweep":
        l2 = [float(r["l2_rel_err"]) for r in rows]
        if not all(a > b for a, b in zip(l2, l2[1:])):
            problems.append(f"l2_rel_err does not strictly decrease: {l2}")
    return problems, _sha256(path) == _sha256(gold)


def _check_final(seed: int, path: str) -> tuple[list[str], bool | None]:
    values = [float(r["value"]) for r in _read_rows(path)]
    if not all(math.isfinite(v) for v in values):
        return ["final.csv has non-finite values"], None
    if seed != 0:
        return [], None
    with open(golden_path("dynamic_march")) as fh:
        gold = json.load(fh)
    want = gold["summary"]
    got = _value_summary(values)
    if got["rows"] != want["rows"]:
        return [f"final.csv has {got['rows']} rows, golden {want['rows']}"], False
    scale = want["max_abs"]
    problems = [
        f"final.csv {key} {got[key]!r} != golden {want[key]!r} (rtol {VALUE_RTOL:g})"
        for key in ("max_abs", "l1", "l2")
        if not _close(got[key], want[key], VALUE_RTOL)
    ]
    if abs(got["sum"] - want["sum"]) > VALUE_RTOL * want["l1"]:
        problems.append(f"final.csv sum {got['sum']!r} != golden {want['sum']!r}")
    bad = [
        i * gold["stride"]
        for i, (v, g) in enumerate(zip(values[:: gold["stride"]], gold["samples"]))
        if abs(v - g) > VALUE_RTOL * scale
    ]
    if bad:
        problems.append(f"final.csv differs from golden at {len(bad)} sampled rows (first: row {bad[0]})")
    return problems, _sha256(path) == gold["sha256"]


def check_outputs(workload: str, seed: int, outdir: str) -> tuple[list[str], bool | None]:
    """Problems found in a finished run's outputs, and whether they are byte-identical to golden.

    A run with exit code 0 has already passed the program's own convergence
    gate (exit 4 otherwise).  Seed 0 is compared with golden; other seeds are
    checked for convergence and finite values only, and identity is None.
    """
    path = os.path.join(outdir, OUTPUT[workload])
    if not os.path.isfile(path):
        return [f"{OUTPUT[workload]} was not written"], None
    if OUTPUT[workload] == "sweep.csv":
        return _check_sweep(workload, seed, path)
    return _check_final(seed, path)
