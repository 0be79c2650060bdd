"""Benchmark of raytransport experiments, end to end and layer by layer.

    python3 perfbench/run.py --workload demo_sweep --seed 0 --seconds 56 --trace 0

Every workload run is a fresh process (``child.py``) that runs
``raytransport.cli.run`` on the config ``workloads.py`` makes from the seed,
with ``workers = 1`` and BLAS threads pinned to 1.  Runs go one at a time
(a closed loop with one client).

``--trace 0`` runs the workload repeatedly for about ``--seconds`` (at least
three times when they fit in 58 s).  Run and CPU time are reported as the
mean over the runs divided by the mean time of a fixed reference job
(``reference.py``) timed before the first run and after each run, which
cancels most of the slowdown that other tenants of a shared machine cause;
the raw seconds are printed with them.  Set-up time and peak RSS are
medians; set-up is also sampled in processes that only import the package
and load the config.
``--trace 1`` makes one untraced and one traced run and reports the
per-layer metrics of the traced one.  Every run's outputs are checked
(``workloads.check_outputs``); a run fails on a non-zero exit code or a
failed check.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import ROOT, WORKLOADS, check_outputs, config_text

STARTED = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

# A --trace 0 run makes SETUP_PROBES set-up-only processes after one warm-up,
# then workload runs while fewer than MIN_RUNS or the next is predicted to end
# within --seconds; no run is started that is predicted to end after
# RUN_BUDGET_S.  Three runs let the median drop one run slowed by other load
# on the machine; the budget caps the length of one measurement.
SETUP_PROBES = 3
MIN_RUNS = 3
RUN_BUDGET_S = 58
DEADLINE_S = 170    # kill a child still running this long after the command started

THREAD_PINNING = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

# Spans each workload must call at least once in the traced run.
REQUIRED_SPANS = {
    "demo_sweep": ("verify.sweep", "verify.relerr"),
    "affine_sweep": ("verify.sweep", "verify.relerr"),
    "dynamic_march": (),
}
COMMON_SPANS = (
    "refractive.accel", "geodesic.rk4", "geodesic.exit_refine", "tensorfield.moment",
    "transport.oracle", "phasegrid.build", "phasegrid.h_matrix", "phasegrid.laplace",
    "solve.assemble", "solve.solve", "solve.ilu", "solve.krylov", "exports.write",
)
# Counts recorded when the benchmark was defined; a difference is reported, not failed.
RECORDED_CALLS = {
    "solve.ilu": {"demo_sweep": 3, "affine_sweep": 3, "dynamic_march": 1},
    "phasegrid.h_matrix": {"demo_sweep": 3, "affine_sweep": 3, "dynamic_march": 1},
}


class BenchmarkError(RuntimeError):
    pass


def prepare(workload: str, seed: int) -> str:
    """Fresh work directory holding the generated config; returns the config path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "raytransport", "__init__.py")):
        raise BenchmarkError(f"no raytransport package under {os.path.join(ROOT, 'src')}")
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    path = os.path.join(workdir, f"seed{seed}.cfg")
    with open(path, "w") as fh:
        fh.write(config_text(workload, seed))
    return path


def run_child(mode: str, config: str) -> tuple[int, dict | None, str]:
    """Run child.py once; returns (exit code, result or None, log path)."""
    workdir = os.path.dirname(config)
    outdir = os.path.join(workdir, "out")
    shutil.rmtree(outdir, ignore_errors=True)
    result_path = os.path.join(workdir, "result.json")
    log_path = os.path.join(workdir, f"{mode}.log")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, RAYTRANSPORT_OUTPUT=outdir, **THREAD_PINNING)
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, mode, config, result_path],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                timeout=max(1.0, STARTED + DEADLINE_S - time.monotonic()),
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = -1
    result = None
    if os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    return code, result, log_path


def _log_tail(log_path: str, lines: int = 15) -> str:
    with open(log_path) as fh:
        return "".join(fh.readlines()[-lines:])


def checked_run(mode: str, workload: str, seed: int, config: str) -> tuple[dict | None, list[str]]:
    """One workload run and the problems that make it a failure (none if it passed)."""
    code, result, log_path = run_child(mode, config)
    problems = []
    if code != 0 or result is None:
        problems.append(f"exit code {code}:\n{_log_tail(log_path)}")
    else:
        found, identical = check_outputs(workload, seed, os.path.join(os.path.dirname(config), "out"))
        problems.extend(found)
        result["identical"] = identical
    for p in problems:
        print(f"{workload} seed {seed} {mode} run failed: {p}", file=sys.stderr)
    return result, problems


def setup_probe(config: str) -> dict:
    code, result, log_path = run_child("setup", config)
    if code != 0 or result is None:
        raise BenchmarkError(f"set-up process failed with exit code {code}:\n{_log_tail(log_path)}")
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_env(env: dict) -> None:
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, BLAS threads pinned to 1, workers = 1"
    )


def measure_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    config = prepare(workload, seed)
    setup_probe(config)  # warm-up: byte-compiles the package and fills the page cache
    setups = [setup_probe(config) for _ in range(SETUP_PROBES)]
    _print_env(setups[0]["env"])
    import reference  # after main() pinned BLAS threads: numpy reads them on first import

    job = reference.Reference()
    refs = [job.measure()]
    runs, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result, problems = checked_run("run", workload, seed, config)
        refs.append(job.measure())
        last = time.perf_counter() - t0
        attempted += 1
        failed += bool(problems)
        if result is not None:
            runs.append(result)
        next_end = time.perf_counter() - start + last
        if next_end > RUN_BUDGET_S or (attempted >= MIN_RUNS and next_end > seconds):
            break
    metrics = {}
    if runs:
        samples = {
            "run_s": ([r["run_s"] for r in runs], "s"),
            "cpu_s": ([r["cpu_s"] for r in runs], "s"),
            "reference_s": ([wall for wall, _ in refs], "s"),
            "reference_cpu_s": ([cpu for _, cpu in refs], "s"),
            "setup_s": ([s["setup_s"] for s in setups] + [r["setup_s"] for r in runs], "s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in runs], "MB"),
        }
        for name, (values, unit) in samples.items():
            shown = " ".join(f"{v:.4g}" for v in values)
            print(
                f"{name:15s} mean {statistics.fmean(values):.4f} median {statistics.median(values):.4f} "
                f"{unit} of {len(values)}: {shown}"
            )

        def mean(name):
            return statistics.fmean(samples[name][0])

        # Means, not medians: with three or four runs the mean varies less,
        # and a mean of runs over a mean of reference jobs is total run time
        # per second of reference work in the same minute.
        metrics = {
            "run_per_ref": _metric(mean("run_s") / mean("reference_s"), "ratio"),
            "setup_s": _metric(statistics.median(samples["setup_s"][0]), "s"),
            "cpu_per_ref": _metric(mean("cpu_s") / mean("reference_cpu_s"), "ratio"),
            "peak_rss_mb": _metric(statistics.median(samples["peak_rss_mb"][0]), "MB"),
        }
        for name, m in metrics.items():
            print(f"{name:15s} {m['value']:.4f} {m['unit']}")
        if seed == 0:
            print(f"output byte-identical to golden: {[r.get('identical') for r in runs]}")
    print(f"fail_rate    {failed}/{attempted} = {failed / attempted:g}")
    return {"correct": failed == 0 and bool(runs), "attempted": attempted, "failed": failed, "metrics": metrics}


def _export_totals(outdir: str) -> tuple[int, int]:
    files = size = 0
    for base, _, names in os.walk(outdir):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(base, name))
    return files, size


def layer_metrics(workload: str, traced: dict, plain: dict, outdir: str) -> dict:
    spans = traced["spans"]
    missing = [n for n in COMMON_SPANS + REQUIRED_SPANS[workload] if spans[n]["calls"] == 0]
    if missing:
        raise BenchmarkError(f"{workload}: traced run never called {', '.join(missing)}")

    def span(name, key="total_s"):
        return spans[name][key]

    files, size = _export_totals(outdir)
    run_s = traced["run_s"]
    rk4_calls = span("geodesic.rk4", "calls")
    oracle_s = span("transport.oracle")
    rows = [
        ("refractive.accel_calls", span("refractive.accel", "calls"), "count"),
        ("refractive.accel_rows", span("refractive.accel", "rows"), "count"),
        ("refractive.accel_s", span("refractive.accel"), "s"),
        ("geodesic.rk4_calls", rk4_calls, "count"),
        ("geodesic.rk4_rows", span("geodesic.rk4", "rows"), "count"),
        ("geodesic.rows_per_call", span("geodesic.rk4", "rows") / rk4_calls, "rows/call"),
        ("geodesic.rk4_self_s", span("geodesic.rk4", "self_s"), "s"),
        ("geodesic.exit_refine_calls", span("geodesic.exit_refine", "calls"), "count"),
        ("geodesic.exit_refine_rows", span("geodesic.exit_refine", "rows"), "count"),
        ("geodesic.exit_refine_s", span("geodesic.exit_refine"), "s"),
        ("tensorfield.moment_calls", span("tensorfield.moment", "calls"), "count"),
        ("tensorfield.moment_rows", span("tensorfield.moment", "rows"), "count"),
        ("tensorfield.moment_s", span("tensorfield.moment"), "s"),
        ("transport.oracle_s", oracle_s, "s"),
        ("transport.oracle_self_s", span("transport.oracle", "self_s"), "s"),
        ("transport.rays", span("transport.oracle", "rows"), "count"),
        ("transport.rays_per_s", span("transport.oracle", "rows") / oracle_s, "1/s"),
        ("transport.oracle_share", oracle_s / run_s, "ratio"),
        ("phasegrid.build_s", span("phasegrid.build"), "s"),
        ("phasegrid.h_matrix_calls", span("phasegrid.h_matrix", "calls"), "count"),
        ("phasegrid.h_matrix_s", span("phasegrid.h_matrix"), "s"),
        ("phasegrid.laplace_calls", span("phasegrid.laplace", "calls"), "count"),
        ("phasegrid.laplace_s", span("phasegrid.laplace"), "s"),
        ("solve.assemble_calls", span("solve.assemble", "calls"), "count"),
        ("solve.assemble_s", span("solve.assemble"), "s"),
        ("solve.ilu_calls", span("solve.ilu", "calls"), "count"),
        ("solve.ilu_failed", span("solve.ilu", "raised"), "count"),
        ("solve.ilu_s", span("solve.ilu"), "s"),
        ("solve.ilu_fill", spans["solve.ilu"]["extra"].get("fill", 0), "count"),
        ("solve.ilu_share", span("solve.ilu") / run_s, "ratio"),
        ("solve.krylov_calls", span("solve.krylov", "calls"), "count"),
        ("solve.krylov_iters", spans["solve.solve"]["extra"].get("iterations", 0), "count"),
        ("solve.krylov_s", span("solve.krylov"), "s"),
        ("verify.sweep_s", span("verify.sweep"), "s"),
        ("verify.relerr_s", span("verify.relerr"), "s"),
        ("exports.files", files, "count"),
        ("exports.bytes", size, "bytes"),
        ("exports.write_s", span("exports.write"), "s"),
        ("config.load_s", traced["load_s"], "s"),
        ("cli.import_s", traced["import_s"], "s"),
        ("trace_overhead", traced["run_s"] / plain["run_s"] - 1.0, "ratio"),
    ]
    for name, value, unit in rows:
        print(f"{name:28s} {value:.6g} {unit}")
    for name, recorded in RECORDED_CALLS.items():
        if span(name, "calls") != recorded[workload]:
            print(f"note: {name} made {span(name, 'calls')} calls; {recorded[workload]} were recorded")
    methods = ", ".join(f"{m} x{n}" for m, n in spans["solve.solve"]["extra"].get("methods", {}).items())
    print(f"solve: reported methods {methods}; spilu raised {span('solve.ilu', 'raised')} time(s)")
    return {name: _metric(value, unit) for name, value, unit in rows}


def measure_layers(workload: str, seed: int) -> dict:
    config = prepare(workload, seed)
    setup_probe(config)  # warm-up
    plain, plain_problems = checked_run("run", workload, seed, config)
    traced, traced_problems = checked_run("trace", workload, seed, config)
    if plain is None or traced is None or "spans" not in traced:
        raise BenchmarkError("the untraced or traced run produced no result")
    _print_env(traced["env"])
    print(f"run_s untraced {plain['run_s']:.4f} s, traced {traced['run_s']:.4f} s")
    metrics = layer_metrics(workload, traced, plain, os.path.join(os.path.dirname(config), "out"))
    failed = bool(plain_problems) + bool(traced_problems)
    return {"correct": failed == 0, "attempted": 2, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_PINNING)
    # One core for this process, the reference job and every run (children
    # inherit it): the cores of a shared machine slow down independently of
    # each other, so a reference timed on one core says little about a run on
    # another.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    print(f"perfbench: {args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"cpus: nproc {len(cpus)}; this process and its runs are pinned to CPU {cpus[0]}")
    try:
        if args.trace:
            out = measure_layers(args.workload, args.seed)
        else:
            out = measure_end_to_end(args.workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
