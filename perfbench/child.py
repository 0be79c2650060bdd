"""One measured process: import the package, load a config, and maybe run it.

    python3 perfbench/child.py {setup|run|trace} CONFIG RESULT_JSON

``setup`` stops after ``import raytransport`` and ``load_config``.  ``run``
then executes ``raytransport.cli.run(["run", CONFIG])``; ``trace`` does the
same with the layer wrappers of ``tracer.py`` installed.  The package is
imported from ``src/`` of the checkout this file lives in.  Timings, CPU
time, peak RSS and (for ``trace``) per-layer spans are written to
RESULT_JSON; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process image.  Not ``ru_maxrss``: Linux carries that
    over from the parent's memory through fork and exec, and the parent holds
    the reference job's arrays."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(mode: str, config: str, result_path: str) -> int:
    if mode not in ("setup", "run", "trace"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 64
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import raytransport
    import raytransport.cli
    from raytransport.config import load_config

    t1 = time.perf_counter()
    load_config(config)
    t2 = time.perf_counter()
    if not os.path.abspath(raytransport.__file__).startswith(SRC + os.sep):
        print(f"raytransport was imported from {raytransport.__file__}, not {SRC}", file=sys.stderr)
        return 70

    import numpy
    import scipy

    result = {
        "import_s": t1 - t0,
        "load_s": t2 - t1,
        "setup_s": t2 - t0,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    code = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as layer_tracer

            tracer = layer_tracer.install()
        cpu0 = _cpu_s()
        t3 = time.perf_counter()
        code = raytransport.cli.run(["run", config])
        result["run_s"] = time.perf_counter() - t3
        result["cpu_s"] = _cpu_s() - cpu0
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            result["spans"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
