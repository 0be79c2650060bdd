"""Per-layer spans around the package's module-level entry points.

``install`` replaces each entry point in ``ENTRY_POINTS`` with a timing
wrapper, in its own module and in every ``raytransport`` module that bound it
by name (``from .solve import assemble`` makes a second binding), so calls
from any module are counted.  An entry point that no longer exists raises
``MissingEntryPoint``: a rename breaks the traced run instead of zeroing a
metric.

Spans nest.  A span's self time is its duration minus the durations of the
spans called inside it.  A call made directly inside a span of the same name
is folded into it (``assemble`` calls ``interior_operator``; both are
``solve.assemble``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class MissingEntryPoint(RuntimeError):
    pass


def _rows(a) -> int:
    """Number of states in an array of shape (..., dim)."""
    shape = getattr(a, "shape", ())
    n = 1
    for d in shape[:-1]:
        n *= d
    return n


def _arg(i: int, name: str):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[name]
    return get


def _rows_of(i: int, name: str):
    get = _arg(i, name)
    return lambda args, kwargs: _rows(get(args, kwargs))


def _moment_rows(args, kwargs):
    return max(_rows(_arg(2, "x")(args, kwargs)), _rows(_arg(3, "xi")(args, kwargs)))


def _grid_rays(args, kwargs):
    return _arg(3, "grid")(args, kwargs).size


def _ilu_fill(span, result):
    span.extra["fill"] = span.extra.get("fill", 0) + int(result.nnz)


def _solve_reports(span, result):
    _, reports = result
    reports = reports if isinstance(reports, list) else [reports]
    for rep in reports:
        span.extra["iterations"] = span.extra.get("iterations", 0) + int(rep.iterations)
        methods = span.extra.setdefault("methods", {})
        methods[rep.method] = methods.get(rep.method, 0) + 1


# (module, attribute, span, rows per call, hook on the returned value)
ENTRY_POINTS = [
    ("raytransport.refractive", "acceleration", "refractive.accel", _rows_of(1, "x"), None),
    ("raytransport.geodesic", "rk4_step", "geodesic.rk4", _rows_of(1, "x"), None),
    ("raytransport.geodesic", "refine_exit", "geodesic.exit_refine", _rows_of(1, "x"), None),
    ("raytransport.tensorfield", "moment", "tensorfield.moment", _moment_rows, None),
    ("raytransport.transport", "interior_solution_grid", "transport.oracle", _grid_rays, None),
    ("raytransport.transport", "dynamic_boundary_table", "transport.oracle", _rows_of(3, "x"), None),
    ("raytransport.phasegrid", "build_grid", "phasegrid.build", None, None),
    ("raytransport.phasegrid", "h_matrix", "phasegrid.h_matrix", None, None),
    ("raytransport.phasegrid", "laplace_matrix", "phasegrid.laplace", None, None),
    ("raytransport.solve", "assemble", "solve.assemble", None, None),
    ("raytransport.solve", "interior_operator", "solve.assemble", None, None),
    ("raytransport.solve", "solve_static", "solve.solve", None, _solve_reports),
    ("raytransport.solve", "solve_dynamic", "solve.solve", None, _solve_reports),
    ("scipy.sparse.linalg", "spilu", "solve.ilu", None, _ilu_fill),
    ("scipy.sparse.linalg", "gmres", "solve.krylov", None, None),
    ("raytransport.verify", "epsilon_sweep", "verify.sweep", None, None),
    ("raytransport.verify", "relative_error", "verify.relerr", None, None),
    ("raytransport.exports", "write_gridfunction_csv", "exports.write", None, None),
    ("raytransport.exports", "write_sweep_csv", "exports.write", None, None),
    ("raytransport.exports", "write_pgm_slice", "exports.write", None, None),
]


class Span:
    __slots__ = ("calls", "rows", "total_s", "self_s", "raised", "extra")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.extra: dict = {}

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack: list[list] = []  # [span, seconds spent in child spans]

    def wrap(self, fn, name: str, rows, on_return):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is span:
                return fn(*args, **kwargs)
            span.calls += 1
            if rows is not None:
                span.rows += rows(args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                span.total_s += dt
                span.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_return is not None:
                on_return(span, result)
            return result

        return wrapper

    def report(self) -> dict:
        return {name: span.as_dict() for name, span in self.spans.items()}


def install() -> Tracer:
    """Wrap every entry point; import ``raytransport.cli`` before calling."""
    tracer = Tracer()
    for module_name, attr, name, rows, on_return in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            raise MissingEntryPoint(f"{module_name}.{attr} is missing; update perfbench/tracer.py")
        wrapped = tracer.wrap(original, name, rows, on_return)
        holders = [module] + [
            m for key, m in list(sys.modules.items())
            if key == "raytransport" or key.startswith("raytransport.")
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
    return tracer
