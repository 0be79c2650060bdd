"""Experiment configuration: a strict INI dialect with sections.

Each setting is declared once, as an :class:`ExperimentConfig` field whose
metadata holds its INI ``section.key`` and parser.  Configs are committed
next to results, so parsing is strict: unknown sections or keys are
rejected, every value is validated with a message naming the offending
``section.key`` (floats must be finite), and a parsed configuration
serializes back to text that re-parses to an equal configuration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields

from .errors import ConfigError

COMMANDS = ("trace", "transform-table", "solve-static", "solve-dynamic", "sweep", "check-prop1",
            "coercivity")

# the commands that build a phase grid, which is 2D
GRID_COMMANDS = ("transform-table", "solve-static", "solve-dynamic", "sweep")


def _optint(raw: str) -> int | None:
    return None if raw.lower() in ("", "none") else int(raw)


def finite_float(raw: str) -> float:
    """``float(raw)``, rejecting inf and nan with ValueError; also reads the numbers of specs."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def finite_floats(raw: str) -> tuple[float, ...]:
    return tuple(finite_float(v) for v in raw.split(","))


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean")


def _key(key: str, parse, default=MISSING):
    """A field read from INI ``section.key`` by ``parse``, which raises ValueError on bad text."""
    section, name = key.split(".")
    return field(default=default, metadata={"ini": (section, name), "parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    command: str = _key("run.command", str)
    output_dir: str = _key("run.output_dir", str, "out")
    seed: int = _key("run.seed", int, 0)
    workers: int = _key("run.workers", int, 1)  # only 1: everything runs in one process
    model_spec: str = _key("model.model", str, "paper4")
    dim: int = _key("model.dim", int, 2)
    field_spec: str = _key("field.field", str, "paper4")
    switch_on: bool = _key("field.switch_on", _bool, False)
    alpha_spec: str = _key("attenuation.alpha", str, "1.0")
    grid_i: int = _key("grid.i", int, 30)
    grid_j: int = _key("grid.j", int, 30)
    grid_k: int = _key("grid.k", int, 10)
    quad_rule: str = _key("quadrature.rule", str, "simpson")
    quad_step: float = _key("quadrature.step", finite_float, 1e-3)
    int_step: float = _key("integrator.step", finite_float, 1e-3)
    max_steps: int | None = _key("integrator.max_steps", _optint, None)  # None: max(20000, 20 / step)
    boundary_tol: float = _key("integrator.boundary_tol", finite_float, 1e-10)
    epsilons: tuple[float, ...] = _key("solver.epsilon", finite_floats, (1e-3,))
    tol: float = _key("solver.tol", finite_float, 1e-10)
    max_iter: int | None = _key("solver.max_iter", _optint, None)
    preconditioner: str = _key("solver.preconditioner", str, "ilu")
    method: str = _key("solver.method", str, "gmres")
    dt: float = _key("dynamic.dt", finite_float, 0.05)
    t_final: float = _key("dynamic.t_final", finite_float, 1.0)
    trace_x: tuple[float, ...] = _key("trace.x", finite_floats, (0.0, 0.0))
    trace_theta: float = _key("trace.theta", finite_float, 0.0)
    n_theta: int = _key("prop1.n_theta", int, 64)
    n_phi: int = _key("prop1.n_phi", int, 64)

    def to_text(self) -> str:
        """Canonical INI serialization, keys in declaration order; re-parses to an equal configuration."""
        lines: dict[str, list[str]] = {}
        for f in fields(self):
            sec, key = f.metadata["ini"]
            val = getattr(self, f.name)
            if val is None:
                continue
            if isinstance(val, bool):
                text = "true" if val else "false"
            elif isinstance(val, tuple):
                text = ",".join(str(float(v)) for v in val)
            else:
                text = str(val)
            lines.setdefault(sec, []).append(f"{key} = {text}")
        out = []
        for sec, body in lines.items():
            out += [f"[{sec}]", *body, ""]
        return "\n".join(out)


# (section, key) -> field, from the declarations above
_FIELDS = {f.metadata["ini"]: f for f in fields(ExperimentConfig)}
_SECTIONS = {sec for sec, _ in _FIELDS}


def parse_config_text(text: str) -> ExperimentConfig:
    # no header can name the empty section, so [DEFAULT] is read as a section, and rejected
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    values = {}
    for sec in parser.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec}]")
        for key, raw in parser.items(sec):
            if (sec, key) not in _FIELDS:
                raise ConfigError(f"unknown key {sec}.{key}")
            f = _FIELDS[sec, key]
            raw = raw.strip()
            try:
                values[f.name] = f.metadata["parse"](raw)
            except ValueError as exc:
                raise ConfigError(f"{sec}.{key}: cannot parse {raw!r} ({exc})") from None

    if "command" not in values:
        raise ConfigError("run.command is required")
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text)


def validate_config(cfg: ExperimentConfig) -> None:
    def bad(where, msg):
        raise ConfigError(f"{where}: {msg}")

    if cfg.command not in COMMANDS:
        bad("run.command", f"must be one of {', '.join(COMMANDS)}")
    if cfg.dim not in (2, 3):
        bad("model.dim", "must be 2 or 3")
    if cfg.seed < 0:
        bad("run.seed", "must be nonnegative")
    if cfg.workers != 1:
        bad("run.workers", "must be 1")
    if min(cfg.grid_i, cfg.grid_j, cfg.grid_k) < 3:
        bad("grid.i/j/k", "grid sizes must be at least 3")
    if cfg.quad_rule != "simpson":
        bad("quadrature.rule", "must be 'simpson'")
    if cfg.preconditioner != "ilu":
        bad("solver.preconditioner", "must be 'ilu'")
    if cfg.method != "gmres":
        bad("solver.method", "must be 'gmres'")
    positives = {
        "quadrature.step": cfg.quad_step,
        "integrator.step": cfg.int_step,
        "integrator.boundary_tol": cfg.boundary_tol,
        "solver.tol": cfg.tol,
        "dynamic.dt": cfg.dt,
    }
    for where, value in positives.items():
        if not value > 0.0:
            bad(where, "must be positive")
    if cfg.max_steps is not None and cfg.max_steps < 1:
        bad("integrator.max_steps", "must be at least 1")
    if cfg.max_iter is not None and cfg.max_iter < 1:
        bad("solver.max_iter", "must be at least 1")
    if not cfg.epsilons or any(e <= 0.0 for e in cfg.epsilons):
        bad("solver.epsilon", "must be a list of positive values")
    if cfg.command == "sweep" and any(a <= b for a, b in zip(cfg.epsilons, cfg.epsilons[1:])):
        bad("solver.epsilon", "sweep requires a strictly decreasing list")
    if not cfg.t_final >= 0.0:
        bad("dynamic.t_final", "must be nonnegative")
    if cfg.command == "solve-dynamic" and cfg.t_final < cfg.dt:
        bad("dynamic.t_final", "must be at least dt")
    if cfg.command in GRID_COMMANDS and cfg.dim != 2:
        bad("model.dim", f"{cfg.command} runs on a phase grid, which requires dim = 2")
    if cfg.command == "trace" and cfg.dim != 2:
        bad("model.dim", "trace requires dim = 2")
    if cfg.command == "check-prop1":
        if cfg.dim != 3:
            bad("model.dim", "check-prop1 requires dim = 3")
        if cfg.n_theta < 4 or cfg.n_phi < 4:
            bad("prop1.n_theta/n_phi", "quadrature orders must be at least 4")
    if cfg.command == "trace" and len(cfg.trace_x) != cfg.dim:
        bad("trace.x", f"needs {cfg.dim} coordinates")
    if cfg.command in ("sweep", "solve-static") and cfg.switch_on:
        bad("field.switch_on", f"{cfg.command} reads the solution at t = 0, where a switch-on "
                               "field has not acted yet")
