"""Experiment configuration: a strict INI dialect with sections.

Configs are committed next to results, so parsing is strict: unknown
sections or keys are rejected, every value is validated with a message
naming the offending ``section.key``, and a parsed configuration serializes
back to text that re-parses to an equal configuration.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

from .errors import ConfigError

COMMANDS = (
    "trace",
    "transform-table",
    "solve-static",
    "solve-dynamic",
    "sweep",
    "check-prop1",
    "coercivity",
)

# the commands that build a phase grid, which is 2D
GRID_COMMANDS = ("transform-table", "solve-static", "solve-dynamic", "sweep")

# section -> key -> attribute, parser; the defaults are ExperimentConfig's
_SCHEMA = {
    "run": {
        "command": ("command", "str"),
        "output_dir": ("output_dir", "str"),
        "seed": ("seed", "int"),
        "workers": ("workers", "int"),
    },
    "model": {
        "model": ("model_spec", "str"),
        "dim": ("dim", "int"),
    },
    "field": {
        "field": ("field_spec", "str"),
        "switch_on": ("switch_on", "bool"),
    },
    "attenuation": {
        "alpha": ("alpha_spec", "str"),
    },
    "grid": {
        "i": ("grid_i", "int"),
        "j": ("grid_j", "int"),
        "k": ("grid_k", "int"),
    },
    "quadrature": {
        "rule": ("quad_rule", "str"),
        "step": ("quad_step", "float"),
    },
    "integrator": {
        "step": ("int_step", "float"),
        "max_steps": ("max_steps", "optint"),
        "boundary_tol": ("boundary_tol", "float"),
    },
    "solver": {
        "epsilon": ("epsilons", "floats"),
        "tol": ("tol", "float"),
        "max_iter": ("max_iter", "optint"),
        "preconditioner": ("preconditioner", "str"),
        "method": ("method", "str"),
    },
    "dynamic": {
        "dt": ("dt", "float"),
        "t_final": ("t_final", "float"),
    },
    "trace": {
        "x": ("trace_x", "floats"),
        "theta": ("trace_theta", "float"),
    },
    "prop1": {
        "n_theta": ("n_theta", "int"),
        "n_phi": ("n_phi", "int"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    output_dir: str = "out"
    seed: int = 0
    workers: int = 1
    model_spec: str = "paper4"
    dim: int = 2
    field_spec: str = "paper4"
    switch_on: bool = False
    alpha_spec: str = "1.0"
    grid_i: int = 30
    grid_j: int = 30
    grid_k: int = 10
    quad_rule: str = "simpson"
    quad_step: float = 1e-3
    int_step: float = 1e-3
    max_steps: int | None = None  # None: the march's default, max(20000, 20 / step)
    boundary_tol: float = 1e-10
    epsilons: tuple[float, ...] = (1e-3,)
    tol: float = 1e-10
    max_iter: int | None = None
    preconditioner: str = "ilu"
    method: str = "gmres"
    dt: float = 0.05
    t_final: float = 1.0
    trace_x: tuple[float, ...] = (0.0, 0.0)
    trace_theta: float = 0.0
    n_theta: int = 64
    n_phi: int = 64

    def to_text(self) -> str:
        """Canonical INI serialization; re-parses to an equal configuration."""
        by_attr = {}
        for sec, keys in _SCHEMA.items():
            for key, (attr, kind) in keys.items():
                by_attr[attr] = (sec, key, kind)
        lines: dict[str, list[str]] = {}
        for f in fields(self):
            sec, key, kind = by_attr[f.name]
            val = getattr(self, f.name)
            if val is None:
                continue
            if kind == "floats":
                text = ",".join(str(float(v)) for v in val)
            elif kind == "bool":
                text = "true" if val else "false"
            else:
                text = str(val)
            lines.setdefault(sec, []).append(f"{key} = {text}")
        out = []
        for sec in _SCHEMA:
            if sec in lines:
                out.append(f"[{sec}]")
                out.extend(lines[sec])
                out.append("")
        return "\n".join(out)


def _parse_value(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "optint":
            return None if raw.lower() in ("", "none") else int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError("expected a boolean")
        if kind == "floats":
            return tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} ({exc})") from None
    raise AssertionError(kind)


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    values = {}
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        for key, raw in parser.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {sec}.{key}")
            attr, kind = _SCHEMA[sec][key]
            values[attr] = _parse_value(kind, raw, f"{sec}.{key}")

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
    if cfg.workers < 1:
        bad("run.workers", "must be at least 1")
    if min(cfg.grid_i, cfg.grid_j, cfg.grid_k) < 3:
        bad("grid.i/j/k", "grid sizes must be at least 3")
    if cfg.quad_rule != "simpson":
        bad("quadrature.rule", "must be 'simpson'")
    if cfg.preconditioner not in ("ilu", "jacobi", "none"):
        bad("solver.preconditioner", "must be 'ilu', 'jacobi' or 'none'")
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
    if cfg.command == "check-prop1":
        if cfg.dim != 3:
            bad("model.dim", "check-prop1 requires dim = 3")
        if cfg.n_theta < 4 or cfg.n_phi < 4:
            bad("prop1.n_theta/n_phi", "quadrature orders must be at least 4")
    if cfg.command == "trace" and len(cfg.trace_x) != cfg.dim:
        bad("trace.x", f"needs {cfg.dim} coordinates")
