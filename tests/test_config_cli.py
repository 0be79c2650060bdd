import ast
import glob
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import raytransport as rt
from conftest import pinned_matrix
from raytransport.cli import run
from raytransport.config import ExperimentConfig, parse_config_text
from raytransport.errors import ConfigError
from raytransport.exports import write_csv, write_gridfunction_csv, write_pgm_slice


def write_system_dump(system, prefix):
    """Triplet CSV of the matrix plus the right-hand side."""
    coo = pinned_matrix(system).tocoo()
    mat_path = write_csv(prefix + "_matrix.csv", ["row", "col", "value"], [coo.row, coo.col, coo.data])
    rhs_path = write_csv(prefix + "_b.csv", ["row", "value"], [np.arange(system.rhs.size), system.rhs])
    return mat_path, rhs_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_CONFIG = os.path.join(ROOT, "configs", "paper4_sweep.cfg")


def bundled_config_texts():
    """The text of each of ``configs/*.cfg`` and the seed-0 texts of the benchmark's own
    configs, ``AFFINE_CONFIG`` and ``DYNAMIC_CONFIG`` of ``perfbench/workloads.py``.  Those
    are read from the file's syntax tree, so nothing under ``perfbench/`` is imported, and
    formatted with the values its ``config_text`` gives seed 0."""
    texts = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg"))):
        with open(path) as fh:
            texts[os.path.basename(path)] = fh.read()
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    strings = {t.id: node.value.value for node in tree.body if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Constant) for t in node.targets if isinstance(t, ast.Name)}
    texts["AFFINE_CONFIG"] = strings["AFFINE_CONFIG"].format(a="2", b1="0.3", b2="0.2")
    texts["DYNAMIC_CONFIG"] = strings["DYNAMIC_CONFIG"].format(alpha="1.0")
    return texts


BUNDLED_TEXTS = bundled_config_texts()

MINIMAL = """
[run]
command = trace
[model]
model = constant:1.0
[trace]
x = 0.3,0.0
theta = 1.0
"""


class TestConfigParsing:
    def test_minimal(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.command == "trace"
        assert cfg.model_spec == "constant:1.0"
        assert cfg.trace_x == (0.3, 0.0)
        assert cfg.tol == 1e-10  # defaults fill in

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section"):
            parse_config_text(MINIMAL + "\n[plotting]\nstyle = dark\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown key model.refraction"):
            parse_config_text(MINIMAL.replace("model = constant:1.0",
                                              "model = constant:1.0\nrefraction = 2"))

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match=r"grid.i"):
            parse_config_text("[run]\ncommand = sweep\n[grid]\ni = many\n")

    def test_command_required(self):
        with pytest.raises(ConfigError, match="run.command"):
            parse_config_text("[model]\nmodel = paper4\n")

    @pytest.mark.parametrize("body", ["[run]\ncommand = trace\n",
                                      "[run]\ncommand = trace\n[model]\nmodel = constant:1.0\n"])
    def test_default_section_exits_2(self, tmp_path, capsys, body):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("[DEFAULT]\nseed = 3\n" + body)
        assert run(["run", str(cfg)]) == 2
        assert "unknown section [DEFAULT]" in capsys.readouterr().err

    def test_sweep_requires_decreasing_eps(self):
        text = "[run]\ncommand = sweep\n[solver]\nepsilon = 1e-6,1e-3\n"
        with pytest.raises(ConfigError, match="strictly decreasing"):
            parse_config_text(text)

    def test_prop1_requires_dim3(self):
        with pytest.raises(ConfigError, match="dim"):
            parse_config_text("[run]\ncommand = check-prop1\n")

    def test_round_trip(self):
        cfg = parse_config_text(MINIMAL)
        assert parse_config_text(cfg.to_text()) == cfg
        cfg2 = ExperimentConfig(
            command="solve-dynamic", epsilons=(1e-2, 1e-5), grid_i=12, grid_j=14, grid_k=6,
            switch_on=True, max_iter=250, output_dir="elsewhere", quad_step=5e-4)
        assert parse_config_text(cfg2.to_text()) == cfg2

    @pytest.mark.parametrize("name", sorted(BUNDLED_TEXTS))
    def test_bundled_and_benchmark_configs_parse(self, name):
        """A key change that would make a bundled or benchmark config exit 2 fails here."""
        cfg = parse_config_text(BUNDLED_TEXTS[name])
        assert parse_config_text(cfg.to_text()) == cfg

    def test_to_text_of_every_key(self):
        """Section order, key order and value formatting, with every key away from its default."""
        cfg = ExperimentConfig(
            command="check-prop1", output_dir="elsewhere", seed=7, workers=2, model_spec="constant:1.5",
            dim=3, field_spec="constant-scalar:2.0", switch_on=True, alpha_spec="0.5", grid_i=12,
            grid_j=14, grid_k=6, quad_rule="midpoint", quad_step=5e-4, int_step=2.5e-3, max_steps=500,
            boundary_tol=1e-12, epsilons=(1e-2, 1e-5), tol=1e-8, max_iter=250, preconditioner="jacobi",
            method="bicgstab", dt=0.125, t_final=2.5, trace_x=(0.25, -0.5, 0.0), trace_theta=1.5,
            n_theta=16, n_phi=32)
        assert cfg.to_text() == (
            "[run]\ncommand = check-prop1\noutput_dir = elsewhere\nseed = 7\nworkers = 2\n\n"
            "[model]\nmodel = constant:1.5\ndim = 3\n\n"
            "[field]\nfield = constant-scalar:2.0\nswitch_on = true\n\n"
            "[attenuation]\nalpha = 0.5\n\n"
            "[grid]\ni = 12\nj = 14\nk = 6\n\n"
            "[quadrature]\nrule = midpoint\nstep = 0.0005\n\n"
            "[integrator]\nstep = 0.0025\nmax_steps = 500\nboundary_tol = 1e-12\n\n"
            "[solver]\nepsilon = 0.01,1e-05\ntol = 1e-08\nmax_iter = 250\npreconditioner = jacobi\n"
            "method = bicgstab\n\n"
            "[dynamic]\ndt = 0.125\nt_final = 2.5\n\n"
            "[trace]\nx = 0.25,-0.5,0.0\ntheta = 1.5\n\n"
            "[prop1]\nn_theta = 16\nn_phi = 32\n")


class TestCliCommands:
    def test_trace_endpoints_on_circle(self, tmp_path):
        cfg = tmp_path / "trace.cfg"
        cfg.write_text(MINIMAL.replace(
            "command = trace", f"command = trace\noutput_dir = {tmp_path}/out"))
        assert run(["run", str(cfg)]) == 0
        rows = np.loadtxt(tmp_path / "out" / "path.csv", delimiter=",", skiprows=1)
        for end in (rows[0], rows[-1]):
            assert abs(np.hypot(end[1], end[2]) - 1.0) <= 1e-9

    def test_coercivity_output(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "[run]\ncommand = coercivity\noutput_dir = %s\n"
            "[model]\nmodel = paper4\n[grid]\ni = 6\nj = 6\nk = 4\n"
            "[solver]\nepsilon = 1e-2\n" % tmp_path)
        assert run(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "0.353553" in out
        assert "0.8" in out
        assert "satisfied=true" in out

    def test_small_sweep_artifacts(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\ncommand = sweep\noutput_dir = %s/out\n"
            "[model]\nmodel = paper4\n[field]\nfield = paper4\n"
            "[attenuation]\nalpha = 1.0\n[grid]\ni = 8\nj = 8\nk = 6\n"
            "[solver]\nepsilon = 1e-3,1e-6\n" % tmp_path)
        assert run(["run", str(cfg)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "epsilon,l2_rel_err,linf_rel_err,iterations,residual,converged"
        assert len(lines) == 3
        assert (tmp_path / "out" / "solution_eps0_k00.pgm").exists()
        assert (tmp_path / "out" / "relerr_eps1_k05.pgm").exists()
        assert (tmp_path / "out" / "solution_eps0_k00.range.txt").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert run(["run", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("module", ["raytransport", "raytransport.cli"])
    def test_module_entry_point_runs_the_cli(self, module):
        """``python -m raytransport`` and ``-m raytransport.cli`` are the CLI: a missing config
        exits 2 with its error."""
        src = os.path.dirname(os.path.dirname(rt.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", module, "run", "configs/nonexistent.cfg"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "config error:" in proc.stderr and "nonexistent.cfg" in proc.stderr

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\ncommand = fly\n")
        assert run(["run", str(cfg)]) == 2

    def test_workers_flag_is_refused(self, tmp_path, capsys):
        """The grid oracle runs in one process: argparse refuses --workers, before any output."""
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\ncommand = sweep\noutput_dir = %s/out\n"
            "[grid]\ni = 6\nj = 6\nk = 4\n[solver]\nepsilon = 1e-3\n" % tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["run", str(cfg), "--workers", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_workers_key_other_than_1_exits_2(self, tmp_path, capsys, workers):
        """run.workers is kept for old configs and accepts only 1."""
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\ncommand = sweep\noutput_dir = %s/out\nworkers = %s\n"
            "[grid]\ni = 6\nj = 6\nk = 4\n[solver]\nepsilon = 1e-3\n" % (tmp_path, workers))
        assert run(["run", str(cfg)]) == 2
        assert "run.workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        """The coercivity probes need a seed numpy accepts: a negative one exits 2, before any output."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "[run]\ncommand = coercivity\noutput_dir = %s/out\nseed = -1\n"
            "[grid]\ni = 6\nj = 6\nk = 4\n[solver]\nepsilon = 1e-2\n" % tmp_path)
        assert run(["run", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: run.seed:")

    @pytest.mark.parametrize("command", ["sweep", "solve-static"])
    def test_switch_on_static_command_exits_2(self, tmp_path, capsys, command):
        """sweep and solve-static read the oracle at t = 0, where a switch-on field is still 0."""
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\ncommand = %s\noutput_dir = %s/out\n[field]\nswitch_on = true\n"
            "[grid]\ni = 6\nj = 6\nk = 4\n[solver]\nepsilon = 1e-3\n" % (command, tmp_path))
        assert run(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: field.switch_on:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [("method", "foo"), ("preconditioner", "lu"),
                                           ("preconditioner", "jacobi"), ("preconditioner", "none"),
                                           ("max_iter", "0"), ("max_iter", "-3")])
    def test_bad_solver_choice_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\ncommand = sweep\noutput_dir = %s/out\n"
            "[grid]\ni = 6\nj = 6\nk = 4\n[solver]\nepsilon = 1e-3\n%s = %s\n" % (tmp_path, key, value))
        assert run(["run", str(cfg)]) == 2
        assert f"solver.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,section,key,value", [
        ("sweep", "quadrature", "rule", "midpoint"), ("sweep", "integrator", "max_steps", "0"),
        ("sweep", "integrator", "max_steps", "-5"), ("transform-table", "dynamic", "t_final", "-1"),
    ], ids=["rule-midpoint", "max_steps-0", "max_steps--5", "t_final--1"])
    def test_bad_march_value_exits_2(self, tmp_path, capsys, command, section, key, value):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\ncommand = %s\noutput_dir = %s/out\n[field]\nswitch_on = true\n"
            "[grid]\ni = 6\nj = 6\nk = 4\n[solver]\nepsilon = 1e-3\n[%s]\n%s = %s\n"
            % (command, tmp_path, section, key, value))
        assert run(["run", str(cfg)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,section,key,value", [
        ("sweep", "solver", "tol", "inf"), ("sweep", "integrator", "boundary_tol", "inf"),
        ("sweep", "solver", "epsilon", "nan"), ("sweep", "solver", "epsilon", "inf"),
        ("sweep", "solver", "epsilon", "1e-3,nan"), ("solve-dynamic", "dynamic", "t_final", "inf"),
        ("sweep", "quadrature", "step", "inf"), ("trace", "trace", "x", "nan,0"),
    ], ids=["tol-inf", "boundary_tol-inf", "epsilon-nan", "epsilon-inf", "epsilon-list-nan",
            "t_final-inf", "quadrature_step-inf", "trace_x-nan"])
    def test_non_finite_float_exits_2(self, tmp_path, capsys, command, section, key, value):
        """A float key holding inf or nan is rejected, naming section.key, before any output."""
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\ncommand = %s\noutput_dir = %s/out\n[grid]\ni = 6\nj = 6\nk = 4\n[%s]\n%s = %s\n"
            % (command, tmp_path, section, key, value))
        assert run(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and "not a finite number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key,value,kind", [
        ("model", "model", "constant:inf", "model"), ("model", "model", "radial:1,nan", "model"),
        ("model", "model", "affine:2,inf,0", "model"), ("field", "field", "constant-scalar:nan", "field"),
        ("field", "field", "constant-vec:inf,0", "field"), ("attenuation", "alpha", "inf", "attenuation"),
        ("attenuation", "alpha", "nan", "attenuation"),
    ], ids=["constant-inf", "radial-nan", "affine-inf", "scalar-nan", "vec-inf", "alpha-inf", "alpha-nan"])
    def test_non_finite_spec_number_exits_2(self, tmp_path, capsys, section, key, value, kind):
        """A spec string holding inf or nan is rejected before the oracle runs or any output."""
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\ncommand = sweep\noutput_dir = %s/out\n[grid]\ni = 6\nj = 6\nk = 4\n[%s]\n%s = %s\n"
            % (tmp_path, section, key, value))
        assert run(["run", str(cfg)]) == 2
        assert f"bad {kind} spec" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key,value,line", [
        ("attenuation", "alpha", "-1", "attenuation.alpha: bad attenuation spec '-1': alpha0 must be positive"),
        ("attenuation", "alpha", "inf", "attenuation.alpha: bad attenuation spec 'inf': not a finite number"),
        ("model", "model", "radial:1,nan", "model.model: bad model spec 'radial:1,nan': not a finite number"),
        ("model", "model", "lens", "model.model: unknown model spec 'lens'"),
        ("field", "field", "dipole", "field.field: bad field spec 'dipole': unknown field kind"),
        ("field", "field", "constant-vec:1,0,0",
         "field.field: field spec 'constant-vec:1,0,0' has dim 3, expected 2"),
    ], ids=["alpha-negative", "alpha-inf", "radial-nan", "model-unknown", "field-unknown", "field-dim"])
    def test_bad_spec_names_its_key_and_reason(self, tmp_path, capsys, section, key, value, line):
        """A spec the parser rejects exits 2 with one line naming section.key and the reason."""
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\ncommand = sweep\noutput_dir = %s/out\n[grid]\ni = 6\nj = 6\nk = 4\n[%s]\n%s = %s\n"
            % (tmp_path, section, key, value))
        assert run(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not (tmp_path / "out").exists()

    def test_trace_start_outside_ball_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "trace.cfg"
        cfg.write_text(MINIMAL.replace("x = 0.3,0.0", "x = 1.5, 0.0").replace(
            "command = trace", f"command = trace\noutput_dir = {tmp_path}/out"))
        assert run(["run", str(cfg)]) == 2
        assert "trace.x" in capsys.readouterr().err
        assert not (tmp_path / "out" / "path.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_epsilon_is_a_numerical_failure(self, tmp_path, capsys):
        """eps = 1e308 passes the config checks but overflows T - eps Delta: solve-static exits 3,
        and a sweep records the failed row, solves the next eps, writes its outputs and exits 4.
        The overflow is reported by those exits alone, with no numpy warning before them."""
        base = (
            "[run]\ncommand = %s\noutput_dir = %s/out\n"
            "[model]\nmodel = paper4\n[field]\nfield = paper4\n"
            "[attenuation]\nalpha = 1.0\n[grid]\ni = 6\nj = 6\nk = 4\n[solver]\nepsilon = %s\n")
        cfg = tmp_path / "e.cfg"
        cfg.write_text(base % ("solve-static", tmp_path, "1e308"))
        assert run(["run", str(cfg)]) == 3
        assert "numerical failure: assembled system contains non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "out" / "solution.csv").exists()
        cfg.write_text(base % ("sweep", tmp_path, "1e308,1e-3"))
        assert run(["run", str(cfg)]) == 4
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].split(",")[1:] == ["nan", "nan", "0", "inf", "false"]
        assert rows[1].endswith(",true")
        assert not (tmp_path / "out" / "solution_eps0_k00.pgm").exists()
        assert (tmp_path / "out" / "solution_eps1_k03.pgm").exists()

    @pytest.mark.parametrize("command", ["sweep", "solve-static", "solve-dynamic", "transform-table"])
    def test_grid_command_in_3d_exits_2(self, tmp_path, capsys, command):
        """Phase grids are 2D: the config is rejected, naming model.dim, before any output."""
        with open(DEMO_CONFIG) as fh:
            text = fh.read()
        text = text.replace("command = sweep", f"command = {command}")
        text = text.replace("dim = 2", "dim = 3").replace("field = paper4", "field = constant-scalar:1.0")
        text = text.replace("output_dir = out/paper4_sweep", f"output_dir = {tmp_path}/out")
        cfg = tmp_path / "d3.cfg"
        cfg.write_text(text)
        assert run(["run", str(cfg)]) == 2
        assert "model.dim" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_trace_in_3d_exits_2(self, tmp_path, capsys):
        """The trace is 2D: a 3D config is rejected, naming model.dim, before any output."""
        cfg = tmp_path / "trace.cfg"
        cfg.write_text(MINIMAL.replace("x = 0.3,0.0", "x = 0.3,0.0,0.0").replace(
            "model = constant:1.0", "model = constant:1.0\ndim = 3").replace(
            "command = trace", f"command = trace\noutput_dir = {tmp_path}/out"))
        assert run(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model.dim:")
        assert not (tmp_path / "out").exists()

    def test_env_var_overrides_output(self, tmp_path, monkeypatch):
        cfg = tmp_path / "trace.cfg"
        cfg.write_text(MINIMAL)
        monkeypatch.setenv("RAYTRANSPORT_OUTPUT", str(tmp_path / "envout"))
        try:
            assert run(["run", str(cfg)]) == 0
        finally:
            monkeypatch.delenv("RAYTRANSPORT_OUTPUT")
        assert (tmp_path / "envout" / "path.csv").exists()

    def test_solve_static_unconverged_exits_4(self, tmp_path):
        base = (
            "[run]\ncommand = solve-static\noutput_dir = %s/out\n"
            "[model]\nmodel = paper4\n[field]\nfield = paper4\n"
            "[attenuation]\nalpha = 1.0\n[grid]\ni = 6\nj = 6\nk = 4\n"
            "[solver]\nepsilon = 1e-3\ntol = 1e-30\nmax_iter = 1\n"
        ) % tmp_path
        cfg = tmp_path / "u.cfg"
        cfg.write_text(base)
        assert run(["run", str(cfg)]) == 4
        assert run(["run", str(cfg), "--allow-unconverged"]) == 0

    def test_solve_dynamic_command(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(
            "[run]\ncommand = solve-dynamic\noutput_dir = %s/out\n"
            "[model]\nmodel = constant:1.0\n[field]\nfield = paper4\nswitch_on = true\n"
            "[attenuation]\nalpha = 1.0\n[grid]\ni = 6\nj = 6\nk = 4\n"
            "[solver]\nepsilon = 1e-3\n[dynamic]\ndt = 0.25\nt_final = 0.5\n" % tmp_path)
        assert run(["run", str(cfg)]) == 0
        lines = (tmp_path / "out" / "final.csv").read_text().splitlines()
        assert len(lines) == 6 * 6 * 4 + 1

    def test_solve_dynamic_unconverged_exits_4_after_writing(self, tmp_path, capsys):
        cfg = tmp_path / "u.cfg"
        cfg.write_text(
            "[run]\ncommand = solve-dynamic\noutput_dir = %s/out\n"
            "[model]\nmodel = constant:1.0\n[field]\nfield = paper4\nswitch_on = true\n"
            "[attenuation]\nalpha = 1.0\n[grid]\ni = 6\nj = 6\nk = 4\n"
            "[solver]\nepsilon = 1e-3\ntol = 1e-30\nmax_iter = 1\n"
            "[dynamic]\ndt = 0.25\nt_final = 0.5\n" % tmp_path)
        assert run(["run", str(cfg)]) == 4
        final = tmp_path / "out" / "final.csv"
        assert len(final.read_text().splitlines()) == 6 * 6 * 4 + 1
        assert "non-convergence: 2 solve(s)" in capsys.readouterr().err
        final.unlink()
        assert run(["run", str(cfg), "--allow-unconverged"]) == 0
        assert final.exists()

    @pytest.mark.parametrize("command", ["sweep", "solve-static", "solve-dynamic"])
    def test_failed_ilu_exits_3(self, tmp_path, capsys, monkeypatch, command):
        """A failed factorization of the transport block is a numerical failure; nothing falls back."""
        def failing_spilu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "spilu", failing_spilu)
        cfg = tmp_path / "f.cfg"
        cfg.write_text(
            "[run]\ncommand = %s\noutput_dir = %s/out\n"
            "[grid]\ni = 6\nj = 6\nk = 4\n[quadrature]\nstep = 1e-2\n"
            "[solver]\nepsilon = 1e-2,1e-3\n[dynamic]\ndt = 0.25\nt_final = 0.5\n" % (command, tmp_path))
        assert run(["run", str(cfg)]) == 3
        assert "numerical failure: incomplete LU" in capsys.readouterr().err

    def test_trapped_rays_exit_3(self, tmp_path, capsys):
        """A sweep in a trapping medium is refused before its first march interval."""
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            "[run]\ncommand = sweep\noutput_dir = %s/out\n[model]\nmodel = radial:1,-0.45\n"
            "[grid]\ni = 12\nj = 12\nk = 8\n[quadrature]\nstep = 1e-2\n[integrator]\nstep = 1e-2\n"
            "[solver]\nepsilon = 1e-2\n" % tmp_path)
        assert run(["run", str(cfg)]) == 3
        assert "numerical failure: 14 rays are trapped" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_solve_static_reads_no_grid_oracle(self, tmp_path, monkeypatch):
        """solve-static takes its boundary data from the outflow table, not the whole-grid oracle."""
        from raytransport import cli, transport

        def whole_grid(*args, **kwargs):
            raise AssertionError("the whole-grid oracle was run")

        monkeypatch.setattr(transport, "interior_solution_grid", whole_grid)
        monkeypatch.setattr(cli, "interior_solution_grid", whole_grid, raising=False)
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[run]\ncommand = solve-static\noutput_dir = %s/out\n"
            "[model]\nmodel = paper4\n[field]\nfield = paper4\n"
            "[attenuation]\nalpha = 1.0\n[grid]\ni = 6\nj = 6\nk = 4\n[solver]\nepsilon = 1e-3\n"
            % tmp_path)
        assert run(["run", str(cfg)]) == 0
        assert (tmp_path / "out" / "solution.csv").exists()

    def test_check_prop1_command(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[run]\ncommand = check-prop1\noutput_dir = %s/out\n"
            "[model]\nmodel = paper4\ndim = 3\n[prop1]\nn_theta = 16\nn_phi = 16\n" % tmp_path)
        assert run(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "convention = metric-gradient" in out
        assert (tmp_path / "out" / "prop1.csv").exists()

    def test_check_prop1_refinement_record(self, tmp_path, capsys):
        """The record is the worst scaled discrepancy at orders 16 and 32 over the CLI's points."""
        from raytransport.cli import IDENTITY_POINTS

        model = rt.paper4_model(dim=3)
        worst = []
        for order in (16, 32):
            checks = [rt.check_fiber_identity(model, fn, x, order, order)
                      for fn in rt.standard_fiber_functions() for x in IDENTITY_POINTS]
            worst.append(max(c.abs_diff / (1.0 + abs(c.rhs)) for c in checks))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(
            "[run]\ncommand = check-prop1\noutput_dir = %s/out\n"
            "[model]\nmodel = paper4\ndim = 3\n[prop1]\nn_theta = 8\nn_phi = 8\n" % tmp_path)
        assert run(["run", str(cfg)]) == 0
        assert f"(refinement record {worst[0]:.3e} -> {worst[1]:.3e})" in capsys.readouterr().out

    def test_transform_table(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            "[run]\ncommand = transform-table\noutput_dir = %s/out\n"
            "[model]\nmodel = constant:1.0\n[field]\nfield = paper4\n"
            "[attenuation]\nalpha = 1.0\n[grid]\ni = 6\nj = 6\nk = 4\n" % tmp_path)
        assert run(["run", str(cfg)]) == 0
        lines = (tmp_path / "out" / "table.csv").read_text().splitlines()
        assert lines[0] == "t,phi,theta,value"
        grid = rt.build_grid(rt.constant_model(1.0), 6, 6, 4)
        mask = rt.classify_boundary(grid, rt.constant_model(1.0))
        assert len(lines) == 1 + mask.outflow_idx.size


class TestExports:
    def test_gridfunction_csv_row_count(self, tmp_path, demo_model):
        grid = rt.build_grid(demo_model, 5, 6, 4)
        gf = rt.GridFunction(grid, np.linspace(0, 1, grid.size))
        path = write_gridfunction_csv(gf, str(tmp_path / "g.csv"))
        lines = open(path).read().splitlines()
        assert len(lines) == grid.size + 1
        assert lines[0] == "i,j,k,r,phi,theta,value"

    def test_csv_formats_each_column_by_its_dtype(self, tmp_path):
        """Booleans as true/false, integers with str, floats with repr: -0.0, nan and inf included."""
        path = write_csv(str(tmp_path / "c.csv"), ["flag", "count", "value"], [
            np.array([True, False, True, False, True, False]),
            np.array([0, -7, 2147483647, 3, 10, 1], dtype=np.int32),
            np.array([-0.0, 0.0, 2.0, 1e-300, np.nan, np.inf]),
        ])
        assert open(path, "rb").read() == (
            b"flag,count,value\n"
            b"true,0,-0.0\n"
            b"false,-7,0.0\n"
            b"true,2147483647,2.0\n"
            b"false,3,1e-300\n"
            b"true,10,nan\n"
            b"false,1,inf\n"
        )
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "short.csv"), ["a", "b"], [[1, 2], [0.5]])

    def test_gridfunction_csv_matches_the_column_writer(self, tmp_path, demo_model):
        """The grid CSV is the 1-based labels and the node coordinates and values, column by
        column, in linear index order, -0.0, integral and tiny floats included."""
        grid = rt.build_grid(demo_model, 3, 4, 5)
        values = np.sin(np.arange(grid.size) * 0.7)
        values[:4] = [-0.0, 0.0, 2.0, -1e-300]
        gf = rt.GridFunction(grid, values)
        labels = np.indices((grid.I, grid.J, grid.K)).reshape(3, -1) + 1
        ref = write_csv(str(tmp_path / "columns.csv"), ["i", "j", "k", "r", "phi", "theta", "value"],
                        [*labels, grid.r, grid.phi, grid.theta, values])
        path = write_gridfunction_csv(gf, str(tmp_path / "g.csv"))
        data = open(path, "rb").read()
        assert data == open(ref, "rb").read()
        lines = data.splitlines()
        assert lines[1].startswith(b"1,1,1,") and lines[1].endswith(b",-0.0")
        assert lines[4].endswith(b",-1e-300")

    def test_pgm_bytes(self, tmp_path, demo_model):
        """A varying and a constant slice, byte for byte: each gray level as str(int),
        the range as the floats' str; a constant slice is all level 0."""
        grid = rt.build_grid(demo_model, 3, 4, 3)
        slice0 = [[-1.0, 3.0, 1.0, 0.0], [-0.9, 2.5, 0.25, -0.5], [2.0, -0.96, 1.5, 0.5]]
        values = np.stack([slice0, np.zeros((3, 4)), np.ones((3, 4))], axis=-1).ravel()
        for name, gf, pgm, sidecar in [
            ("v", rt.GridFunction(grid, values),
             b"P2\n4 3\n255\n0 255 128 64\n6 223 80 32\n191 3 159 96\n", b"min -1.0\nmax 3.0\n"),
            ("c", rt.GridFunction(grid, np.full(grid.size, 2.5)),
             b"P2\n4 3\n255\n0 0 0 0\n0 0 0 0\n0 0 0 0\n", b"min 2.5\nmax 2.5\n"),
        ]:
            path = write_pgm_slice(gf, 0, str(tmp_path / f"{name}.pgm"))
            assert open(path, "rb").read() == pgm
            assert (tmp_path / f"{name}.range.txt").read_bytes() == sidecar

    def test_byte_stable_rewrites(self, tmp_path, demo_model):
        grid = rt.build_grid(demo_model, 5, 6, 4)
        gf = rt.GridFunction(grid, np.sin(np.arange(grid.size) * 0.7))
        p1 = write_gridfunction_csv(gf, str(tmp_path / "a.csv"))
        p2 = write_gridfunction_csv(gf, str(tmp_path / "b.csv"))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_system_dump(self, tmp_path, demo_model):
        att = rt.constant_attenuation(1.0)
        grid = rt.build_grid(demo_model, 4, 4, 4)
        system = rt.assemble(grid, demo_model, rt.paper4_field(), att, 1e-3, np.zeros(grid.size))
        mat_path, rhs_path = write_system_dump(system, str(tmp_path / "sys"))
        mat_lines = open(mat_path).read().splitlines()
        assert mat_lines[0] == "row,col,value"
        assert len(mat_lines) == pinned_matrix(system).nnz + 1
        rhs_lines = open(rhs_path).read().splitlines()
        assert len(rhs_lines) == grid.size + 1


class TestConfigObjects:
    def test_integrator_validation(self):
        with pytest.raises(ValueError):
            rt.IntegratorConfig(step=-1.0)
        with pytest.raises(ValueError):
            rt.IntegratorConfig(step=0.0)
        with pytest.raises(ValueError):
            rt.IntegratorConfig(boundary_tol=0.0)

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_integrator_rejects_max_steps_below_1(self, max_steps):
        with pytest.raises(ValueError, match="max_steps"):
            rt.IntegratorConfig(max_steps=max_steps)

    def test_integrator_default_budget(self):
        """Rays of metric length 20 fit the default cap; a given cap is kept."""
        assert rt.IntegratorConfig().max_steps == 20000
        assert rt.IntegratorConfig(step=2.5e-4).max_steps == 80000
        assert rt.IntegratorConfig(step=2.5e-4, max_steps=7).max_steps == 7

    def test_cli_march_cap_follows_the_step(self):
        """Without [integrator] max_steps each march gets the library's default cap."""
        from raytransport.cli import _setup

        text = "[run]\ncommand = solve-static\n[quadrature]\nstep = 1e-4\n"
        _, _, oracle_cfg, trace_cfg = _setup(parse_config_text(text))
        assert oracle_cfg.max_steps == 200000
        assert trace_cfg.max_steps == 20000
        _, _, oracle_cfg, _ = _setup(parse_config_text(text + "[integrator]\nmax_steps = 20000\n"))
        assert oracle_cfg.max_steps == 20000

    def test_attenuation_validation(self):
        with pytest.raises(ValueError):
            rt.constant_attenuation(0.0)
        assert rt.parse_attenuation("constant:1.5").alpha0 == 1.5
        assert rt.parse_attenuation("2.0").alpha0 == 2.0
        with pytest.raises(ValueError):
            rt.parse_attenuation("variable:x")
