import argparse
import json
import math
import os
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import squircles
from squircles import cli, contour2d, oracle
from squircles.contour2d import default_workers
from squircles.fields3d import ShapeSpec3D


class TestNumericFlags:
    def test_domain_takes_negative_pi_tokens(self):
        cmd = cli.parse_args(["curve", "--family", "fg", "--domain", "-pi", "pi", "-pi", "pi",
                              "--out", "c.svg"])
        assert cmd.domain == (-math.pi, math.pi, -math.pi, math.pi)

    def test_domain_takes_pi_tokens_and_plain_numbers(self):
        cmd = cli.parse_args(["curve", "--family", "fg", "--domain", "pi", "4", "-3", "3",
                              "--out", "c.svg"])
        assert cmd.domain == (math.pi, 4.0, -3.0, 3.0)

    def test_sweep_from_negative_pi_token(self):
        cmd = cli.parse_args(["sweep", "--family", "fg", "--param", "s", "--from", "-pi/2",
                              "--to", "1", "--steps", "2", "--out", "c.svg"])
        assert cmd.sweep_values == (-math.pi / 2, 1.0)

    @pytest.mark.parametrize("token", ["pi/0", "-pi/0", "2pi/0.0", ".pi", "-.pi"])
    def test_bad_pi_token_is_a_usage_error(self, tmp_path, capsys, token):
        with pytest.raises(argparse.ArgumentTypeError, match="not a number"):
            cli.pi_float(token)
        out = tmp_path / "x.svg"
        assert cli.main(["curve", "--family", "fg", "--radius", token, "--out", str(out)]) == 1
        assert "usage error: argument --radius/--r" in capsys.readouterr().err
        assert not out.exists()


class TestSweepFlags:
    @pytest.mark.parametrize("fmt", ["svg", "csv"])
    @pytest.mark.parametrize("flag", ["--R", "--a", "--b", "--c", "--k", "--cc"])
    def test_2d_sweep_rejects_3d_only_flags(self, tmp_path, capsys, fmt, flag):
        rc = cli.main(["sweep", "--family", "fg", "--param", "s", "--from", "0", "--to", "1",
                       "--steps", "2", "--format", fmt, flag, "5",
                       "--out", str(tmp_path / f"c.{fmt}")])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def test_frantz_curve_honours_domain(tmp_path):
    out = tmp_path / "f.svg"
    assert cli.main(["curve", "--family", "frantz", "-s", "2", "--domain", "-2", "2", "-1", "1",
                     "--out", str(out)]) == 0
    assert 'viewBox="-2.000000000 -1.000000000 4.000000000 2.000000000"' in out.read_text()


def test_python_m_squircles(capsys):
    assert cli.main(["info", "--family", "fg"]) == 0
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(squircles.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "squircles", "info", "--family", "fg"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == expected
    assert proc.stderr == ""


def test_python_m_squircles_cli_does_not_warn():
    src = os.path.dirname(os.path.dirname(squircles.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "squircles.cli", "info",
                           "--family", "fg"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("fg: ")


class TestCountFlags:
    @pytest.mark.parametrize("value", ["7", "0", "-1"])
    def test_samples_below_8_is_a_usage_error(self, tmp_path, capsys, value):
        rc = cli.main(["curve", "--family", "frantz", "-s", "2", "--samples", value,
                       "--out", str(tmp_path / "f.svg")])
        assert rc == 1
        assert "--samples" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["curve", "--family", "fg", "--grid", "16", "--out", "c.svg"],
        ["surface", "--family", "sphube", "--grid", "8", "--out", "s.obj"],
        ["sweep", "--family", "fg", "--param", "s", "--from", "0", "--to", "1", "--steps", "2",
         "--out", "c.svg"],
    ])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_workers_below_1_is_a_usage_error(self, tmp_path, capsys, argv, value):
        argv = [str(tmp_path / a) if a.endswith((".svg", ".obj")) else a for a in argv]
        assert cli.main(argv + ["--workers", value]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_smallest_counts_parse(self):
        cmd = cli.parse_args(["curve", "--family", "frantz", "--samples", "8", "--workers", "1",
                              "--out", "f.svg"])
        assert (cmd.samples, cmd.workers) == (8, 1)


class TestWorkersEnvironment:
    @pytest.mark.parametrize("argv", [
        ["curve", "--family", "fg", "--grid", "16", "--out", "c.svg"],
        ["surface", "--family", "sphube", "--grid", "8", "--out", "s.obj"],
        ["verify", "--suite", "mesh", "--grid", "8"],
    ])
    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, monkeypatch, argv, value):
        monkeypatch.setenv("SQUIRCLES_WORKERS", value)
        argv = [str(tmp_path / a) if a.endswith((".svg", ".obj")) else a for a in argv]
        assert cli.main(argv) == 1
        out = capsys.readouterr()
        assert f"usage error: SQUIRCLES_WORKERS must be an integer >= 1, got {value!r}" in out.err
        assert out.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_library_callers_get_a_value_error(self, monkeypatch, value):
        monkeypatch.setenv("SQUIRCLES_WORKERS", value)
        with pytest.raises(ValueError, match=f"^SQUIRCLES_WORKERS must be an integer >= 1, got '{value}'$"):
            default_workers()

    def test_good_value_and_flag_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SQUIRCLES_WORKERS", "2")
        assert default_workers() == 2
        monkeypatch.setenv("SQUIRCLES_WORKERS", "0")
        # --workers takes precedence, so the variable is not read
        assert cli.main(["curve", "--family", "fg", "--grid", "16", "--workers", "1",
                         "--out", str(tmp_path / "c.svg")]) == 0

    @pytest.mark.parametrize("flags, reads", [([], 1), (["--workers", "2"], 0)])
    def test_read_once_per_command(self, tmp_path, monkeypatch, flags, reads):
        # parse_args reads the variable (unless --workers is given) and no
        # band of the sweep's 3 pooled curves reads it again
        monkeypatch.setenv("SQUIRCLES_WORKERS", "2")
        monkeypatch.setattr(contour2d, "SLAB_SAMPLES", 20 * 65)
        counts = {"cli": 0, "contour2d": 0}

        def counting(module):
            def read():
                counts[module] += 1
                return default_workers()
            return read

        monkeypatch.setattr(cli, "default_workers", counting("cli"))
        monkeypatch.setattr(contour2d, "default_workers", counting("contour2d"))
        argv = ["sweep", "--family", "fg", "--param", "s", "--from", "0.5", "--to", "1", "--steps", "3",
                "--grid", "64", *flags, "--out", str(tmp_path / "c.svg")]
        assert cli.parse_args(argv).workers == 2
        assert cli.main(argv) == 0
        assert counts == {"cli": 2 * reads, "contour2d": 0}
        assert len(list(tmp_path.iterdir())) == 3

    def test_flag_overrides_the_variable_on_a_large_curve(self, tmp_path, monkeypatch):
        # contour's row bands run on the flag's one thread: the pool must
        # not read the variable either
        monkeypatch.setenv("SQUIRCLES_WORKERS", "0")
        assert cli.main(["curve", "--family", "fg", "-s", "0.8", "--grid", "1024", "--workers", "1",
                         "--out", str(tmp_path / "c.svg")]) == 0
        assert (tmp_path / "c.svg").stat().st_size > 0


class TestVerifyGrid:
    # mesh_sphere_area's 1e-2 bound fails on correct meshes below grid 14
    @pytest.mark.parametrize("value", ["1", "4", "7", "-1"])
    def test_grid_below_8_is_a_usage_error(self, capsys, value):
        assert cli.main(["verify", "--suite", "mesh", "--grid", value]) == 1
        out = capsys.readouterr()
        assert "usage error: --grid must be >= 14" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("value", ["8", "9", "10", "11", "12", "13"])
    def test_grid_8_to_13_is_a_usage_error(self, capsys, value):
        assert cli.main(["verify", "--suite", "mesh", "--grid", value]) == 1
        assert capsys.readouterr() == ("", "usage error: --grid must be >= 14\n")

    def test_grid_14_parses(self):
        assert cli.parse_args(["verify", "--grid", "14"]).grid == 14


def readme_cli_commands():
    """Each command in README's "CLI" block, split into words, with its `\\`
    continuations joined and the comments dropped."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln) for ln in lines if ln.strip() and not ln.startswith("#")]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    commands = readme_cli_commands()
    assert [argv[:2] for argv in commands] == [["squircles", c] for c in
                                               ("curve", "curve", "surface", "sweep", "surface", "verify")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    expected = {"fg.svg", "square.csv", "torus.obj", "schwarz.obj"} | {f"sphube_0{i}.stl" for i in range(5)}
    assert {p.name for p in tmp_path.iterdir()} == expected
    assert all(p.stat().st_size > 0 for p in tmp_path.iterdir())


class TestNonFiniteValues:
    @pytest.mark.parametrize("argv, name", [
        (["curve", "--family", "fg", "--radius", "inf"], "r"),
        (["surface", "--family", "sphube", "--radius", "inf"], "r"),
        (["surface", "--family", "toroid", "--R", "inf"], "R"),
        (["surface", "--family", "toroid_octic", "--R", "inf"], "R"),
        (["surface", "--family", "cone_fg", "--c", "inf"], "c"),
        (["surface", "--family", "cone_lame", "--a", "inf"], "a"),
        (["surface", "--family", "cone_lame", "--b", "inf"], "b"),
        (["surface", "--family", "cone_lame", "--c", "inf"], "c"),
        (["surface", "--family", "cuboctahedron", "--k", "inf"], "k"),
        (["surface", "--family", "cuboctahedron", "--cc", "inf"], "cc"),
        (["surface", "--family", "cuboctahedron", "--cc", "nan"], "cc"),
        (["sweep", "--family", "cone_fg", "--c", "inf", "--param", "s", "--from", "0", "--to", "1",
          "--steps", "2", "--format", "obj"], "c"),
        (["curve", "--family", "fg", "--domain", "-inf", "inf", "-1", "1"], "--domain"),
        (["curve", "--family", "fg", "--domain", "-1", "1", "nan", "1"], "--domain"),
        (["surface", "--family", "sphube", "--domain", "-1", "1", "-1", "1", "-1", "inf"], "--domain"),
    ])
    def test_is_a_usage_error(self, tmp_path, capsys, argv, name):
        ext = "svg" if argv[0] == "curve" else "obj"
        assert cli.main(argv + ["--grid", "16", "--out", str(tmp_path / f"x.{ext}")]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("usage error: ") and out.err.count("\n") == 1
        assert f" {name} must be" in out.err or f"{name} values must be finite" in out.err
        assert out.out == ""
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, family, name", [("curve", "lame", "x.svg"),
                                                       ("surface", "lame3d", "x.obj")])
    def test_infinite_exponent_is_the_square(self, tmp_path, command, family, name):
        out = tmp_path / name
        assert cli.main([command, "--family", family, "-p", "inf", "--grid", "16", "--out", str(out)]) == 0
        assert out.stat().st_size > 0


class TestNonFiniteRanges:
    def test_frantz_squareness_inf_is_a_usage_error(self, tmp_path, capsys):
        # s -> inf is the square only as a limit; at s = inf the points are nan
        out = tmp_path / "f.svg"
        assert cli.main(["curve", "--family", "frantz", "-s", "inf", "--samples", "8", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: frantz parameter s must be finite, got inf\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("flag", ["--from", "--to"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_sweep_range_is_a_usage_error(self, tmp_path, capsys, flag, value):
        ends = {"--from": "1", "--to": "3"}
        ends[flag] = value
        argv = ["sweep", "--family", "lame", "--param", "p", "--from", ends["--from"], "--to", ends["--to"],
                "--steps", "3", "--out", str(tmp_path / "sw.svg")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "usage error: --from and --to must be finite\n"
        assert captured.out == "" and not list(tmp_path.iterdir())


def _fresh_env(**extra):
    """The environment of a fresh interpreter that imports this squircles."""
    src = os.path.dirname(os.path.dirname(squircles.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                **extra)


def _fresh_process(argv, cwd):
    proc = subprocess.run([sys.executable, "-m", "squircles", *argv], capture_output=True, text=True,
                          env=_fresh_env(COLUMNS="80"), cwd=cwd, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    def test_each_parse_is_as_in_a_fresh_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
        monkeypatch.chdir(tmp_path)
        failing = ["curve", "--family", "fg", "--squareness", "2", "--out", "bad.svg"]
        sequence = [failing, ["curve", "--family", "fg", "--grid", "16", "--out", "c.svg"],
                    ["surface", "--help"], ["curve", "--family", "fg"], failing]
        fresh = {}
        for argv in sequence:
            rc = cli.main(argv)
            out = capsys.readouterr()
            key = tuple(argv)
            if key not in fresh:
                fresh[key] = _fresh_process(argv, tmp_path)
            assert (rc, out.out, out.err) == fresh[key], argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.svg"]

    def test_flags_do_not_leak_into_the_next_parse(self):
        assert cli.parse_args(["surface", "--family", "toroid", "--R", "3", "--out", "t.obj"]).spec.R == 3.0
        assert cli.parse_args(["surface", "--family", "toroid", "--out", "t.obj"]).spec.R == ShapeSpec3D("toroid").R
        assert cli.parse_args(["curve", "--family", "fg", "--domain", "-1", "1", "-1", "1",
                               "--out", "c.svg"]).domain == (-1.0, 1.0, -1.0, 1.0)
        assert cli.parse_args(["curve", "--family", "fg", "--out", "c.svg"]).domain is None

    def test_built_once_and_not_at_import(self):
        cli.parse_args(["info", "--family", "fg"])
        assert cli._build_parser() is cli._build_parser()
        code = "from squircles import cli; print(cli._build_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env(),
                              timeout=60)
        assert proc.stdout == "0\n", proc.stderr


class TestExitCodes:
    """Each exit code of the contract in cli's docstring, from the path that gives it."""

    @pytest.mark.parametrize("argv, message", [
        (["surface", "--family", "lame3d", "--R", "inf"], "lame3d parameter R must be finite, got inf"),
        (["surface", "--family", "sphube", "--a", "nan"], "sphube parameter a must be finite, got nan"),
        (["curve", "--family", "fg", "--overshoot", "nan"], "fg parameter h must be finite, got nan"),
    ])
    def test_a_parameter_the_family_does_not_read_must_be_finite(self, tmp_path, capsys, argv, message):
        ext = "svg" if argv[0] == "curve" else "obj"
        assert cli.main(argv + ["--grid", "16", "--out", str(tmp_path / f"x.{ext}")]) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["curve", "--family", "fg", "--domain", "1", "-1", "-1", "1"],
        ["curve", "--family", "lame", "--domain", "-1", "1", "1", "1"],
        ["surface", "--family", "sphube", "--domain", "-1", "1", "-1", "1", "1", "-1"],
        ["sweep", "--family", "fg", "--param", "s", "--from", "0", "--to", "1", "--steps", "2",
         "--domain", "-1", "1", "2", "-2"],
    ])
    def test_reversed_domain_is_a_usage_error(self, tmp_path, capsys, argv):
        ext = "obj" if argv[0] == "surface" else "svg"
        assert cli.main(argv + ["--grid", "16", "--out", str(tmp_path / f"x.{ext}")]) == 1
        assert capsys.readouterr() == ("", "usage error: domain bounds must satisfy max > min\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, sizes", [
        (["curve", "--family", "fg", "--domain", "-1e308", "1e308", "-1", "1"], "dx=inf, dy=0.125"),
        (["surface", "--family", "sphube", "--domain", "-1", "1", "-1e308", "1e308", "-1", "1"],
         "dx=0.125, dy=inf, dz=0.125"),
    ])
    def test_overflowing_domain_is_a_usage_error(self, tmp_path, capsys, argv, sizes):
        ext = "obj" if argv[0] == "surface" else "svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + ["--grid", "16", "--out", str(tmp_path / f"x.{ext}")]) == 1
        assert capsys.readouterr() == ("", f"usage error: cell sizes must be finite and positive, got {sizes}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["curve", "--family", "lame", "-p", "4"],
        ["curve", "--family", "periodic", "-s", "0.5"],
        ["curve", "--family", "oblique", "-s", "0.5"],
        ["surface", "--family", "lame3d", "--format", "obj"],
    ])
    def test_huge_radius_is_not_empty_with_warnings_as_errors(self, tmp_path, argv):
        # the curve length and mesh area overflow to inf (or nan), which is not below the floor
        argv = argv + ["--radius", "1e300", "--grid", "32"]
        runs = []
        for flags in ([], ["-W", "error"]):
            out = tmp_path / f"x{len(runs)}"
            proc = subprocess.run([sys.executable, *flags, "-m", "squircles", *argv, "--out", str(out)],
                                  capture_output=True, text=True, env=_fresh_env(), timeout=60)
            runs.append((proc.returncode, proc.stdout, proc.stderr, out.read_bytes()))
        assert runs[1] == runs[0] and runs[0][:3] == (0, "", "")
        assert runs[0][3]

    @pytest.mark.parametrize("radius, rc", [("1e21", 0), ("1e25", 0), ("1e300", 2)])
    def test_huge_radius_stl_with_warnings_as_errors(self, tmp_path, radius, rc):
        # from 1e21 the float32 cross products of the edges overflow, so those
        # normals are taken in float64; at 1e300 the vertices themselves do
        # not fit float32, a numeric error before any byte is written
        out = tmp_path / "x.stl"
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "squircles", "surface", "--family", "lame3d",
                               "--radius", radius, "--grid", "16", "--format", "stl", "--out", str(out)],
                              capture_output=True, text=True, env=_fresh_env(), timeout=60)
        if rc:
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == ("numeric error: vertex coordinates outside the float32 range of STL, "
                                   "[-3.4028235e+38, 3.4028235e+38]\n")
            assert out.read_bytes() == b""
            return
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        raw = out.read_bytes()
        normals = np.frombuffer(raw[84:], dtype=np.dtype([("n", "<f4", 3), ("v", "<f4", (3, 3)),
                                                            ("attr", "<u2")]))["n"].astype(float)
        assert len(normals) == struct.unpack_from("<I", raw, 80)[0] > 0
        assert np.all(np.abs(np.linalg.norm(normals, axis=1) - 1.0) < 1e-6)

    @pytest.mark.parametrize("argv", [
        ["curve", "--family", "fg"],
        ["surface", "--family", "sphube"],
        ["surface", "--family", "toroid"],
        ["surface", "--family", "toroid_octic"],
    ])
    def test_tiny_radius_is_a_numeric_error(self, tmp_path, capsys, argv):
        # r * r underflows to 0 in the fields' Python-float scale factors
        ext = "svg" if argv[0] == "curve" else "obj"
        assert cli.main(argv + ["--radius", "1e-320", "--grid", "16", "--out", str(tmp_path / f"x.{ext}")]) == 2
        assert capsys.readouterr() == ("", "numeric error: float division by zero\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["curve", "--family", "fg", "--tiles", "0"], "--tiles must be >= 1"),
        (["curve", "--family", "fg", "--domain", "-1", "1", "-1"], "--domain takes 4 values for this subcommand"),
        (["surface", "--family", "sphube", "--domain", "-1", "1", "-1", "1"],
         "--domain takes 6 values for this subcommand"),
        (["sweep", "--family", "fg", "--param", "s", "--from", "0", "--to", "1", "--steps", "0"],
         "--steps must be >= 1"),
    ])
    def test_count_and_domain_flags(self, tmp_path, capsys, argv, message):
        ext = "obj" if argv[0] == "surface" else "svg"
        assert cli.main(argv + ["--grid", "16", "--out", str(tmp_path / f"x.{ext}")]) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert not list(tmp_path.iterdir())

    def test_sweep_out_without_an_extension(self, tmp_path):
        argv = ["sweep", "--family", "fg", "--param", "s", "--from", "0", "--to", "1", "--steps", "3",
                "--grid", "16", "--out", str(tmp_path / "steps")]
        assert cli.main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["steps_00", "steps_01", "steps_02"]
        assert (tmp_path / "steps_02").read_text().startswith("<?xml")

    def test_non_finite_samples_are_a_numeric_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "make_field2d", lambda spec: lambda x, y: np.full(np.broadcast(x, y).shape, np.nan))
        assert cli.main(["curve", "--family", "fg", "--grid", "16", "--out", str(tmp_path / "x.svg")]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("numeric error: non-finite field value at sample (")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv, sample", [
        (["curve", "--family", "fg", "-s", "1", "--radius", "1e-160"], "-1.2e-160, -1.2e-160"),
        (["curve", "--family", "periodic", "-s", "1", "--radius", "1e-320"], "-1.2e-320, -1.2e-320"),
        (["surface", "--family", "sphube", "-s", "1", "--radius", "1e-160"], "-1e-160, -1e-160, -1e-160"),
    ])
    def test_non_finite_samples_exit_2_with_warnings_as_errors(self, tmp_path, capsys, monkeypatch, argv,
                                                               sample, workers):
        # the fields give nan or inf on every sample; the finite
        # check, not a RuntimeWarning raised in a band's thread, ends the run
        monkeypatch.setattr(contour2d, "SLAB_SAMPLES", 3 * 17)  # 2-row bands, 1-plane slabs
        monkeypatch.setattr(contour2d, "POOL_MIN_BANDS", 0)
        ext = "svg" if argv[0] == "curve" else "obj"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + ["--grid", "16", "--workers", workers, "--out", str(tmp_path / f"x.{ext}")]) == 2
        assert capsys.readouterr() == ("", f"numeric error: non-finite field value at sample ({sample})\n")
        assert not list(tmp_path.iterdir())

    def test_no_sign_change_is_a_numeric_error(self, capsys, monkeypatch):
        def no_bracket(family, r):
            raise oracle.NoSignChangeError("no sign change along theta=0.5")

        monkeypatch.setattr(oracle, "square_case_check", no_bracket)
        assert cli.main(["verify", "--suite", "square"]) == 2
        assert capsys.readouterr() == ("", "numeric error: no sign change along theta=0.5\n")

    @pytest.mark.parametrize("value", [1.0, math.nan])
    def test_a_failed_check_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setattr(oracle, "square_case_check", lambda family, r: value)
        assert cli.main(["verify", "--suite", "square"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines if ln.endswith(" FAIL")] == [
            "square_case_periodic", "square_case_oblique", "square_case_periodic_r3"]
        assert lines[0] == f"{'square_case_periodic':<36} value={value:.6e} bound=1e-12      FAIL"
        assert len(lines) == 8 and all(ln.endswith(" PASS") for ln in lines[3:])


def _strict_json(text):
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(text, parse_constant=reject)


class TestVerifyJson:
    """`verify --json` prints the rows the text lines show, one to one, as one
    strict JSON array, with the same exit code."""

    def _text_and_rows(self, capsys, argv):
        rc = cli.main(argv)
        lines = capsys.readouterr().out.splitlines()
        rc_json = cli.main(argv + ["--json"])
        out = capsys.readouterr()
        assert rc_json == rc and out.err == ""
        rows = _strict_json(out.out)
        assert all(list(row) == ["suite", "name", "value", "bound", "ok"] for row in rows)
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            value = line.split(" value=", 1)[1].split()[0]
            assert value in ("nan", "inf", "-inf") if row["value"] is None else value == f"{row['value']:.6e}"
            assert line == f"{row['name']:<36} value={value} bound={row['bound']:<10} {'PASS' if row['ok'] else 'FAIL'}"
        return rc, rows

    def test_all_suites(self, capsys):
        rc, rows = self._text_and_rows(capsys, ["verify", "--suite", "all"])
        assert rc == 0 and len(rows) == 32 and all(row["ok"] is True for row in rows)
        assert [row["suite"] for row in rows] == ["limits"] * 13 + ["square"] * 8 + ["equivalence"] * 6 + ["mesh"] * 5

    @pytest.mark.parametrize("value", [1.0, math.nan, math.inf])
    def test_a_failed_check(self, capsys, monkeypatch, value):
        monkeypatch.setattr(oracle, "square_case_check", lambda family, r: value)
        rc, rows = self._text_and_rows(capsys, ["verify", "--suite", "square"])
        assert rc == 2
        assert [row["ok"] for row in rows] == [False] * 3 + [True] * 5
        assert rows[0]["value"] == (value if math.isfinite(value) else None)

