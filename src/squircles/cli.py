"""Command-line front end: curve/surface export, parameter sweeps, the
verification suite and family info.

Exit codes: 0 success, 1 usage error, 2 numeric failure (no sign bracket,
non-finite samples, an arithmetic error such as a radius too small to square)
or a failed verify check, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import fields2d, fields3d, mesh_io, oracle
from .contour2d import _FIELD_ERRSTATE, Domain2D, contour, default_workers, frantz_polyline
from .fields2d import FAMILY_RECORDS_2D, ShapeSpec2D, frantz_point, make_field2d
from .fields3d import FAMILY_RECORDS_3D, ShapeSpec3D, make_field3d
# sample_grid3d is not called here; sqbench's thread probe reads it from here
from .polygonize3d import Domain3D, polygonize, sample_grid3d

CURVE_FORMATS = ("svg", "csv")
SURFACE_FORMATS = ("obj", "stl")
# ShapeSpec3D fields with a flag of the same name; 2D output rejects them
SPEC_3D_ONLY = ("R", "a", "b", "c", "k", "cc")
SWEEP_PARAMS = {"squareness": "s", "s": "s", "exponent": "p", "p": "p", "overshoot": "h", "h": "h"}
EMPTY_NOTICE = "empty level set"

_PI_RE = re.compile(r"^(-?\d*\.?\d*)\s*pi\s*(?:/\s*(\d+\.?\d*))?$")


class UsageError(ValueError):
    pass


def pi_float(text: str) -> float:
    """Parse a float flag, accepting pi tokens like 'pi', '2pi', 'pi/2'."""
    text = text.strip().lower()
    m = _PI_RE.match(text)
    try:
        if not m:
            return float(text)
        mult = m.group(1)
        mult = float(mult) if mult not in ("", "-") else (-1.0 if mult == "-" else 1.0)
        div = float(m.group(2)) if m.group(2) else 1.0
        return mult * math.pi / div
    except (ValueError, ZeroDivisionError) as exc:  # '.pi', 'pi/0'
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


@dataclass
class Command:
    subcommand: str
    spec: object = None
    domain: tuple | None = None
    grid: int = 96
    tiles: int = 1
    fmt: str = "svg"
    out: str = ""
    suite: str = "all"
    as_json: bool = False
    samples: int = 512
    workers: int | None = None
    sweep_param: str = ""
    sweep_values: tuple = ()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # a negative number or pi token such as -pi/2 is a value, not a flag
        try:
            pi_float(arg_string)
        except argparse.ArgumentTypeError:
            return super()._parse_optional(arg_string)
        return None


def _shape_flags(p, three_d):
    p.add_argument("--family", required=True)
    p.add_argument("--exponent", "-p", type=pi_float, default=2.0, help="Lame exponent (accepts inf)")
    p.add_argument("--squareness", "-s", type=pi_float, default=0.0)
    p.add_argument("--radius", "--r", dest="radius", type=pi_float, default=1.0,
                   help="scale (tube radius for the toroid)")
    p.add_argument("--overshoot", type=pi_float, default=0.0)
    if three_d:  # unset flags keep the ShapeSpec3D defaults
        p.add_argument("--R", type=pi_float, help="toroid center distance")
        for name in SPEC_3D_ONLY[1:]:
            p.add_argument(f"--{name}", type=pi_float)


def _output_flags(p, grid, formats):
    p.add_argument("--grid", type=int, default=grid)
    p.add_argument("--tiles", type=int, default=1)
    p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--domain", type=pi_float, nargs="*", default=None,
                   help="explicit bounds: xmin xmax ymin ymax [zmin zmax]")


@functools.cache
def _build_parser():
    parser = _Parser(prog="squircles", allow_abbrev=False,
                     description="squircle curve and surface toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    curve = sub.add_parser("curve", allow_abbrev=False, help="export a 2D squircle")
    _shape_flags(curve, three_d=False)
    _output_flags(curve, grid=512, formats=CURVE_FORMATS)
    curve.add_argument("--samples", type=int, default=512, help="point count for the frantz family")

    surface = sub.add_parser("surface", allow_abbrev=False, help="export a 3D squircular surface")
    _shape_flags(surface, three_d=True)
    _output_flags(surface, grid=96, formats=SURFACE_FORMATS)

    sweep = sub.add_parser("sweep", allow_abbrev=False, help="export one file per parameter step")
    _shape_flags(sweep, three_d=True)
    _output_flags(sweep, grid=96, formats=CURVE_FORMATS + SURFACE_FORMATS)
    sweep.add_argument("--samples", type=int, default=512)
    sweep.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    sweep.add_argument("--from", dest="start", type=pi_float, required=True)
    sweep.add_argument("--to", dest="stop", type=pi_float, required=True)
    sweep.add_argument("--steps", type=int, required=True)

    verify = sub.add_parser("verify", allow_abbrev=False, help="run the numerical checks")
    verify.add_argument("--suite", choices=("all", "limits", "equivalence", "mesh", "square"),
                        default="all")
    verify.add_argument("--grid", type=int, default=64, help="mesh-suite resolution")
    verify.add_argument("--json", dest="as_json", action="store_true",
                        help="print the checks as one JSON array of rows")

    info = sub.add_parser("info", allow_abbrev=False, help="describe a shape family")
    info.add_argument("--family", required=True)
    return parser


def _make_spec(ns, three_d):
    extra = {name: getattr(ns, name) for name in SPEC_3D_ONLY if getattr(ns, name, None) is not None}
    if extra and not three_d:
        raise UsageError("3D-only flags need --format obj or stl: " + " ".join(f"--{name}" for name in extra))
    spec = ShapeSpec3D if three_d else ShapeSpec2D
    return spec(family=ns.family, p=ns.exponent, s=ns.squareness, r=ns.radius, h=ns.overshoot, **extra)


# One parser per process: built on the first call, not at import, and reused
# by every later one. argparse keeps no state between parses (each starts from
# a fresh namespace), so a reused parser gives the same results and errors.
def parse_args(argv) -> Command:
    ns = _build_parser().parse_args(argv)
    cmd = Command(subcommand=ns.subcommand)
    if ns.subcommand == "info":
        cmd.suite = ns.family
        return cmd
    # the thread count, read once: --workers, else SQUIRCLES_WORKERS or the CPU count
    cmd.workers = getattr(ns, "workers", None)
    if cmd.workers is None:
        try:
            cmd.workers = default_workers()
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    # verify's mesh_sphere_area bound (1e-2) holds on correct meshes from
    # grid 14 up: it reads 2.8e-2 at grid 8 and 1.3e-2 at grid 12
    floor = 14 if ns.subcommand == "verify" else 8
    if ns.grid < floor:
        raise UsageError(f"--grid must be >= {floor}")
    if ns.subcommand == "verify":
        cmd.suite, cmd.grid, cmd.as_json = ns.suite, ns.grid, ns.as_json
        return cmd

    three_d = ns.fmt in SURFACE_FORMATS  # surface, or a sweep writing meshes
    try:
        cmd.spec = _make_spec(ns, three_d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cmd.grid, cmd.tiles, cmd.fmt, cmd.out = ns.grid, ns.tiles, ns.fmt, ns.out
    cmd.samples = getattr(ns, "samples", 512)
    if cmd.tiles < 1:
        raise UsageError("--tiles must be >= 1")
    if cmd.samples < 8:
        raise UsageError("--samples must be >= 8")
    if cmd.workers < 1:
        raise UsageError("--workers must be >= 1")
    if ns.domain is not None:
        want = 6 if three_d else 4
        if len(ns.domain) != want:
            raise UsageError(f"--domain takes {want} values for this subcommand")
        if not all(map(math.isfinite, ns.domain)):
            raise UsageError("--domain values must be finite")
        try:  # the Domain classes' bounds and cell size rules; grid >= 8 passes their cell count rule
            (Domain3D if three_d else Domain2D)(*ns.domain, *[ns.grid] * (want // 2))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        cmd.domain = tuple(ns.domain)
    if ns.subcommand == "sweep":
        if ns.steps < 1:
            raise UsageError("--steps must be >= 1")
        if not (math.isfinite(ns.start) and math.isfinite(ns.stop)):
            raise UsageError("--from and --to must be finite")
        cmd.sweep_param = SWEEP_PARAMS[ns.param]
        cmd.sweep_values = tuple(np.linspace(ns.start, ns.stop, ns.steps))
    return cmd


def default_domain2d(spec: ShapeSpec2D, grid: int, tiles: int) -> Domain2D:
    return Domain2D(*FAMILY_RECORDS_2D[spec.family].bounds(spec, tiles), grid, grid)


def default_domain3d(spec: ShapeSpec3D, grid: int, tiles: int) -> Domain3D:
    bounds = FAMILY_RECORDS_3D[spec.family].bounds(spec, tiles)
    xext, zspan = bounds[1] - bounds[0], bounds[5] - bounds[4]
    nz = max(8, int(round(grid * zspan / xext / 2.0)) * 2)
    return Domain3D(*bounds, grid, grid, nz)


def _write(path, writer):
    try:
        with open(path, "wb") as sink:
            writer(sink)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise


def _run_curve(cmd: Command):
    spec = cmd.spec
    if cmd.domain:
        domain = Domain2D(*cmd.domain, cmd.grid, cmd.grid)
    else:
        domain = default_domain2d(spec, cmd.grid, cmd.tiles)
    if spec.family == "frantz":
        polylines = [frantz_polyline(spec.s, spec.r, cmd.samples)]
    else:
        # sampled and contoured band by band: the whole grid is never held
        polylines = contour(make_field2d(spec), domain, workers=cmd.workers)
        with np.errstate(**_FIELD_ERRSTATE):  # an infinite length at a huge radius is not empty
            length = sum(
                float(np.linalg.norm(np.diff(pl.points, axis=0), axis=1).sum()) for pl in polylines
            )
        if not polylines or length < 1e-9 * (domain.dx + domain.dy):
            print(EMPTY_NOTICE)
    if cmd.fmt == "svg":
        _write(cmd.out, lambda sink: mesh_io.write_svg(polylines, domain, sink))
    else:
        _write(cmd.out, lambda sink: mesh_io.write_csv(polylines, sink))


def _run_surface(cmd: Command):
    spec = cmd.spec
    field = make_field3d(spec)
    if cmd.domain:
        domain = Domain3D(*cmd.domain, cmd.grid, cmd.grid, cmd.grid)
    else:
        domain = default_domain3d(spec, cmd.grid, cmd.tiles)
    # sampled and meshed slab by slab: the whole volume is never held
    mesh = polygonize(field, domain, workers=cmd.workers)
    # a zero set of isolated points (full overshoot recession) leaves only
    # sub-cell slivers around nudged samples; report it as empty
    floor_area = 1e-9 * domain.dx * domain.dy
    with np.errstate(**_FIELD_ERRSTATE):  # an infinite area at a huge radius is not below it
        empty = mesh.empty or mesh_io.area_below(mesh, floor_area)
    if empty:
        print(EMPTY_NOTICE)
    comment = _describe_spec(spec)
    writer = mesh_io.write_obj if cmd.fmt == "obj" else mesh_io.write_stl
    _write(cmd.out, lambda sink: writer(mesh, sink, comment=comment))


def _describe_spec(spec) -> str:
    return " ".join([spec.family] + [f"{f.name}={getattr(spec, f.name)}" for f in fields(spec)[1:]])


def _run_sweep(cmd: Command):
    root, dot, ext = cmd.out.rpartition(".")
    if not dot:
        root, ext = cmd.out, ""
    width = max(2, len(str(len(cmd.sweep_values) - 1)))
    for idx, value in enumerate(cmd.sweep_values):
        step = replace(cmd, spec=replace(cmd.spec, **{cmd.sweep_param: float(value)}),
                       out=f"{root}_{idx:0{width}d}{dot}{ext}")
        (_run_surface if cmd.fmt in SURFACE_FORMATS else _run_curve)(step)


def _run_info(cmd: Command):
    record = FAMILY_RECORDS_2D.get(cmd.suite) or FAMILY_RECORDS_3D.get(cmd.suite)
    if record is None:
        raise UsageError(f"unknown family {cmd.suite!r}")
    print(f"{cmd.suite}: {record.info}")


def _verify_limits():
    for name, spec, bound in (("circle_limit_lame_p2", ShapeSpec2D("lame", p=2.0), "1e-12"),
                              ("circle_limit_fg_s0", ShapeSpec2D("fg", s=0.0), "1e-12"),
                              ("circle_limit_periodic", ShapeSpec2D("periodic", s=1e-3), "1e-03"),
                              ("circle_limit_oblique", ShapeSpec2D("oblique", s=1e-3), "1e-03")):
        yield name, oracle.radial_profile_report(make_field2d(spec), 1.5, lambda th: 1.0).max_abs_error, bound

    x, y = frantz_point(2.0 * np.pi * (np.arange(360) + 0.5) / 360, 1e-3, 1.0)
    yield "circle_limit_frantz", float(np.max(np.abs(np.hypot(x, y) - 1.0))), "1e-03"

    y_grid = np.linspace(-0.94, 0.94, 50)
    for family in ("periodic", "oblique"):
        rep = oracle.limit_convergence_check(family, y_grid, [0.2, 0.1, 0.05])
        yield f"convergence_{family}", float(np.max(np.abs(rep.ratios - 4.0))), "0.5"

    for name, field, period, ndim in (
        ("periodicity_periodic_2d", make_field2d(ShapeSpec2D("periodic", s=0.5)), 8.0, 2),
        ("periodicity_oblique_2d", make_field2d(ShapeSpec2D("oblique", s=0.5)), 4.0, 2),
        ("periodicity_periodic_3d", make_field3d(ShapeSpec3D("periodic3d", s=0.5)), 8.0, 3),
        ("periodicity_oblique_3d", make_field3d(ShapeSpec3D("oblique3d", s=0.5)), 4.0, 3),
    ):
        yield name, oracle.periodicity_check(field, period, ndim=ndim), "1e-09"
    for name, spec in (("nonperiodic_fg", ShapeSpec2D("fg", s=0.5)),
                       ("nonperiodic_lame", ShapeSpec2D("lame", p=3.0))):
        v = oracle.periodicity_check(make_field2d(spec), 4.0, ndim=2)
        yield name, v, "> 0.1", v > 0.1


def _verify_square():
    for name, family, r in (("square_case_periodic", "periodic", 1.0), ("square_case_oblique", "oblique", 1.0),
                            ("square_case_periodic_r3", "periodic", 3.0)):
        yield name, oracle.square_case_check(family, r=r), "1e-12"

    for name, spec, ref in (
        ("square_metric_lame_inf", ShapeSpec2D("lame", p=math.inf), oracle.square_metric_axis(1.0)),
        ("square_metric_lame_p1", ShapeSpec2D("lame", p=1.0), oracle.square_metric_tilted(1.0)),
        ("square_metric_fg", ShapeSpec2D("fg", s=1.0), oracle.square_metric_axis(1.0)),
        ("square_metric_periodic", ShapeSpec2D("periodic", s=1.0), oracle.square_metric_axis(1.0)),
        ("square_metric_oblique", ShapeSpec2D("oblique", s=1.0), oracle.square_metric_tilted(1.0)),
    ):
        yield name, oracle.radial_profile_report(make_field2d(spec), 1.6, ref).max_abs_error, "1e-09"


def _verify_equivalence():
    R, r = 2.0, 0.5
    for s in (0.0, 0.5, 1.0):
        ref = lambda x, y, z, s=s: fields3d.eval_toroid(x, y, z, s, R, r)
        alt = lambda x, y, z, s=s: fields3d.eval_toroid_octic(x, y, z, s, R, r)
        v = oracle.zero_set_residual(ref, alt, 1000, seed_point=(R, 0.0, 0.0), r_max=2.0)
        yield f"toroid_octic_s{s}", v, "1.6e-08"  # 1e-9 R^4

    rng = np.random.default_rng(3)
    pts = rng.uniform(-2 * np.pi, 2 * np.pi, size=(10000, 3))
    sham = make_field3d(ShapeSpec3D("oblique3d", s=1.0, r=math.pi, h=1.0))
    v = float(np.max(np.abs(sham(*pts.T) + np.cos(pts[:, 0]) + np.cos(pts[:, 1]) + np.cos(pts[:, 2]))))
    yield "sham_schwarz_reduction", v, "1e-12"

    x, y = rng.uniform(-2, 2, size=(10000, 2)).T
    yield "sphube_fg_z0", float(np.max(np.abs(fields3d.eval_sphube(x, y, 0.0, 0.7, 1.0)
                                              - fields2d.eval_fg(x, y, 0.7, 1.0)))), "0"
    yield "periodic3d_periodic_z0", float(np.max(np.abs(fields3d.eval_periodic3d(x, y, 0.0, 0.7, 1.0)
                                                        - fields2d.eval_periodic(x, y, 0.7, 1.0)))), "0"


def _verify_mesh(grid, workers):
    for name, spec, chi in (("mesh_sphere", ShapeSpec3D("lame3d", p=2.0), 2),
                            ("mesh_torus", ShapeSpec3D("toroid", s=0.0, R=2.0, r=0.5), 0),
                            ("mesh_cone_fg", ShapeSpec3D("cone_fg", s=1.0, c=3.0), 2),
                            ("mesh_cuboctahedron", ShapeSpec3D("cuboctahedron"), 2)):
        stats = mesh_io.mesh_stats(polygonize(make_field3d(spec), default_domain3d(spec, grid, 1), workers))
        ok = stats.watertight and stats.euler_characteristic == chi
        yield name, float(stats.euler_characteristic), f"chi={chi}", ok
        if name == "mesh_sphere":
            yield "mesh_sphere_area", abs(stats.total_area / (4 * math.pi) - 1.0), "1e-02"


def _run_verify(cmd: Command) -> int:
    """Print one line per check of the suites cmd.suite selects and return 2 if
    any fails. A suite yields (name, value, bound text) rows, which pass when
    value <= float(bound), or (name, value, bound text, ok) rows. With
    cmd.as_json the rows are printed as one JSON array of objects instead, a
    non-finite value as null."""
    suites = {"limits": _verify_limits, "square": _verify_square, "equivalence": _verify_equivalence,
              "mesh": lambda: _verify_mesh(cmd.grid, cmd.workers)}
    rows = []
    for suite in suites if cmd.suite == "all" else [cmd.suite]:
        for name, value, bound, *ok in suites[suite]():
            ok = bool(ok[0] if ok else value <= float(bound))
            rows.append({"suite": suite, "name": name, "value": value if math.isfinite(value) else None,
                         "bound": bound, "ok": ok})
            if not cmd.as_json:
                print(f"{name:<36} value={value:.6e} bound={bound:<10} {'PASS' if ok else 'FAIL'}")
    if cmd.as_json:
        print("[" + ",\n ".join(map(json.dumps, rows)) + "]")
    return 0 if all(row["ok"] for row in rows) else 2


def run(cmd: Command) -> int:
    """Run a parsed command; failures raise, so only a failed check returns nonzero."""
    if cmd.subcommand == "verify":
        return _run_verify(cmd)
    {"info": _run_info, "sweep": _run_sweep, "surface": _run_surface, "curve": _run_curve}[cmd.subcommand](cmd)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cmd = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if not exc.code else 1
    try:
        return run(cmd)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (oracle.NoSignChangeError, ValueError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError:
        return 3


if __name__ == "__main__":
    sys.exit(main())
