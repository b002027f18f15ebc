"""Seeded job lists for the four workloads.

A job is one closed-loop call into the program: a `cli.main` argv, a figure
recipe run through `recipes.run_recipe`, or `verify --suite all`. Each job
also says what its output files must look like, so that the checker can
judge them without the program. The lists depend only on the workload name
and the seed; the program receives nothing but the argv.
"""

from __future__ import annotations

import math
import os
import random
import re
from dataclasses import dataclass, field

WORKLOADS = ("surface_obj", "surface_stl_large", "curves_2d", "gallery")

# Closed families and their Euler characteristic, as acceptance criterion 5
# states them. Only these are checked for watertightness.
CLOSED_CHI = {"sphube": 2, "lame3d": 2, "toroid": 0}

# Overshoot at which the trigonometric families at s = 1 recede to points.
OVERSHOOT_END = {"oblique": 2.0, "oblique3d": 4.0}

# CLI defaults for the shape flags (see `squircles curve --help`).
SHAPE_DEFAULTS = {"s": 0.0, "p": 2.0, "r": 1.0, "h": 0.0, "R": 2.0,
                  "a": 1.0, "b": 1.0, "c": 1.0, "k": 1.0, "cc": 2.0}
_FLAG_KEYS = {"-s": "s", "--squareness": "s", "-p": "p", "--exponent": "p",
              "--radius": "r", "--r": "r", "--overshoot": "h", "--R": "R",
              "--a": "a", "--b": "b", "--c": "c", "--k": "k", "--cc": "cc"}
_SWEEP_KEYS = {"squareness": "s", "s": "s", "exponent": "p", "p": "p",
               "overshoot": "h", "h": "h"}
_PI = re.compile(r"^(-?\d*\.?\d*)pi(?:/(\d+\.?\d*))?$")


@dataclass
class Output:
    """One file a job must write, with what the checker expects of it."""

    path: str
    fmt: str
    family: str
    grid: int
    params: dict
    empty: bool = False

    def expectation(self) -> dict:
        return {"path": self.path, "fmt": self.fmt, "family": self.family,
                "grid": self.grid, "params": self.params, "empty": self.empty,
                "chi": CLOSED_CHI.get(self.family)}


@dataclass
class Job:
    id: str
    argv: list[str] | None = None
    recipe: str | None = None
    outputs: list[Output] = field(default_factory=list)

    @property
    def verify(self) -> bool:
        return self.argv is not None and self.argv[0] == "verify"

    @property
    def notices(self) -> int:
        """Expected count of `empty level set` notices on stdout."""
        return sum(o.empty for o in self.outputs)


def _num(text: str) -> float:
    text = text.strip().lower()
    m = _PI.match(text)
    if m:
        mult = {"": 1.0, "-": -1.0}.get(m.group(1))
        mult = float(m.group(1)) if mult is None else mult
        return mult * math.pi / (float(m.group(2)) if m.group(2) else 1.0)
    return float(text)


def _is_number(text: str) -> bool:
    try:
        _num(text)
    except ValueError:
        return False
    return True


def outputs_of(argv: list[str]) -> list[Output]:
    """Files a `curve`/`surface`/`sweep` argv writes, per the CLI's documented
    flags and sweep naming (`<root>_<step>.<ext>`)."""
    sub, flags, i = argv[0], {}, 1
    while i < len(argv):
        flag = argv[i]
        if flag == "--domain":
            i += 1
            while i < len(argv) and _is_number(argv[i]):
                i += 1
            continue
        flags[flag] = argv[i + 1]
        i += 2
    params = dict(SHAPE_DEFAULTS)
    for flag, key in _FLAG_KEYS.items():
        if flag in flags:
            params[key] = _num(flags[flag])
    params["tiles"] = int(flags.get("--tiles", 1))
    fmt = flags.get("--format", "obj" if sub == "surface" else "svg")
    grid = int(flags.get("--grid", 512 if sub == "curve" else 96))
    family, out = flags["--family"], flags["--out"]
    if sub != "sweep":
        return [Output(out, fmt, family, grid, params, _empty(family, params))]
    key, steps = _SWEEP_KEYS[flags["--param"]], int(flags["--steps"])
    start, stop = _num(flags["--from"]), _num(flags["--to"])
    root, dot, ext = out.rpartition(".")
    if not dot:
        root, ext = out, ""
    width = max(2, len(str(steps - 1)))
    result = []
    for idx in range(steps):
        value = start + (stop - start) * idx / (steps - 1) if steps > 1 else start
        step = dict(params, **{key: value})
        result.append(Output(f"{root}_{idx:0{width}d}{dot}{ext}", fmt, family, grid, step,
                             _empty(family, step)))
    return result


def _empty(family: str, params: dict) -> bool:
    end = OVERSHOOT_END.get(family)
    return end is not None and params["s"] == 1.0 and abs(params["h"] - end) < 1e-9


def _band(lo: float, hi: float, u: float) -> str:
    return f"{lo + (hi - lo) * u:.6f}"


def _cli_job(job_id: str, argv: list[str]) -> Job:
    return Job(job_id, argv=argv, outputs=outputs_of(argv))


# The radius scales the default domain with the shape, so it moves the bytes
# but not the work. Shape bands are kept narrow and, where a family appears
# twice, drawn as an antithetic pair (u, 1 - u): every command then costs
# nearly the same on every seed, which keeps the median command steady.
RADIUS = (0.8, 1.25)


def _surface_obj(rng: random.Random, out: str) -> list[Job]:
    # one job per family: short passes, so a run holds several of them; the
    # triangle count moves by about 3% across each band
    jobs = []
    for family, flag, lo, hi in (("sphube", "-s", 0.7, 0.8), ("lame3d", "-p", 4.0, 5.0)):
        path = os.path.join(out, f"{family}.obj")
        jobs.append(_cli_job(family, [
            "surface", "--family", family, flag, _band(lo, hi, rng.random()),
            "--radius", _band(*RADIUS, rng.random()),
            "--grid", "128", "--format", "obj", "--out", path]))
    rng.shuffle(jobs)
    return jobs


def _surface_stl_large(rng: random.Random, out: str) -> list[Job]:
    sphube = ["surface", "--family", "sphube", "-s", _band(0.7, 0.8, rng.random()),
              "--radius", _band(*RADIUS, rng.random()),
              "--grid", "256", "--format", "stl", "--out", os.path.join(out, "sphube.stl")]
    sheets = ["surface", "--family", "oblique3d", "-s", _band(0.895, 0.905, rng.random()),
              "--radius", _band(*RADIUS, rng.random()), "--tiles", "2",
              "--grid", "256", "--format", "stl", "--out", os.path.join(out, "oblique3d.stl")]
    jobs = [_cli_job("sphube", sphube), _cli_job("oblique3d", sheets)]
    rng.shuffle(jobs)
    return jobs


def _curves_2d(rng: random.Random, out: str) -> list[Job]:
    specs = []
    for family, flag, lo, hi in (("fg", "-s", 0.7, 0.8), ("lame", "-p", 4.0, 5.0)):
        u = rng.random()
        specs += [(family, flag, _band(lo, hi, u), 1, "svg"),
                  (family, flag, _band(lo, hi, 1.0 - u), 1, "csv")]
    # every tile count once per family, formats balanced across the pass
    for family, fmts in (("periodic", ("svg", "csv", "svg")), ("oblique", ("csv", "svg", "csv"))):
        for tiles, fmt in zip((1, 2, 3), fmts):
            specs.append((family, "-s", _band(0.75, 0.8, rng.random()), tiles, fmt))
    jobs = []
    for idx, (family, flag, value, tiles, fmt) in enumerate(specs):
        path = os.path.join(out, f"{family}{idx}.{fmt}")
        jobs.append(_cli_job(f"{family}{idx}", [
            "curve", "--family", family, flag, value, "--radius", _band(*RADIUS, rng.random()),
            "--tiles", str(tiles), "--grid", "2048", "--format", fmt, "--out", path]))
    rng.shuffle(jobs)
    return jobs


def _gallery(rng: random.Random, out: str, recipes: dict) -> list[Job]:
    jobs = []
    for name, commands in recipes.items():
        outs = []
        for argv in commands:
            for o in outputs_of(argv):
                o.path = os.path.join(out, name, o.path)
                outs.append(o)
        jobs.append(Job(name, recipe=name, outputs=outs))
    jobs.append(Job("verify", argv=["verify", "--suite", "all"]))
    rng.shuffle(jobs)
    return jobs


def job_list(workload: str, seed: int, out: str, recipes: dict | None = None) -> list[Job]:
    """The fixed job list of one pass; `recipes` is the program's recipe table."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "surface_obj":
        return _surface_obj(rng, out)
    if workload == "surface_stl_large":
        return _surface_stl_large(rng, out)
    if workload == "curves_2d":
        return _curves_2d(rng, out)
    if workload == "gallery":
        return _gallery(rng, out, recipes)
    raise ValueError(f"unknown workload {workload!r}")
