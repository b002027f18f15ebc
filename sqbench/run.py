"""Closed-loop benchmark of the squircles CLI.

Run from the root of a squircles checkout:

    python3 sqbench/run.py --workload surface_obj --seed 1 --seconds 15 --trace 0

One caller runs the workload's seeded job list through `squircles.cli.main`
(and `recipes.run_recipe`) in this process, each command after the previous
one returned, for about `--seconds` seconds of passes. The program runs with
its default sampling thread count and nothing else runs beside it. Every
output file is then checked by `check.py`, which does not import the
program. With `--trace 0` the end-to-end metrics are measured; with
`--trace 1` a separate traced pass gives the per-layer metrics. The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import jobs as joblib
import spans

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 24  # fresh interpreters timed for setup_s in one run
SETUP_PER_GROUP = 6  # spawned before the first pass and after each pass until SETUP_SPAWNS
SETUP_CODE = ("import squircles\nfrom squircles.cli import main\n"
              "raise SystemExit(main(['info', '--family', 'sphube']))")
WARMUP = (
    ["curve", "--family", "fg", "-s", "0.5", "--grid", "256", "--format", "svg", "--out", "warm.svg"],
    ["curve", "--family", "fg", "-s", "0.5", "--grid", "256", "--format", "csv", "--out", "warm.csv"],
    ["surface", "--family", "sphube", "-s", "0.5", "--grid", "32", "--format", "obj", "--out", "warm.obj"],
    ["surface", "--family", "sphube", "-s", "0.5", "--grid", "32", "--format", "stl", "--out", "warm.stl"],
)
MEMORY_SPANS = ("polygonize3d.sample_grid3d", "polygonize3d.marching_cubes")
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
# per-layer metric, unit; counts are per pass
PER_LAYER = (
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("recipes.run_recipe.calls", "count"), ("recipes.run_recipe.self_s", "s"),
    ("fields2d.eval.calls", "count"), ("fields2d.eval.self_s", "s"),
    ("fields2d.eval.samples", "count"), ("fields2d.eval.samples_per_s", "1/s"),
    ("fields3d.eval.calls", "count"), ("fields3d.eval.self_s", "s"),
    ("fields3d.eval.samples", "count"), ("fields3d.eval.samples_per_s", "1/s"),
    ("contour2d.sample_grid2d.calls", "count"), ("contour2d.sample_grid2d.self_s", "s"),
    ("contour2d.sample_grid2d.samples", "count"),
    ("contour2d.marching_squares.calls", "count"), ("contour2d.marching_squares.self_s", "s"),
    ("contour2d.marching_squares.active_cells", "count"),
    ("contour2d.marching_squares.active_ratio", "ratio"),
    ("contour2d.marching_squares.points", "count"),
    ("polygonize3d.sample_grid3d.calls", "count"), ("polygonize3d.sample_grid3d.self_s", "s"),
    ("polygonize3d.sample_grid3d.samples", "count"),
    ("polygonize3d.sample_grid3d.peak_alloc_mb", "MB"),
    ("polygonize3d.sample_grid3d.threads_speedup", "ratio"),
    ("polygonize3d.marching_cubes.calls", "count"), ("polygonize3d.marching_cubes.self_s", "s"),
    ("polygonize3d.marching_cubes.triangles", "count"),
    ("polygonize3d.marching_cubes.triangles_per_s", "1/s"),
    ("polygonize3d.marching_cubes.active_ratio", "ratio"),
    ("polygonize3d.marching_cubes.peak_alloc_mb", "MB"),
    ("mesh_io.mesh_stats.calls", "count"), ("mesh_io.mesh_stats.self_s", "s"),
    ("mesh_io.write_obj.calls", "count"), ("mesh_io.write_obj.self_s", "s"),
    ("mesh_io.write_obj.mb_per_s", "MB/s"),
    ("mesh_io.write_stl.calls", "count"), ("mesh_io.write_stl.self_s", "s"),
    ("mesh_io.write_stl.mb_per_s", "MB/s"),
    ("mesh_io.write_svg.calls", "count"), ("mesh_io.write_svg.self_s", "s"),
    ("mesh_io.write_svg.mb_per_s", "MB/s"),
    ("mesh_io.write_csv.calls", "count"), ("mesh_io.write_csv.self_s", "s"),
    ("mesh_io.write_csv.mb_per_s", "MB/s"),
    ("oracle.calls", "count"), ("oracle.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.gap_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program(root: Path) -> dict:
    """Import squircles from `root/src`; exit with an error when the checkout lacks it."""
    src = root / "src"
    if not (src / "squircles" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'squircles'} not found; run from the root of a squircles checkout")
    sys.path.insert(0, str(src))
    os.environ.pop("SQUIRCLES_WORKERS", None)  # the program's default thread count
    modules = {name: importlib.import_module(f"squircles.{name}")
               for name in ("cli", "recipes", "mesh_io", "oracle")}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: squircles imported from {modules['cli'].__file__}, not {src}")
    return modules


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "squircles").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        try:
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def _malloc_trim():
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):  # not glibc
        return None


MALLOC_TRIM = _malloc_trim()


def settle() -> None:
    """Start each command from the heap state a fresh CLI process has: no
    garbage from the last command, freed pages handed back. Without it the
    peak RSS and page-fault work of a command depend on which commands ran
    before it and on how the sampling threads interleaved."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


class Runner:
    """Runs jobs one after another and keeps what the checks need."""

    def __init__(self, modules: dict, job_list: list, out: Path):
        self.cli = modules["cli"]
        self.recipes = modules["recipes"]
        self.jobs = job_list
        self.out = out
        self.digests: dict[str, str] = {}  # first pass's sha256 per job
        self.last: dict[str, dict] = {}  # last pass's exit code and stdout per job
        self.commands: list[tuple[str, bool]] = []  # (job id, failed) per command run
        self.job_seconds: list[float] = []
        self.tracer = None
        self.gaps: list[float] = []  # traced: job wall minus summed self times

    def call(self, job) -> tuple[float, object, str]:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if job.argv is not None:
                    rc = self.cli.main(job.argv)
                else:
                    rc = self.recipes.run_recipe(job.recipe, str(self.out / job.recipe))
        except Exception:  # a crash is a failed command; the loop goes on
            traceback.print_exc()
            rc = None
        return time.perf_counter() - start, rc, buf.getvalue()

    def run_pass(self) -> float:
        """One pass over the job list; returns the summed command time."""
        total = 0.0
        for job in self.jobs:
            settle()
            mark = len(self.tracer.spans) if self.tracer else 0
            secs, rc, stdout = self.call(job)
            if self.tracer:
                self.gaps.append(secs - sum(spans.self_times(self.tracer.spans[mark:]).values()))
            total += secs
            self.job_seconds.append(secs)
            self.last[job.id] = {"rc": rc, "stdout": stdout}
            digest = file_digest(o.path for o in job.outputs)
            first = self.digests.setdefault(job.id, digest)
            bad = rc != 0 or stdout.count("empty level set") != job.notices or digest != first
            self.commands.append((job.id, bad))
        return total

    def passes(self, seconds: float, after_pass=None) -> list[float]:
        """At least two passes, more while `seconds` are not used up (the last
        one ending near the limit); `after_pass(index)` runs off the clock."""
        times, used = [], 0.0
        while True:
            start = time.perf_counter()
            times.append(self.run_pass())
            used += time.perf_counter() - start
            if after_pass:
                after_pass(len(times) - 1)
            if len(times) >= 2 and used + 0.5 * statistics.median(times) >= seconds:
                return times


def warm_up(modules, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in WARMUP:
            modules["cli"].main([*argv[:-1], str(out / argv[-1])])


class SetupTimer:
    """Wall time of fresh interpreters running `squircles info --family sphube`.

    Spawns come in groups before the first pass and after each pass, so that
    they sample the whole run and one slow moment of the host does not set
    the median."""

    def __init__(self, root: Path):
        self.root = root
        # as after an install: bytecode cached, default thread count
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for name in ("SQUIRCLES_WORKERS", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)
        self.times: list[float] = []
        self.results: list[tuple[str, str | None]] = []  # ("setup", error or None) per spawn
        self._spawn()  # writes the bytecode cache; not timed

    def _spawn(self) -> tuple[float, bool]:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=60)
        return time.perf_counter() - start, proc.returncode == 0 and proc.stdout.startswith("sphube: ")

    def run(self, count: int) -> None:
        """Up to `count` more spawns, SETUP_SPAWNS in all at most."""
        for _ in range(max(0, min(count, SETUP_SPAWNS - len(self.times)))):
            secs, ok = self._spawn()
            self.times.append(secs)
            self.results.append(("setup", None if ok else "`squircles info --family sphube` failed"))


def run_checker(runner: Runner, work: Path) -> dict:
    """Job id -> errors, from check.py in a process of its own."""
    manifest = {"jobs": [{"id": j.id, "rc": runner.last[j.id]["rc"], "stdout": runner.last[j.id]["stdout"],
                          "notices": j.notices, "verify": j.verify,
                          "outputs": [o.expectation() for o in j.outputs]} for j in runner.jobs]}
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest))
    proc = subprocess.run([sys.executable, str(HERE / "check.py"), str(path)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {j.id: ["checker failed"] for j in runner.jobs}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_with_earlier_runs(runner: Runner, key: str) -> dict:
    """Job id -> error when its bytes differ from an earlier run of this seed and program."""
    path = HERE / "_state" / f"{key}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(runner.digests, indent=1, sort_keys=True))
        return {}
    earlier = json.loads(path.read_text())
    return {jid: "bytes differ from an earlier run of this seed"
            for jid, d in runner.digests.items() if earlier.get(jid, d) != d}


def threads_speedup(modules, job_list) -> tuple[float, str]:
    """Median sampling time with 1 thread over the default, and the command
    it was probed on: the 3D command of the job list with the most samples,
    so the grid does not depend on the seeded job order. (0.0, "") when no
    job samples a 3D grid."""
    cli = modules["cli"]
    probes = []
    for job in job_list:
        argvs = [job.argv] if job.argv else modules["recipes"].FIGURE_RECIPES.get(job.recipe, [])
        for argv in argvs:
            cmd = cli.parse_args(argv)
            if getattr(cmd, "fmt", None) not in ("obj", "stl"):
                continue
            if cmd.domain:
                domain = cli.Domain3D(*cmd.domain, cmd.grid, cmd.grid, cmd.grid)
            else:
                domain = cli.default_domain3d(cmd.spec, cmd.grid, cmd.tiles)
            out = argv.index("--out")
            label = " ".join(argv[:out] + argv[out + 2:])
            probes.append((domain.nx * domain.ny * domain.nz, label, cmd, domain))
    if not probes:
        return 0.0, ""
    _, label, cmd, domain = max(probes, key=lambda p: p[:2])
    field = cli.make_field3d(cmd.spec)
    one, default = [], []
    # at least 3 calls each, more on small grids until 1 thread took 0.5 s
    while len(one) < 3 or (sum(one) < 0.5 and len(one) < 500):
        for workers, times in ((1, one), (None, default)):
            start = time.perf_counter()
            cli.sample_grid3d(field, domain, workers=workers)
            times.append(time.perf_counter() - start)
    return statistics.median(one) / statistics.median(default), label


def traced_numbers(modules, runner: Runner, seconds: float) -> tuple[list, list, list]:
    """Per-layer numbers of traced passes, plus each pass's time and gap."""
    runner.tracer = tracer = spans.Tracer(modules)
    per_pass, gaps, first = [], [], [0]

    def after_pass(index):
        per_pass.append(spans.layer_numbers(tracer.spans[first[0]:]))
        gaps.append(sum(runner.gaps))
        first[0] = len(tracer.spans)
        runner.gaps.clear()

    tracer.install()
    try:
        pass_times = runner.passes(seconds, after_pass)
    finally:
        tracer.uninstall()
        runner.tracer = None
    return per_pass, gaps, pass_times


def memory_numbers(modules, runner: Runner) -> dict:
    """Peak tracemalloc bytes of the 3D layers, from a pass of their own over
    the jobs that write meshes."""
    tracer = spans.Tracer(modules, memory=MEMORY_SPANS)
    every = runner.jobs
    runner.jobs = [j for j in every if any(o.fmt in ("obj", "stl") for o in j.outputs)]
    tracer.install()
    try:
        runner.run_pass()
    finally:
        runner.jobs = every
        tracer.uninstall()
    return spans.peak_alloc_mb(tracer.spans)


def layer_metrics(per_pass, gaps, traced_times, untraced, peaks, speedup) -> dict:
    def med(key):
        return statistics.median(p.get(key, 0.0) for p in per_pass)

    def rate(count_key, self_key, scale=1.0):
        secs = med(self_key)
        return med(count_key) / scale / secs if secs > 0 else 0.0

    values = {name: med(name) for name, unit in PER_LAYER if unit in ("count", "s")}
    mc, ms = "polygonize3d.marching_cubes", "contour2d.marching_squares"
    values.update({
        "fields2d.eval.samples_per_s": rate("fields2d.eval.samples", "fields2d.eval.self_s"),
        "fields3d.eval.samples_per_s": rate("fields3d.eval.samples", "fields3d.eval.self_s"),
        f"{mc}.triangles_per_s": rate(f"{mc}.triangles", f"{mc}.self_s"),
        f"{mc}.active_ratio": med(f"{mc}.active") / med(f"{mc}.cells") if med(f"{mc}.cells") else 0.0,
        f"{ms}.active_cells": med(f"{ms}.active"),
        f"{ms}.active_ratio": med(f"{ms}.active") / med(f"{ms}.cells") if med(f"{ms}.cells") else 0.0,
        **{f"{name}.peak_alloc_mb": peaks.get(name, 0.0) for name in MEMORY_SPANS},
        "polygonize3d.sample_grid3d.threads_speedup": speedup,
        "trace.overhead_s": statistics.median(traced_times) - untraced,
        "trace.gap_s": statistics.median(gaps),
    })
    for fmt in ("obj", "stl", "svg", "csv"):
        name = f"mesh_io.write_{fmt}"
        values[f"{name}.mb_per_s"] = rate(f"{name}.bytes", f"{name}.self_s", 1024.0 * 1024.0)
    return values


def end_to_end(runner: Runner, setup: SetupTimer, seconds: float) -> tuple[dict, str]:
    rss_mb = []

    def after_pass(index):
        if index == 1:
            # the peak of one command depends on how its sampling threads'
            # allocations interleave; over two passes each command has two
            # tries at its high mode. Later passes add only allocator history
            # that no one-shot CLI process has.
            rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        setup.run(SETUP_PER_GROUP)

    pass_times = runner.passes(seconds, after_pass)
    setup.run(SETUP_SPAWNS)  # the rest, when the run had few passes
    metrics = {"wall_s": statistics.median(pass_times),
               "peak_rss_mb": rss_mb[0],
               "setup_s": statistics.median(setup.times)}
    # Not gated: where a pass mixes cost classes the median command sits in
    # the gap between them and moves by a rank at a time.
    note = (f"passes {len(pass_times)} ({', '.join(f'{t:.3f}' for t in pass_times)} s), "
            f"setup spawns {len(setup.times)}, job_p50_s "
            f"{statistics.median(runner.job_seconds):.6g} s over {len(runner.job_seconds)} commands")
    return metrics, note


def per_layer(modules, runner: Runner, seconds: float) -> tuple[dict, str, list]:
    """Per-layer metrics, a note, and the probes run as (name, error or None)."""
    untraced = runner.run_pass()
    per_pass, gaps, traced_times = traced_numbers(modules, runner, seconds)
    peaks = memory_numbers(modules, runner)
    probes = []
    try:
        speedup, label = threads_speedup(modules, runner.jobs)
        if label:
            probes.append(("threads_speedup", None))
    except Exception as exc:  # a program the probe no longer fits is a failure, not a 0
        traceback.print_exc()
        speedup, label = 0.0, ""
        probes.append(("threads_speedup", f"probe failed: {exc!r}"))
    metrics = layer_metrics(per_pass, gaps, traced_times, untraced, peaks, speedup)
    note = (f"untraced pass {untraced:.3f} s, traced passes {len(traced_times)}, "
            f"threads_speedup on: {label or 'no 3D grid'}")
    return metrics, note, probes


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    modules = load_program(root)
    recipes = modules["recipes"].FIGURE_RECIPES
    program = source_digest(root)
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    out = work / "out"
    job_list = joblib.job_list(args.workload, args.seed, str(out), recipes)
    out.mkdir(parents=True, exist_ok=True)
    for job in job_list:
        for o in job.outputs:
            os.makedirs(os.path.dirname(o.path), exist_ok=True)
    # runs of one seed on one program must write the same bytes
    portable = json.dumps([j.argv or j.recipe for j in joblib.job_list(args.workload, args.seed, "", recipes)])
    record = f"{args.workload}-seed{args.seed}-{program}-{hashlib.sha256(portable.encode()).hexdigest()[:16]}"
    runner = Runner(modules, job_list, out)
    threads = getattr(importlib.import_module("squircles.contour2d"), "default_workers", os.cpu_count)()
    print(f"sqbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g} "
          f"nproc={os.cpu_count()} sampling_threads={threads} jobs_per_pass={len(job_list)} program={program}")

    probes = []  # operations besides the commands: (name, error or None)
    try:
        if args.trace:
            warm_up(modules, out)
            metrics, note, probes = per_layer(modules, runner, args.seconds)
            units = dict(PER_LAYER)
        else:
            setup = SetupTimer(root)
            setup.run(SETUP_PER_GROUP)
            warm_up(modules, out)
            metrics, note = end_to_end(runner, setup, args.seconds)
            probes = setup.results
            units = dict(END_TO_END)
        errors = run_checker(runner, work)
        for jid, err in compare_with_earlier_runs(runner, record).items():
            errors.setdefault(jid, []).append(err)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for jid, bad in runner.commands:
        if bad and not errors.get(jid):
            errors[jid] = ["exit code, notice count or bytes changed between passes"]
    for name, err in probes:
        if err:
            errors.setdefault(name, []).append(err)
    failed = sum(bad or bool(errors.get(jid)) for jid, bad in runner.commands) + sum(bool(e) for _, e in probes)
    attempted = len(runner.commands) + len(probes)
    for jid, errs in errors.items():
        for err in errs:
            print(f"FAIL {jid}: {err}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "metrics": metrics,
              "sha256": runner.digests, "errors": errors}
    (work / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(f"{note}; fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for name, unit in units.items():
        print(f"{name:<48} {metrics[name]:>16.6g} {unit}")
    combined = hashlib.sha256(json.dumps(runner.digests, sort_keys=True).encode()).hexdigest()
    print(f"outputs sha256 {combined} (per job: {work / 'report.json'})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
