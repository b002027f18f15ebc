"""One-line CLI recipes reproducing each reference figure (fig2 through fig27).

Each recipe is a tuple of argv lists for the command-line front end, with
--out values given as bare file names. run_recipe() rewrites them into a
chosen output directory and executes them in order.
"""

from __future__ import annotations

import os


def _c(*args):  # curve
    return ["curve", *map(str, args)]


def _s(*args):  # surface
    return ["surface", *map(str, args)]


def _w(*args):  # sweep
    return ["sweep", *map(str, args)]


FIGURE_RECIPES: dict[str, list[list[str]]] = {
    # Lame upper squircle, circle to square
    "fig2": [_w("--family", "lame", "--param", "exponent", "--from", "2", "--to", "16",
                "--steps", "5", "--grid", "256", "--format", "svg", "--out", "fig2.svg")],
    "fig3": [_w("--family", "lame3d", "--param", "exponent", "--from", "2", "--to", "8",
                "--steps", "4", "--grid", "48", "--format", "obj", "--out", "fig3.obj")],
    # Lame lower squircle, tilted square to circle
    "fig4": [_w("--family", "lame", "--param", "exponent", "--from", "1", "--to", "2",
                "--steps", "5", "--grid", "256", "--format", "svg", "--out", "fig4.svg")],
    "fig5": [_w("--family", "lame3d", "--param", "exponent", "--from", "1", "--to", "2",
                "--steps", "4", "--grid", "48", "--format", "obj", "--out", "fig5.obj")],
    # Frantz parametric squircle at growing squareness
    "fig6": [_w("--family", "frantz", "--param", "squareness", "--from", "0.5", "--to", "4",
                "--steps", "5", "--format", "svg", "--out", "fig6.svg")],
    # periodic squircle: blend, tiling, square grid
    "fig7": [_w("--family", "periodic", "--param", "squareness", "--from", "0.2", "--to", "1",
                "--steps", "5", "--grid", "256", "--format", "svg", "--out", "fig7.svg")],
    "fig8": [_c("--family", "periodic", "-s", "0.8", "--tiles", "3", "--out", "fig8.svg")],
    "fig9": [_c("--family", "periodic", "-s", "1", "--domain", "-3", "3", "-3", "3",
                "--out", "fig9.svg")],
    "fig10": [_w("--family", "periodic3d", "--param", "squareness", "--from", "0.2", "--to", "1",
                 "--steps", "4", "--grid", "48", "--format", "obj", "--out", "fig10.obj")],
    "fig11": [_s("--family", "periodic3d", "-s", "0.8", "--tiles", "3", "--grid", "64",
                 "--out", "fig11.obj")],
    # grid-line build-up: horizontal lines, vertical lines, their superposition
    "fig12": [_c("--family", "periodic", "-s", "1", "--domain", "-4", "4", "-1.5", "1.5",
                 "--out", "fig12.svg")],
    "fig13": [_c("--family", "periodic", "-s", "1", "--domain", "-1.5", "1.5", "-4", "4",
                 "--out", "fig13.svg")],
    "fig14": [_c("--family", "phase_grid", "--out", "fig14.svg")],
    # oblique squircle: blend, tiling, slanted grid
    "fig15": [_w("--family", "oblique", "--param", "squareness", "--from", "0.2", "--to", "1",
                 "--steps", "5", "--grid", "256", "--format", "svg", "--out", "fig15.svg")],
    "fig16": [_c("--family", "oblique", "-s", "0.8", "--tiles", "3", "--out", "fig16.svg")],
    "fig17": [_c("--family", "oblique", "-s", "1", "--domain", "-3", "3", "-3", "3",
                 "--out", "fig17.svg")],
    "fig18": [_w("--family", "oblique3d", "--param", "squareness", "--from", "0.2", "--to", "1",
                 "--steps", "4", "--grid", "48", "--format", "obj", "--out", "fig18.obj")],
    "fig19": [_s("--family", "oblique3d", "-s", "0.8", "--tiles", "3", "--grid", "64",
                 "--out", "fig19.obj")],
    # overshoot: recession in 2D, phase shift, 3D unit cells up to recession
    "fig20": [_w("--family", "oblique", "-s", "1", "--param", "overshoot", "--from", "0",
                 "--to", "2", "--steps", "5", "--grid", "256", "--format", "svg",
                 "--out", "fig20.svg")],
    "fig21": [_c("--family", "oblique", "-s", "1", "--overshoot", "1", "--tiles", "3",
                 "--out", "fig21.svg")],
    "fig22": [_w("--family", "oblique3d", "-s", "1", "--radius", "pi", "--param", "overshoot",
                 "--from", "0", "--to", "4", "--steps", "5", "--grid", "48", "--format", "obj",
                 "--out", "fig22.obj")],
    # toroids: round and square cross sections, squareness sweep of the ring
    "fig23": [_s("--family", "toroid", "--R", "2", "--r", "0.5", "-s", "0", "--grid", "64",
                 "--out", "fig23_torus.obj"),
              _s("--family", "toroid", "--R", "2", "--r", "0.5", "-s", "1", "--grid", "64",
                 "--out", "fig23_square.obj")],
    "fig24": [_w("--family", "toroid", "--R", "2", "--r", "0.5", "--param", "squareness",
                 "--from", "0", "--to", "1", "--steps", "4", "--grid", "48", "--format", "obj",
                 "--out", "fig24.obj")],
    # squircular cones and the sham cuboctahedron
    "fig25": [_s("--family", "cone_fg", "-s", "0.8", "--c", "3", "--grid", "48",
                 "--out", "fig25.obj")],
    "fig26": [_w("--family", "cone_lame", "--a", "1", "--b", "1", "--c", "2", "--param",
                 "exponent", "--from", "1", "--to", "2", "--steps", "4", "--grid", "48",
                 "--format", "obj", "--out", "fig26.obj")],
    "fig27": [_s("--family", "cuboctahedron", "--k", "1", "--cc", "2", "--grid", "48",
                 "--out", "fig27.obj")],
}


def recipe_argv(name: str, out_dir: str) -> list[list[str]]:
    """Recipe argv lists with --out paths rewritten into out_dir."""
    if name not in FIGURE_RECIPES:
        raise KeyError(f"unknown recipe {name!r}")
    rewritten = []
    for argv in FIGURE_RECIPES[name]:
        argv = list(argv)
        at = argv.index("--out") + 1
        argv[at] = os.path.join(out_dir, argv[at])
        rewritten.append(argv)
    return rewritten


def run_recipe(name: str, out_dir: str) -> int:
    """Run every command of one recipe; returns the first nonzero exit code."""
    # imported here: a module-level import would load cli with the package and
    # make `python -m squircles.cli` warn that it was already imported
    from . import cli

    for argv in recipe_argv(name, out_dir):
        rc = cli.main(argv)
        if rc != 0:
            return rc
    return 0
