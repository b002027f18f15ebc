"""Extraction under sub-cell domain offsets: the closed 3D families mesh
watertight and consistently oriented at any grid and any lattice phase, and
every open 2D polyline runs to the domain boundary.

The default domain is shifted by a fraction in [-1/2, 1/2) of a cell along
each axis, which reaches every phase of the lattice. A larger shift moves the
domain's edge further than some defaults pad the shape at coarse grids: the
toroid's margin is 0.15 (R + r), 0.45 at R = 2, r = 1, against a 0.86 cell at
grid 8, and a 0.75-cell shift opens that mesh. sphube, periodic3d, oblique3d
and toroid_octic are left out: their default domains have no margin (and
toroid_octic at s >= 0.7 has stray sheets), so a shift opens their meshes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squircles.cli import default_domain2d, default_domain3d
from squircles.contour2d import Domain2D, contour
from squircles.fields2d import ShapeSpec2D, make_field2d
from squircles.fields3d import ShapeSpec3D, make_field3d
from squircles.mesh_io import mesh_stats
from squircles.polygonize3d import Domain3D, polygonize

UNIT_S = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
SHIFT = st.floats(-0.5, 0.5, exclude_max=True)

# each closed family's parameters and its Euler characteristic
CLOSED_3D = {
    "lame3d": (st.builds(lambda p: ShapeSpec3D("lame3d", p=p),
                         st.one_of(st.sampled_from([1.0, 2.0, math.inf]), st.floats(1.0, 12.0))), 2),
    "toroid": (st.builds(lambda s: ShapeSpec3D("toroid", s=s), UNIT_S), 0),
    "cone_fg": (st.builds(lambda s, c: ShapeSpec3D("cone_fg", s=s, c=c), UNIT_S, st.floats(0.5, 3.0)), 2),
    "cone_lame": (st.builds(lambda p: ShapeSpec3D("cone_lame", p=p), st.floats(1.0, 2.0)), 2),
    "cuboctahedron": (st.builds(lambda k: ShapeSpec3D("cuboctahedron", k=k), st.floats(0.5, 2.0)), 2),
}


@pytest.mark.parametrize("family", CLOSED_3D)
@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(8, 48), shift=st.tuples(SHIFT, SHIFT, SHIFT))
def test_closed_families_mesh_watertight(family, data, n, shift):
    strategy, chi = CLOSED_3D[family]
    spec = data.draw(strategy)
    d = default_domain3d(spec, n, 1)
    ox, oy, oz = shift[0] * d.dx, shift[1] * d.dy, shift[2] * d.dz
    dom = Domain3D(d.xmin + ox, d.xmax + ox, d.ymin + oy, d.ymax + oy, d.zmin + oz, d.zmax + oz, d.nx, d.ny, d.nz)
    mesh = polygonize(make_field3d(spec), dom, workers=1)
    stats = mesh_stats(mesh)
    assert (stats.watertight, stats.euler_characteristic) == (True, chi)
    # consistent orientation: each undirected edge is walked once each way
    tri = mesh.triangles
    directed = np.stack([tri, np.roll(tri, -1, axis=1)], axis=-1).reshape(-1, 2)
    assert len(np.unique(directed, axis=0)) == len(directed)


@pytest.mark.parametrize("family", ["lame", "fg", "periodic", "oblique", "phase_grid"])
@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 48), tiles=st.integers(1, 3), s=UNIT_S,
       p=st.one_of(st.sampled_from([1.0, math.inf]), st.floats(1.0, 12.0)), shift=st.tuples(SHIFT, SHIFT))
def test_open_polylines_end_on_the_boundary(family, n, tiles, s, p, shift):
    spec = ShapeSpec2D(family, s=s, p=p)
    d = default_domain2d(spec, n, tiles)
    ox, oy = shift[0] * d.dx, shift[1] * d.dy
    dom = Domain2D(d.xmin + ox, d.xmax + ox, d.ymin + oy, d.ymax + oy, n, n)
    xs, ys = dom.xs(), dom.ys()
    ends = [tuple(end) for line in contour(make_field2d(spec), dom, workers=1) if not line.closed
            for end in line.points[[0, -1]]]
    for x, y in ends:
        assert x in (xs[0], xs[-1]) or y in (ys[0], ys[-1])


def test_a_curve_through_a_zero_crossing_at_a_lattice_point_stays_one_loop():
    # the oblique square at s = 1 on its grid-24 default domain: lattice
    # points on its sides sample to zero or within rounding of it, so the
    # crossings on both edges at such a point land on the point itself; the
    # segment between them is dropped and its ends welded, so the contour
    # does not break into open pieces that end there, inside the domain
    spec = ShapeSpec2D("oblique", s=1.0)
    dom = default_domain2d(spec, 24, 1)
    xs, ys = dom.xs(), dom.ys()
    for line in contour(make_field2d(spec), dom, workers=1):
        if not line.closed:
            for x, y in line.points[[0, -1]]:
                assert x in (xs[0], xs[-1]) or y in (ys[0], ys[-1])
