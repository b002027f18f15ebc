import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from squircles.cli import default_domain3d
from squircles.contour2d import ZERO_NUDGE
from squircles.fields3d import FAMILIES_3D, ShapeSpec3D, make_field3d
from squircles.mc_tables import TRI_TABLE
from squircles.mesh_io import mesh_stats
from squircles.polygonize3d import (
    Domain3D,
    Grid3D,
    TriangleMesh,
    marching_cubes,
    sample_grid3d,
)


def sphere_field(x, y, z):
    return x * x + y * y + z * z - 1.0


class TestDomain3D:
    def test_lattice(self):
        dom = Domain3D(-1, 1, -1, 1, 0, 2, 2, 2, 2)
        assert dom.dx == 1.0 and dom.dz == 1.0
        assert np.array_equal(dom.zs(), [0, 1, 2])

    def test_rejects_single_cell_axis(self):
        with pytest.raises(ValueError):
            Domain3D(-1, 1, -1, 1, -1, 1, 4, 4, 1)


class TestSampleGrid3d:
    def test_constant_field(self):
        dom = Domain3D(-1, 1, -1, 1, -1, 1, 2, 2, 2)
        grid = sample_grid3d(lambda x, y, z: -1.0 + 0 * (x + y + z), dom)
        assert np.array_equal(grid.samples, np.full(27, -1.0))

    def test_corner_value_normalized_form(self):
        dom = Domain3D(-2, 2, -2, 2, -2, 2, 2, 2, 2)
        field = make_field3d(ShapeSpec3D("lame3d", p=2.0))
        grid = sample_grid3d(field, dom)
        assert grid.view3d()[0, 0, 0] == pytest.approx(2 * math.sqrt(3) - 1)

    def test_worker_count_invariance(self):
        dom = Domain3D(-1, 1, -1, 1, -1, 1, 24, 24, 24)
        field = make_field3d(ShapeSpec3D("periodic3d", s=0.8))
        a = sample_grid3d(field, dom, workers=1)
        b = sample_grid3d(field, dom, workers=6)
        assert np.array_equal(a.samples, b.samples)

    def test_rejects_non_finite(self):
        dom = Domain3D(-1, 1, -1, 1, -1, 1, 2, 2, 2)
        with pytest.raises(ValueError, match="non-finite"):
            sample_grid3d(lambda x, y, z: np.where(z == 0, np.inf, 1.0) + 0 * (x + y), dom)


class TestMarchingCubes:
    def test_all_positive_empty(self):
        dom = Domain3D(-1, 1, -1, 1, -1, 1, 4, 4, 4)
        grid = sample_grid3d(lambda x, y, z: 1.0 + 0 * (x + y + z), dom)
        mesh = marching_cubes(grid)
        assert mesh.empty

    def test_sphere_topology_and_area(self):
        dom = Domain3D(-1.2, 1.2, -1.2, 1.2, -1.2, 1.2, 64, 64, 64)
        mesh = marching_cubes(sample_grid3d(sphere_field, dom))
        stats = mesh_stats(mesh)
        assert stats.watertight
        assert stats.euler_characteristic == 2
        assert stats.total_area == pytest.approx(4 * math.pi, rel=1e-2)

    def test_sphere_outward_winding(self):
        dom = Domain3D(-1.2, 1.2, -1.2, 1.2, -1.2, 1.2, 32, 32, 32)
        mesh = marching_cubes(sample_grid3d(sphere_field, dom))
        tri = mesh.vertices[mesh.triangles]
        # signed volume of the closed surface must be positive for outward
        # oriented triangles
        vol = np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0
        assert vol > 0
        assert vol == pytest.approx(4 * math.pi / 3, rel=3e-2)

    def test_torus_topology(self):
        dom = Domain3D(-2.75, 2.75, -2.75, 2.75, -0.75, 0.75, 128, 128, 48)
        field = make_field3d(ShapeSpec3D("toroid", s=0.0, R=2.0, r=0.5))
        stats = mesh_stats(marching_cubes(sample_grid3d(field, dom)))
        assert stats.watertight
        assert stats.euler_characteristic == 0

    def test_vertices_on_surface(self):
        dom = Domain3D(-1.2, 1.2, -1.2, 1.2, -1.2, 1.2, 48, 48, 48)
        mesh = marching_cubes(sample_grid3d(sphere_field, dom))
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.max(np.abs(radii - 1.0)) < 2e-3

    def test_determinism(self):
        dom = Domain3D(-1.2, 1.2, -1.2, 1.2, -1.2, 1.2, 32, 32, 32)
        field = make_field3d(ShapeSpec3D("sphube", s=0.6))
        a = marching_cubes(sample_grid3d(field, dom, workers=1))
        b = marching_cubes(sample_grid3d(field, dom, workers=7))
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)


class TestCsgIntersect:
    """Pointwise-max intersection of two fields meshes like either solid."""

    def test_identity_with_very_negative_field(self):
        dom = Domain3D(-1.2, 1.2, -1.2, 1.2, -1.2, 1.2, 24, 24, 24)

        def combined(x, y, z):
            return np.maximum(sphere_field(x, y, z), -1e30 + 0 * (x + y + z))

        a = marching_cubes(sample_grid3d(sphere_field, dom))
        b = marching_cubes(sample_grid3d(combined, dom))
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)

    def test_hemisphere_is_closed(self):
        dom = Domain3D(-1.2, 1.2, -1.2, 1.2, -1.2, 1.2, 48, 48, 48)

        def half(x, y, z):
            return np.maximum(sphere_field(x, y, z), z + 0 * (x + y))

        stats = mesh_stats(marching_cubes(sample_grid3d(half, dom)))
        assert stats.watertight
        assert stats.euler_characteristic == 2


class TestGrid3D:
    def test_shape_check(self):
        dom = Domain3D(-1, 1, -1, 1, -1, 1, 2, 2, 2)
        with pytest.raises(ValueError):
            Grid3D(dom, np.zeros(10))


class TestTriangleMesh:
    def test_index_range_check(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))


# --- byte-identity against the dense whole-volume kernel -------------------
#
# The reference below is the dense marching-cubes implementation that the
# active-cell kernel replaced: it copies and zero-nudges the whole volume,
# builds an int64 case code and one int64 id volume per edge axis, and
# compacts the vertices with np.unique. The active-cell kernel must give the
# same vertex and triangle bytes.


def _dense_edge_vertices(vals, lo_axis_coords, axis):
    if axis == 0:  # x edges
        v0, v1 = vals[:, :, :-1], vals[:, :, 1:]
    elif axis == 1:  # y edges
        v0, v1 = vals[:, :-1, :], vals[:, 1:, :]
    else:  # z edges
        v0, v1 = vals[:-1, :, :], vals[1:, :, :]
    cross = (v0 < 0) != (v1 < 0)
    ids = np.full(v0.shape, -1, dtype=np.int64)
    n = int(cross.sum())
    ids[cross] = np.arange(n)
    t = v0[cross] / (v0[cross] - v1[cross])
    kk, jj, ii = np.nonzero(cross)
    xs, ys, zs, dx, dy, dz = lo_axis_coords
    px = xs[ii] + (t * dx if axis == 0 else 0.0)
    py = ys[jj] + (t * dy if axis == 1 else 0.0)
    pz = zs[kk] + (t * dz if axis == 2 else 0.0)
    return np.column_stack([px, py, pz]), ids


def dense_marching_cubes(grid):
    dom = grid.domain
    vals = grid.view3d().copy()
    scale = float(np.max(np.abs(vals))) or 1.0
    vals[vals == 0.0] = ZERO_NUDGE * scale

    inside = vals < 0
    case = (
        inside[:-1, :-1, :-1].astype(np.int64)
        | (inside[:-1, :-1, 1:] << 1)
        | (inside[:-1, 1:, 1:] << 2)
        | (inside[:-1, 1:, :-1] << 3)
        | (inside[1:, :-1, :-1] << 4)
        | (inside[1:, :-1, 1:] << 5)
        | (inside[1:, 1:, 1:] << 6)
        | (inside[1:, 1:, :-1] << 7)
    )

    coords = (dom.xs(), dom.ys(), dom.zs(), dom.dx, dom.dy, dom.dz)
    xpts, xid = _dense_edge_vertices(vals, coords, axis=0)
    ypts, yid = _dense_edge_vertices(vals, coords, axis=1)
    zpts, zid = _dense_edge_vertices(vals, coords, axis=2)
    yid = np.where(yid >= 0, yid + len(xpts), -1)
    zid = np.where(zid >= 0, zid + len(xpts) + len(ypts), -1)
    vertices = np.concatenate([xpts, ypts, zpts]) if len(xpts) + len(ypts) + len(zpts) else np.zeros((0, 3))

    kk, jj, ii = np.nonzero(TRI_TABLE[case, 0] >= 0)
    if len(kk) == 0:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))

    cell_edge_ids = np.stack(
        [
            xid[kk, jj, ii],
            yid[kk, jj, ii + 1],
            xid[kk, jj + 1, ii],
            yid[kk, jj, ii],
            xid[kk + 1, jj, ii],
            yid[kk + 1, jj, ii + 1],
            xid[kk + 1, jj + 1, ii],
            yid[kk + 1, jj, ii],
            zid[kk, jj, ii],
            zid[kk, jj, ii + 1],
            zid[kk, jj + 1, ii + 1],
            zid[kk, jj + 1, ii],
        ],
        axis=1,
    )

    rows = TRI_TABLE[case[kk, jj, ii], :15].reshape(-1, 5, 3)
    valid = rows[:, :, 0] >= 0
    cell_of_tri = np.nonzero(valid)[0]
    tri_edges = rows[valid]
    triangles = cell_edge_ids[cell_of_tri[:, None], tri_edges[:, ::-1]]

    used = np.unique(triangles)
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriangleMesh(vertices[used], remap[triangles])


def assert_same_bytes(grid):
    got, want = marching_cubes(grid), dense_marching_cubes(grid)
    assert got.vertices.dtype == want.vertices.dtype
    assert got.triangles.dtype == want.triangles.dtype
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.triangles.tobytes() == want.triangles.tobytes()


@st.composite
def small_grids(draw):
    """Unequal small dims, random bounds, integer samples in [-2, 2]."""
    nx, ny, nz = (draw(st.integers(2, 12)) for _ in range(3))
    lo = [draw(st.floats(-5, 5)) for _ in range(3)]
    ext = [draw(st.floats(0.1, 10)) for _ in range(3)]
    dom = Domain3D(lo[0], lo[0] + ext[0], lo[1], lo[1] + ext[1], lo[2], lo[2] + ext[2], nx, ny, nz)
    n = (nx + 1) * (ny + 1) * (nz + 1)
    samples = draw(st.one_of(
        hnp.arrays(np.float64, n, elements=st.integers(-2, 2).map(float)),
        st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]).map(lambda v: np.full(n, v)),  # all in / all out
    ))
    return Grid3D(dom, samples)


class TestActiveCellKernel:
    @settings(max_examples=150, deadline=None)
    @given(small_grids())
    def test_small_grids_match_dense_reference(self, grid):
        assert_same_bytes(grid)

    @pytest.mark.parametrize("value", [-2.0, -0.0, 0.0, 1.0])
    def test_constant_grids_match_dense_reference(self, value):
        dom = Domain3D(-1, 1, -2, 2, 0, 3, 3, 5, 4)
        grid = Grid3D(dom, np.full(4 * 6 * 5, value))
        assert marching_cubes(grid).empty
        assert_same_bytes(grid)

    @pytest.mark.parametrize("family", FAMILIES_3D)
    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(8, 32), shift=st.tuples(*[st.floats(0, 1, exclude_max=True)] * 3))
    def test_families_match_dense_reference(self, family, n, shift):
        spec = ShapeSpec3D(family, s=0.75)
        d = default_domain3d(spec, n, 1)
        ox, oy, oz = shift[0] * d.dx, shift[1] * d.dy, shift[2] * d.dz
        dom = Domain3D(d.xmin + ox, d.xmax + ox, d.ymin + oy, d.ymax + oy, d.zmin + oz, d.zmax + oz,
                       d.nx, d.ny, d.nz)
        assert_same_bytes(sample_grid3d(make_field3d(spec), dom))

    def test_peak_memory_below_dense_reference(self):
        spec = ShapeSpec3D("sphube", s=0.75)
        grid = sample_grid3d(make_field3d(spec), default_domain3d(spec, 128, 1))

        def peak(kernel):
            tracemalloc.start()
            try:
                kernel(grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(marching_cubes) <= 0.6 * peak(dense_marching_cubes)

    def test_samples_left_untouched(self):
        # a lattice with many exact zeros, which the kernel nudges positive
        dom = Domain3D(-2, 2, -2, 2, -2, 2, 8, 8, 8)
        grid = sample_grid3d(lambda x, y, z: np.round(x + y) * np.sign(z) + 0 * x, dom)
        assert np.count_nonzero(grid.samples == 0.0) > 100
        before = grid.samples.copy()
        mesh = marching_cubes(grid)
        assert not mesh.empty
        assert grid.samples.tobytes() == before.tobytes()

    def test_every_crossing_edge_is_used(self):
        # the kernel skips compaction because each case triangulates exactly
        # the cell edges whose end corners differ in sign
        pairs = ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                 (0, 4), (1, 5), (2, 6), (3, 7))
        for case in range(256):
            crossing = {e for e, (a, b) in enumerate(pairs) if (case >> a ^ case >> b) & 1}
            assert set(TRI_TABLE[case, :15][TRI_TABLE[case, :15] >= 0].tolist()) == crossing
