import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from squircles import contour2d, polygonize3d
from squircles.cli import default_domain3d
from squircles.contour2d import ZERO_NUDGE, _active_cells
from squircles.fields2d import Keys
from squircles.fields3d import FAMILIES_3D, ShapeSpec3D, make_field3d
from squircles.mc_tables import TRI_TABLE
from squircles.mesh_io import mesh_stats
from squircles.polygonize3d import (
    _SLOTS,
    _TRIANGLES,
    Domain3D,
    Grid3D,
    TriangleMesh,
    marching_cubes,
    polygonize,
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

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308, -1, 1, -1, 1), (-1, 1, -1, 1, -1e308, 1e308),
                                        (-1, 1, 0, 5e-324, -1, 1)])
    def test_rejects_a_cell_size_that_is_not_finite_and_positive(self, bounds):
        # the span overflows to inf, or 5e-324 / 2 rounds to 0
        with pytest.raises(ValueError, match="cell sizes must be finite and positive"):
            Domain3D(*bounds, 2, 2, 2)


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

    @pytest.mark.parametrize("row", [[-1, -1, -1], [0, -1, 0], [0, 0, -3]])
    def test_negative_index_rejected(self, row):
        with pytest.raises(ValueError, match="triangle index out of range"):
            TriangleMesh(np.zeros((1, 3)), [row])


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


# --- byte-identity of the slab kernel ---------------------------------------
#
# ref_marching_cubes is the whole-volume active-cell kernel that the slab
# kernel replaced: one pass of cell codes and crossings over the whole
# sampled volume, the zero nudge scaled by the whole volume's largest
# |sample|, and the vertex ids of every edge slot paired by rank.


def ref_marching_cubes(grid):
    dom = grid.domain
    vals = grid.view3d()
    inside = vals < 0
    cells, code = _active_cells(inside)
    if len(cells) == 0:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    n = 3
    coords, steps = (dom.xs(), dom.ys(), dom.zs()), (dom.dx, dom.dy, dom.dz)
    flat = vals.reshape(-1)
    cell_shape = tuple(s - 1 for s in vals.shape)
    crossings = []
    for axis in range(n):
        cross = np.diff(inside, axis=n - 1 - axis)
        index = np.unravel_index(np.flatnonzero(cross), cross.shape)
        lo = np.ravel_multi_index(index, vals.shape)
        crossings.append((index, flat[lo], flat[lo + math.prod(vals.shape[n - axis:])]))
    gathered = [v for _, v0, v1 in crossings for v in (v0, v1)]
    if any((g == 0.0).any() for g in gathered):
        nudge = ZERO_NUDGE * (float(max(vals.max(), -vals.min())) or 1.0)
        for g in gathered:
            g[g == 0.0] = nudge

    points = []
    ids = np.zeros((len(_SLOTS), len(code)), dtype=np.int64)
    first_id = 0
    for axis, (index, v0, v1) in enumerate(crossings):
        pts = np.column_stack([coords[k][index[n - 1 - k]] for k in range(n)])
        pts[:, axis] += v0 / (v0 - v1) * steps[axis]
        points.append(pts)
        for e, (edge_axis, offset) in enumerate(_SLOTS):
            if edge_axis != axis:
                continue
            low_bit = sum(o << (n - 1 - d) for d, o in enumerate(offset))
            sel = np.flatnonzero(((code >> low_bit) ^ (code >> (low_bit + (1 << axis)))) & 1)
            has_cell = np.ones(len(pts), dtype=bool)
            for i, o, size in zip(index, offset, cell_shape):
                has_cell &= (i >= o) & (i - o < size)
            ids[e, sel] = first_id + np.flatnonzero(has_cell)
        first_id += len(pts)

    rows = _TRIANGLES[code]
    valid = rows[:, :, 0] >= 0
    cell_of_tri = np.nonzero(valid)[0]
    return TriangleMesh(np.concatenate(points), ids[rows[valid], cell_of_tri[:, None]])


def lattice_field(grid):
    """A field whose value at each lattice point of grid.domain is the
    grid's sample there: the slab kernel's sampler calls it on slices of
    the domain's own axes, so each coordinate is found exactly."""
    dom, vals = grid.domain, grid.view3d()
    xs, ys, zs = dom.xs(), dom.ys(), dom.zs()

    def field(x, y, z):
        return vals[np.searchsorted(zs, z), np.searchsorted(ys, y), np.searchsorted(xs, x)]

    return field


def assert_mesh_bytes(got, want):
    assert got.vertices.dtype == want.vertices.dtype
    assert got.triangles.dtype == want.triangles.dtype
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.triangles.tobytes() == want.triangles.tobytes()


def assert_slab_kernel_matches(grid, layers, workers):
    """Both entries of the slab kernel, with slabs of `layers` cell layers
    on `workers` threads (pooled whenever workers > 1), give the bytes of the
    whole-volume kernel."""
    d = grid.domain
    want = ref_marching_cubes(grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contour2d, "SLAB_SAMPLES", (layers + 1) * (d.nx + 1) * (d.ny + 1))
        mp.setattr(contour2d, "POOL_MIN_BANDS", 0)
        mp.setenv("SQUIRCLES_WORKERS", str(workers))
        assert len(contour2d._slab_bounds((d.xs(), d.ys(), d.zs()))) - 1 == -(-d.nz // layers)
        assert_mesh_bytes(marching_cubes(grid), want)
        assert_mesh_bytes(polygonize(lattice_field(grid), d, workers=workers), want)


@st.composite
def slab_grids(draw):
    """Unequal dims 2-40, random bounds, integer samples in [-2, 2] (or all
    one value), a slab height of 1-3 cell layers and 1-3 workers."""
    nx, ny, nz = (draw(st.integers(2, 40)) for _ in range(3))
    lo = [draw(st.floats(-5, 5)) for _ in range(3)]
    ext = [draw(st.floats(0.1, 10)) for _ in range(3)]
    dom = Domain3D(lo[0], lo[0] + ext[0], lo[1], lo[1] + ext[1], lo[2], lo[2] + ext[2], nx, ny, nz)
    n = (nx + 1) * (ny + 1) * (nz + 1)
    samples = draw(st.one_of(
        hnp.arrays(np.float64, n, elements=st.integers(-2, 2).map(float)),
        st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]).map(lambda v: np.full(n, v)),  # all in / all out
    ))
    return Grid3D(dom, samples), draw(st.integers(1, 3)), draw(st.integers(1, 3))


@pytest.fixture
def dense_kernel(monkeypatch):
    """The band kernel over the whole lattice, not the sparse route that a
    large lattice of a field with keys takes (see TestSparseSurface)."""
    monkeypatch.setattr(contour2d, "_sparse_bands", lambda *args: None)


@pytest.mark.usefixtures("dense_kernel")
class TestSlabKernel:
    @settings(max_examples=60, deadline=None)
    @given(slab_grids())
    def test_matches_whole_volume_kernel(self, case):
        assert_slab_kernel_matches(*case)

    @settings(max_examples=30, deadline=None)
    @given(nz=st.integers(8, 24), layers=st.integers(1, 3), workers=st.integers(1, 3),
           data=st.data())
    def test_zeros_nudged_by_a_far_slab(self, nz, layers, workers, data):
        # samples in {-1, 0, 1} with exact zeros, and the largest |sample|
        # at one end of the volume, slabs away from the zero that ends a
        # crossing at plane nz // 2: the nudge must be scaled by that far
        # sample, not by the zero's own slab
        dom = Domain3D(-1, 1, -2, 2, 0, 3, 4, 5, nz)
        vals = data.draw(hnp.arrays(np.float64, (nz + 1, 6, 5), elements=st.sampled_from([-1.0, 0.0, 1.0])))
        top = data.draw(st.booleans())
        far = slice(nz + 1 - layers, None) if top else slice(0, layers)
        vals[far] = 1.0
        vals[-1 if top else 0, 2, 2] = data.draw(st.sampled_from([-7.0, 7.0]))
        vals[nz // 2, 2, 2] = 0.0
        vals[nz // 2, 2, 3] = -1.0  # a crossing edge ending at the zero
        grid = Grid3D(dom, vals.reshape(-1))
        assert_slab_kernel_matches(grid, layers, workers)

    @pytest.mark.parametrize("value", [-2.0, -0.0, 0.0, 1.0])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_empty_and_all_inside(self, value, workers):
        dom = Domain3D(-1, 1, -2, 2, 0, 3, 3, 5, 9)
        grid = Grid3D(dom, np.full(4 * 6 * 10, value))
        assert polygonize(lattice_field(grid), dom, workers=workers).empty
        assert_slab_kernel_matches(grid, 2, workers)

    @pytest.mark.parametrize("family", FAMILIES_3D)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_families_match_sampled_volume(self, family, workers):
        # slabs of 3 cell layers (4 planes of 41 x 41 samples) at grid 40,
        # pooled on 2 workers by the default pool rule
        spec = ShapeSpec3D(family, s=0.75)
        dom = default_domain3d(spec, 40, 1)
        field = make_field3d(spec)
        want = marching_cubes(sample_grid3d(field, dom, workers=1))
        assert_mesh_bytes(want, ref_marching_cubes(sample_grid3d(field, dom, workers=1)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "SLAB_SAMPLES", 4 * 41 * 41)
            assert_mesh_bytes(polygonize(field, dom, workers=workers), want)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_non_finite_sample_in_a_later_slab(self, workers):
        # bad samples in slabs 3 and 5 of 2-layer slabs: the first in
        # lattice order is named, with the text sample_grid3d gives
        dom = Domain3D(0, 4, 0, 5, 0, 12, 4, 5, 12)

        def field(x, y, z):
            bad = ((z == 5) & (y == 3) & (x == 1)) | ((z == 9) & (y == 0) & (x == 0))
            return np.where(bad, np.nan, x + y + z - 6.0)

        with pytest.raises(ValueError) as whole:
            sample_grid3d(field, dom, workers=1)
        assert str(whole.value) == "non-finite field value at sample (1.0, 3.0, 5.0)"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "SLAB_SAMPLES", 3 * 5 * 6)
            mp.setattr(contour2d, "POOL_MIN_BANDS", 0)
            with pytest.raises(ValueError) as fused:
                polygonize(field, dom, workers=workers)
        assert str(fused.value) == str(whole.value)

    @pytest.mark.parametrize("family", ["lame3d", "sphube", "periodic3d", "oblique3d", "cuboctahedron"])
    def test_peak_memory_below_half_the_volume(self, family):
        # families whose default lattice at grid 128 is the full 129^3 cube;
        # the whole-volume path (sample_grid3d, then marching_cubes) peaks
        # at about twice the volume
        spec = ShapeSpec3D(family, s=0.75)
        dom = default_domain3d(spec, 128, 1)
        assert (dom.nx, dom.ny, dom.nz) == (128, 128, 128)
        field = make_field3d(spec)
        tracemalloc.start()
        try:
            polygonize(field, dom, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 129**3 * 8


def counted(field, fills):
    """field, with `fills_out` set to fills, and the list of the sample
    counts of its calls."""
    sizes = []

    def wrapped(x, y, z, **out):
        sizes.append(np.broadcast(x, y, z).size)
        return field(x, y, z, **out)

    wrapped.fills_out = fills
    return wrapped, sizes


@pytest.mark.usefixtures("dense_kernel")
class TestSharedPlanes:
    # grid 40 in slabs of 3 cell layers: 14 slabs, 13 planes shared
    @pytest.mark.parametrize("fills", [True, False])
    @pytest.mark.parametrize("family", ["sphube", "oblique3d", "lame3d", "cone_lame"])
    def test_one_worker_samples_each_plane_once(self, family, fills):
        spec = ShapeSpec3D(family, s=0.75, p=1.5)
        dom = default_domain3d(spec, 40, 1)
        field, sizes = counted(make_field3d(spec), fills)
        want = marching_cubes(sample_grid3d(make_field3d(spec), dom, workers=1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "SLAB_SAMPLES", 4 * 41 * 41)
            assert_mesh_bytes(polygonize(field, dom, workers=1), want)
        assert sum(sizes) == (dom.nx + 1) * (dom.ny + 1) * (dom.nz + 1)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_slabs_sample_at_most_the_shared_planes_twice(self, workers):
        # each thread takes one run of slabs and samples the first plane of
        # its run itself: the lattice plus one plane per run after the first
        spec = ShapeSpec3D("sphube", s=0.75)
        dom = default_domain3d(spec, 40, 1)
        field, sizes = counted(make_field3d(spec), True)
        want = marching_cubes(sample_grid3d(make_field3d(spec), dom, workers=1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "SLAB_SAMPLES", 4 * 41 * 41)
            n_slabs = len(contour2d._slab_bounds((dom.xs(), dom.ys(), dom.zs()))) - 1
            assert n_slabs >= 2 * workers  # the pool runs
            for _ in range(5):
                assert_mesh_bytes(polygonize(field, dom, workers=workers), want)
        lattice, plane = 41 * 41 * 41, 41 * 41
        assert sum(sizes) == 5 * (lattice + (workers - 1) * plane)

    def test_many_workers_under_fast_switching(self):
        # 1-layer slabs in 8 runs, on more threads than cores, switching
        # threads every microsecond: each call gives the same bytes and
        # samples the lattice plus the first plane of each run after the first
        spec = ShapeSpec3D("oblique3d", s=0.8)
        dom = default_domain3d(spec, 24, 1)
        field, sizes = counted(make_field3d(spec), True)
        want = marching_cubes(sample_grid3d(make_field3d(spec), dom, workers=1))
        lattice, plane = 25 * 25 * (dom.nz + 1), 25 * 25
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "SLAB_SAMPLES", 2 * plane)
            mp.setattr(contour2d, "POOL_MIN_BANDS", 0)
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(20):
                    sizes.clear()
                    assert_mesh_bytes(polygonize(field, dom, workers=8), want)
                    assert sum(sizes) == lattice + 7 * plane
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.filterwarnings("error")  # no slab meshes the bad plane
    @pytest.mark.parametrize("fills", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_non_finite_sample_on_a_shared_plane(self, workers, bad, fills):
        # 2-layer slabs share planes z = 2, 4, ..., 10; the bad samples sit
        # on z = 4 and on the later plane z = 7
        dom = Domain3D(0, 4, 0, 5, 0, 12, 4, 5, 12)

        def values(x, y, z, out=None):
            where = ((z == 4) & (y == 1) & (x == 2)) | ((z == 7) & (y == 0) & (x == 0))
            v = np.where(where, bad, x + y + z - 6.0)
            if out is None:
                return v
            out[...] = v
            return out

        field, _ = counted(values, fills)
        with pytest.raises(ValueError) as whole:
            sample_grid3d(values, dom, workers=1)
        assert str(whole.value) == "non-finite field value at sample (2.0, 1.0, 4.0)"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "SLAB_SAMPLES", 3 * 5 * 6)
            mp.setattr(contour2d, "POOL_MIN_BANDS", 0)
            with pytest.raises(ValueError) as fused:
                polygonize(field, dom, workers=workers)
        assert str(fused.value) == str(whole.value)

    def test_no_slab_meshes_a_plane_with_a_bad_sample(self, monkeypatch):
        # 6 slabs of 2 layers in 3 runs of 2: plane z = 4 ends the first run
        # and starts the second, so both sample it and both must fail their
        # check before meshing it, whichever finishes first (the sleep at
        # z = 6 holds the second run back)
        dom = Domain3D(0, 4, 0, 5, 0, 12, 4, 5, 12)

        def field(x, y, z):
            if np.any(z == 6):
                time.sleep(0.2)
            return np.where((z == 4) & (y == 1) & (x == 2), np.nan, x + y + z - 6.0)

        meshed = []
        crossings = contour2d._edge_crossings
        monkeypatch.setattr(contour2d, "_edge_crossings",
                            lambda vals, inside: meshed.append(np.isfinite(vals).all()) or crossings(vals, inside))
        monkeypatch.setattr(contour2d, "SLAB_SAMPLES", 3 * 5 * 6)
        monkeypatch.setattr(contour2d, "POOL_MIN_BANDS", 0)
        with pytest.raises(ValueError, match=r"at sample \(2\.0, 1\.0, 4\.0\)"):
            polygonize(field, dom, workers=3)
        assert meshed and all(meshed)


@pytest.mark.usefixtures("dense_kernel")
class TestThreadPool:
    def _runs(self, n_bands, workers):
        """The calls of run that `_run_bands` makes over n_bands bands, as
        (thread, first band of each span); its result must be one item per
        band, in band order, whichever run finishes first."""
        calls = []

        def run(spans):
            calls.append((threading.get_ident(), [int(lo) for lo, _ in spans]))
            time.sleep(0.02 * (n_bands - spans[0][0]) / n_bands)  # later runs finish first
            return [int(lo) for lo, _ in spans]

        assert contour2d._run_bands(run, np.arange(n_bands + 1), workers) == list(range(n_bands))
        return calls

    def test_pool_only_from_enough_bands_per_worker(self, monkeypatch):
        main = threading.get_ident()
        per_worker = contour2d.POOL_MIN_BANDS
        assert main not in {thread for thread, _ in self._runs(2 * per_worker, 2)}

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setattr(contour2d, "ThreadPoolExecutor", no_pool)
        assert self._runs(2 * per_worker - 1, 2) == [(main, list(range(2 * per_worker - 1)))]
        assert self._runs(50, 1) == [(main, list(range(50)))]

    @pytest.mark.parametrize("n_bands, workers", [(4, 2), (7, 2), (10, 3), (50, 8), (3, 8)])
    def test_runs_are_contiguous_and_in_band_order(self, monkeypatch, n_bands, workers):
        # one run per thread, runs of near-equal length that cover the bands
        # in order (with fewer bands than workers, one band per run)
        monkeypatch.setattr(contour2d, "POOL_MIN_BANDS", 0)
        main = threading.get_ident()
        calls = self._runs(n_bands, workers)
        assert main not in {thread for thread, _ in calls}
        runs = sorted(bands for _, bands in calls)
        assert len(runs) == min(n_bands, workers)
        assert [band for r in runs for band in r] == list(range(n_bands))
        assert max(map(len, runs)) - min(map(len, runs)) <= 1

    def test_small_grids_start_no_pool(self, monkeypatch):
        # the 65^3 lattice of grid 64 is 3 sampling bands and one slab
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setattr(contour2d, "ThreadPoolExecutor", no_pool)
        spec = ShapeSpec3D("periodic3d", s=0.8)
        dom = default_domain3d(spec, 64, 3)
        field = make_field3d(spec)
        sample_grid3d(field, dom, workers=2)
        polygonize(field, dom, workers=2)


# --- the sparse route: only the blocks a surface can cross -------------------

KEYED_3D = ("lame3d", "sphube", "periodic3d", "oblique3d")
UNIT_S = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))


@st.composite
def keyed_surfaces(draw):
    """A keyed family at s in [0, 1] (0 and 1 included), its default domain
    at grid 8-32 and 1-2 tiles shifted by up to a cell per axis, and a
    radius."""
    family = draw(st.sampled_from(KEYED_3D))
    kw = dict(r=draw(st.sampled_from([1.0, 0.8, 1.25, 3.0])))
    if family == "lame3d":
        kw["p"] = draw(st.one_of(st.sampled_from([1.0, 2.0, math.inf]), st.floats(1, 8)))
    else:
        kw["s"] = draw(UNIT_S)
    if family == "oblique3d":
        kw["h"] = draw(st.sampled_from([0.0, 1.0, 4.0]))
    spec = ShapeSpec3D(family, **kw)
    n, tiles = draw(st.integers(8, 32)), draw(st.integers(1, 2))
    d = default_domain3d(spec, n, tiles)
    shift = [draw(st.sampled_from([0.0, 0.25, 0.5])) or draw(st.floats(0, 1)) if draw(st.booleans()) else 0.0
             for _ in range(3)]
    dom = Domain3D(d.xmin + shift[0] * d.dx, d.xmax + shift[0] * d.dx, d.ymin + shift[1] * d.dy,
                   d.ymax + shift[1] * d.dy, d.zmin + shift[2] * d.dz, d.zmax + shift[2] * d.dz, d.nx, d.ny, d.nz)
    return make_field3d(spec), dom


def sparse_polygonize(field, dom, block, workers):
    """polygonize on the sparse route at any lattice size, in blocks of
    `block` cells pooled whenever workers > 1, and what each
    `_sparse_bands` call gave."""
    meshes = []
    sparse = contour2d._sparse_bands

    def spy(*args):
        meshes.append(sparse(*args))
        return meshes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polygonize3d, "SPARSE_MIN_SAMPLES", 0)
        mp.setattr(contour2d, "SURFACE_BLOCK_CELLS", block)
        mp.setattr(contour2d, "POOL_MIN_BANDS", 0)
        mp.setattr(contour2d, "_sparse_bands", spy)
        return polygonize(field, dom, workers=workers), meshes


def assert_bands_of_block_layers(bounds, signs, block, cap, cells):
    """The bands between bounds are runs of whole block layers, each holding
    at most cap samples of unproven blocks or one layer, and a band ends
    only where the next layer would pass cap; notes a band of several
    layers that ends inside the lattice."""
    assert bounds[0] == 0 and bounds[-1] == cells and all(k % block == 0 for k in bounds[:-1])
    held = np.count_nonzero(signs.reshape(len(signs), -1) == 0, axis=1) * (block + 1) ** signs.ndim
    runs = np.split(held, [k // block for k in bounds[1:-1]])
    for run, after in zip(runs, runs[1:] + [None]):
        assert len(run) == 1 or run.sum() <= cap
        if after is not None:
            assert run.sum() + after[0] > cap
            if len(run) > 1:
                event("a band of several block layers ends inside the lattice")


class TestSparseSurface:
    @settings(max_examples=120, deadline=None)
    @given(keyed_surfaces(), st.integers(2, 9), st.integers(1, 3))
    def test_families_match_sampled_volume(self, surface, block, workers):
        # blocks that need not divide the grid, sub-cell shifts, radii and
        # pooled bands: the bytes of marching cubes of the sampled volume,
        # exact zeros (nudged by the whole lattice's peak) included
        field, dom = surface
        got, meshes = sparse_polygonize(field, dom, block, workers)
        assert len(meshes) == 1 and meshes[0] is not None
        assert_mesh_bytes(got, marching_cubes(sample_grid3d(field, dom, workers=1)))

    @settings(max_examples=60, deadline=None)
    @given(keyed_surfaces(), st.integers(2, 6), st.integers(1, 4), st.integers(1, 3))
    # an empty block layer and the next in one band, with exact zeros
    @example((make_field3d(ShapeSpec3D("sphube", s=0.75)), default_domain3d(ShapeSpec3D("sphube", s=0.75), 16, 2)),
             2, 4, 2)
    def test_bands_of_block_layers_match_sampled_volume(self, surface, block, blocks, workers):
        # bands of at most `blocks` blocks' samples: where the layers hold
        # few unproven blocks a band spans several and ends mid-lattice;
        # pooled bands, sub-cell shifts and exact zeros
        field, dom = surface
        cap = blocks * (block + 1) ** 3
        bounds, mesh_bands = [], contour2d._mesh_bands
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "BAND_SAMPLES", cap)
            mp.setattr(contour2d, "_mesh_bands", lambda *a, **k: bounds.append(a[1]) or mesh_bands(*a, **k))
            got, meshes = sparse_polygonize(field, dom, block, workers)
        assert meshes[0] is not None and len(bounds) == 1
        assert_mesh_bytes(got, marching_cubes(sample_grid3d(field, dom, workers=1)))
        signs = contour2d._certify(field, field.keys, dom.axes(), block)[0]
        assert_bands_of_block_layers(list(bounds[0]), signs, block, cap, dom.nz)

    @settings(max_examples=100, deadline=None)
    @given(keyed_surfaces(), st.integers(1, 9))
    def test_proven_blocks_hold_their_sign(self, surface, block):
        # the clipped sphube too: its bounds come from each part, not from
        # the clipped field's own corners
        field, dom = surface
        vals = sample_grid3d(field, dom, workers=1).view3d()
        signs, bound, _ = contour2d._certify(field, field.keys, dom.axes(), block)
        assert signs.shape == tuple(-(-n // block) for n in (dom.nz, dom.ny, dom.nx))
        for (bk, bj, bi), sign in np.ndenumerate(signs):
            if sign:
                part = vals[bk * block:(bk + 1) * block + 1, bj * block:(bj + 1) * block + 1,
                            bi * block:(bi + 1) * block + 1]
                assert (sign * part > 0).all()
                assert np.abs(part).max() <= bound[bk, bj, bi]

    def test_a_max_of_parts_is_bounded_by_its_parts(self):
        # max(0.9 - x, x - 1.1) is 0.9 at both ends of the block x in [0, 2]
        # but -0.1 at x = 1: its corners alone would prove it positive, its
        # parts' bounds, max(-1.1, -1.1) below, prove nothing
        parts = (lambda x, y, z: 0.9 - x + 0 * (y + z), lambda x, y, z: x - 1.1 + 0 * (y + z))

        def field(x, y, z):
            return np.maximum(parts[0](x, y, z), parts[1](x, y, z))

        field.keys = Keys(lambda c: c, lambda kx, ky, kz: kx + 1.1, parts=parts)
        dom = Domain3D(0, 2, 0, 1, 0, 1, 4, 2, 2)
        signs, _, corners = contour2d._certify(field, field.keys, dom.axes(), 4)
        assert (corners > 0).all() and signs.tolist() == [[[0]]]
        assert sample_grid3d(field, dom, workers=1).samples.min() < 0

    @pytest.mark.parametrize("n", [24, 32, 48])
    def test_face_centre_zeros_take_the_exact_peak(self, n):
        # the default sphube domain is its cube, so at an even grid the six
        # face centres (|x| = r, y = z = 0) sample to exact zeros that end
        # crossing edges; the lattice's largest |sample| sits at the cube's
        # corners, in proven blocks, and must scale their nudge
        spec = ShapeSpec3D("sphube", s=0.75)
        field, dom = make_field3d(spec), default_domain3d(spec, n, 1)
        vals = sample_grid3d(field, dom, workers=1).view3d()
        assert vals[n // 2, n // 2, 0] == vals[n // 2, n // 2, n] == 0.0
        peaks = []
        nudge = contour2d._nudge_zeros
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "_nudge_zeros", lambda peak, *g: peaks.append(peak) or nudge(peak, *g))
            got, meshes = sparse_polygonize(field, dom, 4, 2)
        assert meshes[0] is not None and peaks == [np.abs(vals).max()]
        signs = contour2d._certify(field, field.keys, dom.axes(), 4)[0]
        assert signs[0, 0, 0] == 1  # the peak's block was proven, not sampled
        assert_mesh_bytes(got, marching_cubes(sample_grid3d(field, dom, workers=1)))

    @pytest.mark.parametrize("family, kw, tiles", [("sphube", dict(s=0.75, r=1.1), 1),
                                                  ("oblique3d", dict(s=0.9, r=0.95), 2)])
    def test_grid_256_commands_take_the_route(self, family, kw, tiles):
        # the large-surface bench commands: both take the route, their exact
        # zeros included, with the bytes of the band kernel
        spec = ShapeSpec3D(family, **kw)
        field, dom = make_field3d(spec), default_domain3d(spec, 256, tiles)
        peaks = []
        nudge = contour2d._nudge_zeros
        calls = []
        sparse = contour2d._sparse_bands
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "_nudge_zeros", lambda peak, *g: peaks.append(peak) or nudge(peak, *g))
            mp.setattr(contour2d, "_sparse_bands", lambda *a: calls.append(sparse(*a)) or calls[-1])
            got = polygonize(field, dom, workers=2)
        assert len(calls) == 1 and calls[0] is not None and len(peaks) == 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polygonize3d, "SPARSE_MIN_SAMPLES", math.inf)
            want = polygonize(field, dom, workers=2)
        assert_mesh_bytes(got, want)

    def test_small_lattices_and_fields_without_keys_stay_dense(self, monkeypatch):
        called = []
        monkeypatch.setattr(contour2d, "_sparse_bands", lambda *args: called.append(args))
        spec = ShapeSpec3D("lame3d", p=4.5)
        big, small = default_domain3d(spec, 256, 1), default_domain3d(spec, 254, 1)
        assert math.prod(len(a) for a in big.axes()) > polygonize3d.SPARSE_MIN_SAMPLES
        assert math.prod(len(a) for a in small.axes()) <= polygonize3d.SPARSE_MIN_SAMPLES
        polygonize(make_field3d(spec), small)
        polygonize(make_field3d(ShapeSpec3D("toroid", s=0.5)), default_domain3d(ShapeSpec3D("toroid"), 256, 1))
        assert not called
        polygonize(make_field3d(spec), big)
        assert len(called) == 1

    def test_keys_of_the_families(self):
        for family in FAMILIES_3D:
            field = make_field3d(ShapeSpec3D(family, s=0.5))
            assert hasattr(field, "keys") == (family in KEYED_3D), family

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s, r", [(1.0, 1e-160), (0.0, 1e-320), (0.5, 1e-200)])
    def test_non_finite_field_raises_the_sampled_volume_error(self, s, r):
        # s^2 / r^2 overflows, or r * r underflows to 0: the corners are not
        # finite, and the band kernel names the first sample
        spec = ShapeSpec3D("sphube", s=s, r=r)
        field, dom = make_field3d(spec), default_domain3d(spec, 24, 1)
        with pytest.raises(ValueError) as dense:
            sample_grid3d(field, dom, workers=1)
        with pytest.raises(ValueError) as sparse:
            sparse_polygonize(field, dom, 4, 2)
        assert str(sparse.value) == str(dense.value)
        assert str(dense.value).startswith("non-finite field value at sample")

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_bad_sample_inside_a_sampled_block(self, workers):
        # finite corners, and a nan inside a block the plane crosses, so the
        # route samples it, drops its work and the band kernel names it
        def field(x, y, z):
            return np.where((x == 2.0) & (y == 1.0) & (z == 3.0), np.nan, x + y + z - 6.0)

        field.keys = Keys(lambda c: c, lambda kx, ky, kz: kx + ky + kz + 6.0)
        dom = Domain3D(0, 8, 0, 8, 0, 8, 8, 8, 8)
        with pytest.raises(ValueError) as dense:
            sample_grid3d(field, dom, workers=1)
        with pytest.raises(ValueError) as sparse:
            sparse_polygonize(field, dom, 4, workers)
        assert str(sparse.value) == str(dense.value) == "non-finite field value at sample (2.0, 1.0, 3.0)"

    def test_peak_memory_below_half_the_volume(self):
        # the route at grid 128, where it is forced here: its bands hold
        # the sampled blocks of one layer each
        spec = ShapeSpec3D("sphube", s=0.75)
        field, dom = make_field3d(spec), default_domain3d(spec, 128, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polygonize3d, "SPARSE_MIN_SAMPLES", 0)
            tracemalloc.start()
            try:
                mesh = polygonize(field, dom, workers=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert not mesh.empty
        assert peak <= 0.5 * 129**3 * 8
