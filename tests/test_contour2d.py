import math
import sys
import tracemalloc
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from squircles import contour2d
from squircles.cli import default_domain2d, default_domain3d
from squircles.contour2d import (
    ZERO_NUDGE,
    Domain2D,
    Grid2D,
    Polyline,
    contour,
    frantz_polyline,
    marching_squares,
    sample_grid2d,
)
from squircles.fields2d import FAMILY_RECORDS_2D, Keys, ShapeSpec2D, make_field2d
from squircles.fields3d import FAMILIES_3D, ShapeSpec3D, make_field3d
from squircles.polygonize3d import Domain3D, sample_grid3d


def circle_field(x, y):
    return x * x + y * y - 1.0


def polyline_length(pl):
    pts = pl.points
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
    if pl.closed:
        seg += np.linalg.norm(pts[0] - pts[-1])
    return float(seg)


class TestDomain2D:
    def test_lattice(self):
        dom = Domain2D(-2, 2, -1, 1, 4, 2)
        assert dom.dx == 1.0 and dom.dy == 1.0
        assert np.array_equal(dom.xs(), [-2, -1, 0, 1, 2])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Domain2D(1, -1, 0, 1, 4, 4)

    def test_rejects_single_cell_axis(self):
        with pytest.raises(ValueError):
            Domain2D(-1, 1, -1, 1, 1, 4)

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308, -1, 1), (-1, 1, -1e308, 1e308), (0, 5e-324, -1, 1)])
    def test_rejects_a_cell_size_that_is_not_finite_and_positive(self, bounds):
        # the span overflows to inf, or 5e-324 / 2 rounds to 0
        with pytest.raises(ValueError, match="cell sizes must be finite and positive"):
            Domain2D(*bounds, 2, 2)


@pytest.mark.parametrize("cls, bounds, counts, texts", [
    (Domain2D, (-2.0, 2.0, -1.0, 0.7), (4, 3), ("nx=4, ny=1", "dx=1.0, dy=0.0")),
    (Domain3D, (-2.0, 2.0, -1.0, 0.7, 0.1, 0.9), (4, 3, 5),
     ("nx=4, ny=3, nz=1", "dx=1.0, dy=0.5666666666666667, dz=0.0")),
])
class TestLatticeDomain:
    # Domain2D and Domain3D share one body; the last axis is the one made bad

    def test_messages(self, cls, bounds, counts, texts):
        for bad_bounds, bad_counts, message in [
            (bounds[:-2] + bounds[:-3:-1], counts, "domain bounds must satisfy max > min"),
            (bounds, counts[:-1] + (1,), f"cell counts must be >= 2, got {texts[0]}"),
            (bounds[:-2] + (0.0, 5e-324), counts, f"cell sizes must be finite and positive, got {texts[1]}"),
        ]:
            with pytest.raises(ValueError) as err:
                cls(*bad_bounds, *bad_counts)
            assert str(err.value) == message

    def test_axes_and_steps_are_the_per_axis_accessors(self, cls, bounds, counts, texts):
        dom = cls(*bounds, *counts)
        names = "xyz"[:len(counts)]
        steps = tuple(getattr(dom, f"d{a}") for a in names)
        axes = tuple(getattr(dom, f"{a}s")() for a in names)
        assert np.array(dom.steps()).tobytes() == np.array(steps).tobytes()
        assert [a.tobytes() for a in dom.axes()] == [a.tobytes() for a in axes]
        for k, (lo, hi, n) in enumerate(zip(bounds[::2], bounds[1::2], counts)):
            assert np.float64(steps[k]).tobytes() == np.float64((hi - lo) / n).tobytes()
            assert axes[k].tobytes() == (lo + steps[k] * np.arange(n + 1)).tobytes()


class TestSampleGrid2d:
    def test_constant_field(self):
        dom = Domain2D(-1, 1, -1, 1, 4, 4)
        grid = sample_grid2d(lambda x, y: np.full(np.broadcast(x, y).shape, -1.0), dom)
        assert np.array_equal(grid.samples, np.full((5, 5), -1.0))

    def test_corner_value(self):
        dom = Domain2D(-2, 2, -2, 2, 4, 4)
        grid = sample_grid2d(make_field2d(ShapeSpec2D("fg", s=0.0)), dom)
        assert grid.samples[0, 0] == 7.0

    def test_worker_count_invariance(self):
        dom = Domain2D(-2, 2, -2, 2, 64, 64)
        field = make_field2d(ShapeSpec2D("periodic", s=0.7))
        a = sample_grid2d(field, dom, workers=1)
        b = sample_grid2d(field, dom, workers=5)
        assert np.array_equal(a.samples, b.samples)

    def test_rejects_non_finite(self):
        dom = Domain2D(-1, 1, -1, 1, 4, 4)
        with pytest.raises(ValueError, match="non-finite"):
            sample_grid2d(lambda x, y: np.where(x == 0, np.nan, 1.0) + 0 * y, dom)


class TestMarchingSquares:
    def test_all_positive_empty(self):
        dom = Domain2D(-1, 1, -1, 1, 8, 8)
        grid = sample_grid2d(lambda x, y: 1.0 + 0 * x + 0 * y, dom)
        assert marching_squares(grid) == []

    def test_circle_single_loop(self):
        dom = Domain2D(-2, 2, -2, 2, 256, 256)
        polylines = marching_squares(sample_grid2d(circle_field, dom))
        assert len(polylines) == 1
        assert polylines[0].closed
        assert polyline_length(polylines[0]) == pytest.approx(2 * math.pi, rel=5e-3)

    def test_circle_points_on_curve(self):
        dom = Domain2D(-2, 2, -2, 2, 128, 128)
        (pl,) = marching_squares(sample_grid2d(circle_field, dom))
        radii = np.hypot(pl.points[:, 0], pl.points[:, 1])
        assert np.max(np.abs(radii - 1.0)) < 2e-3

    def test_square_grid_tiling_has_open_lines(self):
        # the s=1 doubly-periodic field is an infinite grid of lines at odd
        # integers; inside a [-3,3] window they all hit the boundary
        dom = Domain2D(-3, 3, -3, 3, 512, 512)
        field = make_field2d(ShapeSpec2D("periodic", s=1.0))
        polylines = marching_squares(sample_grid2d(field, dom))
        open_lines = [pl for pl in polylines if not pl.closed]
        assert open_lines
        hits = set()
        for pl in open_lines:
            for target in (-3.0, -1.0, 1.0, 3.0):
                if np.any(np.abs(pl.points[:, 0] - target) < 1e-6):
                    hits.add(("x", target))
                if np.any(np.abs(pl.points[:, 1] - target) < 1e-6):
                    hits.add(("y", target))
        assert len(hits) == 8

    def test_saddle_uses_center_sample(self):
        # xy = 0.2 on a coarse grid puts an ambiguous cell at the origin; the
        # center sample is negative there, so the negative set must stay
        # connected and each hyperbola branch must stay in its own quadrant
        def saddle(x, y):
            return x * y - 0.2

        dom = Domain2D(-2.5, 2.5, -2.5, 2.5, 5, 5)
        polylines = marching_squares(sample_grid2d(saddle, dom))
        assert len(polylines) == 2
        for pl in polylines:
            assert not pl.closed
            signs = np.sign(pl.points)
            assert np.all(signs[:, 0] == signs[0, 0])
            assert np.all(signs[:, 1] == signs[0, 1])

    def test_determinism(self):
        dom = Domain2D(-1.5, 1.5, -1.5, 1.5, 64, 64)
        field = make_field2d(ShapeSpec2D("oblique", s=0.8))
        a = marching_squares(sample_grid2d(field, dom))
        b = marching_squares(sample_grid2d(field, dom))
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.closed == pb.closed
            assert np.array_equal(pa.points, pb.points)

    def test_exact_zero_samples_handled(self):
        # vertices of the tilted square land exactly on lattice points
        dom = Domain2D(-2, 2, -2, 2, 8, 8)
        field = make_field2d(ShapeSpec2D("lame", p=1.0))
        polylines = marching_squares(sample_grid2d(field, dom))
        assert len(polylines) == 1 and polylines[0].closed


class TestFrantzPolyline:
    def test_closed_with_n_points(self):
        pl = frantz_polyline(2.0, 1.0, 64)
        assert pl.closed and len(pl.points) == 64

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            frantz_polyline(2.0, 1.0, 4)

    def test_circle_limit(self):
        pl = frantz_polyline(1e-9, 1.0, 128)
        radii = np.hypot(pl.points[:, 0], pl.points[:, 1])
        assert np.allclose(radii, 1.0, atol=1e-15)


class TestGrid2D:
    def test_shape_check(self):
        dom = Domain2D(-1, 1, -1, 1, 4, 4)
        with pytest.raises(ValueError):
            Grid2D(dom, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Reference: the per-cell marching squares that the active-cell kernel
# replaced, kept verbatim (dict case table, scalar saddle calls, dict chainer),
# except that a dropped zero-length segment welds its two ends, which chains
# as the kernel's walk through such a segment does.

REF_CASE_SEGMENTS = {
    0: [],
    1: [(3, 0)],
    2: [(0, 1)],
    3: [(3, 1)],
    4: [(1, 2)],
    6: [(0, 2)],
    7: [(3, 2)],
    8: [(2, 3)],
    9: [(0, 2)],
    11: [(1, 2)],
    12: [(3, 1)],
    13: [(0, 1)],
    14: [(3, 0)],
    15: [],
}


def ref_nudged(samples):
    scale = float(np.max(np.abs(samples)))
    if scale == 0.0:
        scale = 1.0
    out = samples.copy()
    out[out == 0.0] = ZERO_NUDGE * scale
    return out


def ref_marching_squares(grid):
    dom = grid.domain
    vals = ref_nudged(grid.samples)
    xs, ys = dom.xs(), dom.ys()
    inside = vals < 0
    case = (
        inside[:-1, :-1].astype(np.int8)
        | (inside[:-1, 1:] << 1)
        | (inside[1:, 1:] << 2)
        | (inside[1:, :-1] << 3)
    )
    active = np.argwhere((case != 0) & (case != 15))

    verts = {}

    def edge_key(edge, i, j):
        if edge == 0:
            return ("h", i, j)
        if edge == 2:
            return ("h", i, j + 1)
        if edge == 1:
            return ("v", i + 1, j)
        return ("v", i, j)

    def vertex(key):
        pt = verts.get(key)
        if pt is None:
            kind, i, j = key
            if kind == "h":
                v0, v1 = vals[j, i], vals[j, i + 1]
                t = v0 / (v0 - v1)
                pt = (xs[i] + t * dom.dx, ys[j])
            else:
                v0, v1 = vals[j, i], vals[j + 1, i]
                t = v0 / (v0 - v1)
                pt = (xs[i], ys[j] + t * dom.dy)
            verts[key] = pt
        return pt

    welded = {}

    def find(key):
        while key in welded:
            key = welded[key]
        return key

    segments = []
    for j, i in active:
        c = int(case[j, i])
        if c in (5, 10):
            if grid.field is not None:
                center = float(grid.field(xs[i] + 0.5 * dom.dx, ys[j] + 0.5 * dom.dy))
            else:
                center = float(vals[j, i] + vals[j, i + 1] + vals[j + 1, i] + vals[j + 1, i + 1])
            center_inside = center < 0
            if c == 5:
                segs = [(3, 2), (1, 0)] if center_inside else [(3, 0), (1, 2)]
            else:
                segs = [(0, 3), (2, 1)] if center_inside else [(0, 1), (2, 3)]
        else:
            segs = REF_CASE_SEGMENTS[c]
        for ea, eb in segs:
            ka, kb = edge_key(ea, i, j), edge_key(eb, i, j)
            if vertex(ka) != vertex(kb):
                segments.append((ka, kb))
            elif find(ka) != find(kb):
                # a segment whose ends coincide is dropped, its end kb welded onto ka
                welded[find(kb)] = find(ka)

    return ref_chain_segments([(find(ka), find(kb)) for ka, kb in segments], verts)


def ref_chain_segments(segments, verts):
    adj = defaultdict(list)
    for si, (ka, kb) in enumerate(segments):
        adj[ka].append((kb, si))
        adj[kb].append((ka, si))

    used = [False] * len(segments)
    polylines = []
    for si, (ka, kb) in enumerate(segments):
        if used[si]:
            continue
        used[si] = True
        chain = [ka, kb]
        closed = False
        for endpos in (-1, 0):
            while True:
                tip = chain[endpos]
                nxt = None
                for other, sj in adj[tip]:
                    if not used[sj]:
                        nxt = (other, sj)
                        break
                if nxt is None:
                    break
                used[nxt[1]] = True
                if endpos == -1:
                    chain.append(nxt[0])
                else:
                    chain.insert(0, nxt[0])
                if chain[0] == chain[-1]:
                    closed = True
                    chain.pop()
                    break
            if closed:
                break
        points = [verts[k] for k in chain]
        deduped = [points[0]]
        for pt in points[1:]:
            if pt != deduped[-1]:
                deduped.append(pt)
        if closed and len(deduped) > 1 and deduped[0] == deduped[-1]:
            deduped.pop()
        if len(deduped) >= (3 if closed else 2):
            polylines.append(Polyline(np.array(deduped), closed))
    return polylines


def assert_same_polylines(grid):
    got, want = marching_squares(grid), ref_marching_squares(grid)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.closed == w.closed
        assert g.points.dtype == w.points.dtype
        assert g.points.tobytes() == w.points.tobytes()
    return got


def saddle_field(x, y):
    # polynomial, so scalar and array calls give the same bits
    return (x - 0.3) * (y + 0.2) - 0.05


@st.composite
def small_grids(draw):
    """Unequal small dims, random bounds, integer samples in [-2, 2] with
    signed zeros, with or without a field handle for the saddle centers."""
    nx, ny = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    # far from the origin a nudged crossing can round onto its corner
    origin = st.one_of(st.floats(-5, 5), st.floats(-1e7, 1e7))
    x0, y0 = draw(origin), draw(origin)
    dom = Domain2D(x0, x0 + draw(st.floats(0.1, 10)), y0, y0 + draw(st.floats(0.1, 10)), nx, ny)
    samples = draw(st.one_of(
        hnp.arrays(np.float64, (ny + 1, nx + 1), elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])),
        st.sampled_from([-2.0, -0.0, 0.0, 1.0]).map(lambda v: np.full((ny + 1, nx + 1), v)),
    ))
    return Grid2D(dom, samples, field=draw(st.sampled_from([None, saddle_field])))


FIELD_FAMILIES_2D = tuple(f for f in FAMILY_RECORDS_2D if f != "frantz")  # frantz has no field


class TestActiveCellKernel:
    @settings(max_examples=300, deadline=None)
    @given(small_grids())
    def test_small_grids_match_reference(self, grid):
        assert_same_polylines(grid)

    @pytest.mark.parametrize("family", FIELD_FAMILIES_2D)
    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(8, 64), tiles=st.integers(1, 3), s=st.floats(0, 1),
           shift=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)))
    def test_families_match_reference(self, family, n, tiles, s, shift):
        spec = ShapeSpec2D(family, s=s, p=1.0 + 4.0 * s)
        d = default_domain2d(spec, n, tiles)
        ox, oy = shift[0] * d.dx, shift[1] * d.dy
        dom = Domain2D(d.xmin + ox, d.xmax + ox, d.ymin + oy, d.ymax + oy, n, n)
        assert_same_polylines(sample_grid2d(make_field2d(spec), dom))

    def test_chains_follow_undirected_adjacency(self):
        # Around a lone outside sample the four cells emit right->top,
        # bottom->right, left->bottom and left->top: the last segment runs
        # against the loop, so chaining by segment direction would split it.
        samples = -np.ones((3, 3))
        samples[1, 1] = 1.0
        (loop,) = assert_same_polylines(Grid2D(Domain2D(0, 2, 0, 2, 2, 2), samples))
        assert loop.closed and len(loop.points) == 4

    def test_a_chain_whose_lowest_segment_is_flat(self, monkeypatch):
        # A zero at lattice point [1, 1], far from the origin, with inside
        # samples left of and below it: the crossings next to it round onto
        # it, so cell (0, 0)'s segment, the lowest, is flat. The chain starts
        # at the next segment, in its direction, and walks through the flat
        # one without a point for it: the left end, the zero's point, the
        # bottom end.
        o = 2.0 ** 20
        samples = np.array([[-2.0, -2.0, 1.0], [-2.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        chained = []
        chains = contour2d._chains
        monkeypatch.setattr(contour2d, "_chains", lambda a, b, points: chained.append((a, b, points)) or chains(a, b, points))
        (line,) = assert_same_polylines(Grid2D(Domain2D(o, o + 2, o, o + 2, 2, 2), samples))
        a, b, points = chained[0]
        assert len(a) == 3 and points[a[0]].tolist() == points[b[0]].tolist() == [o + 1, o + 1]
        assert not line.closed and len(line.points) == 3
        (left, _), middle, (_, bottom) = line.points.tolist()
        assert (left, middle, bottom) == (o, [o + 1, o + 1], o)

    def test_saddle_fallback_sums_nudged_corners(self):
        # Cell (0, 0) is a saddle (inside corners [0, 0] and [1, 1]) whose
        # corner sum is negative on the raw samples but positive once its zero
        # corner is nudged. The nudged sum keeps the two inside corners apart:
        # an open line around [0, 0] and a closed loop around [1, 1].
        samples = np.ones((3, 3))
        samples[:2, :2] = [[-1.0, 0.0], [2.0 - 1e-12, -1.0]]
        corners = [samples[0, 0], samples[0, 1], samples[1, 0], samples[1, 1]]
        raw = corners[0] + corners[1] + corners[2] + corners[3]
        nudged = corners[0] + ZERO_NUDGE * float(np.max(np.abs(samples))) + corners[2] + corners[3]
        assert raw < 0 < nudged
        polylines = assert_same_polylines(Grid2D(Domain2D(0, 2, 0, 2, 2, 2), samples))
        assert [pl.closed for pl in polylines] == [False, True]

    def test_samples_left_untouched(self):
        # a lattice with many exact zeros, which the kernel nudges positive
        dom = Domain2D(-2, 2, -2, 2, 16, 16)
        grid = sample_grid2d(lambda x, y: np.round(x + y) * np.sign(y - 0.1) + 0 * x, dom)
        assert np.count_nonzero(grid.samples == 0.0) > 30
        before = grid.samples.copy()
        assert assert_same_polylines(grid)
        assert grid.samples.tobytes() == before.tobytes()

    def test_peak_memory_below_reference(self):
        spec = ShapeSpec2D("periodic", s=0.8)
        grid = sample_grid2d(make_field2d(spec), default_domain2d(spec, 1024, 3))

        def peak(kernel):
            tracemalloc.start()
            try:
                kernel(grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(marching_squares) <= 0.5 * peak(ref_marching_squares)


class TestBandKernel:
    @settings(max_examples=150, deadline=None)
    @given(small_grids(), st.integers(1, 3), st.integers(1, 3))
    def test_band_splits_match_reference(self, grid, rows, workers):
        # marching_squares runs the kernel as one band; split into bands of
        # `rows` cell rows (pooled whenever workers > 1) it gives the same
        # bytes, saddle centers and whole-grid nudge scale included
        kernel = contour2d._mesh_bands

        def banded(load, bounds, *args):
            ny = bounds[-1]
            return kernel(load, np.arange(0, ny + rows, rows).clip(max=ny), *args[:-1], workers)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "_mesh_bands", banded)
            mp.setattr(contour2d, "POOL_MIN_BANDS", 0)
            assert_same_polylines(grid)

    @pytest.mark.parametrize("field", [None, saddle_field])
    def test_workers_do_not_change_marching_squares(self, monkeypatch, field):
        # 9 bands of 4 cell rows, pooled on 3 workers; signed zeros and
        # saddles in every band, the largest |sample| in one band only. The
        # saddle at row 2 is outside only by the nudge of the whole grid's
        # largest |sample|: 2 x 7e-12 - 2 x 5e-12 > 0 > 2 x 2e-12 - 2 x 5e-12
        rng = np.random.default_rng(20)
        samples = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(37, 37))
        samples[30, 5] = 7.0
        samples[2:4, 2:4] = [[0.0, -5e-12], [-5e-12, 0.0]]
        grid = Grid2D(Domain2D(-2, 2, -1.5, 2.5, 36, 36), samples, field=field)
        pools = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(contour2d, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(contour2d, "SLAB_SAMPLES", 5 * 37)
        assert len(contour2d._slab_bounds(grid.domain.axes())) - 1 == 9
        runs = []
        for workers in (1, 3):
            monkeypatch.setenv("SQUIRCLES_WORKERS", str(workers))
            runs.append(assert_same_polylines(grid))
        assert pools == [3]
        assert [(p.closed, p.points.tobytes()) for p in runs[0]] == [(p.closed, p.points.tobytes()) for p in runs[1]]

    def test_ids_past_int32_are_exact(self):
        # a band whose ids pass 2**31 - 1 gets int64 ids, not wrapped ones
        vals = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, 1.0, -1.0]])
        inside = vals < 0
        crossings = contour2d._edge_crossings(vals, inside)
        _, code = contour2d._active_cells(inside)
        indices = [c[0] for c in crossings]
        n_x = len(crossings[0][1])

        def ids(first):
            return contour2d._slot_ids(code, contour2d._SLOTS, indices, (2, 2), np.array([first, first + n_x]))

        base = 2**31 - 2
        small, big = ids(0), ids(base)
        assert small.dtype == np.int32 and big.dtype == np.int64
        crossing = small != 0
        crossing[small == 0] = big[small == 0] == base  # id 0 is a crossing too
        assert big[crossing].min() == base and big[crossing].max() > 2**31
        assert np.array_equal(big[crossing], small[crossing].astype(np.int64) + base)
        assert not big[~crossing].any()


class TestBoundedBands:
    def test_band_split_matches_one_call(self, monkeypatch):
        # 3 rows and a bit per band: 65 rows do not divide into bands evenly
        dom = Domain2D(-2, 2, -2, 2, 48, 64)
        field = make_field2d(ShapeSpec2D("oblique", s=0.8))
        whole = np.asarray(field(dom.xs()[None, :], dom.ys()[:, None]), dtype=float)
        monkeypatch.setattr(contour2d, "BAND_SAMPLES", 3 * 49 + 7)
        for workers in (1, 3):
            assert sample_grid2d(field, dom, workers=workers).samples.tobytes() == whole.tobytes()

    def test_scalar_field_fills_every_band(self, monkeypatch):
        monkeypatch.setattr(contour2d, "BAND_SAMPLES", 50)
        dom = Domain3D(-1, 1, -1, 1, -1, 1, 6, 5, 20)
        for workers in (1, 2):
            assert np.array_equal(sample_grid3d(lambda x, y, z: 2.5, dom, workers=workers).samples,
                                  np.full(7 * 6 * 21, 2.5))

    def test_first_non_finite_sample_is_named(self, monkeypatch):
        # bad samples in two later bands: the first in index order is reported
        monkeypatch.setattr(contour2d, "BAND_SAMPLES", 2 * 9)
        dom = Domain2D(0, 8, 0, 16, 8, 16)

        def field(x, y):
            return np.where((x == 3) & (y == 11), np.inf, np.where((x == 5) & (y == 7), np.nan, 1.0))

        for workers in (1, 2):
            with pytest.raises(ValueError, match=r"non-finite field value at sample \(5\.0, 7\.0\)"):
                sample_grid2d(field, dom, workers=workers)

    @pytest.mark.parametrize("family", FAMILIES_3D)
    def test_peak_memory_near_output(self, family):
        # one worker: each thread in flight holds its own band's temporaries
        spec = ShapeSpec3D(family, s=0.75)
        dom = default_domain3d(spec, 128, 1)
        field = make_field3d(spec)
        tracemalloc.start()
        try:
            grid = sample_grid3d(field, dom, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * grid.samples.nbytes


def lattice_field2d(grid):
    """A field whose value at each lattice point of grid.domain is the
    grid's sample there (off the lattice, a neighbour's): the band loader
    calls it on slices of the domain's own axes."""
    dom, vals = grid.domain, grid.samples

    def field(x, y):
        return vals[np.searchsorted(dom.ys(), y), np.searchsorted(dom.xs(), x)]

    return field


def assert_fused_matches(field, dom, layers, workers):
    """contour, in row bands of `layers` cell rows on `workers` threads
    (pooled whenever workers > 1), gives marching_squares of sample_grid2d
    byte for byte; a field with keys takes the band kernel too, not the
    sparse route its lattice would take (see TestSparseContour)."""
    want = marching_squares(sample_grid2d(field, dom, workers=1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contour2d, "SLAB_SAMPLES", (layers + 1) * (dom.nx + 1))
        mp.setattr(contour2d, "POOL_MIN_BANDS", 0)
        mp.setattr(contour2d, "_sparse_bands", lambda *args: None)
        assert len(contour2d._slab_bounds((dom.xs(), dom.ys()))) - 1 == -(-dom.ny // layers)
        got = contour(field, dom, workers=workers)
    assert [g.closed for g in got] == [w.closed for w in want]
    for g, w in zip(got, want):
        assert g.points.dtype == w.points.dtype
        assert g.points.tobytes() == w.points.tobytes()


class TestFusedContour:
    @pytest.mark.parametrize("family", ["lame", "fg", "periodic", "oblique", "phase_grid"])
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(8, 64), tiles=st.integers(1, 3), s=st.floats(0, 1),
           shift=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
           layers=st.integers(1, 4), workers=st.integers(1, 3))
    def test_families_match_sampled_grid(self, family, n, tiles, s, shift, layers, workers):
        spec = ShapeSpec2D(family, s=s, p=1.0 + 4.0 * s)
        d = default_domain2d(spec, n, tiles)
        ox, oy = shift[0] * d.dx, shift[1] * d.dy
        dom = Domain2D(d.xmin + ox, d.xmax + ox, d.ymin + oy, d.ymax + oy, n, n)
        assert_fused_matches(make_field2d(spec), dom, layers, workers)

    @settings(max_examples=100, deadline=None)
    @given(small_grids(), st.integers(1, 4), st.integers(1, 3))
    def test_small_grids_match_sampled_grid(self, grid, layers, workers):
        # signed zeros, all-inside and all-outside lattices, and a nudge
        # scale that one band alone may not see
        assert_fused_matches(lattice_field2d(grid), grid.domain, layers, workers)

    @pytest.mark.filterwarnings("error")  # no band contours the bad row
    @pytest.mark.parametrize("workers", [1, 3])
    def test_non_finite_sample_in_a_middle_band(self, workers):
        # 2-row bands share rows y = 2, 4, ..., 10; the bad samples sit on
        # the shared row y = 4, in the middle band y = 4..6, and on y = 7
        dom = Domain2D(0, 6, 0, 12, 6, 12)

        def field(x, y):
            bad = ((y == 4) & (x == 5)) | ((y == 7) & (x == 0))
            return np.where(bad, np.nan, x + y - 6.0)

        with pytest.raises(ValueError) as whole:
            sample_grid2d(field, dom, workers=1)
        assert str(whole.value) == "non-finite field value at sample (5.0, 4.0)"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "SLAB_SAMPLES", 3 * 7)
            mp.setattr(contour2d, "POOL_MIN_BANDS", 0)
            with pytest.raises(ValueError) as fused:
                contour(field, dom, workers=workers)
        assert str(fused.value) == str(whole.value)

    def test_one_worker_samples_each_row_once(self):
        # 10 bands of 4 cell rows share 9 rows; the circle has no saddle cell
        dom = Domain2D(-2, 2, -2, 2, 40, 40)
        sizes = []

        def counted(x, y):
            sizes.append(np.broadcast(x, y).size)
            return circle_field(x, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "SLAB_SAMPLES", 5 * 41)
            (loop,) = contour(counted, dom, workers=1)
        assert loop.closed and sum(sizes) == 41 * 41

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_bands_sample_the_lattice_and_one_row_per_extra_run(self, workers):
        # the 10 bands go in one run per thread, each run sampling its first
        # row itself; the count is exact on every call, with threads
        # switching every microsecond
        dom = Domain2D(-2, 2, -2, 2, 40, 40)
        sizes = []

        def counted(x, y):
            sizes.append(np.broadcast(x, y).size)
            return circle_field(x, y)

        want = marching_squares(sample_grid2d(circle_field, dom, workers=1))
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "SLAB_SAMPLES", 5 * 41)
            assert len(contour2d._slab_bounds((dom.xs(), dom.ys()))) - 1 >= contour2d.POOL_MIN_BANDS * workers
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(20):
                    sizes.clear()
                    (loop,) = contour(counted, dom, workers=workers)
                    assert loop.points.tobytes() == want[0].points.tobytes()
                    assert sum(sizes) == 41 * 41 + (workers - 1) * 41
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("family, tiles", [("fg", 1), ("periodic", 3)])
    def test_peak_memory_below_half_the_grid(self, family, tiles):
        # the sampled grid alone is 2049^2 float64 samples, 33.6 MB
        spec = ShapeSpec2D(family, s=0.8)
        dom = default_domain2d(spec, 2048, tiles)
        field = make_field2d(spec)
        tracemalloc.start()
        try:
            contour(field, dom, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2049**2 * 8


UNIT_S = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))

# the 2D families whose fields have keys, over their parameters
KEYED_SPECS = st.one_of(
    st.builds(lambda p: ShapeSpec2D("lame", p=p), st.one_of(st.sampled_from([1.0, math.inf]), st.floats(1, 12))),
    st.builds(lambda family, s: ShapeSpec2D(family, s=s), st.sampled_from(["fg", "periodic"]), UNIT_S),
    st.builds(lambda s, h: ShapeSpec2D("oblique", s=s, h=h), UNIT_S, st.one_of(st.just(0.0), st.floats(0, 2))),
)


def shifted_domain(spec, n, tiles, shift):
    d = default_domain2d(spec, n, tiles)
    ox, oy = shift[0] * d.dx, shift[1] * d.dy
    return Domain2D(d.xmin + ox, d.xmax + ox, d.ymin + oy, d.ymax + oy, n, n)


def sparse_contour(field, dom, block, workers):
    """contour on blocks of `block` cells, in bands of two blocks' samples
    (at least one block layer) sampled in field calls of about one block,
    and what each `_sparse_bands` call gave."""
    meshes = []
    sparse = contour2d._sparse_bands

    def spy(*args):
        meshes.append(sparse(*args))
        return meshes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contour2d, "BLOCK_CELLS", block)
        mp.setattr(contour2d, "SLAB_SAMPLES", 2 * (block + 1) ** 2)
        mp.setattr(contour2d, "BAND_SAMPLES", (block + 1) ** 2)
        mp.setattr(contour2d, "_sparse_bands", spy)
        return contour(field, dom, workers=workers), meshes


def assert_same_as_sampled_grid(got, field, dom):
    want = marching_squares(sample_grid2d(field, dom, workers=1))
    assert [g.closed for g in got] == [w.closed for w in want]
    for g, w in zip(got, want):
        assert g.points.dtype == w.points.dtype
        assert g.points.tobytes() == w.points.tobytes()


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


class TestSparseContour:
    @settings(max_examples=150, deadline=None)
    @given(spec=KEYED_SPECS, n=st.integers(8, 64), tiles=st.integers(1, 3),
           shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), block=st.integers(2, 5),
           workers=st.integers(1, 3))
    def test_families_match_sampled_grid(self, spec, n, tiles, shift, block, workers):
        # blocks that do not divide the grid, bands of two blocks: the same
        # points, closed flags and order as marching squares of the lattice,
        # from the very points and segments the band kernel gives the chains
        field, dom = make_field2d(spec), shifted_domain(spec, n, tiles, shift)
        got, meshes = sparse_contour(field, dom, block, workers)
        assert len(meshes) == 1 and meshes[0] is not None  # exact zeros stay on the route
        assert_same_as_sampled_grid(got, field, dom)
        chained = []
        chains = contour2d._chains
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "_chains", lambda a, b, points: chained.append((a, b, points)) or chains(a, b, points))
            contour(field, dom, workers=1)  # one slab: the band kernel
        (a, b, points), (sparse_points, segments) = chained[0], meshes[0]
        assert sparse_points.tobytes() == points.tobytes()
        assert segments.dtype == a.dtype and np.array_equal(segments, np.column_stack([a, b]))

    @pytest.mark.parametrize("n, tiles, h", [(24, 1, 0.0), (24, 2, 0.0), (48, 2, 0.0), (60, 1, 0.0), (48, 1, 1.0)])
    def test_exact_zeros_stay_on_the_route(self, n, tiles, h):
        # the aligned oblique square at s = 1 samples to exact zeros on its
        # sides; their nudge takes the largest |sample| of the whole lattice,
        # which the route finds without meshing the lattice
        spec = ShapeSpec2D("oblique", s=1.0, h=h)
        field, dom = make_field2d(spec), default_domain2d(spec, n, tiles)
        assert np.count_nonzero(sample_grid2d(field, dom).samples == 0.0) > 0
        got, meshes = sparse_contour(field, dom, 4, 2)
        assert len(meshes) == 1 and meshes[0] is not None
        assert_same_as_sampled_grid(got, field, dom)

    @settings(max_examples=100, deadline=None)
    @given(spec=KEYED_SPECS, n=st.integers(8, 64), tiles=st.integers(1, 3),
           shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), block=st.integers(1, 8))
    def test_proven_blocks_hold_their_sign(self, spec, n, tiles, shift, block):
        field, dom = make_field2d(spec), shifted_domain(spec, n, tiles, shift)
        samples = sample_grid2d(field, dom).samples
        signs = contour2d._certify(field, field.keys, dom.axes(), block)[0]
        assert signs.shape == (-(-n // block),) * 2
        for (bj, bi), sign in np.ndenumerate(signs):
            if sign:
                assert (sign * samples[bj * block:(bj + 1) * block + 1, bi * block:(bi + 1) * block + 1] > 0).all()

    @pytest.mark.parametrize("family, kw, tiles, share", [
        ("lame", dict(p=4.5), 1, 0.06), ("fg", dict(s=0.75), 1, 0.06), ("periodic", dict(s=0.78), 3, 0.09),
        ("oblique", dict(s=0.77), 3, 0.16)])
    def test_blocks_off_the_curve_are_proven_at_grid_2048(self, family, kw, tiles, share):
        spec = ShapeSpec2D(family, **kw)
        field = make_field2d(spec)
        signs = contour2d._certify(field, field.keys, default_domain2d(spec, 2048, tiles).axes(),
                                   contour2d.BLOCK_CELLS)[0]
        assert signs.shape == (64, 64) and np.mean(signs == 0) <= share

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s, r, text", [
        # s^2 / r^2 overflows: every sample is nan or inf, the corners are
        # not finite and the dense route names the sample
        (1.0, 1e-160, "non-finite field value at sample (-1.2e-160, -1.2e-160)"),
        # r * r underflows to 0: s^2 / r^2 is nan, and so is every sample
        (0.0, 1e-320, "non-finite field value at sample (-1.2e-320, -1.2e-320)"),
    ])
    def test_non_finite_field_raises_the_sampled_grid_error(self, s, r, text):
        spec = ShapeSpec2D("fg", s=s, r=r)
        field, dom = make_field2d(spec), default_domain2d(spec, 40, 1)
        with pytest.raises(ValueError) as dense:
            sample_grid2d(field, dom)
        with pytest.raises(ValueError) as sparse:
            sparse_contour(field, dom, 4, 2)
        assert str(sparse.value) == str(dense.value) == text

    def test_an_infinite_corner_proves_no_sign(self):
        # x + y - 0.97 with keys x and y, and inf past x = 1.5, where y >= 0
        # keeps it positive: the corners of a block there are positive, but
        # some are inf, which proves nothing, so the block is sampled and the
        # first inf is named as the sampled grid names it
        def field(x, y):
            return np.where(x > 1.5, np.inf, x + y - 0.97)

        field.keys = Keys(lambda x: x, lambda kx, ky: kx + ky + 1.0)
        dom = Domain2D(-2, 2, 0, 2, 40, 40)
        with pytest.raises(ValueError) as dense:
            sample_grid2d(field, dom)
        with pytest.raises(ValueError) as sparse:
            sparse_contour(field, dom, 4, 1)
        assert str(sparse.value) == str(dense.value)

    @settings(max_examples=100, deadline=None)
    @given(spec=KEYED_SPECS, n=st.integers(12, 64), tiles=st.integers(1, 3),
           shift=st.tuples(*2 * [st.one_of(st.just(0.0), st.floats(-0.5, 0.5))]), block=st.integers(2, 5),
           blocks=st.integers(1, 4), workers=st.integers(1, 3))
    # a band of two layers, and one of three whose lattice has exact zeros
    @example(spec=ShapeSpec2D("lame", p=2.0), n=40, tiles=1, shift=(0.0, 0.0), block=4, blocks=4, workers=2)
    @example(spec=ShapeSpec2D("lame", p=1.0), n=24, tiles=2, shift=(0.0, 0.0), block=3, blocks=2, workers=3)
    def test_bands_of_block_layers_match_sampled_grid(self, spec, n, tiles, shift, block, blocks, workers):
        # bands of at most `blocks` blocks' samples: where the layers hold
        # few unproven blocks a band spans several and ends mid-lattice; the
        # bands pooled on `workers` threads, exact zeros included. The
        # lattice, of more than SLAB_SAMPLES = cap samples, takes the route.
        field, dom = make_field2d(spec), shifted_domain(spec, n, tiles, shift)
        cap = blocks * (block + 1) ** 2
        bounds, sparse, mesh_bands = [], contour2d._sparse_bands, contour2d._mesh_bands
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour2d, "BLOCK_CELLS", block)
            mp.setattr(contour2d, "SLAB_SAMPLES", cap)
            mp.setattr(contour2d, "BAND_SAMPLES", (block + 1) ** 2)
            mp.setattr(contour2d, "POOL_MIN_BANDS", 0)
            mp.setattr(contour2d, "_sparse_bands", lambda *a: sparse(*a[:5], workers, *a[6:]))
            mp.setattr(contour2d, "_mesh_bands", lambda *a, **k: bounds.append(a[1]) or mesh_bands(*a, **k))
            got = contour(field, dom)
        assert (n + 1) ** 2 > cap and len(bounds) == 1  # the route's, not the band kernel's
        assert_same_as_sampled_grid(got, field, dom)
        signs = contour2d._certify(field, field.keys, dom.axes(), block)[0]
        assert_bands_of_block_layers(list(bounds[0]), signs, block, cap, n)

    @pytest.mark.parametrize("family, kw, tiles", [
        ("lame", dict(p=4.5), 1), ("periodic", dict(s=0.78), 3), ("oblique", dict(s=0.77), 3),
        ("oblique", dict(s=1.0), 2)])
    def test_peak_memory_below_a_quarter_of_the_grid(self, family, kw, tiles):
        # the sampled grid alone is 2049^2 float64 samples, 33.6 MB; the
        # route holds one band at a time on the calling thread, whatever
        # the workers, exact zeros (s = 1) included, where two pooled dense
        # slabs would peak near 0.32 of the grid
        spec = ShapeSpec2D(family, **kw)
        field, dom = make_field2d(spec), default_domain2d(spec, 2048, tiles)
        tracemalloc.start()
        try:
            contour(field, dom, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 2049**2 * 8

    def test_fields_without_keys_and_small_lattices_stay_dense(self, monkeypatch):
        called = []
        monkeypatch.setattr(contour2d, "_sparse_bands", lambda *args: called.append(args))
        spec = ShapeSpec2D("lame", p=3.0)
        big = default_domain2d(spec, 724, 1)
        assert (big.nx + 1) * (big.ny + 1) > contour2d.SLAB_SAMPLES
        contour(make_field2d(ShapeSpec2D("phase_grid")), big)
        contour(circle_field, big)
        contour(make_field2d(spec), default_domain2d(spec, 723, 1))
        marching_squares(sample_grid2d(make_field2d(spec), big))
        assert not called
        contour(make_field2d(spec), big)
        assert len(called) == 1


def test_a_loop_the_weld_shrinks_to_two_points_is_dropped():
    # a lone outside zero far from the origin: its four crossings round onto
    # it but one, so two of the four segments are flat, and the other two
    # join the same two points
    samples = np.full((6, 4), -2.0)
    samples[4, 2] = -0.0
    assert marching_squares(Grid2D(Domain2D(2048.0, 2049.0, 4096.0, 4097.0, 3, 5), samples)) == []
