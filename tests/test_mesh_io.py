import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from squircles import mesh_io
from squircles.contour2d import BAND_SAMPLES, Domain2D, Polyline, marching_squares, sample_grid2d
from squircles.fields3d import ShapeSpec3D, make_field3d
from squircles.mesh_io import (
    MESH_BAND,
    MeshStats,
    area_below,
    mesh_area,
    mesh_stats,
    write_csv,
    write_obj,
    write_stl,
    write_svg,
)
from squircles.polygonize3d import Domain3D, TriangleMesh, marching_cubes, polygonize, sample_grid3d

TRI = TriangleMesh(
    np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    np.array([[0, 1, 2]]),
)
EMPTY = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))

TET = TriangleMesh(
    np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]),
)


def sphere_mesh(n=64):
    dom = Domain3D(-1.2, 1.2, -1.2, 1.2, -1.2, 1.2, n, n, n)
    return marching_cubes(sample_grid3d(lambda x, y, z: x * x + y * y + z * z - 1.0, dom))


class TestMeshStats:
    def test_single_triangle(self):
        stats = mesh_stats(TRI)
        assert (stats.vertex_count, stats.edge_count, stats.triangle_count) == (3, 3, 1)
        assert stats.euler_characteristic == 1
        assert stats.boundary_edge_count == 3
        assert not stats.watertight
        assert stats.total_area == pytest.approx(0.5)

    def test_tetrahedron(self):
        stats = mesh_stats(TET)
        assert stats.euler_characteristic == 2
        assert stats.watertight

    def test_sphere(self):
        stats = mesh_stats(sphere_mesh())
        assert stats.watertight
        assert stats.euler_characteristic == 2
        assert stats.total_area == pytest.approx(4 * math.pi, rel=1e-2)

    def test_empty(self):
        stats = mesh_stats(EMPTY)
        assert stats.watertight and stats.triangle_count == 0


class TestWriteObj:
    def test_single_triangle_body(self):
        sink = io.BytesIO()
        write_obj(TRI, sink)
        text = sink.getvalue().decode()
        assert "v 0.000000000 0.000000000 0.000000000\n" in text
        assert "v 1.000000000 0.000000000 0.000000000\n" in text
        assert text.endswith("f 1 2 3\n")

    def test_empty_mesh_header_only(self):
        sink = io.BytesIO()
        write_obj(EMPTY, sink)
        lines = sink.getvalue().decode().splitlines()
        assert all(line.startswith("#") for line in lines)

    def test_byte_determinism(self):
        a, b = io.BytesIO(), io.BytesIO()
        mesh = sphere_mesh(24)
        write_obj(mesh, a, comment="x")
        write_obj(mesh, b, comment="x")
        assert a.getvalue() == b.getvalue()


class TestWriteStl:
    def test_empty_mesh_size(self):
        sink = io.BytesIO()
        write_stl(EMPTY, sink)
        assert len(sink.getvalue()) == 84

    def test_single_triangle_size_and_normal(self):
        sink = io.BytesIO()
        write_stl(TRI, sink)
        raw = sink.getvalue()
        assert len(raw) == 84 + 50
        assert struct.unpack_from("<I", raw, 80)[0] == 1
        normal = struct.unpack_from("<3f", raw, 84)
        assert normal == (0.0, 0.0, 1.0)

    def test_byte_determinism(self):
        a, b = io.BytesIO(), io.BytesIO()
        mesh = sphere_mesh(24)
        write_stl(mesh, a)
        write_stl(mesh, b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e21, 1e25, 3e38])
    def test_normals_past_the_float32_product_range(self, scale):
        # a tetrahedron with corners at +-scale, whose float32 edge cross
        # products (and at 3e38 its edges) overflow, then a small one: the
        # first normals are a float64 cross of the same float32 corners, the
        # others the bytes the float32 formula gave
        big = TriangleMesh((2.0 * TET.vertices - 1.0) * scale, TET.triangles)
        small = TriangleMesh(TET.vertices + 2.0, TET.triangles)
        sink, ref = io.BytesIO(), io.BytesIO()
        write_stl(TriangleMesh(np.vstack([big.vertices, small.vertices]),
                               np.vstack([big.triangles, small.triangles + 4])), sink)
        ref_write_stl(small, ref)
        raw = sink.getvalue()
        assert raw[84 + 4 * 50:] == ref.getvalue()[84:]
        corners = np.take(big.vertices.astype("<f4"), big.triangles, axis=0).astype(float)
        want = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        want /= np.linalg.norm(want, axis=1)[:, None]
        record = np.dtype([("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])
        got = np.frombuffer(raw[84:84 + 4 * 50], dtype=record)
        assert np.array_equal(got["n"], want.astype("<f4"))
        assert np.array_equal(got["v"], corners.astype("<f4"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [3.5e38, -1e300, math.inf])
    def test_vertex_past_float32_raises_before_writing(self, value):
        vertices = TET.vertices.copy()
        vertices[2, 1] = value
        sink = io.BytesIO()
        with pytest.raises(ValueError, match=r"^vertex coordinates outside the float32 range of STL, "
                                             r"\[-3\.4028235e\+38, 3\.4028235e\+38\]$"):
            write_stl(TriangleMesh(vertices, TET.triangles), sink)
        assert sink.getvalue() == b""


class TestWriteSvg:
    DOM = Domain2D(-2, 2, -2, 2, 16, 16)

    def test_empty_document(self):
        sink = io.BytesIO()
        write_svg([], self.DOM, sink)
        text = sink.getvalue().decode()
        assert text.startswith("<?xml") and "</svg>" in text
        assert "<path" not in text

    def test_closed_square_path(self):
        square = Polyline(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float), closed=True)
        sink = io.BytesIO()
        write_svg([square], self.DOM, sink)
        text = sink.getvalue().decode()
        assert text.count("<path") == 1
        assert text.count(" L ") == 3 and '" Z"' not in text and "Z" in text

    def test_circle_bounding_box(self):
        dom = Domain2D(-2, 2, -2, 2, 128, 128)
        polylines = marching_squares(
            sample_grid2d(lambda x, y: x * x + y * y - 1.0, dom)
        )
        pts = np.vstack([pl.points for pl in polylines])
        delta = max(dom.dx, dom.dy)
        assert np.abs(pts).max() <= 1.0 + delta


class TestWriteCsv:
    def test_rows(self):
        pl = Polyline(np.array([[0.0, 0.0], [1.0, 0.5]]), closed=False)
        sink = io.BytesIO()
        write_csv([pl], sink)
        lines = sink.getvalue().decode().splitlines()
        assert lines[0] == "polyline_id,point_index,x,y,closed"
        assert lines[1] == "0,0,0.000000000,0.000000000,false"
        assert lines[2] == "0,1,1.000000000,0.500000000,false"


# ---------------------------------------------------------------- references
# Per-value "{:.9f}".format writers and an np.unique(axis=0) edge count, kept
# here as independent references for the word-table writers and the packed
# edge keys of mesh_io.

_F = "{:.9f}"


def ref_obj(mesh, comment):
    lines = ["# squircles mesh export\n", f"# shape: {comment}\n"]
    for x, y, z in mesh.vertices:
        lines.append(f"v {_F.format(x)} {_F.format(y)} {_F.format(z)}\n")
    for a, b, c in mesh.triangles:
        lines.append(f"f {a + 1} {b + 1} {c + 1}\n")
    return "".join(lines).encode("utf-8")


def ref_svg_paths(polylines, domain):
    flip = domain.ymin + domain.ymax
    paths = []
    for pl in polylines:
        cmds = [f"{'M' if i == 0 else 'L'} {_F.format(x)} {_F.format(flip - y)}" for i, (x, y) in enumerate(pl.points)]
        paths.append(" ".join(cmds + ["Z"] * pl.closed))
    return paths


def ref_csv(polylines):
    rows = ["polyline_id,point_index,x,y,closed\n"]
    for pid, pl in enumerate(polylines):
        flag = "true" if pl.closed else "false"
        rows += [f"{pid},{i},{_F.format(x)},{_F.format(y)},{flag}\n" for i, (x, y) in enumerate(pl.points)]
    return "".join(rows).encode("utf-8")


def ref_stats(mesh):
    v, t = len(mesh.vertices), len(mesh.triangles)
    if t == 0:
        return MeshStats(v, 0, 0, v, v == 0, 0, 0.0)
    pairs = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, counts = np.unique(pairs, axis=0, return_counts=True)
    boundary = int((counts == 1).sum())
    return MeshStats(v, len(edges), t, v - len(edges) + t, boundary == 0 and bool((counts == 2).all()),
                     boundary, ref_mesh_area(mesh))


# -0.0, values that print as +-0.000000000, values >= 1e12 and everything else
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 4e-10, -4e-10, 5e-10, -5e-10, 6e-10, -6e-10, 1e-300,
                               0.0000000005000001, 1e12, -1e12, 123456789012.3456789, 1e17, -2.5e22])
COORDS = st.one_of(EDGE_FLOATS, st.floats(-1e300, 1e300))


@st.composite
def meshes(draw, coords=COORDS, max_vertices=12):
    n = draw(st.integers(0, max_vertices))
    vertices = draw(hnp.arrays(np.float64, (n, 3), elements=coords))
    m = draw(st.integers(0, 20)) if n else 0
    triangles = draw(hnp.arrays(np.int64, (m, 3), elements=st.integers(0, max(n - 1, 0))))
    return TriangleMesh(vertices, triangles)


@st.composite
def polyline_lists(draw, coords=COORDS):
    out = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(2, 12))
        out.append(Polyline(draw(hnp.arrays(np.float64, (n, 2), elements=coords)), draw(st.booleans())))
    return out


class TestWholeArrayWriters:
    @given(meshes(), st.text(max_size=8))
    def test_obj_matches_per_value_format(self, mesh, comment):
        sink = io.BytesIO()
        write_obj(mesh, sink, comment=comment)
        assert sink.getvalue() == ref_obj(mesh, comment)

    # a y range whose 16 cell sizes are finite and positive, as Domain2D requires
    @given(polyline_lists(), st.lists(COORDS, min_size=2, max_size=2, unique=True).map(sorted)
           .filter(lambda ys: 0 < (ys[1] - ys[0]) / 16 < math.inf))
    def test_svg_matches_per_value_format(self, polylines, ys):
        domain = Domain2D(-2.0, 2.0, *ys, 16, 16)
        sink = io.BytesIO()
        write_svg(polylines, domain, sink)
        text = sink.getvalue().decode()
        assert [p.split('"')[0] for p in text.split('<path d="')[1:]] == ref_svg_paths(polylines, domain)

    @given(polyline_lists())
    def test_csv_matches_per_value_format(self, polylines):
        sink = io.BytesIO()
        write_csv(polylines, sink)
        assert sink.getvalue() == ref_csv(polylines)

    def test_empty_inputs(self):
        for mesh in (EMPTY, TriangleMesh(np.array([[-0.0, 4e-10, 1e12]]), np.zeros((0, 3), dtype=np.int64))):
            sink = io.BytesIO()
            write_obj(mesh, sink, comment="e")
            assert sink.getvalue() == ref_obj(mesh, "e")
        sink = io.BytesIO()
        write_csv([], sink)
        assert sink.getvalue() == ref_csv([])
        sink = io.BytesIO()
        write_svg([], Domain2D(-1, 1, -1, 1, 8, 8), sink)
        assert sink.getvalue().endswith(b'">\n</svg>\n')

    def test_signed_zero_and_large_values(self):
        sink = io.BytesIO()
        write_obj(TriangleMesh(np.array([[-0.0, -4e-10, 1e12]]), np.zeros((0, 3), dtype=np.int64)), sink)
        assert sink.getvalue().endswith(b"v -0.000000000 -0.000000000 1000000000000.000000000\n")


class TestPackedEdgeStats:
    @given(meshes(coords=st.floats(-1e3, 1e3)))
    def test_matches_unique_rows(self, mesh):
        assert mesh_stats(mesh) == ref_stats(mesh)

    @given(meshes(coords=st.floats(-1e3, 1e3)))
    def test_area_is_stats_area(self, mesh):
        assert mesh_area(mesh) == mesh_stats(mesh).total_area

    def test_closed_and_non_manifold_meshes(self):
        # edges 0-1 and 1-2 are shared by three faces, 0-3 and 2-3 by one
        fan = TriangleMesh(np.eye(4, 3), np.array([[0, 1, 2], [0, 1, 3], [1, 0, 2], [3, 2, 1]]))
        for mesh in (TET, TRI, EMPTY, sphere_mesh(24), fan):
            assert mesh_stats(mesh) == ref_stats(mesh)
            assert mesh_area(mesh) == mesh_stats(mesh).total_area
        stats = mesh_stats(fan)
        assert (stats.edge_count, stats.boundary_edge_count, stats.watertight) == (6, 2, False)


# ------------------------------------------------------- the word-table kernel
# The writers round x * 1e9 with np.rint and settle exact half-integer
# products by the sign of the product's rounding error; values that are not
# finite or have |x * 1e9| >= 2**52 go to "%.9f" one by one. These strategies
# aim at each of those branches.

_LIMIT = 2.0**52 / 1e9


def _neighbours(x):
    return st.sampled_from([x, float(np.nextafter(x, math.inf)), float(np.nextafter(x, -math.inf))])


# k / 2**m is an exact tie of the 9th decimal for many k once m >= 10
DYADIC = st.builds(lambda k, m: k / 2.0**m, st.integers(-2**40, 2**40), st.integers(10, 40)).flatmap(_neighbours)
CARRIES = st.sampled_from([999.9999999995, 0.9999999995, 9.9999999995, 99999.9999999995, 0.0000000005,
                           1.0000000005, 0.0000000015, 0.0000000025, 2.5e-9, 4503599.6274999995]).flatmap(
    lambda x: _neighbours(x).flatmap(lambda v: st.sampled_from([v, -v])))
ZEROS = st.sampled_from([0.0, -0.0, -1e-300, -5e-324, 5e-324, -4.9e-10, -1e-12, 1e-12])
NON_FINITE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])
NEAR_LIMIT = st.floats(0.999999 * _LIMIT, 1.000001 * _LIMIT).flatmap(lambda v: st.sampled_from([v, -v]))
KERNEL_FLOATS = st.one_of(st.floats(-1e3, 1e3), DYADIC, CARRIES, ZEROS, NON_FINITE, NEAR_LIMIT,
                          st.sampled_from([_LIMIT, -_LIMIT]).flatmap(_neighbours))
# face ids at the edges of 3-digit groups, plus large and (for an invalid
# mesh) negative int64 values
FACE_IDS = st.one_of(
    st.sampled_from([1, 9, 10, 99, 100, 999, 1000, 1001, 999999, 10**6, 10**6 + 1, 10**9 - 1, 10**9,
                     2**32 - 1, 2**32, 2**63 - 1, -1, -999, -1000, -2**63 + 1]),
    st.integers(1, 2**63 - 1), st.integers(-2**63 + 1, 2**63 - 1))


def _with_face_ids(ids):
    # TriangleMesh only checks the largest index against the vertex count, and
    # the writer reads nothing else, so large ids skip building the vertices
    mesh = TriangleMesh(np.zeros((1, 3)), np.zeros((0, 3), dtype=np.int64))
    mesh.triangles = np.asarray(ids, dtype=np.int64).reshape(-1, 3) - 1
    return mesh


# whole-mesh mesh_area and write_stl, kept as references for the banded ones
def ref_mesh_area(mesh):
    tri = mesh.vertices[mesh.triangles]
    return float(0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1).sum())


def ref_write_stl(mesh, sink, comment=""):
    header = f"squircles mesh export {comment}".encode("utf-8")[:80]
    sink.write(header.ljust(80, b"\0"))
    sink.write(struct.pack("<I", len(mesh.triangles)))
    if mesh.empty:
        return
    tri = mesh.vertices[mesh.triangles].astype("<f4")
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]).astype("<f8")
    lengths = np.linalg.norm(normals, axis=1)
    lengths[lengths == 0] = 1.0
    normals = (normals / lengths[:, None]).astype("<f4")
    record = np.zeros(len(tri), dtype=np.dtype([("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")]))
    record["n"] = normals
    record["v"] = tri
    sink.write(record.tobytes())


def banded_mesh(seed=0):
    """A mesh of 2.5 bands of triangles, some of zero area (repeated corners)."""
    rng = np.random.default_rng(seed)
    vertices = rng.uniform(-2.0, 2.0, (5000, 3))
    triangles = rng.integers(0, len(vertices), (BAND_SAMPLES * 5 // 2, 3))
    triangles[::7, 2] = triangles[::7, 0]
    triangles[::11, 1:] = triangles[::11, :1]
    return TriangleMesh(vertices, triangles)


class _NullSink:
    def write(self, data):
        return memoryview(data).nbytes


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWordTableKernel:
    @settings(max_examples=300, deadline=None)
    @given(meshes(coords=KERNEL_FLOATS), st.text(max_size=4))
    def test_obj_vertices(self, mesh, comment):
        sink = io.BytesIO()
        write_obj(mesh, sink, comment=comment)
        assert sink.getvalue() == ref_obj(mesh, comment)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(FACE_IDS, max_size=30).map(lambda ids: ids[:len(ids) // 3 * 3]))
    def test_obj_face_ids(self, ids):
        mesh = _with_face_ids(ids)
        sink = io.BytesIO()
        write_obj(mesh, sink)
        assert sink.getvalue() == ref_obj(mesh, "")

    @settings(max_examples=200, deadline=None)
    @given(polyline_lists(coords=KERNEL_FLOATS))
    def test_svg_paths(self, polylines):
        # ymin + ymax = 0, so the flipped y of a tie is still a tie
        domain = Domain2D(-2.0, 2.0, -1.0, 1.0, 16, 16)
        sink = io.BytesIO()
        write_svg(polylines, domain, sink)
        text = sink.getvalue().decode()
        assert [p.split('"')[0] for p in text.split('<path d="')[1:]] == ref_svg_paths(polylines, domain)

    @settings(max_examples=200, deadline=None)
    @given(polyline_lists(coords=KERNEL_FLOATS))
    def test_csv_rows(self, polylines):
        sink = io.BytesIO()
        write_csv(polylines, sink)
        assert sink.getvalue() == ref_csv(polylines)

    @staticmethod
    def _obj_lines(rows):
        sink = io.BytesIO()
        write_obj(TriangleMesh(np.array(rows, dtype=float), np.zeros((0, 3), dtype=np.int64)), sink)
        return sink.getvalue()

    def test_ties_and_carries(self):
        # k / 2**10 * 1e9 = k * 5**9 / 2, so the 9th decimal of every odd k is
        # an exact tie; with both neighbours, which are not
        base = np.arange(-3 * 2**11, 3 * 2**11) / 2.0**10
        rows = np.concatenate([base, np.nextafter(base, math.inf), np.nextafter(base, -math.inf)]).reshape(-1, 3)
        text = self._obj_lines(rows)
        assert text == ref_obj(TriangleMesh(rows, np.zeros((0, 3), dtype=np.int64)), "")
        # 2929687.5 and 976562.5 both round to even, one up and one down
        assert b"v -0.002929688 -0.001953125 -0.000976562\n" in text
        # a carry out of the fraction adds an integer digit
        assert self._obj_lines([[999.9999999995, -99.9999999999, 9.99999999951]]).endswith(
            b"v 1000.000000000 -100.000000000 10.000000000\n")

    def test_fallback_values_spliced_in_order(self):
        rows = [[math.nan, -math.inf, 1e300], [-0.0, _LIMIT, -1e-12], [math.inf, 2.5e-9, -2.5e-9]]
        assert self._obj_lines(rows).split(b"\n")[2:5] == [
            b"v nan -inf " + b"%.9f" % 1e300,
            b"v -0.000000000 " + b"%.9f" % _LIMIT + b" -0.000000000",
            b"v inf " + b"%.9f %.9f" % (2.5e-9, -2.5e-9),
        ]


    def test_obj_bands_match_reference(self):
        # 2.5 bands of vertices and faces; the first band has no negative
        # value and small integer parts, the next ones negatives, a fallback
        # value and a tie on each side of the band boundary
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.0, 2.0, (MESH_BAND * 5 // 2, 3))
        rows[MESH_BAND:] -= 4.0
        rows[MESH_BAND - 1] = [1234567.25, 0.0009765625, 3.0]
        rows[MESH_BAND] = [math.nan, -1e300, -0.0009765625]
        rows[-1] = [-0.0, _LIMIT, 5e5]
        faces = rng.integers(0, len(rows), (MESH_BAND * 5 // 2, 3))
        faces[MESH_BAND] = len(rows) - 1
        mesh = TriangleMesh(rows, faces)
        sink = io.BytesIO()
        write_obj(mesh, sink, comment="bands")
        assert sink.getvalue() == ref_obj(mesh, "bands")


class TestBandedAreaAndStl:
    def test_area_matches_reference(self):
        for mesh in (banded_mesh(0), banded_mesh(1), sphere_mesh(24), TRI, EMPTY):
            assert mesh_area(mesh) == ref_mesh_area(mesh)

    def test_stl_matches_reference(self):
        for mesh in (banded_mesh(0), sphere_mesh(24), TRI, EMPTY):
            a, b = io.BytesIO(), io.BytesIO()
            write_stl(mesh, a, comment="c")
            ref_write_stl(mesh, b, comment="c")
            assert a.getvalue() == b.getvalue()

    def test_peak_memory_is_banded(self):
        # 5 * BAND_SAMPLES triangles; measured 8.5 MB (area) and 3.0 MB (stl)
        # in bands of MESH_BAND rows against 131 MB and 102 MB for the
        # whole-mesh references
        rng = np.random.default_rng(3)
        mesh = TriangleMesh(rng.uniform(-1, 1, (1000, 3)), rng.integers(0, 1000, (5 * BAND_SAMPLES, 3)))
        assert _peak(lambda: mesh_area(mesh)) <= 0.4 * _peak(lambda: ref_mesh_area(mesh))
        assert _peak(lambda: write_stl(mesh, _NullSink())) <= 0.4 * _peak(lambda: ref_write_stl(mesh, _NullSink()))


# ------------------------------------------------------------ the area floor
# area_below(mesh, floor) must equal mesh_area(mesh) < floor, though it stops
# at the first band whose largest triangle alone reaches the floor.


@st.composite
def floor_cases(draw):
    """(mesh, floor, band rows): slivers or zero-area triangles, at most one
    large triangle anywhere (the last one included), and a floor at or next to
    the mesh's area, its largest triangle's area, or zero."""
    n = draw(st.integers(0, 24))
    # sliver thickness; 0 keeps every corner on the x axis, so every area is 0
    scale = draw(st.sampled_from([0.0, 1e-300, 1e-150, 1e-12, 1e-6]))
    along = draw(hnp.arrays(np.float64, (3 * n, 1), elements=st.floats(-1.0, 1.0)))
    across = draw(hnp.arrays(np.float64, (3 * n, 2), elements=st.floats(-1.0, 1.0))) * scale
    vertices = np.hstack([along, across])
    if n and draw(st.booleans()):
        at = draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
        vertices[3 * at:3 * at + 3] = np.eye(3) * draw(st.floats(1e-9, 1e3))
    mesh = TriangleMesh(vertices, np.arange(3 * n).reshape(n, 3))
    tri = vertices[mesh.triangles]
    halves = 0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    anchor = draw(st.sampled_from([ref_mesh_area(mesh), float(halves.max()) if n else 0.0, 0.0]))
    floor = draw(_neighbours(anchor).filter(lambda f: f >= 0.0))
    return mesh, floor, draw(st.sampled_from([1, 2, 3, 5, MESH_BAND]))


class TestAreaFloor:
    @settings(max_examples=400, deadline=None)
    @given(floor_cases())
    def test_matches_summed_area(self, case):
        mesh, floor, band = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesh_io, "MESH_BAND", band)
            assert area_below(mesh, floor) == (mesh_area(mesh) < floor)

    def test_fixed_cases(self):
        slivers = TriangleMesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-12, 0.0]]),
                               np.zeros((6, 3), dtype=np.int64) + [0, 1, 2])
        area = mesh_area(slivers)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesh_io, "MESH_BAND", 2)
            # six slivers of 5e-13 each: no band proves 1e-12, their sum does
            assert not area_below(slivers, 1e-12)
            assert area_below(slivers, np.nextafter(area, math.inf))
            assert not area_below(slivers, area)
        assert area_below(EMPTY, 1e-300)
        assert not area_below(EMPTY, 0.0)
        assert not area_below(TRI, 0.5) and area_below(TRI, np.nextafter(0.5, 1.0))

    def test_sphube_reads_one_band(self):
        domain = Domain3D(-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 64, 64, 64)
        mesh = polygonize(make_field3d(ShapeSpec3D("sphube", s=0.75)), domain)
        assert len(mesh.triangles) > 2 * MESH_BAND
        seen = []  # the first row of each band the shared norm helper reads
        band_norms = mesh_io._band_norms

        def counted(mesh, lo):
            seen.append(lo)
            return band_norms(mesh, lo)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesh_io, "_band_norms", counted)
            assert not area_below(mesh, 1e-9 * domain.dx * domain.dy)
        assert seen == [0]
