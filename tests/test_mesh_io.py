import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from squircles.contour2d import Domain2D, Polyline, marching_squares, sample_grid2d
from squircles.mesh_io import MeshStats, mesh_area, mesh_stats, write_csv, write_obj, write_stl, write_svg
from squircles.polygonize3d import Domain3D, TriangleMesh, marching_cubes, sample_grid3d

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
# here as independent references for the whole-array writers and the packed
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
    tri = mesh.vertices[mesh.triangles]
    area = float(0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1).sum())
    return MeshStats(v, len(edges), t, v - len(edges) + t, boundary == 0 and bool((counts == 2).all()),
                     boundary, area)


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
def polyline_lists(draw):
    out = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(2, 12))
        out.append(Polyline(draw(hnp.arrays(np.float64, (n, 2), elements=COORDS)), draw(st.booleans())))
    return out


class TestWholeArrayWriters:
    @given(meshes(), st.text(max_size=8))
    def test_obj_matches_per_value_format(self, mesh, comment):
        sink = io.BytesIO()
        write_obj(mesh, sink, comment=comment)
        assert sink.getvalue() == ref_obj(mesh, comment)

    @given(polyline_lists(), st.lists(COORDS, min_size=2, max_size=2, unique=True).map(sorted))
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
