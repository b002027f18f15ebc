"""Serialization of polylines and meshes, plus mesh diagnostics.

All writers are byte-deterministic: fixed 9-fractional-digit text formatting,
fixed attribute order, little-endian binary STL. The text writers format a
whole array with one `%` operation; `%.9f` on a Python float gives the same
bytes as `"{:.9f}".format`, so every coordinate is still written with exactly
9 fractional digits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .contour2d import Domain2D, Polyline
from .polygonize3d import TriangleMesh

_FMT = "{:.9f}"


@dataclass(frozen=True)
class MeshStats:
    vertex_count: int
    edge_count: int
    triangle_count: int
    euler_characteristic: int
    watertight: bool
    boundary_edge_count: int
    total_area: float


def mesh_area(mesh: TriangleMesh) -> float:
    """Summed triangle area, without the edge counting of `mesh_stats`."""
    tri = mesh.vertices[mesh.triangles]
    return float(0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1).sum())


def mesh_stats(mesh: TriangleMesh) -> MeshStats:
    """Count vertices/undirected edges/faces and sum triangle areas."""
    v_count = len(mesh.vertices)
    t_count = len(mesh.triangles)
    if t_count == 0:
        return MeshStats(v_count, 0, 0, v_count, v_count == 0, 0, 0.0)
    a, b = mesh.triangles, mesh.triangles[:, [1, 2, 0]]
    # one int64 key lo * v_count + hi per undirected edge, counted by a 1-D sort
    _, counts = np.unique(np.minimum(a, b) * v_count + np.maximum(a, b), return_counts=True)
    boundary = int((counts == 1).sum())
    watertight = boundary == 0 and bool((counts == 2).all())
    return MeshStats(
        vertex_count=v_count,
        edge_count=len(counts),
        triangle_count=t_count,
        euler_characteristic=v_count - len(counts) + t_count,
        watertight=watertight,
        boundary_edge_count=boundary,
        total_area=mesh_area(mesh),
    )


def write_obj(mesh: TriangleMesh, sink, comment: str = "") -> None:
    """Plain-text OBJ: 9-digit vertex lines, 1-based face indices."""
    sink.write(f"# squircles mesh export\n# shape: {comment}\n".encode("utf-8"))
    sink.write((("v %.9f %.9f %.9f\n" * len(mesh.vertices)) % tuple(mesh.vertices.ravel().tolist())).encode())
    sink.write((("f %d %d %d\n" * len(mesh.triangles)) % tuple((mesh.triangles + 1).ravel().tolist())).encode())


def write_stl(mesh: TriangleMesh, sink, comment: str = "") -> None:
    """Binary STL: 80-byte header, u32 count, 50 bytes per triangle."""
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


def write_svg(polylines: list[Polyline], domain: Domain2D, sink, stroke_width: float | None = None) -> None:
    """SVG 1.1 subset: one stroked path per polyline, y flipped to screen space."""
    w = domain.xmax - domain.xmin
    h = domain.ymax - domain.ymin
    if stroke_width is None:
        stroke_width = max(w, h) / 400.0
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_FMT.format(domain.xmin)} {_FMT.format(domain.ymin)} {_FMT.format(w)} {_FMT.format(h)}" '
        f'width="640" height="{_FMT.format(640.0 * h / w)}">\n',
    ]
    flip = domain.ymin + domain.ymax
    for pl in polylines:
        # a Polyline holds at least 2 points
        cmds = "M %.9f %.9f" + " L %.9f %.9f" * (len(pl.points) - 1) + (" Z" if pl.closed else "")
        xy = np.column_stack((pl.points[:, 0], flip - pl.points[:, 1]))
        out.append(
            f'<path d="{cmds % tuple(xy.ravel().tolist())}" fill="none" stroke="black" '
            f'stroke-width="{_FMT.format(stroke_width)}"/>\n'
        )
    out.append("</svg>\n")
    sink.write("".join(out).encode("utf-8"))


def write_csv(polylines: list[Polyline], sink) -> None:
    """CSV columns polyline_id, point_index, x, y, closed with a header row."""
    rows = ["polyline_id,point_index,x,y,closed\n"]
    for pid, pl in enumerate(polylines):
        flag = "true" if pl.closed else "false"
        # the point index rides along as an exact float64 and prints through %d
        cols = np.column_stack((np.arange(len(pl.points), dtype=float), pl.points))
        rows.append((f"{pid},%d,%.9f,%.9f,{flag}\n" * len(cols)) % tuple(cols.ravel().tolist()))
    sink.write("".join(rows).encode("utf-8"))
