"""Voxel sampling and marching-cubes polygonization.

Mesh vertices live on global grid edges and are welded by edge identity, so
adjacent cells share vertices exactly and the output is byte-deterministic
regardless of how the sampling work is partitioned. The vertex order is a
contract: every x-edge crossing in (k, j, i) lattice order, then every y-edge
crossing, then every z-edge crossing. The triangles use every crossing, so
compacting to the used ids drops none. Extraction visits only the active
cells (corners of both signs) and the crossing edges; it builds no per-edge
id volume and never writes to the samples. The cell codes and the edge
kernel are shared with marching squares (`contour2d`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour2d import _active_cells, _crossing_vertices, _sample_banded
from .mc_tables import TRI_TABLE


@dataclass(frozen=True)
class Domain3D:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    zmin: float
    zmax: float
    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin and self.zmax > self.zmin):
            raise ValueError("domain bounds must satisfy max > min")
        if min(self.nx, self.ny, self.nz) < 2:
            raise ValueError(
                f"cell counts must be >= 2, got nx={self.nx}, ny={self.ny}, nz={self.nz}"
            )

    @property
    def dx(self):
        return (self.xmax - self.xmin) / self.nx

    @property
    def dy(self):
        return (self.ymax - self.ymin) / self.ny

    @property
    def dz(self):
        return (self.zmax - self.zmin) / self.nz

    def xs(self):
        return self.xmin + self.dx * np.arange(self.nx + 1)

    def ys(self):
        return self.ymin + self.dy * np.arange(self.ny + 1)

    def zs(self):
        return self.zmin + self.dz * np.arange(self.nz + 1)


@dataclass
class Grid3D:
    """Field samples over the lattice, flattened x-fastest."""

    domain: Domain3D
    samples: np.ndarray

    def __post_init__(self):
        d = self.domain
        expected = (d.nx + 1) * (d.ny + 1) * (d.nz + 1)
        if self.samples.shape != (expected,):
            raise ValueError(f"expected {expected} samples, got {self.samples.shape}")

    def view3d(self):
        d = self.domain
        return self.samples.reshape(d.nz + 1, d.ny + 1, d.nx + 1)


@dataclass
class TriangleMesh:
    """Indexed triangle mesh with outward (field-increasing side) winding."""

    vertices: np.ndarray  # (n, 3) float
    triangles: np.ndarray  # (m, 3) int

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.triangles) and self.triangles.max() >= len(self.vertices):
            raise ValueError("triangle index out of range")

    @property
    def empty(self):
        return len(self.triangles) == 0


def sample_grid3d(field, domain: Domain3D, workers: int | None = None) -> Grid3D:
    """Evaluate a field on the voxel lattice, partitioned over z-slabs."""
    axes = (domain.xs(), domain.ys(), domain.zs())
    return Grid3D(domain, _sample_banded(field, axes, workers).reshape(-1))


# (dk, dj, di) lattice offset of cell corners 0-7 in mc_tables' numbering
_CORNERS = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1), (1, 1, 0))
# cell edges 0-11 in mc_tables' numbering: the edge's axis (0 = x) and the
# (dk, dj, di) lattice offset of its low end
_SLOTS = (
    (0, (0, 0, 0)), (1, (0, 0, 1)), (0, (0, 1, 0)), (1, (0, 0, 0)),
    (0, (1, 0, 0)), (1, (1, 0, 1)), (0, (1, 1, 0)), (1, (1, 0, 0)),
    (2, (0, 0, 0)), (2, (0, 0, 1)), (2, (0, 1, 1)), (2, (0, 1, 0)),
)
# A cell's sign code is built with corner (dk, dj, di) at bit 4dk + 2dj + di,
# where the table has corner c at bit c. _TRIANGLES is the table re-indexed by
# that code, as (code, triangle, corner) cell edge ids in int8, with each
# triangle's edges reversed so that windings are counterclockwise seen from
# the field-increasing (outside) side.
_CODE_TO_CASE = sum(
    ((np.arange(256) >> (4 * dk + 2 * dj + di)) & 1) << c for c, (dk, dj, di) in enumerate(_CORNERS)
)
_TRIANGLES = TRI_TABLE[_CODE_TO_CASE, :15].reshape(256, 5, 3)[:, :, ::-1].astype(np.int8)


def marching_cubes(grid: Grid3D) -> TriangleMesh:
    """Extract the zero isosurface as a welded, deterministic triangle mesh.

    Classic 256-case tables with linear edge interpolation. Only active cells
    (corners of both signs) are visited and only crossing edges get a vertex:
    the whole-volume passes work on one byte per sample, and no id volume is
    built. Vertex order: every x-edge crossing in (k, j, i) lattice order,
    then every y-edge, then every z-edge crossing; every crossing is used by a
    triangle, so none is compacted away. Triangles follow cell order.
    Exact-zero samples count as outside and are nudged toward positive where
    they end a crossing edge; `grid.samples` is left untouched.
    """
    dom = grid.domain
    vals = grid.view3d()
    # a zero sample is nudged to +ZERO_NUDGE * scale, so it counts as outside
    inside = vals < 0
    cells, code = _active_cells(inside)
    if len(cells) == 0:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    vertices, cell_edge_ids = _crossing_vertices(
        vals, inside, code, _SLOTS, (dom.xs(), dom.ys(), dom.zs()), (dom.dx, dom.dy, dom.dz))

    rows = _TRIANGLES[code]
    valid = rows[:, :, 0] >= 0
    cell_of_tri = np.nonzero(valid)[0]
    triangles = cell_edge_ids[rows[valid], cell_of_tri[:, None]]

    # Sliver triangles from near-node crossings are kept: every cell face is
    # triangulated identically on both sides, which is what keeps the mesh
    # closed, and dropping a sliver would break its neighbor's edge pairing.
    # Each case's triangles use every crossing edge of the cell, so every
    # crossing is a vertex of some triangle and no compaction is needed.
    return TriangleMesh(vertices, triangles)
