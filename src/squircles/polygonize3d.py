"""Voxel sampling and marching-cubes polygonization.

Mesh vertices live on global grid edges and are welded by edge identity, so
adjacent cells share vertices exactly and the output is byte-deterministic
regardless of how the sampling work is partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour2d import ZERO_NUDGE, _sample_banded
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


def csg_intersect(a, b):
    """Pointwise maximum of two inside-negative fields (solid intersection)."""

    def field(x, y, z):
        return np.maximum(a(x, y, z), b(x, y, z))

    return field


def sample_grid3d(field, domain: Domain3D, workers: int | None = None) -> Grid3D:
    """Evaluate a field on the voxel lattice, partitioned over z-slabs."""
    axes = (domain.xs(), domain.ys(), domain.zs())
    return Grid3D(domain, _sample_banded(field, axes, workers).reshape(-1))


def _edge_vertices(vals, lo_axis_coords, axis):
    """Interpolated crossing positions and an id volume for one edge axis."""
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


def marching_cubes(grid: Grid3D) -> TriangleMesh:
    """Extract the zero isosurface as a welded, deterministic triangle mesh.

    Classic 256-case tables with linear edge interpolation; exact-zero samples
    are nudged toward positive first and unused vertices are compacted.
    """
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
    xpts, xid = _edge_vertices(vals, coords, axis=0)
    ypts, yid = _edge_vertices(vals, coords, axis=1)
    zpts, zid = _edge_vertices(vals, coords, axis=2)
    yid = np.where(yid >= 0, yid + len(xpts), -1)
    zid = np.where(zid >= 0, zid + len(xpts) + len(ypts), -1)
    vertices = np.concatenate([xpts, ypts, zpts]) if len(xpts) + len(ypts) + len(zpts) else np.zeros((0, 3))

    kk, jj, ii = np.nonzero(TRI_TABLE[case, 0] >= 0)
    if len(kk) == 0:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))

    # global vertex id carried by each of the 12 cell edges
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
    # reverse the table order so windings are counterclockwise seen from the
    # field-increasing (outside) side
    triangles = cell_edge_ids[cell_of_tri[:, None], tri_edges[:, ::-1]]

    # sliver triangles from near-node crossings are kept: every cell face is
    # triangulated identically on both sides, which is what keeps the mesh
    # closed, and dropping a sliver would break its neighbor's edge pairing
    used = np.unique(triangles)
    remap = np.full(len(vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriangleMesh(vertices[used], remap[triangles])
