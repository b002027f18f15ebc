"""Voxel sampling and marching-cubes polygonization.

Mesh vertices live on global grid edges and are welded by edge identity, so
adjacent cells share vertices exactly and the output is byte-deterministic
regardless of how the work is partitioned. The vertex order is a contract:
every x-edge crossing in (k, j, i) lattice order, then every y-edge crossing,
then every z-edge crossing. The triangles use every crossing, so compacting
to the used ids drops none. Extraction visits only the active cells (corners
of both signs) and the crossing edges; it builds no per-edge id volume and
never writes to the samples.

Extraction is the band kernel of marching squares (`contour2d._mesh_bands`)
over z-slabs of cell layers, with the marching-cubes table as its cases.
`polygonize` samples each slab as it goes (`contour2d._slab_loader`, which
`contour2d.contour` shares), so the whole (nx+1)(ny+1)(nz+1) volume is never
held; `marching_cubes` runs the same slabs over views of a sampled grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour2d import _mesh_bands, _require_finite, _sample_banded, _slab_bounds, _slab_loader
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
        if not all(0 < d < math.inf for d in (self.dx, self.dy, self.dz)):
            raise ValueError(
                f"cell sizes must be finite and positive, got dx={self.dx}, dy={self.dy}, dz={self.dz}"
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
        tri = self.triangles
        if len(tri) and (tri.min() < 0 or tri.max() >= len(self.vertices)):
            raise ValueError("triangle index out of range")

    @property
    def empty(self):
        return len(self.triangles) == 0


def sample_grid3d(field, domain: Domain3D, workers: int | None = None) -> Grid3D:
    """Evaluate a field on the whole voxel lattice, in bands of z-planes.
    `polygonize` meshes a field without holding this volume."""
    axes = (domain.xs(), domain.ys(), domain.zs())
    vals, top, bottom = _sample_banded(field, axes, workers)
    _require_finite(vals, axes, top, bottom)
    return Grid3D(domain, vals.reshape(-1))


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


def _cell_triangles(k0, cells, code):
    """The band kernel's cases: the triangles of each active cell as rows of
    cell edge slots, padded with -1.

    Sliver triangles from near-node crossings are kept: every cell face is
    triangulated identically on both sides, which is what keeps the mesh
    closed, and dropping a sliver would break its neighbor's edge pairing.
    Each case's triangles use every crossing edge of the cell, so every
    crossing is a vertex of some triangle and no compaction is needed.
    """
    return _TRIANGLES[code]


def polygonize(field, domain: Domain3D, workers: int | None = None) -> TriangleMesh:
    """Mesh the zero isosurface of a field: `marching_cubes` of
    `sample_grid3d`, byte for byte, without holding the sampled volume.

    This is the band kernel (`contour2d._mesh_bands`) over the slabs of
    `contour2d._slab_bounds`, sampled by `contour2d._slab_loader` as they
    start, one run of slabs per thread (`workers`, default
    `contour2d.default_workers()`); a slab takes its bottom plane from the
    slab below in its run. A non-finite sample raises the ValueError
    `sample_grid3d` raises.
    """
    axes = (domain.xs(), domain.ys(), domain.zs())
    steps = (domain.dx, domain.dy, domain.dz)
    return TriangleMesh(*_mesh_bands(_slab_loader(field, axes), _slab_bounds(axes), axes, steps, _SLOTS,
                                     _cell_triangles, workers))


def marching_cubes(grid: Grid3D) -> TriangleMesh:
    """Extract the zero isosurface as a welded, deterministic triangle mesh.

    Classic 256-case tables with linear edge interpolation. Only active cells
    (corners of both signs) are visited and only crossing edges get a vertex:
    the per-slab passes work on one byte per sample, and no id volume is
    built. Vertex order: every x-edge crossing in (k, j, i) lattice order,
    then every y-edge, then every z-edge crossing; every crossing is used by a
    triangle, so none is compacted away. Triangles follow cell order.
    Exact-zero samples count as outside and are nudged toward positive (by
    ZERO_NUDGE times the grid's largest |sample|) where they end a crossing
    edge; `grid.samples` is left untouched.

    This is the band kernel of `polygonize` and `marching_squares`, run over
    views of the samples: slabs of at most `contour2d.SLAB_SAMPLES` samples,
    on `contour2d.default_workers()` threads. The output depends on neither.
    """
    d, vals = grid.domain, grid.view3d()
    axes = (d.xs(), d.ys(), d.zs())
    peak = max(vals.max(), -vals.min())
    return TriangleMesh(*_mesh_bands(lambda k0, k1, below: (vals[k0:k1 + 1], peak), _slab_bounds(axes), axes,
                                     (d.dx, d.dy, d.dz), _SLOTS, _cell_triangles, None))
