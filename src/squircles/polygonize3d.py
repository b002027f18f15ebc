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
`polygonize` samples each slab as it goes, so the whole
(nx+1)(ny+1)(nz+1) volume is never held; `marching_cubes` runs the same
slabs over views of a sampled grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour2d import BAND_SAMPLES, _mesh_bands, _require_finite, _sample_banded
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

# Most samples one slab of `polygonize` holds, chosen by measurement on 2
# cores. Against 4x BAND_SAMPLES, slabs of 2x ran 35-60% slower at grid 256
# (sphube, oblique3d). Slabs of 8x ran ~20% faster there, but ~30% slower for
# lame3d at grid 128 (3 slabs, too few to pool), and one such slab alone is
# half the grid-128 volume, the tracemalloc bound the tests set.
SLAB_SAMPLES = 4 * BAND_SAMPLES


def _slab_bounds(domain):
    """Cell layers at which the slabs start, then nz: each slab holds at most
    SLAB_SAMPLES samples and at least one cell layer."""
    plane = (domain.nx + 1) * (domain.ny + 1)
    layers = max(1, SLAB_SAMPLES // plane - 1)
    return np.arange(0, domain.nz + layers, layers).clip(max=domain.nz)


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
    `_slab_bounds`. Each slab samples its top plane first and leaves a copy
    for the slab above; it takes its bottom plane from the slab below when
    that copy is there, and samples it otherwise (with the same bits), then
    samples the planes between. The extremes `_sample_banded` returns check
    the slab's samples for finiteness and give the largest |sample| for the
    zero nudge. The slabs run on `workers` threads (default:
    `contour2d.default_workers()`); with one, each plane is sampled once. A
    non-finite sample raises the ValueError `sample_grid3d` raises.
    """
    xs, ys, zs = domain.xs(), domain.ys(), domain.zs()
    extremes = []
    # plane index -> the samples of that plane, or None once the slab above
    # has sampled it itself; setdefault decides which came first. A plane
    # with a non-finite sample is not left: the slab above samples it and
    # fails its own check instead of extracting from it.
    shared = {}

    def load(k0, k1):
        vals = np.empty((k1 - k0 + 1, len(ys), len(xs)))
        _, top, bottom = _sample_banded(field, (xs, ys, zs[k1:k1 + 1]), 1, vals[-1:])
        if k1 < domain.nz and math.isfinite(top) and math.isfinite(bottom):
            shared.setdefault(k1, vals[-1].copy())
        below = shared.setdefault(k0, None)
        first = 0 if below is None else 1
        if below is not None:
            vals[0] = below
            shared[k0] = None
        if first < k1 - k0:
            _, hi, lo = _sample_banded(field, (xs, ys, zs[k0 + first:k1]), 1, vals[first:-1])
            top, bottom = np.maximum(top, hi), np.minimum(bottom, lo)
        _require_finite(vals, (xs, ys, zs[k0:k1 + 1]), top, bottom)
        extremes.append(max(top, -bottom))
        return vals

    steps = (domain.dx, domain.dy, domain.dz)
    return TriangleMesh(*_mesh_bands(load, _slab_bounds(domain), (xs, ys, zs), steps, _SLOTS, _cell_triangles,
                                     lambda: max(extremes), workers))


def marching_cubes(grid: Grid3D) -> TriangleMesh:
    """Extract the zero isosurface as a welded, deterministic triangle mesh.

    Classic 256-case tables with linear edge interpolation. Only active cells
    (corners of both signs) are visited and only crossing edges get a vertex:
    the per-slab passes work on one byte per sample, and no id volume is
    built. Vertex order: every x-edge crossing in (k, j, i) lattice order,
    then every y-edge, then every z-edge crossing; every crossing is used by a
    triangle, so none is compacted away. Triangles follow cell order.
    Exact-zero samples count as outside and are nudged toward positive (by
    ZERO_NUDGE times the largest |sample|, found only when a crossing ends on
    a zero) where they end a crossing edge; `grid.samples` is left untouched.

    This is the band kernel of `polygonize` and `marching_squares`, run over
    views of the samples: slabs of at most SLAB_SAMPLES samples, on
    `contour2d.default_workers()` threads. The output depends on neither.
    """
    d, vals = grid.domain, grid.view3d()
    return TriangleMesh(*_mesh_bands(lambda k0, k1: vals[k0:k1 + 1], _slab_bounds(d), (d.xs(), d.ys(), d.zs()),
                                     (d.dx, d.dy, d.dz), _SLOTS, _cell_triangles,
                                     lambda: max(vals.max(), -vals.min()), None))
