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
over z-slabs of cell layers, with the marching-cubes table as its cases, run
through `contour2d._mesh_lattice`: `polygonize` samples each slab as it goes,
as `contour2d.contour` does, so the whole (nx+1)(ny+1)(nz+1) volume is never
held; `marching_cubes` runs the same slabs over views of a sampled grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import contour2d
from .contour2d import LatticeDomain, _mesh_lattice, _open_lattice, _sample_banded
from .mc_tables import TRI_TABLE

# Most lattice samples for which `polygonize` meshes a field with keys in
# full; on a larger lattice it meshes only the blocks the surface may cross
# (`contour2d._sparse_bands`). 2^24 is a cube of side 256: the default
# lattice of grid 256 (257^3 samples) takes the route, that of grid 254
# (255^3) does not. Measured in-process on 2 cores: at grid 256 the route
# took x0.44-0.85 of the full kernel's time
# (lame3d, periodic3d, sphube, oblique3d); at grid 240 oblique3d lost
# (x1.03), at grid 192 all but lame3d lost (x1.01-1.24), at grid 128 all
# but lame3d lost by x1.5-1.8.
SPARSE_MIN_SAMPLES = 1 << 24


@dataclass(frozen=True)
class Domain3D(LatticeDomain):
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    zmin: float
    zmax: float
    nx: int
    ny: int
    nz: int

    dz = property(lambda self: self._per_axis[2][2])

    def zs(self):
        return self._axis(2)


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
    return Grid3D(domain, _sample_banded(field, _open_lattice(domain.axes()), workers)[0].reshape(-1))


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

    This is the band kernel (`contour2d._mesh_lattice`) over z-slabs of at
    most `contour2d.SLAB_SAMPLES` samples, each sampled as it starts, one run
    of slabs per thread (`workers`, default `contour2d.default_workers()`);
    a slab takes its bottom plane from the slab below in its run. A field
    with keys (`fields2d.Keys`) on a lattice of more than SPARSE_MIN_SAMPLES
    samples is sampled and meshed only in the blocks whose sign
    `contour2d._certify` does not prove (`contour2d._sparse_bands`), to the
    same bytes; where one of those samples is not finite, the band kernel
    meshes it. A non-finite sample raises the ValueError `sample_grid3d`
    raises.
    """
    mesh = None
    keys = getattr(field, "keys", None)
    if keys is not None and math.prod(len(a) for a in domain.axes()) > SPARSE_MIN_SAMPLES:
        mesh = contour2d._sparse_bands(field, keys, domain, _SLOTS, _cell_triangles, workers)
    if mesh is None:
        mesh = _mesh_lattice(field, domain, _SLOTS, _cell_triangles, workers)
    return TriangleMesh(*mesh)


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

    This is the band kernel of `polygonize` and `marching_squares`
    (`contour2d._mesh_lattice`), run over views of the samples: slabs of at
    most `contour2d.SLAB_SAMPLES` samples, on `contour2d.default_workers()`
    threads. The output depends on neither.
    """
    return TriangleMesh(*_mesh_lattice(grid.view3d(), grid.domain, _SLOTS, _cell_triangles, None))
