"""Voxel sampling and marching-cubes polygonization.

Mesh vertices live on global grid edges and are welded by edge identity, so
adjacent cells share vertices exactly and the output is byte-deterministic
regardless of how the work is partitioned. The vertex order is a contract:
every x-edge crossing in (k, j, i) lattice order, then every y-edge crossing,
then every z-edge crossing. The triangles use every crossing, so compacting
to the used ids drops none. Extraction visits only the active cells (corners
of both signs) and the crossing edges; it builds no per-edge id volume and
never writes to the samples. The cell codes and the edge kernel are shared
with marching squares (`contour2d`).

Extraction runs over z-slabs of cell layers (Lorensen & Cline's slice-wise
formulation): each slab classifies its own sample planes, finds its
crossings and numbers them slab by slab, and a merge in slab order turns the
slab-local numbers into the global ones. `polygonize` samples each slab as it
goes, so the whole (nx+1)(ny+1)(nz+1) volume is never held; `marching_cubes`
runs the same slabs over views of a sampled grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour2d import (
    BAND_SAMPLES,
    _active_cells,
    _edge_crossings,
    _edge_points,
    _nudge_zeros,
    _run_bands,
    _sample_banded,
    _slot_ids,
)
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

# Most samples one slab of `polygonize` holds, and most one field call in a
# slab evaluates, chosen by measurement on 2 cores (sphube, lame3d). Slabs of
# 2-3x BAND_SAMPLES re-sample their shared planes often enough to run 6-40%
# slower at grid 256. Field calls of a whole BAND_SAMPLES leave temporaries
# that lift the fused path's tracemalloc peak at grid 128 above half the
# sampled volume for lame3d and sphube (0.61x and 0.54x, against 0.45x and
# 0.47x).
SLAB_SAMPLES = 4 * BAND_SAMPLES
SLAB_BAND_SAMPLES = BAND_SAMPLES // 2


def _slab_bounds(domain):
    """Cell layers at which the slabs start, then nz: each slab holds at most
    SLAB_SAMPLES samples and at least one cell layer."""
    plane = (domain.nx + 1) * (domain.ny + 1)
    layers = max(1, SLAB_SAMPLES // plane - 1)
    return np.arange(0, domain.nz + layers, layers).clip(max=domain.nz)


def _slab(load, k0, k1, top):
    """The part of the mesh that falls in the slab of cell layers k0..k1,
    whose sample planes load(k0, k1) gives, bottom to top.

    Returns the slab's sample max and min and, when any of its edges
    crosses (so it has active cells):
    - per axis, its crossings as the flat lattice index (within the slab) of
      each edge's low end and the edge fraction v0 / (v0 - v1) of its end
      samples, plus the positions and end samples of the crossings with an
      end sample of exactly 0, whose fraction the zero nudge changes;
    - the slab's triangles as slab-local ids: each axis's crossings are
      ranked in lattice order, after all the crossings of the axes before it;
    - the first slab-local id of each axis.
    The ids count every crossing in the slab's planes, but the x/y crossings
    of the top plane are returned only when top is set: otherwise the next
    slab's bottom plane holds them. The samples are dropped as soon as the
    crossings are read from them.
    """
    # each array is dropped once read: with the crossings and triangles of
    # the slabs before it, a slab's largest arrays set the fused path's peak
    vals = load(k0, k1)
    extremes = (vals.max(), vals.min())
    inside = vals < 0
    crossings = _edge_crossings(vals, inside)
    del vals
    if not any(len(lo) for _, lo, _, _ in crossings):
        return extremes, None
    kept = []
    for axis, (index, lo, v0, v1) in enumerate(crossings):
        n = len(lo) if top or axis == 2 else np.searchsorted(index[0], k1 - k0)
        v0, v1 = v0[:n], v1[:n]
        zero = np.flatnonzero((v0 == 0.0) | (v1 == 0.0))
        kept.append((lo[:n].copy(), v0 / (v0 - v1), zero, v0[zero], v1[zero]))
    first_ids = np.cumsum([0] + [len(c[1]) for c in crossings[:-1]])
    indices = [c[0] for c in crossings]
    del crossings
    _, code = _active_cells(inside)
    cell_shape = tuple(s - 1 for s in inside.shape)
    del inside
    ids = _slot_ids(code, _SLOTS, indices, cell_shape, first_ids, dtype=np.int32)
    del indices
    # Sliver triangles from near-node crossings are kept: every cell face is
    # triangulated identically on both sides, which is what keeps the mesh
    # closed, and dropping a sliver would break its neighbor's edge pairing.
    # Each case's triangles use every crossing edge of the cell, so every
    # crossing is a vertex of some triangle and no compaction is needed.
    rows = _TRIANGLES[code]
    valid = rows[:, :, 0] >= 0
    triangles = ids[rows[valid], np.nonzero(valid)[0][:, None]]
    return extremes, (kept, triangles, first_ids)


def _mesh_slabs(domain, load, workers):
    """Mesh the slabs of domain, each one's sample planes k0..k1 given by
    load(k0, k1), then weld them: the slab kernel of `polygonize` and
    `marching_cubes`."""
    bounds = _slab_bounds(domain)
    slabs = _run_bands(lambda k0, k1: _slab(load, k0, k1, k1 == domain.nz), bounds, workers)
    extremes = np.array([e for e, _ in slabs])
    parts = [(k0, *part) for k0, (_, part) in zip(bounds, slabs) if part is not None]
    del slabs  # parts alone holds the slabs' output, dropped as it is merged
    if not parts:
        return TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))

    # The ids of an axis's crossings start after every crossing of the axes
    # before it, and a slab's after those of the slabs below it: a slab-local
    # id of axis a moves by shift[a]. Each slab's share of the output is
    # written in place and then dropped.
    counts = np.array([[len(c[0]) for c in kept] for _, kept, _, _ in parts])
    bases = np.cumsum(counts, axis=0) - counts
    bases += np.cumsum(counts.sum(axis=0)) - counts.sum(axis=0)
    triangles = np.empty((sum(len(t) for _, _, t, _ in parts), 3), dtype=np.int64)
    start = 0
    for s, base in enumerate(bases):
        k0, kept, local, first_ids = parts[s]
        shift = base - first_ids
        out = triangles[start:start + len(local)]
        np.add(local, shift[0], out=out)
        for axis in (1, 2):
            np.add(out, shift[axis] - shift[axis - 1], out=out, where=local >= first_ids[axis])
        start += len(local)
        parts[s] = k0, kept

    # the largest |sample| over the slabs scales the zero nudge
    zeros = [c[1:] for _, kept in parts for c in kept if len(c[2])]
    _nudge_zeros(extremes, *(v for *_, v0, v1 in zeros for v in (v0, v1)))
    for t, zero, v0, v1 in zeros:
        t[zero] = v0 / (v0 - v1)
    plane = (domain.nx + 1) * (domain.ny + 1)
    shape = (domain.nz + 1, domain.ny + 1, domain.nx + 1)
    coords, steps = (domain.xs(), domain.ys(), domain.zs()), (domain.dx, domain.dy, domain.dz)
    vertices = np.empty((counts.sum(), 3))
    start = 0
    for axis in range(3):
        for k0, kept in parts:
            lo, t = kept[axis][:2]
            index = np.unravel_index(lo + k0 * plane, shape)
            vertices[start:start + len(lo)] = _edge_points(index, t, coords, steps, axis)
            start += len(lo)
            kept[axis] = None
    return TriangleMesh(vertices, triangles)


def polygonize(field, domain: Domain3D, workers: int | None = None) -> TriangleMesh:
    """Mesh the zero isosurface of a field: `marching_cubes` of
    `sample_grid3d`, byte for byte, without holding the sampled volume.

    Each slab of cell layers samples its own planes (in field calls of at
    most SLAB_BAND_SAMPLES samples) and extracts its part of the mesh; the
    plane two slabs share is sampled by both, with the same bits. The slabs
    run on `workers` threads (default: `contour2d.default_workers()`). A
    non-finite sample raises the ValueError `sample_grid3d` raises.
    """
    xs, ys, zs = domain.xs(), domain.ys(), domain.zs()

    def load(k0, k1):
        return _sample_banded(field, (xs, ys, zs[k0:k1 + 1]), 1, SLAB_BAND_SAMPLES)

    return _mesh_slabs(domain, load, workers)


def marching_cubes(grid: Grid3D) -> TriangleMesh:
    """Extract the zero isosurface as a welded, deterministic triangle mesh.

    Classic 256-case tables with linear edge interpolation. Only active cells
    (corners of both signs) are visited and only crossing edges get a vertex:
    the per-slab passes work on one byte per sample, and no id volume is
    built. Vertex order: every x-edge crossing in (k, j, i) lattice order,
    then every y-edge, then every z-edge crossing; every crossing is used by a
    triangle, so none is compacted away. Triangles follow cell order.
    Exact-zero samples count as outside and are nudged toward positive (by
    ZERO_NUDGE times the largest |sample|) where they end a crossing edge;
    `grid.samples` is left untouched.

    This is the slab kernel of `polygonize`, run over views of the samples:
    slabs of at most SLAB_SAMPLES samples, on `contour2d.default_workers()`
    threads. The output depends on neither.
    """
    vals = grid.view3d()
    return _mesh_slabs(grid.domain, lambda k0, k1: vals[k0:k1 + 1], None)
