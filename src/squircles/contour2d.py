"""Regular-grid sampling, the band kernel and marching-squares extraction.

Vertices are interpolated on grid edges and welded by global edge identity, so
adjacent cells share endpoints exactly and segments chain into maximal
polylines. Output order and bytes are deterministic for fixed inputs.

`_mesh_bands` is the extraction kernel of marching squares and of marching
cubes (in `polygonize3d`). It visits only the active cells (corners of both
signs) and the crossing edges, and never writes to the samples. One entry,
`_mesh_lattice`, runs it for `contour`, `marching_squares` and
`polygonize3d`'s `polygonize` and `marching_cubes`, with one band body: a
band is a stack of boxes of cells, sampled together as it starts, from a
field (so no whole lattice is held) or viewed in a sampled lattice. Each
band of the dense kernel is one box, a slab of rows in 2D or of z-layers in
3D. A large lattice of a field with keys, curve or surface, is meshed only
in the blocks the level set may cross, to the same points and elements:
`_certify` proves the other blocks' signs, and a band is a run of block
layers whose unproven blocks are its boxes. `LatticeDomain` is the one body
of `Domain2D` and `Domain3D`, and `_sample_banded` the one sampler, which
checks its own samples. Marching squares' segments follow cell order, and
chains follow segment order (`_chains`): each chain starts at the first
segment no earlier chain used, walks forward along each segment's
successor, then, if open, backward.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .fields2d import frantz_point

# An exact-zero sample counts as outside, so a crossing edge that ends in one
# puts its vertex this fraction of the edge away from that end rather than on
# the sample, whatever the other samples are.
ZERO_NUDGE = 1e-12

# Most samples one field call evaluates (a band is at least one row). A band's
# float64 temporaries then stay near 1 MB each however large the grid is, which
# keeps sampling's peak within 1.5x its output from grid 128 up.
BAND_SAMPLES = 1 << 17

# Fewest bands per worker thread for which `_run_bands` starts a pool. With
# fewer, starting the threads and splitting the work unevenly cost more than
# the split saves. Measured on 2 cores, in-process: 3D sampling at grid 64
# (3 bands) ran ~25% slower pooled, and so did meshing at grids 96-112 (2-3
# slabs) by ~10%; meshing at grid 128 (5 slabs) ran ~30% faster.
POOL_MIN_BANDS = 2

# Most samples one dense slab of `_mesh_lattice` holds, or one band of a
# curve's sparse route, chosen by measurement on 2 cores. Against 4x BAND_SAMPLES,
# slabs of 2x ran 35-60% slower at grid 256 (sphube, oblique3d). Slabs of 8x
# ran ~20% faster there, but ~30% slower for lame3d at grid 128 (3 slabs, too
# few to pool), and one such slab alone is half the grid-128 volume, the
# tracemalloc bound the tests set. A 2D curve at grid 2048 is then 9 bands of
# 254 cell rows.
SLAB_SAMPLES = 4 * BAND_SAMPLES

# Cells along each side of the blocks of a curve whose sign `_certify` tries
# to prove (`_mesh_lattice`'s sparse route). A grid-2048 curve crosses about
# 5% of such blocks at tiles 1 and at most 16% at tiles 3.
BLOCK_CELLS = 32

# The same for the blocks of a surface. At grid 256 a
# surface crosses 12-16% of such blocks (lame3d p = 4.5, oblique3d s = 0.9
# at tiles 2, sphube s = 0.75).
SURFACE_BLOCK_CELLS = 8

# How far past zero, relative to the bound `Keys.terms` puts on the field's
# terms over a block, its corner values must lie to prove the block's sign:
# far above the rounding of any sample, so each sample has that sign too.
CERTIFY_MARGIN = 1e-9

# numpy's floating-point warnings, off in field calls: the finite check names
# the first bad sample instead, also when warnings are errors (`python -W
# error`). numpy keeps this state per context, which a pool thread does not
# inherit from its caller, so each band sets it around its own field calls.
_FIELD_ERRSTATE = dict(invalid="ignore", over="ignore", divide="ignore")

# Segments of each cell, indexed by the cell's sign code (corner (dj, di) at
# bit 2 dj + di) plus 16 when the cell center is inside, as pairs of cell edge
# slots (0 bottom, 1 right, 2 top, 3 left); -1 pads. Only the saddles, codes 6
# and 9, depend on the center: an inside center joins their two inside
# corners. The order of a pair's ends sets the direction of a chain that
# starts at that segment, so it is part of the output contract.
_NO = (-1, -1)
_SEGMENTS = np.array(2 * [
    [_NO, _NO], [(3, 0), _NO], [(0, 1), _NO], [(3, 1), _NO],
    [(2, 3), _NO], [(0, 2), _NO], [(0, 1), (2, 3)], [(1, 2), _NO],
    [(1, 2), _NO], [(3, 0), (1, 2)], [(0, 2), _NO], [(3, 2), _NO],
    [(3, 1), _NO], [(0, 1), _NO], [(3, 0), _NO], [_NO, _NO],
], dtype=np.int8)
_SEGMENTS[16 + 6] = [(0, 3), (2, 1)]
_SEGMENTS[16 + 9] = [(3, 2), (1, 0)]
# cell edge slots as (axis, (dj, di) lattice offset of the edge's low end)
_SLOTS = ((0, (0, 0)), (1, (0, 1)), (0, (1, 0)), (1, (0, 0)))


def default_workers():
    """Sampling threads when none are given: SQUIRCLES_WORKERS if set, else
    the CPU count. A value that is not an integer >= 1 is a ValueError."""
    env = os.environ.get("SQUIRCLES_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SQUIRCLES_WORKERS must be an integer >= 1, got {env!r}")
    return workers


@dataclass(frozen=True)
class LatticeDomain:
    """A box cut into cells, the body of `Domain2D` and `Domain3D`: their
    fields are the (min, max) bounds of each axis, x first, then the cell
    count of each axis in the same order."""

    def __post_init__(self):
        values = [getattr(self, f.name) for f in fields(self)]
        n = len(values) // 3
        lows, highs, counts, names = values[:2 * n:2], values[1:2 * n:2], values[2 * n:], "xyz"[:n]
        if not all(hi > lo for lo, hi in zip(lows, highs)):
            raise ValueError("domain bounds must satisfy max > min")
        if min(counts) < 2:
            raise ValueError("cell counts must be >= 2, got " + ", ".join(f"n{a}={c}" for a, c in zip(names, counts)))
        steps = [(hi - lo) / c for lo, hi, c in zip(lows, highs, counts)]
        if not all(0 < d < math.inf for d in steps):
            raise ValueError("cell sizes must be finite and positive, got "
                             + ", ".join(f"d{a}={d}" for a, d in zip(names, steps)))
        # (min, cell count, cell size) of each axis, x first
        object.__setattr__(self, "_per_axis", tuple(zip(lows, counts, steps)))

    def steps(self):
        """The cell size of each axis, x first."""
        return tuple(d for _, _, d in self._per_axis)

    def axes(self):
        """The lattice coordinates of each axis, x first."""
        return tuple(map(self._axis, range(len(self._per_axis))))

    def _axis(self, k):
        lo, n, d = self._per_axis[k]
        return lo + d * np.arange(n + 1)

    dx = property(lambda self: self._per_axis[0][2])
    dy = property(lambda self: self._per_axis[1][2])

    def xs(self):
        return self._axis(0)

    def ys(self):
        return self._axis(1)


@dataclass(frozen=True)
class Domain2D(LatticeDomain):
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int


@dataclass
class Grid2D:
    """Field samples on a regular lattice; samples[j, i] = f(x_i, y_j)."""

    domain: Domain2D
    samples: np.ndarray
    field: object = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        expected = (self.domain.ny + 1, self.domain.nx + 1)
        if self.samples.shape != expected:
            raise ValueError(f"sample array shape {self.samples.shape}, expected {expected}")


@dataclass
class Polyline:
    """Ordered 2D point chain; closure is implicit (first point != last)."""

    points: np.ndarray
    closed: bool

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if len(self.points) < 2:
            raise ValueError("polyline needs at least 2 points")


def _run_bands(run, bounds, workers):
    """run(lo, hi) over the (lo, hi) spans of the bands between consecutive
    bounds: one result per band, in band order.

    This is the only thread pool. With at least POOL_MIN_BANDS bands per
    worker, `workers` threads (default: `default_workers()`) take the bands
    one by one, else the calling thread runs all. A band's work must release
    the GIL (numpy on large arrays) to gain from the pool.
    """
    spans = list(zip(bounds[:-1], bounds[1:]))
    workers = default_workers() if workers is None else max(1, workers)
    if workers > 1 and len(spans) >= POOL_MIN_BANDS * workers:
        with ThreadPoolExecutor(max_workers=min(workers, len(spans))) as pool:
            return list(pool.map(run, *zip(*spans)))
    return [run(lo, hi) for lo, hi in spans]


def _open_lattice(axes):
    """The coordinates of each of axes (x first) shaped to broadcast over
    their lattice, which is indexed slowest axis first."""
    n = len(axes)
    # axis k varies along array dimension n - 1 - k
    return [a.reshape((1,) * (n - 1 - k) + (-1,) + (1,) * k) for k, a in enumerate(axes)]


def _sample_banded(field, coords, workers):
    """Samples of field at coords (x first, arrays that broadcast to the
    samples: `_open_lattice` of a lattice's axes, or a stack of lattices),
    evaluated in bands of their first dimension.

    Each band holds at most BAND_SAMPLES samples (at least one index of the
    first dimension) and is written straight into one new array: a field
    whose `fills_out` attribute is true is called with out= the band's view
    and fills it, any other field's result is assigned to the band. The
    samples are independent of the band size and the worker
    count: each sample is one scalar expression. A non-finite sample raises
    a ValueError naming the first one in index order; each band's max and
    min carry nan and +-inf through, so only a failed check reads the
    samples again.
    """
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    vals = np.empty(shape)
    fills = getattr(field, "fills_out", False)

    def run(lo, hi):
        band = vals[lo:hi]
        part = [c[lo:hi] if len(c) > 1 else c for c in coords]
        with np.errstate(**_FIELD_ERRSTATE):
            if fills:
                field(*part, out=band)
            else:
                band[...] = field(*part)
        return max(band.max(), -band.min())

    rows = max(1, BAND_SAMPLES // math.prod(shape[1:]))
    bounds = np.arange(0, shape[0] + rows, rows).clip(max=shape[0])
    if not math.isfinite(np.max(_run_bands(run, bounds, workers))):
        index = tuple(np.argwhere(~np.isfinite(vals))[0])
        where = ", ".join(f"{np.broadcast_to(c, shape)[index]}" for c in coords)
        raise ValueError(f"non-finite field value at sample ({where})")
    return vals


def sample_grid2d(field, domain: Domain2D, workers: int | None = None) -> Grid2D:
    """Evaluate a field on the domain lattice, partitioned over row bands.
    `contour` contours a field without holding this grid."""
    return Grid2D(domain, _sample_banded(field, _open_lattice(domain.axes()), workers), field=field)


def _active_cells(inside, ndim=None):
    """Flat indices (in lattice order) and sign codes of the cells whose
    corners have both signs, over the first ndim axes of inside (default:
    all); an axis after them indexes a stack of lattices.

    A cell's code has the corner at lattice offset (..., dj, di) at bit
    ... + 2 dj + di. It is built one axis at a time, one byte per sample.
    """
    ndim = inside.ndim if ndim is None else ndim
    code = inside.view(np.uint8)
    for axis in range(ndim):
        dim = ndim - 1 - axis
        # shifted by a multiply: numpy's uint8 shift runs several times slower
        high = code[(slice(None),) * dim + (slice(1, None),)] * (1 << (1 << axis))
        high |= code[(slice(None),) * dim + (slice(None, -1),)]
        code = high
    # minus 1 wraps the all-outside 0 to 255, so one compare drops it and the
    # all-inside code
    code -= 1
    cells = np.flatnonzero(code < (1 << (1 << ndim)) - 2)
    return cells, code.reshape(-1)[cells] + 1


def _fractions(v0, v1):
    """The fractions t of crossing edges, from their low ends, at which the
    level set crosses them, given the end samples v0, v1: v0 / (v0 - v1) by
    linear interpolation, but ZERO_NUDGE of the edge from an end sample of
    exactly 0 (outside, as the other end is inside)."""
    t = v0 / (v0 - v1)
    t[v0 == 0.0] = ZERO_NUDGE
    t[v1 == 0.0] = 1.0 - ZERO_NUDGE
    return t


def _edge_crossings(vals, inside, ndim=None):
    """The lattice edges whose ends differ in sign, per axis (x first), in
    lattice order: the lattice index of each edge's low end (a tuple of
    arrays, slowest axis first), its flat index into vals and the samples at
    both ends. vals and inside (vals < 0) are indexed slowest axis first;
    only the first ndim axes (default: all) are lattice axes, and an axis
    after them indexes a stack of lattices."""
    ndim = vals.ndim if ndim is None else ndim
    flat = vals.reshape(-1)
    crossings = []
    for axis in range(ndim):
        dim = ndim - 1 - axis
        shape = vals.shape[:dim] + (vals.shape[dim] - 1,) + vals.shape[dim + 1:]
        # np.diff is not_equal on booleans; only its nonzero positions are kept
        index = np.unravel_index(np.flatnonzero(np.diff(inside, axis=dim)), shape)
        lo = np.ravel_multi_index(index, vals.shape)
        crossings.append((index, lo, flat[lo], flat[lo + math.prod(vals.shape[dim + 1:])]))
    return crossings


def _slot_ids(code, slots, indices, cell_shape, first_ids):
    """ids[e, c]: the id of the crossing at edge slot e of active cell c,
    wherever that edge crosses, as first_ids[axis] plus the edge's rank among
    the crossings of its axis; int32 when every id fits, else int64.

    code holds the active cells' sign codes in cell order; slots lists each
    cell edge as (axis, lattice offset of its low end, slowest axis first),
    axis 0 being x; indices[axis] is the lattice index of that axis's
    crossings, in lattice order, as `_edge_crossings` gives it.
    """
    n = len(cell_shape)
    end = first_ids[-1] + len(indices[-1][0])
    ids = np.zeros((len(slots), len(code)), dtype=np.int32 if end <= np.iinfo(np.int32).max else np.int64)
    crosses = _slot_crossings(slots)[:, code]
    compares = {}
    for e, (axis, offset) in enumerate(slots):
        # Slot e of cell c is the edge at c + offset: the crossing edges that
        # have such a cell, in order, pair up with the cells whose slot-e edge
        # crosses, in cell order.
        sel = np.flatnonzero(crosses[e])
        # Along its own axis every edge has a cell; along another dimension
        # an edge at lattice index i has one at offset 1 when i >= 1, at
        # offset 0 when i < the cell count. Each compare serves every slot of
        # its (axis, dimension, offset).
        has_cell = None
        for d, o in enumerate(offset):
            if d != n - 1 - axis:
                key = axis, d, o
                if key not in compares:
                    i = indices[axis][d]
                    compares[key] = i >= 1 if o else i < cell_shape[d]
                has_cell = compares[key] if has_cell is None else has_cell & compares[key]
        ids[e, sel] = first_ids[axis] + np.flatnonzero(has_cell)
    return ids


@functools.lru_cache(maxsize=None)
def _slot_crossings(slots):
    """crosses[e, code]: whether edge slot e (as `_slot_ids` takes slots)
    of a cell with sign code crosses, its two end corners' bits differing."""
    n = len(slots[0][1])
    code = np.arange(1 << (1 << n))
    crosses = np.empty((len(slots), len(code)), dtype=bool)
    for e, (axis, offset) in enumerate(slots):
        low_bit = sum(o << (n - 1 - d) for d, o in enumerate(offset))
        crosses[e] = ((code >> low_bit) ^ (code >> (low_bit + (1 << axis)))) & 1
    return crosses


def _edge_points(index, t, coords, steps, axis):
    """Points on the axis-parallel edges with low ends at the lattice index
    (slowest axis first), at the fractions t of the edges (`_fractions`)."""
    n = len(coords)
    pts = np.column_stack([coords[k][index[n - 1 - k]] for k in range(n)])
    pts[:, axis] += t * steps[axis]
    return pts


def _band_crossings(crossings, layers, top):
    """The crossings of a band of `layers` cell layers that its part holds
    (see `_mesh_bands`), from the `_edge_crossings` of all its layers in
    lattice order: the part's share of each axis as (lo, t), the lattice
    index of every crossing and the first band-local id of each axis."""
    kept = []
    for axis, (index, lo, v0, v1) in enumerate(crossings):
        n = len(lo) if top or axis == len(crossings) - 1 else np.searchsorted(index[0], layers)
        kept.append((lo[:n].copy(), _fractions(v0[:n], v1[:n])))
    first_ids = np.cumsum([0] + [len(c[1]) for c in crossings[:-1]])
    return kept, [c[0] for c in crossings], first_ids


def _element_ids(rows, ids):
    """The elements of rows (per active cell, its elements as edge slots,
    -1 padded), in cell order, as the ids[slot, cell] of their slots."""
    # the (cell, element) pairs that hold an element, in order, and each
    # element's slots, gathered from ids as one flat array
    pick = np.flatnonzero(rows[:, :, 0] >= 0)
    ends = rows.reshape(-1, rows.shape[2])[pick].astype(np.intp)
    return ids.reshape(-1)[ends * ids.shape[1] + (pick // rows.shape[1])[:, None]]


def _mesh_bands(band, bounds, coords, steps, workers):
    """Points and elements of the zero level set on the lattice of coords
    (x first) spaced by steps, in bands of cell layers along the slowest axis
    (Lorensen & Cline's slice-wise formulation, for any dimension).

    Each band of cell layers k0..k1 between consecutive bounds runs
    band(k0, k1, top) on `_run_bands(..., workers)`; top is set for the last
    band. Bands share nothing, so the pool takes them in any order. A band
    returns its part: None when no edge of the band crosses, else:
    - per axis, its crossings as the flat lattice index (within the band) of
      each edge's low end and the edge's fraction (`_fractions`);
    - the rows of its cases for its active cells, as band-local ids: each
      axis's crossings are ranked in lattice order, after all the crossings
      of the axes before it;
    - the first band-local id of each axis.
    The ids count every crossing in the band's layers, but the crossings of
    the other axes in its top layer are in its part only when top is set:
    otherwise the next band's bottom layer holds them (`_band_crossings`).
    A weld in band order turns the band-local ids into global ones. The
    points are every x-edge crossing in lattice order, then every y-edge
    crossing, and so on; the elements are the rows of the bands' cases over
    point ids. The output depends on neither the bands nor the worker count.
    """
    n = len(coords)
    bands = _run_bands(lambda k0, k1: band(k0, k1, k1 == bounds[-1]), bounds, workers)
    parts = [(k0, *band) for k0, band in zip(bounds, bands) if band is not None]
    del bands  # parts alone holds the bands' output, dropped as it is welded

    # The ids of an axis's crossings start after every crossing of the axes
    # before it, and a band's after those of the bands below it: a band-local
    # id of axis a moves by shift[a]. Each band's share of the output is
    # written in place and then dropped.
    counts = np.array([[len(c[0]) for c in kept] for _, kept, _, _ in parts], dtype=np.int64).reshape(-1, n)
    bases = np.cumsum(counts, axis=0) - counts
    bases += np.cumsum(counts.sum(axis=0)) - counts.sum(axis=0)
    elements = np.empty((sum(len(e) for _, _, e, _ in parts), n), dtype=np.int64)
    start = 0
    for b, base in enumerate(bases):
        k0, kept, local, first_ids = parts[b]
        shift = base - first_ids
        out = elements[start:start + len(local)]
        # a multiply and a plain add where they serve: a masked add runs at
        # half their speed; each temporary is one byte per id
        np.multiply(local >= first_ids[1], shift[1] - shift[0], out=out)
        for axis in range(2, n):
            np.add(out, shift[axis] - shift[axis - 1], out=out, where=local >= first_ids[axis])
        out += local
        out += shift[0]
        start += len(local)
        parts[b] = k0, kept

    shape = tuple(len(c) for c in reversed(coords))
    points = np.empty((counts.sum(), n))
    start = 0
    for axis in range(n):
        for k0, kept in parts:
            lo, t = kept[axis]
            index = np.unravel_index(lo + k0 * math.prod(shape[1:]), shape)
            points[start:start + len(lo)] = _edge_points(index, t, coords, steps, axis)
            start += len(lo)
            kept[axis] = None
    return points, elements


def _key_blocks(key, n, block):
    """Per block of `block` cells along an axis of n cells, given the keys
    of its n + 1 samples: the sample indices of the least and of the
    greatest key in the block's closed sample range, and its largest |key|."""
    blocks = -(-n // block)
    # the last sample repeated past the lattice's end changes no extreme
    # and, coming after it, no first index of one
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(key, (0, blocks * block - n), mode="edge"), block + 1)[::block]
    start = block * np.arange(blocks)
    return start + windows.argmin(axis=1), start + windows.argmax(axis=1), np.abs(windows).max(axis=1)


def _certify(field, keys, axes, block):
    """Per block of `block` cells a side of the lattice of axes (x first),
    indexed by block, slowest axis first: the proven sign of every sample in
    it, +1 or -1, or 0 where no sign is proven.

    The field, or each of `keys.parts` (the field is their max), is
    monotone or multilinear in the keys (`fields2d.Keys`), so its least and
    greatest value at the block's corners, the 2^n samples that pair each
    axis's least and greatest key in the block, bound it over the block; a
    max of parts is bounded below by the greatest of their least values and
    above by the greatest of their greatest. A sign is proven when the
    corners are finite and the bounds lie beyond the margin, CERTIFY_MARGIN
    times `keys.terms` of the block's largest |keys|, a normal float. So no
    block with a non-finite corner is proven, and the sparse route samples
    it.
    """
    n = len(axes)
    pairs = tuple(range(n))
    with np.errstate(**_FIELD_ERRSTATE):
        ends = [_key_blocks(keys.key(a), len(a) - 1, block) for a in axes]
        coords = []
        for k, (a, (least, greatest, _)) in enumerate(zip(axes, ends)):
            shape = [1] * (2 * n)
            shape[n - 1 - k], shape[2 * n - 1 - k] = 2, len(least)
            coords.append(a[np.stack([least, greatest])].reshape(shape))
        parts = [part(*coords) for part in keys.parts] or [field(*coords)]
        margin = CERTIFY_MARGIN * keys.terms(*(
            largest.reshape((1,) * (n - 1 - k) + (-1,) + (1,) * k) for k, (_, _, largest) in enumerate(ends)))
        low = functools.reduce(np.maximum, [p.min(axis=pairs) for p in parts])
        high = functools.reduce(np.maximum, [p.max(axis=pairs) for p in parts])
    corners = functools.reduce(np.maximum, parts)
    proven = np.isfinite(corners).all(axis=pairs) & (margin >= np.finfo(float).tiny) & (margin < np.inf)
    return proven * ((low > margin).astype(np.int8) - (high < -margin))


def _mesh_lattice(source, domain, slots, cases, workers, sparse=None):
    """Points and elements of the zero level set on the lattice of domain:
    `_mesh_bands` over bands of cell layers along the slowest axis, on
    `workers` threads (default `default_workers()`), with cases(k0, cells,
    code) as its cases.

    A band is a stack of boxes of cells whose closed sample ranges (past the
    lattice's last sample each repeats that sample) are sampled together as
    the band starts, on its thread: by `_sample_banded` from source, a
    field, or viewed in source, the samples of the whole lattice, slowest
    axis first. So each band samples and checks its own layers, and none is
    meshed with a non-finite sample. Without sparse, each band is one box:
    a slab of the whole lattice's width, of at most SLAB_SAMPLES samples (at
    least one cell layer). With sparse, (keys, block, samples) for a field
    with keys, the boxes are the blocks of `block` cells a side whose sign
    `_certify` does not prove, and a band is a run of whole block layers
    whose unproven blocks hold at most `samples` samples together, or one
    layer. A proven block has no active cell nor crossing edge, and a
    vertex depends only on its edge's two samples, so the same points and
    elements come out; where a sampled block's sample is not finite, the
    slabs run instead and name the first bad sample.

    A band that is one box spanning it meshes its samples as they are.
    A real stack lies along a last axis, (box + 1, ..., blocks), so numpy's
    inner loops run along it, and a stack of the last box layer alone ends
    at the lattice's end. Along each axis but its own, an edge is kept by
    the box that holds it below that box's upper face, or on the lattice's
    end or the band's top, which drops the copies; the crossings of each
    axis and the active cells are put in lattice order (one argsort each).
    """
    axes = domain.axes()
    n = len(axes)
    # cell counts, slowest axis first
    cells = tuple(len(a) - 1 for a in reversed(axes))
    if sparse is None:
        # one box a band: a slab as wide as the lattice; a cap of 0 makes
        # each box layer a band
        layers = max(1, SLAB_SAMPLES // math.prod(len(a) for a in axes[:-1]) - 1)
        box, cap = (layers,) + cells[1:], 0
        need = np.ones((-(-cells[0] // layers),) + (1,) * (n - 1), dtype=bool)
    else:
        keys, block, cap = sparse
        box, need = (block,) * n, _certify(source, keys, axes, block) == 0

    if callable(source):
        def sample(origin, shape, stacked):
            # the samples of the boxes of shape cells at origin (per box, its
            # first lattice index, slowest axis first), on this thread
            coords = []
            for k, a in enumerate(axes):
                d = n - 1 - k
                index = np.minimum(origin[:, d] + np.arange(shape[d] + 1)[:, None], len(a) - 1)
                coords.append(a[index].reshape((1,) * d + (-1,) + (1,) * k + ((len(origin),) if stacked else ())))
            return _sample_banded(source, coords, 1)
    else:
        def sample(origin, shape, stacked):
            return source[origin[0, 0]:origin[0, 0] + shape[0] + 1]

    def band(k0, k1, top):
        # per box, its first lattice index in the band, slowest axis first
        first = np.multiply(box, np.argwhere(need[k0 // box[0]:-(-k1 // box[0])]))
        if not len(first):
            return None
        # the band's cell counts and its boxes', slowest axis first
        ends, shape = (k1 - k0,) + cells[1:], (min(box[0], k1 - k0),) + box[1:]
        stacked = shape != ends
        vals = sample(first + ((k0,) + (0,) * (n - 1)), shape, stacked)

        def lattice(index):
            # the band-local lattice index of the points at a stacked index
            return [f[index[n]] + i for f, i in zip(first.T, index)]

        # each array is dropped once read: with the crossings and elements of
        # the bands before it, a band's largest arrays set the kernel's peak
        inside = vals < 0
        crossings = _edge_crossings(vals, inside, n)
        del vals
        for axis, (index, _, v0, v1) in enumerate(crossings if stacked else ()):
            at, keep = lattice(index), np.ones(len(v0), dtype=bool)
            for d in range(n):
                if d != n - 1 - axis:
                    keep &= (index[d] < shape[d]) & (at[d] < ends[d]) | (at[d] == ends[d])
            at = tuple(i[keep] for i in at)
            lo = np.ravel_multi_index(at, tuple(e + 1 for e in ends))
            order = np.argsort(lo)
            crossings[axis] = tuple(i[order] for i in at), lo[order], v0[keep][order], v1[keep][order]
        if not any(len(lo) for _, lo, _, _ in crossings):
            return None
        kept, indices, first_ids = _band_crossings(crossings, ends[0], top)
        del crossings
        cell, code = _active_cells(inside, n)
        del inside
        if stacked:
            at = lattice(np.unravel_index(cell, shape + (len(first),)))
            # past the lattice's end, a cell is a copy
            keep = np.logical_and.reduce([i < e for i, e in zip(at, ends)])
            cell = np.ravel_multi_index(tuple(i[keep] for i in at), ends)
            order = np.argsort(cell)
            cell, code = cell[order], code[keep][order]
        ids = _slot_ids(code, slots, indices, ends, first_ids)
        del indices
        return kept, _element_ids(cases(k0, cell, code), ids), first_ids

    # each band's first box layer: a new band starts where the samples of
    # the boxes since the last start would pass cap
    per_layer = np.count_nonzero(need.reshape(len(need), -1), axis=1) * math.prod(s + 1 for s in box)
    starts, held = [0], 0
    for layer, count in enumerate(per_layer):
        if layer and held + count > cap:
            starts.append(layer)
            held = 0
        held += count
    bounds = np.minimum(box[0] * np.array(starts + [len(per_layer)]), cells[0])
    try:
        return _mesh_bands(band, bounds, axes, domain.steps(), workers)
    except ValueError:
        if sparse is None:
            raise
    return _mesh_lattice(source, domain, slots, cases, workers)


def contour(field, domain: Domain2D, workers: int | None = None) -> list[Polyline]:
    """Extract the zero level set of a field as polylines:
    `marching_squares` of `sample_grid2d`, byte for byte, without holding the
    sampled grid.

    This is the band kernel (`_mesh_lattice`) over row bands of at most
    SLAB_SAMPLES samples, each sampled as it starts, the threads (`workers`,
    default `default_workers()`) taking the bands one by one; each band
    samples its own rows, so a row two bands share is sampled twice. A
    field with keys (`fields2d.Keys`) on a lattice of more than SLAB_SAMPLES
    samples is sampled and meshed only in the blocks of BLOCK_CELLS cells a
    side whose sign `_certify` does not prove, on the calling thread, exact
    zeros included; where one of those samples is not finite, the row bands
    run instead. A non-finite sample raises the ValueError `sample_grid2d`
    raises.
    """
    return _polylines(field, domain, field, workers)


def marching_squares(grid: Grid2D) -> list[Polyline]:
    """Extract the zero level set of a sampled field as polylines.

    Saddle cells are disambiguated by the sign of the cell-center field value,
    one field call for a band's centers (or by the sum of the corners when
    the grid carries no field handle). Polylines that touch the domain
    boundary are open; all others are closed.

    This is the band kernel of marching cubes (`_mesh_lattice`), run over
    views of the samples: the row bands of `contour`, each one box of rows,
    on `default_workers()` threads. Only active cells are visited and only
    crossing edges get a vertex: every x-edge crossing in (j, i) lattice
    order, then every y-edge crossing. Exact-zero samples count as outside,
    and a crossing edge that ends in one has its vertex ZERO_NUDGE of the
    edge away from it (`_fractions`); `grid.samples` is left untouched.
    Segments follow cell order; a segment whose ends coincide is
    flat, walked through without a point (`_chains`). Each polyline is the
    chain of one first segment (the first non-flat one not yet used), walked
    forward from its tail, then, if open, backward from it; polylines are
    ordered by their first segment. The output depends on neither the bands
    nor the threads.
    """
    return _polylines(grid.samples, grid.domain, grid.field, None)


def _polylines(source, domain, field, workers):
    """The polylines of `_mesh_lattice(source, domain, ...)` on `workers`
    threads, or, for a field with keys on a lattice of more than
    SLAB_SAMPLES samples, of its sparse route on the calling thread, which
    gives the same points and segments, chained by `_chains`.

    A saddle cell (codes 6 and 9) joins its inside corners when its centre is
    inside: by the field's value there, one call for all of a band's saddles,
    or, when field is None, by the sum of its four corners in the samples
    source holds.
    """
    xs, ys = domain.axes()

    def cases(k0, cells, code):
        key = code.astype(np.intp)
        saddle = np.flatnonzero((code == 6) | (code == 9))
        if len(saddle):
            j, i = np.divmod(cells[saddle], domain.nx)
            j += k0
            if field is not None:
                with np.errstate(**_FIELD_ERRSTATE):
                    center = field(xs[i] + 0.5 * domain.dx, ys[j] + 0.5 * domain.dy)
            else:
                center = source[j, i] + source[j, i + 1] + source[j + 1, i] + source[j + 1, i + 1]
            key[saddle] += 16 * (np.broadcast_to(np.asarray(center, dtype=float), saddle.shape) < 0)
        return _SEGMENTS[key]

    keys = getattr(field, "keys", None) if callable(source) else None
    sparse = None
    if keys is not None and len(xs) * len(ys) > SLAB_SAMPLES:
        # Bands of up to SLAB_SAMPLES samples, sampled in field calls of
        # BAND_SAMPLES, as the dense bands are. With bands of BAND_SAMPLES,
        # one field call's scratch array was as large as the band's samples,
        # and the heap gave both back to the system after each band: 470-770
        # minor page faults per grid-2048 curve (ru_minflt), and the
        # `curves_2d` command loop ran 20-30% slower.
        sparse, workers = (keys, BLOCK_CELLS, SLAB_SAMPLES), 1
    points, segments = _mesh_lattice(source, domain, _SLOTS, cases, workers, sparse)
    return _chains(*segments.T, points)


def _chains(a, b, points):
    """Polylines of the segments a[s]-b[s] over vertex ids, chained through
    shared vertices; no vertex has more than two segments.

    A segment whose ends coincide is flat: a chain walks through it, adds
    no point for it and never starts at it, so the chain does not split
    where a crossing rounds onto a lattice point. Each chain starts at the
    first non-flat segment s0 no earlier chain used, and walks forward from
    a[s0] -> b[s0] along each directed segment's successor (d < n runs a[d]
    -> b[d], d + n the reverse) to an end or back to s0; an open chain then
    walks backward from s0's reverse, and that part, reversed, comes first.
    Its polyline is the tail of each non-flat segment, plus the last head
    if it is open. A closed chain left with two points encloses nothing and
    is dropped.
    """
    n = len(a)
    tail, head = np.concatenate([a, b]), np.concatenate([b, a])
    directed = np.arange(2 * n)
    reverse = np.concatenate([directed[n:], directed[:n]])
    # the directed segments leaving each vertex, one per segment there
    out = np.full((len(points), 2), -1, dtype=np.int64)
    out[tail, 0] = directed
    second = out[tail, 0] != directed
    out[tail[second], 1] = directed[second]
    # successor: leave the head along its other segment; -1 marks an end.
    # The walk reads it and `used` through memoryviews, which give Python
    # ints and bools without a list copy of the array.
    nxt_out = out[head]
    succ = memoryview(np.where(nxt_out[:, 0] == reverse, nxt_out[:, 1], nxt_out[:, 0]))
    flat = (points[a] == points[b]).all(axis=1)
    used = flat.copy()  # a flat segment starts no chain
    is_used = memoryview(used)
    lines = []
    for s0 in range(n):
        if is_used[s0]:
            continue
        walk, d = [s0], succ[s0]
        while d >= 0 and d != s0:
            walk.append(d)
            d = succ[d]
        closed = d >= 0
        if not closed:
            back, d = [], succ[s0 + n]
            while d >= 0:
                back.append(d)
                d = succ[d]
            walk = np.concatenate([reverse[back[::-1]], walk])
        walk = np.asarray(walk)
        seg = walk % n
        used[seg] = True
        verts = tail[walk[~flat[seg]]]
        if not closed:
            verts = np.append(verts, head[walk[-1]])
        elif len(verts) == 2:
            continue
        lines.append(Polyline(points[verts], closed))
    return lines


def frantz_polyline(s, r, n) -> Polyline:
    """Closed polyline of n uniformly-spaced Frantz squircle points."""
    if n < 8:
        raise ValueError(f"sample count must be >= 8, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    x, y = frantz_point(t, s, r)
    return Polyline(np.column_stack([x, y]), closed=True)
