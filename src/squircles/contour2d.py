"""Regular-grid sampling, the band kernel and marching-squares extraction.

Vertices are interpolated on grid edges and welded by global edge identity, so
adjacent cells share endpoints exactly and segments chain into maximal
polylines. Output order and bytes are deterministic for fixed inputs.

`_mesh_bands` is the extraction kernel of marching squares and of marching
cubes (in `polygonize3d`). It visits only the active cells (corners of both
signs) and the crossing edges, and never writes to the samples. One entry,
`_mesh_lattice`, runs it over the bands of a lattice (rows in 2D, z-slabs in
3D) for `contour`, `marching_squares` and `polygonize3d`'s `polygonize` and
`marching_cubes`: from a field, sampled band by band as each starts
(`_slab_loader`), so no whole lattice is held, or from a sampled lattice.
`LatticeDomain` is the one body of `Domain2D` and `Domain3D`, and
`_sample_banded` the one sampler, which checks its own samples. A large
lattice of a field with keys, curve or surface, is meshed only in the blocks
the level set may cross (`_sparse_bands`), to the same points and elements:
`_certify` proves the other blocks' signs, and each band of `_mesh_bands` is
a run of block layers whose unproven blocks are stacked and sampled
together. Marching squares' segments follow cell order, and chains follow
segment order (`_chains`): each chain starts at the first segment no earlier
chain used, walks forward along each segment's successor, then, if open,
backward.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .fields2d import frantz_point

# Relative nudge applied to exact-zero samples so the case lookup never sees a
# vertex sitting on the contour.
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

# Most samples one band of `_slab_loader` holds, or of a curve's
# `_sparse_bands`, chosen by measurement on 2 cores. Against 4x BAND_SAMPLES,
# slabs of 2x ran 35-60% slower at grid 256 (sphube, oblique3d). Slabs of 8x
# ran ~20% faster there, but ~30% slower for lame3d at grid 128 (3 slabs, too
# few to pool), and one such slab alone is half the grid-128 volume, the
# tracemalloc bound the tests set. A 2D curve at grid 2048 is then 9 bands of
# 254 cell rows.
SLAB_SAMPLES = 4 * BAND_SAMPLES

# Cells along each side of the blocks of a curve whose sign `_certify` tries
# to prove (`_sparse_bands`). A grid-2048 curve crosses about 5% of such
# blocks at tiles 1 and at most 16% at tiles 3.
BLOCK_CELLS = 32

# The same for the blocks of a surface (`_sparse_bands`). At grid 256 a
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
    """run(spans) over the (lo, hi) spans of the bands between consecutive
    bounds: one result per band, in band order.

    This is the only thread pool. With at least POOL_MIN_BANDS bands per
    worker, each of `workers` threads (default: `default_workers()`) runs one
    contiguous run of them, else the calling thread runs all. A band's work
    must release the GIL (numpy on large arrays) to gain from the pool.
    """
    spans = list(zip(bounds[:-1], bounds[1:]))
    workers = default_workers() if workers is None else max(1, workers)
    if workers > 1 and len(spans) >= POOL_MIN_BANDS * workers:
        cuts = [len(spans) * w // workers for w in range(workers + 1)]
        runs = [spans[a:b] for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            return [result for results in pool.map(run, runs) for result in results]
    return run(spans)


def _open_lattice(axes):
    """The coordinates of each of axes (x first) shaped to broadcast over
    their lattice, which is indexed slowest axis first."""
    n = len(axes)
    # axis k varies along array dimension n - 1 - k
    return [a.reshape((1,) * (n - 1 - k) + (-1,) + (1,) * k) for k, a in enumerate(axes)]


def _sample_banded(field, coords, workers, out=None):
    """Samples of field at coords (x first, arrays that broadcast to the
    samples: `_open_lattice` of a lattice's axes, or a stack of lattices),
    evaluated in bands of their first dimension, and their largest |sample|.

    Each band holds at most BAND_SAMPLES samples (at least one index of the
    first dimension) and is written straight into out (default: a new
    array): a field whose `fills_out` attribute is true is called with out=
    the band's view and fills it, any other field's result is assigned to
    the band. The samples are independent of the band size and the worker
    count: each sample is one scalar expression. A non-finite sample raises
    a ValueError naming the first one in index order; each band's max and
    min carry nan and +-inf through, so only a failed check reads the
    samples again.
    """
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    vals = np.empty(shape) if out is None else out
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
    peak = np.max(_run_bands(lambda spans: [run(lo, hi) for lo, hi in spans], bounds, workers))
    if not math.isfinite(peak):
        index = tuple(np.argwhere(~np.isfinite(vals))[0])
        where = ", ".join(f"{np.broadcast_to(c, shape)[index]}" for c in coords)
        raise ValueError(f"non-finite field value at sample ({where})")
    return vals, peak


def sample_grid2d(field, domain: Domain2D, workers: int | None = None) -> Grid2D:
    """Evaluate a field on the domain lattice, partitioned over row bands.
    `contour` contours a field without holding this grid."""
    return Grid2D(domain, _sample_banded(field, _open_lattice(domain.axes()), workers)[0], field=field)


def _slab_bounds(axes):
    """Cell layers at which the bands over the lattice of axes (x first)
    start along its slowest axis, then that axis's cell count: each band
    holds at most SLAB_SAMPLES samples and at least one cell layer."""
    layer = math.prod(len(a) for a in axes[:-1])
    layers = max(1, SLAB_SAMPLES // layer - 1)
    cells = len(axes[-1]) - 1
    return np.arange(0, cells + layers, layers).clip(max=cells)


def _slab_loader(field, axes):
    """load(k0, k1, below) for `_mesh_bands`: the samples of field on layers
    k0..k1 of the lattice of axes (x first) along its slowest axis, indexed
    slowest axis first, and the largest |sample| of those it sampled.

    below is None or layer k0 as the band below loaded it: then that layer
    is copied, not sampled again, with the same bits (each sample is one
    scalar expression), nor checked again. `_sample_banded` checks the rest,
    so no band is meshed, or handed up, with a non-finite sample.
    """
    *across, slow = _open_lattice(axes)
    layer = tuple(len(a) for a in reversed(axes[:-1]))

    def load(k0, k1, below):
        vals = np.empty((k1 - k0 + 1,) + layer)
        first = 0 if below is None else 1
        if first:
            vals[0] = below
        return vals, _sample_banded(field, (*across, slow[k0 + first:k1 + 1]), 1, vals[first:])[1]

    return load


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


def _nudge_zeros(peak, *gathered):
    """Set the exact zeros in arrays of gathered samples to +ZERO_NUDGE times
    peak, the largest |sample|, so that they count as outside."""
    zeros = [g == 0.0 for g in gathered]
    if any(z.any() for z in zeros):
        nudge = ZERO_NUDGE * (float(peak) or 1.0)
        for g, z in zip(gathered, zeros):
            g[z] = nudge


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
    (slowest axis first), at the fractions t = v0 / (v0 - v1) of the edges
    that linear interpolation between the end samples v0, v1 gives."""
    n = len(coords)
    pts = np.column_stack([coords[k][index[n - 1 - k]] for k in range(n)])
    pts[:, axis] += t * steps[axis]
    return pts


def _band(load, k0, k1, below, top, slots, cases):
    """The part of the level set in the band of cell layers k0..k1 along the
    slowest axis, whose samples and largest |sample| load(k0, k1, below)
    gives (layers k0..k1 of the lattice, slowest axis first).

    Returns that largest |sample|, a copy of the band's top layer (the next
    band's below) and its part: None when no edge of the band crosses, else:
    - per axis, its crossings as the flat lattice index (within the band) of
      each edge's low end and the edge fraction v0 / (v0 - v1) of its end
      samples, plus the positions and end samples of the crossings with an
      end sample of exactly 0, whose fraction the zero nudge changes;
    - the rows that cases(k0, cells, code) gives for the band's active cells
      (band-local flat indices and sign codes), as band-local ids: each
      axis's crossings are ranked in lattice order, after all the crossings
      of the axes before it;
    - the first band-local id of each axis.
    The ids count every crossing in the band's layers, but the crossings of
    the other axes in its top layer are returned only when top is set:
    otherwise the next band's bottom layer holds them.
    """
    # each array is dropped once read: with the crossings and elements of
    # the bands before it, a band's largest arrays set the kernel's peak
    vals, peak = load(k0, k1, below)
    layer = vals[-1].copy()
    inside = vals < 0
    crossings = _edge_crossings(vals, inside)
    del vals
    if not any(len(lo) for _, lo, _, _ in crossings):
        return peak, layer, None
    kept, indices, first_ids = _band_crossings(crossings, k1 - k0, top)
    del crossings
    cells, code = _active_cells(inside)
    cell_shape = tuple(s - 1 for s in inside.shape)
    del inside
    ids = _slot_ids(code, slots, indices, cell_shape, first_ids)
    del indices
    return peak, layer, (kept, _element_ids(cases(k0, cells, code), ids), first_ids)


def _band_crossings(crossings, layers, top):
    """`_band`'s crossings of a band of `layers` cell layers, from the
    `_edge_crossings` of all its layers in lattice order: the part it
    returns of each axis, the lattice index of every crossing and the first
    band-local id of each axis."""
    kept = []
    for axis, (index, lo, v0, v1) in enumerate(crossings):
        n = len(lo) if top or axis == len(crossings) - 1 else np.searchsorted(index[0], layers)
        v0, v1 = v0[:n], v1[:n]
        zero = np.flatnonzero((v0 == 0.0) | (v1 == 0.0))
        kept.append((lo[:n].copy(), v0 / (v0 - v1), zero, v0[zero], v1[zero]))
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


def _mesh_bands(band, bounds, coords, steps, workers, peak=max):
    """Points and elements of the zero level set on the lattice of coords
    (x first) spaced by steps, in bands of cell layers along the slowest axis
    (Lorensen & Cline's slice-wise formulation, for any dimension).

    Each band between consecutive bounds runs band(k0, k1, below, top),
    which returns what `_band` returns, in runs of bands on
    `_run_bands(..., workers)`: a run goes bottom to top and hands each
    band's top layer to the next as below (None for its first band); top is
    set for the last band. A weld in band order turns the band-local ids
    into global ones. The points are every x-edge crossing in lattice order,
    then every y-edge crossing, and so on; the elements are the rows of the
    band's cases over point ids. A zero sample ending a crossing edge counts
    as +ZERO_NUDGE times peak(the bands' largest |sample|s), which is taken
    only then; the default, their max, is the lattice's largest |sample|
    when the bands sample all of it. The output depends on neither the
    bands nor the worker count.
    """
    n = len(coords)

    def run(spans):
        below, results = None, []
        for k0, k1 in spans:
            largest, below, part = band(k0, k1, below, k1 == bounds[-1])
            results.append((largest, part))
        return results

    peaks, bands = zip(*_run_bands(run, bounds, workers))
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

    zeros = [c[1:] for _, kept in parts for c in kept if len(c[2])]
    if zeros:
        _nudge_zeros(peak(peaks), *(v for *_, v0, v1 in zeros for v in (v0, v1)))
    for t, zero, v0, v1 in zeros:
        t[zero] = v0 / (v0 - v1)
    shape = tuple(len(c) for c in reversed(coords))
    points = np.empty((counts.sum(), n))
    start = 0
    for axis in range(n):
        for k0, kept in parts:
            lo, t = kept[axis][:2]
            index = np.unravel_index(lo + k0 * math.prod(shape[1:]), shape)
            points[start:start + len(lo)] = _edge_points(index, t, coords, steps, axis)
            start += len(lo)
            kept[axis] = None
    return points, elements


def _mesh_lattice(source, domain, slots, cases, workers):
    """Points and elements of the zero level set on the lattice of domain:
    `_mesh_bands` over the bands of `_slab_bounds`, on `workers` threads
    (default `default_workers()`), with cases(k0, cells, code) as its cases.

    source is a field, sampled band by band by `_slab_loader` as each band
    starts, or the samples of the whole lattice, slowest axis first, meshed
    over views (their largest |sample| taken once).
    """
    axes = domain.axes()
    if callable(source):
        load = _slab_loader(source, axes)
    else:
        peak = max(source.max(), -source.min())

        def load(k0, k1, below):
            return source[k0:k1 + 1], peak

    return _mesh_bands(lambda k0, k1, below, top: _band(load, k0, k1, below, top, slots, cases),
                       _slab_bounds(axes), axes, domain.steps(), workers)


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
    it, +1 or -1, or 0 where no sign is proven; a bound on its |samples|,
    which holds where a sign is proven; and the field at its corners, the
    2^n samples that pair each axis's least and greatest key in the block,
    shaped (2,) * n + the block counts (axis k's pair on dimension n-1-k).

    The field, or each of `keys.parts` (the field is their max), is
    monotone or multilinear in the keys (`fields2d.Keys`), so its least and
    greatest value at the corners bound it over the block; a max of parts is
    bounded below by the greatest of their least values and above by the
    greatest of their greatest. A sign is proven when the corners are finite
    and the bounds lie beyond the margin, CERTIFY_MARGIN times `keys.terms`
    of the block's largest |keys|, a normal float; the bound on |samples| is
    the larger |bound| plus the margin. The corners are the field's values
    at those lattice samples, the same bits as sampling gives them.
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
        bound = np.maximum(high, -low) + margin
    corners = functools.reduce(np.maximum, parts)
    proven = np.isfinite(corners).all(axis=pairs) & (margin >= np.finfo(float).tiny) & (margin < np.inf)
    return proven * ((low > margin).astype(np.int8) - (high < -margin)), bound, corners


def _sparse_bands(field, keys, domain, slots, cases, workers, block, samples):
    """`_mesh_lattice`'s points and elements for a field with keys, from the
    samples of the blocks of `block` cells a side whose sign `_certify` does
    not prove, or None where one of those samples is not finite (the band
    kernel then names the first).

    A band is a run of whole block layers along the slowest axis whose
    unproven blocks hold at most `samples` samples together, or a single
    layer, run by `_mesh_bands` on `_run_bands(..., workers)`. Its unproven
    blocks' closed sample ranges (past the lattice's last sample each
    repeats that sample) are stacked along a last axis, as (block + 1, ...,
    block + 1, blocks) samples, and sampled by `_sample_banded`. A proven block
    has no active cell nor crossing edge, so a crossing edge is in every
    block that holds it and an active cell in one. Along each axis but its
    own, an edge is kept by the block that holds it below that block's upper
    face, or on the lattice's end or the band's top, which drops the copies;
    the crossings of each axis and the active cells are put in lattice order
    (one argsort each). The band then returns `_band`'s very tuple, with no
    top layer. The zero nudge takes the lattice's largest |sample|, found
    exactly: the largest of the sampled blocks', of the corners' and of the
    samples of each proven block whose bound on |samples| reaches those.
    """
    axes = domain.axes()
    n, b = len(axes), block
    signs, bound, corners = _certify(field, keys, axes, b)
    if not np.isfinite(corners).all():
        return None
    # cell counts, slowest axis first, and the side of a block's closed sample range
    cells, span = tuple(len(a) - 1 for a in reversed(axes)), np.arange(b + 1)

    def sample(where):
        # the stacked samples of the blocks at where (per block, its block
        # index, slowest axis first), on this thread, as the band is; numpy's
        # inner loops run along the stack
        coords = [a[np.minimum(b * where[:, n - 1 - k] + span[:, None], len(a) - 1)].reshape(
            (1,) * (n - 1 - k) + (b + 1,) + (1,) * k + (len(where),)) for k, a in enumerate(axes)]
        return _sample_banded(field, coords, 1)

    def band(k0, k1, below, top):
        where = np.argwhere(signs[k0 // b:-(-k1 // b)] == 0)
        if not len(where):
            return 0.0, None, None
        # per axis, slowest first, each block's first band-local lattice index
        first = list(b * where.T)
        where[:, 0] += k0 // b
        vals, largest = sample(where)
        # the band's cell counts, slowest axis first
        ends = (k1 - k0,) + cells[1:]

        def lattice(index):
            # the band-local lattice index of the points at a stacked index
            return [f[index[n]] + i for f, i in zip(first, index)]

        inside = vals < 0
        crossings = []
        for axis, (index, _, v0, v1) in enumerate(_edge_crossings(vals, inside, n)):
            at, keep = lattice(index), np.ones(len(v0), dtype=bool)
            for d in range(n):
                if d != n - 1 - axis:
                    keep &= (index[d] < b) & (at[d] < ends[d]) | (at[d] == ends[d])
            at = tuple(i[keep] for i in at)
            lo = np.ravel_multi_index(at, tuple(e + 1 for e in ends))
            order = np.argsort(lo)
            crossings.append((tuple(i[order] for i in at), lo[order], v0[keep][order], v1[keep][order]))
        del vals
        if not any(len(lo) for _, lo, _, _ in crossings):
            return largest, None, None
        kept, indices, first_ids = _band_crossings(crossings, ends[0], top)
        del crossings
        cell, code = _active_cells(inside, n)
        del inside
        at = lattice(np.unravel_index(cell, (b,) * n + (len(where),)))
        # past the lattice's end, a cell is a copy
        keep = np.logical_and.reduce([i < e for i, e in zip(at, ends)])
        cell = np.ravel_multi_index(tuple(i[keep] for i in at), ends)
        order = np.argsort(cell)
        cell, code = cell[order], code[keep][order]
        ids = _slot_ids(code, slots, indices, ends, first_ids)
        return largest, None, (kept, _element_ids(cases(k0, cell, code), ids), first_ids)

    def peak(peaks):
        top = max(max(peaks), np.abs(corners).max())
        far = np.argwhere((signs != 0) & (bound >= top))
        return max(top, sample(far)[1]) if len(far) else top

    # each band's first block layer: a new band starts where the samples of
    # the unproven blocks since the last start would pass `samples`
    per_layer = np.count_nonzero(signs.reshape(len(signs), -1) == 0, axis=1) * (b + 1) ** n
    starts, held = [0], 0
    for layer, count in enumerate(per_layer):
        if layer and held + count > samples:
            starts.append(layer)
            held = 0
        held += count
    try:
        return _mesh_bands(band, np.minimum(b * np.array(starts + [len(per_layer)]), cells[0]), axes,
                           domain.steps(), workers, peak=peak)
    except ValueError:
        return None


def contour(field, domain: Domain2D, workers: int | None = None) -> list[Polyline]:
    """Extract the zero level set of a field as polylines:
    `marching_squares` of `sample_grid2d`, byte for byte, without holding the
    sampled grid.

    A field with keys (`fields2d.Keys`) on a lattice of more than
    SLAB_SAMPLES samples is sampled and meshed only in the blocks of
    BLOCK_CELLS cells a side whose sign `_certify` does not prove
    (`_sparse_bands`), on the calling thread, exact zeros included. Any
    other, or one of those with a non-finite sample, runs the band kernel
    (`_mesh_lattice`) over row bands of at most SLAB_SAMPLES samples, each
    sampled as it starts, one run of bands per thread (`workers`, default
    `default_workers()`). A non-finite sample raises the ValueError
    `sample_grid2d` raises.
    """
    return _polylines(field, domain, field, workers)


def marching_squares(grid: Grid2D) -> list[Polyline]:
    """Extract the zero level set of a sampled field as polylines.

    Saddle cells are disambiguated by the sign of the cell-center field value,
    one field call for a band's centers (or by the sum of the corners when
    the grid carries no field handle). Polylines that touch the domain
    boundary are open; all others are closed.

    This is the band kernel of marching cubes (`_mesh_lattice`), run over
    views of the samples: the row bands of `contour`, on
    `default_workers()` threads. Only active cells are visited and only
    crossing edges get a vertex: every x-edge crossing in (j, i) lattice
    order, then every y-edge crossing. Exact-zero samples count as outside
    and are nudged toward positive (by ZERO_NUDGE times the grid's largest
    |sample|) where they end a crossing edge; `grid.samples` is left
    untouched. Segments follow cell order; a segment whose ends coincide is
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
    SLAB_SAMPLES samples, of `_sparse_bands` on the calling thread, which
    gives the same points and segments, chained by `_chains`.

    A saddle cell (codes 6 and 9) joins its inside corners when its centre is
    inside: by the field's value there, one call for all of a band's saddles,
    or, when field is None, by the sum of its corners in the samples source
    holds, zeros nudged by their largest |sample|.
    """
    xs, ys = domain.axes()
    if field is None:
        peak = max(source.max(), -source.min())

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
                corners = [source[j, i], source[j, i + 1], source[j + 1, i], source[j + 1, i + 1]]
                _nudge_zeros(peak, *corners)
                center = corners[0] + corners[1] + corners[2] + corners[3]
            key[saddle] += 16 * (np.broadcast_to(np.asarray(center, dtype=float), saddle.shape) < 0)
        return _SEGMENTS[key]

    keys = getattr(field, "keys", None) if callable(source) else None
    mesh = None
    if keys is not None and len(xs) * len(ys) > SLAB_SAMPLES:
        # Bands of up to SLAB_SAMPLES samples, sampled in field calls of
        # BAND_SAMPLES, as the dense bands are. With bands of BAND_SAMPLES,
        # one field call's scratch array was as large as the band's samples,
        # and the heap gave both back to the system after each band: 470-770
        # minor page faults per grid-2048 curve (ru_minflt), and the
        # `curves_2d` command loop ran 20-30% slower.
        mesh = _sparse_bands(field, keys, domain, _SLOTS, cases, 1, BLOCK_CELLS, SLAB_SAMPLES)
    if mesh is None:
        mesh = _mesh_lattice(source, domain, _SLOTS, cases, workers)
    points, segments = mesh
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
