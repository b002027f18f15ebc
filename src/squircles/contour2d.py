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
`_sample_banded` the one sampler, which checks its own samples. A large 2D
lattice of a field with keys is meshed only in the blocks the curve may
cross (`_sparse_mesh`), to the same points and segments. Marching squares'
segments follow cell order, and chains follow segment order: each chain
starts at the first segment no earlier chain used, grows forward from its
tail, then backward from its head.
"""

from __future__ import annotations

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

# Most samples one band of `_slab_loader` holds, chosen by measurement on 2
# cores. Against 4x BAND_SAMPLES, slabs of 2x ran 35-60% slower at grid 256
# (sphube, oblique3d). Slabs of 8x ran ~20% faster there, but ~30% slower for
# lame3d at grid 128 (3 slabs, too few to pool), and one such slab alone is
# half the grid-128 volume, the tracemalloc bound the tests set. A 2D curve
# at grid 2048 is then 9 bands of 254 cell rows.
SLAB_SAMPLES = 4 * BAND_SAMPLES

# Cells along each side of the blocks whose sign `_block_signs` tries to
# prove. A grid-2048 curve crosses about 5% of such blocks at tiles 1 and at
# most 16% at tiles 3.
BLOCK_CELLS = 32

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


def _sample_banded(field, axes, workers, out=None):
    """Samples of field over the lattice spanned by axes (x first), indexed
    slowest axis first and evaluated in bands of the slowest axis, and their
    largest |sample|.

    Each band holds at most BAND_SAMPLES samples (at least one row) and is
    written straight into out (default: a new array): a field whose
    `fills_out` attribute is true is called with out= the band's view and
    fills it, any other field's result is assigned to the band. The samples
    are independent of the band size and the worker count: each sample is
    one scalar expression. A non-finite sample raises a ValueError naming
    the first one in lattice order; each band's max and min carry nan and
    +-inf through, so only a failed check reads the samples again.
    """
    n = len(axes)
    # axis k varies along array dimension n - 1 - k
    coords = [a.reshape((1,) * (n - 1 - k) + (-1,) + (1,) * k) for k, a in enumerate(axes)]
    shape = tuple(len(a) for a in reversed(axes))
    vals = np.empty(shape) if out is None else out
    fills = getattr(field, "fills_out", False)

    def run(lo, hi):
        band = vals[lo:hi]
        with np.errstate(**_FIELD_ERRSTATE):
            if fills:
                field(*coords[:-1], coords[-1][lo:hi], out=band)
            else:
                band[...] = field(*coords[:-1], coords[-1][lo:hi])
        return max(band.max(), -band.min())

    rows = max(1, BAND_SAMPLES // math.prod(shape[1:]))
    bounds = np.arange(0, shape[0] + rows, rows).clip(max=shape[0])
    peak = np.max(_run_bands(lambda spans: [run(lo, hi) for lo, hi in spans], bounds, workers))
    if not math.isfinite(peak):
        index = np.argwhere(~np.isfinite(vals))[0][::-1]
        where = ", ".join(f"{a[i]}" for a, i in zip(axes, index))
        raise ValueError(f"non-finite field value at sample ({where})")
    return vals, peak


def sample_grid2d(field, domain: Domain2D, workers: int | None = None) -> Grid2D:
    """Evaluate a field on the domain lattice, partitioned over row bands.
    `contour` contours a field without holding this grid."""
    return Grid2D(domain, _sample_banded(field, domain.axes(), workers)[0], field=field)


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
    *across, slow = axes

    def load(k0, k1, below):
        vals = np.empty((k1 - k0 + 1,) + tuple(len(a) for a in reversed(across)))
        first = 0 if below is None else 1
        if first:
            vals[0] = below
        return vals, _sample_banded(field, (*across, slow[k0 + first:k1 + 1]), 1, vals[first:])[1]

    return load


def _active_cells(inside, ndim=None):
    """Flat indices (in lattice order) and sign codes of the cells whose
    corners have both signs, over the last ndim axes of inside (default:
    all); any axes before them index a stack of lattices.

    A cell's code has the corner at lattice offset (..., dj, di) at bit
    ... + 2 dj + di. It is built one axis at a time, one byte per sample.
    """
    ndim = inside.ndim if ndim is None else ndim
    code = inside.view(np.uint8)
    for axis in range(ndim):
        dim = inside.ndim - 1 - axis
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
    only the last ndim axes (default: all) are lattice axes."""
    n = vals.ndim
    flat = vals.reshape(-1)
    crossings = []
    for axis in range(n if ndim is None else ndim):
        dim = n - 1 - axis
        shape = vals.shape[:dim] + (vals.shape[dim] - 1,) + vals.shape[dim + 1:]
        # np.diff is not_equal on booleans; only its nonzero positions are kept
        index = np.unravel_index(np.flatnonzero(np.diff(inside, axis=dim)), shape)
        lo = np.ravel_multi_index(index, vals.shape)
        crossings.append((index, lo, flat[lo], flat[lo + math.prod(vals.shape[n - axis:])]))
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
    compares = {}
    for e, (axis, offset) in enumerate(slots):
        # Slot e of cell c is the edge at c + offset: the crossing edges that
        # have such a cell, in order, pair up with the cells whose slot-e edge
        # crosses, in cell order.
        low_bit = sum(o << (n - 1 - d) for d, o in enumerate(offset))
        sel = np.flatnonzero(((code >> low_bit) ^ (code >> (low_bit + (1 << axis)))) & 1)
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
    kept = []
    for axis, (index, lo, v0, v1) in enumerate(crossings):
        n = len(lo) if top or axis == len(crossings) - 1 else np.searchsorted(index[0], k1 - k0)
        v0, v1 = v0[:n], v1[:n]
        zero = np.flatnonzero((v0 == 0.0) | (v1 == 0.0))
        kept.append((lo[:n].copy(), v0 / (v0 - v1), zero, v0[zero], v1[zero]))
    first_ids = np.cumsum([0] + [len(c[1]) for c in crossings[:-1]])
    indices = [c[0] for c in crossings]
    del crossings
    cells, code = _active_cells(inside)
    cell_shape = tuple(s - 1 for s in inside.shape)
    del inside
    ids = _slot_ids(code, slots, indices, cell_shape, first_ids)
    del indices
    return peak, layer, (kept, _element_ids(cases(k0, cells, code), ids), first_ids)


def _element_ids(rows, ids):
    """The elements of rows (per active cell, its elements as edge slots,
    -1 padded), in cell order, as the ids[slot, cell] of their slots."""
    # the (cell, element) pairs that hold an element, in order, and each
    # element's slots, gathered from ids as one flat array
    pick = np.flatnonzero(rows[:, :, 0] >= 0)
    ends = rows.reshape(-1, rows.shape[2])[pick].astype(np.intp)
    return ids.reshape(-1)[ends * ids.shape[1] + (pick // rows.shape[1])[:, None]]


def _mesh_bands(load, bounds, coords, steps, slots, cases, workers):
    """Points and elements of the zero level set on the lattice of coords
    (x first) spaced by steps, in bands of cell layers along the slowest axis
    (Lorensen & Cline's slice-wise formulation, for any dimension).

    Each band between consecutive bounds runs `_band` on its samples
    load(k0, k1, below), in runs of bands on `_run_bands(..., workers)`: a
    run goes bottom to top and hands each band's top layer to the next as
    below (None for its first band). A weld in band order turns the
    band-local ids into global ones. The points are every x-edge crossing in
    lattice order, then every y-edge crossing, and so on; the elements are
    the rows of cases(k0, cells, code) over point ids. A zero sample ending a
    crossing edge counts as +ZERO_NUDGE times the largest |sample| of all the
    bands. The output depends on neither the bands nor the worker count.
    """
    n = len(coords)

    def run(spans):
        below, results = None, []
        for k0, k1 in spans:
            peak, below, band = _band(load, k0, k1, below, k1 == bounds[-1], slots, cases)
            results.append((peak, band))
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
        np.add(local, shift[0], out=out)
        for axis in range(1, n):
            np.add(out, shift[axis] - shift[axis - 1], out=out, where=local >= first_ids[axis])
        start += len(local)
        parts[b] = k0, kept

    zeros = [c[1:] for _, kept in parts for c in kept if len(c[2])]
    _nudge_zeros(max(peaks), *(v for *_, v0, v1 in zeros for v in (v0, v1)))
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
    (default `default_workers()`), with cases(k0, cells, code, lattice) as
    its cases.

    source is a field, sampled band by band by `_slab_loader` as each band
    starts (lattice is None), or the samples of the whole lattice, slowest
    axis first, meshed over views (lattice is (samples, their largest
    |sample|), taken once).
    """
    axes = domain.axes()
    if callable(source):
        load, lattice = _slab_loader(source, axes), None
    else:
        lattice = source, max(source.max(), -source.min())

        def load(k0, k1, below):
            return source[k0:k1 + 1], lattice[1]

    return _mesh_bands(load, _slab_bounds(axes), axes, domain.steps(), slots,
                       lambda k0, cells, code: cases(k0, cells, code, lattice), workers)


def _key_blocks(key, n):
    """Per block of BLOCK_CELLS cells along an axis of n cells, given the
    keys of its n + 1 samples: the sample indices of the least and of the
    greatest key in the block's closed sample range, and its largest |key|."""
    blocks = -(-n // BLOCK_CELLS)
    # the last sample repeated past the lattice's end changes no extreme
    # and, coming after it, no first index of one
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(key, (0, blocks * BLOCK_CELLS - n), mode="edge"), BLOCK_CELLS + 1)[::BLOCK_CELLS]
    start = BLOCK_CELLS * np.arange(blocks)
    return start + windows.argmin(axis=1), start + windows.argmax(axis=1), np.abs(windows).max(axis=1)


def _block_signs(field, keys, axes):
    """The proven sign of every sample in each block of BLOCK_CELLS x
    BLOCK_CELLS cells of the lattice of axes (x first), indexed (block row,
    block column): +1 or -1, or 0 where no sign is proven.

    The field, monotone or multilinear in the keys (`fields2d.Keys`), is
    bounded over a block by its values at the 4 samples that pair each
    axis's least and greatest key in the block. A sign is proven when the 4
    are finite and all lie beyond CERTIFY_MARGIN times `keys.terms` of the
    block's largest |keys|, a normal float.
    """
    xs, ys = axes
    with np.errstate(**_FIELD_ERRSTATE):
        (x0, x1, kx), (y0, y1, ky) = (_key_blocks(keys.key(a), len(a) - 1) for a in axes)
        corners = field(xs[np.stack([x0, x1])][:, None, None, :], ys[np.stack([y0, y1])][None, :, :, None])
        margin = CERTIFY_MARGIN * keys.terms(kx[None, :], ky[:, None])
    corners = corners.reshape(4, len(y0), len(x0))
    low, high = corners.min(axis=0), corners.max(axis=0)
    proven = np.isfinite(corners).all(axis=0) & (margin >= np.finfo(float).tiny) & (margin < np.inf)
    return proven * ((low > margin).astype(np.int8) - (high < -margin))


def _sparse_mesh(field, keys, domain, cases, workers):
    """`_mesh_lattice`'s points and segments for a 2D field with keys, from
    the samples of the blocks whose sign `_block_signs` does not prove, or
    None where one of those samples is not finite or an exact zero ends a
    crossing edge (its nudge needs the largest |sample| of the lattice).

    The closed sample ranges of those blocks, in block order, are stacked
    and sampled in chunks of at most SLAB_SAMPLES samples (at least one
    block), one field call each, on `_run_bands(..., workers)`. A proven
    block has no active cell nor crossing edge, so each crossing edge is in
    one or two of the sampled blocks and each active cell in one. Their
    crossings are mapped to lattice indices, the copies of an edge that two
    blocks share are dropped and the rest put in lattice order, x-edges
    first; the active cells are put in cell order and meshed by
    cases(cells, code).
    """
    axes = xs, ys = domain.axes()
    nx, ny, b = domain.nx, domain.ny, BLOCK_CELLS
    block_rows, block_cols = np.nonzero(_block_signs(field, keys, axes) == 0)
    if not len(block_rows):
        return np.empty((0, 2)), np.empty((0, 2), dtype=np.int64)
    # each block's closed sample range per axis; past the lattice's last
    # sample it repeats that sample, so it adds no crossing that is not a copy
    span = np.arange(b + 1)
    rows = np.minimum(b * block_rows[:, None] + span, ny)
    cols = np.minimum(b * block_cols[:, None] + span, nx)
    fills = getattr(field, "fills_out", False)

    def run(c0, c1):
        x, y = xs[cols[c0:c1, None, :]], ys[rows[c0:c1, :, None]]
        vals = np.empty((c1 - c0, b + 1, b + 1))
        with np.errstate(**_FIELD_ERRSTATE):
            if fills:
                field(x, y, out=vals)
            else:
                vals[...] = field(x, y)
        if not math.isfinite(max(vals.max(), -vals.min())):
            return None
        inside = vals < 0
        crossings = _edge_crossings(vals, inside, 2)
        if any(((v0 == 0.0) | (v1 == 0.0)).any() for *_, v0, v1 in crossings):
            return None
        # per axis: the flat index of each crossing edge among that axis's
        # lattice edges, (ny + 1) x nx for x, ny x (nx + 1) for y, and its t
        edges = [(rows[c0 + c, j] * (nx + axis) + cols[c0 + c, i], v0 / (v0 - v1))
                 for axis, ((c, j, i), _, v0, v1) in enumerate(crossings)]
        cells, code = _active_cells(inside, 2)
        c, j, i = np.unravel_index(cells, (c1 - c0, b, b))
        j += b * block_rows[c0 + c]
        i += b * block_cols[c0 + c]
        real = (j < ny) & (i < nx)
        return edges, j[real] * nx + i[real], code[real]

    per = max(1, SLAB_SAMPLES // (b + 1) ** 2)
    bounds = np.arange(0, len(rows) + per, per).clip(max=len(rows))
    parts = _run_bands(lambda spans: [run(c0, c1) for c0, c1 in spans], bounds, workers)
    if any(part is None for part in parts):
        return None
    flats, ts = [], []
    for axis in range(2):
        flat, t = (np.concatenate([part[0][axis][k] for part in parts]) for k in range(2))
        flat, first = np.unique(flat, return_index=True)
        flats.append(flat)
        ts.append(t[first])
    points = np.concatenate([_edge_points(np.divmod(flat, nx + axis), t, axes, domain.steps(), axis)
                             for axis, (flat, t) in enumerate(zip(flats, ts))])

    cells, code = (np.concatenate([part[k] for part in parts]) for k in (1, 2))
    order = np.argsort(cells)
    cells, code = cells[order], code[order]
    # the point id of each cell edge slot, wherever that edge crosses
    j, i = np.divmod(cells, nx)
    first_ids = (0, len(flats[0]))
    ids = np.stack([first_ids[axis] + np.searchsorted(flats[axis], (j + dj) * (nx + axis) + i + di)
                    for axis, (dj, di) in _SLOTS])
    return points, _element_ids(cases(cells, code), ids)


def contour(field, domain: Domain2D, workers: int | None = None) -> list[Polyline]:
    """Extract the zero level set of a field as polylines:
    `marching_squares` of `sample_grid2d`, byte for byte, without holding the
    sampled grid.

    A field with keys (`fields2d.Keys`) on a lattice of more than
    SLAB_SAMPLES samples is sampled and meshed only in the blocks whose sign
    `_block_signs` does not prove (`_sparse_mesh`). Any other, or one of
    those with a non-finite sample or an exact zero ending a crossing edge,
    runs the band kernel (`_mesh_lattice`)
    over row bands of at most SLAB_SAMPLES samples, each sampled as it
    starts, one run of bands per thread (`workers`, default
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
    dropped and its ends welded (`_weld`). Each polyline is the chain of one
    first segment (the first not yet used), grown forward from its tail, then
    backward from its head; polylines are ordered by their first segment.
    The output depends on neither the bands nor the threads.
    """
    return _polylines(grid.samples, grid.domain, grid.field, None)


def _polylines(source, domain, field, workers):
    """The polylines of `_mesh_lattice(source, domain, ...)` on `workers`
    threads, or, for a field with keys on a lattice of more than
    SLAB_SAMPLES samples, of `_sparse_mesh`, which gives the same points and
    segments, with zero-length segments welded away (`_weld`).

    A saddle cell (codes 6 and 9) joins its inside corners when its centre is
    inside: by the field's value there, one call for all of a band's saddles,
    or, when field is None, by the sum of its corners in the lattice's
    samples, zeros nudged by their largest |sample|.
    """
    xs, ys = domain.axes()

    def cases(k0, cells, code, lattice):
        key = code.astype(np.intp)
        saddle = np.flatnonzero((code == 6) | (code == 9))
        if len(saddle):
            j, i = np.divmod(cells[saddle], domain.nx)
            j += k0
            if field is not None:
                with np.errstate(**_FIELD_ERRSTATE):
                    center = field(xs[i] + 0.5 * domain.dx, ys[j] + 0.5 * domain.dy)
            else:
                vals, peak = lattice
                corners = [vals[j, i], vals[j, i + 1], vals[j + 1, i], vals[j + 1, i + 1]]
                _nudge_zeros(peak, *corners)
                center = corners[0] + corners[1] + corners[2] + corners[3]
            key[saddle] += 16 * (np.broadcast_to(np.asarray(center, dtype=float), saddle.shape) < 0)
        return _SEGMENTS[key]

    keys = getattr(field, "keys", None) if callable(source) else None
    mesh = None
    if keys is not None and len(xs) * len(ys) > SLAB_SAMPLES:
        mesh = _sparse_mesh(field, keys, domain, lambda cells, code: cases(0, cells, code, None), workers)
    if mesh is None:
        mesh = _mesh_lattice(source, domain, _SLOTS, cases, workers)
    points, segments = mesh
    # a closed chain of two points is a loop the weld shrank to nothing
    return [line for line in _chains(*_weld(*segments.T, points), points) if len(line.points) > 2 or not line.closed]


def _weld(a, b, points):
    """The segments a[s]-b[s] over vertex ids without those whose ends
    coincide, each such segment's ends welded into one vertex, transitively
    (the least id of them), so that the chain through it does not split."""
    same = (points[a] == points[b]).all(axis=1)
    if not same.any():
        return a, b
    root = np.arange(len(points))
    while True:
        step = root.copy()
        np.minimum.at(step, a[same], root[b[same]])
        np.minimum.at(step, b[same], root[a[same]])
        step = step[step]
        if np.array_equal(step, root):
            return root[a[~same]], root[b[~same]]
        root = step


def _chains(a, b, points):
    """Polylines of the segments a[s]-b[s] over vertex ids, chained through
    shared vertices; no vertex has more than two segments.

    Each connected set of segments is one chain, started by its lowest
    segment s0 in the direction a[s0] -> b[s0]: a path runs from the end on
    the a[s0] side to the end on the b[s0] side, a cycle from a[s0] through
    b[s0] around. Both are found by pointer doubling over the 2n directed
    segments (d < n runs a[d] -> b[d], d + n the reverse), so the Python loop
    runs over polylines, not segments.
    """
    n = len(a)
    if n == 0:
        return []
    tail, head = np.concatenate([a, b]), np.concatenate([b, a])
    directed = np.arange(2 * n)
    reverse = np.concatenate([directed[n:], directed[:n]])
    # the directed segments leaving each vertex, one per segment there
    out = np.full((len(points), 2), -1, dtype=np.int64)
    out[tail, 0] = directed
    second = out[tail, 0] != directed
    out[tail[second], 1] = directed[second]
    # successor: leave the head along its other segment; 2n marks an end
    nxt_out = out[head]
    succ = np.where(nxt_out[:, 0] == reverse, nxt_out[:, 1], nxt_out[:, 0])
    end = 2 * n
    succ = np.append(np.where(succ < 0, end, succ), end)

    # lowest segment reachable forward; once a doubling changes nothing, no
    # later one would, and the forward reaches of d and of its reverse cover
    # the whole chain
    lowest = np.append(directed % n, n)
    jump = succ
    while True:
        step = np.minimum(lowest, lowest[jump])
        if np.array_equal(step, lowest):
            break
        lowest, jump = step, jump[jump]
    first = np.minimum(lowest[:n], lowest[n:2 * n])  # each segment's chain
    closed = np.ones(n, dtype=bool)  # indexed by a chain's first segment
    closed[first[np.flatnonzero(succ[:-1] == end) % n]] = False

    # open each cycle just before its first segment, in both directions
    s0 = np.flatnonzero(closed & (first == np.arange(n)))
    succ[reverse[succ[s0 + n]]] = end
    succ[s0 + n] = end

    # steps to the end and the last directed segment, by pointer doubling
    rank = (succ != end).astype(np.int64)
    last = np.arange(2 * n + 1)
    jump = succ
    while True:
        going = jump != end
        if not going.any():
            break
        last = np.where(going, last[jump], last)
        rank = rank + rank[jump]
        jump = jump[jump]

    # each segment in its chain's direction, placed by its rank
    seg = np.arange(n)
    chain_dir = np.where(last[:n] == last[first], seg, seg + n)
    length = np.bincount(first, minlength=n)
    offset = np.cumsum(length) - length
    walk = np.empty(n, dtype=np.int64)
    walk[offset[first] + length[first] - 1 - rank[chain_dir]] = chain_dir

    starts = np.flatnonzero(length)
    is_closed = closed[starts]
    stops = offset[starts] + length[starts]
    opened = stops[~is_closed]
    verts = np.insert(tail[walk], opened, head[walk[opened - 1]])
    sizes = length[starts] + ~is_closed
    pieces = np.split(points[verts], np.cumsum(sizes)[:-1])
    return [Polyline(p, bool(c)) for p, c in zip(pieces, is_closed)]


def frantz_polyline(s, r, n) -> Polyline:
    """Closed polyline of n uniformly-spaced Frantz squircle points."""
    if n < 8:
        raise ValueError(f"sample count must be >= 8, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    x, y = frantz_point(t, s, r)
    return Polyline(np.column_stack([x, y]), closed=True)
