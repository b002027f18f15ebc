"""Regular-grid sampling and marching-squares contour extraction.

Vertices are interpolated on grid edges and welded by global edge identity, so
adjacent cells share endpoints exactly and segments chain into maximal
polylines. Output order and bytes are deterministic for fixed inputs.
"""

from __future__ import annotations

import os
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields2d import frantz_point

# Relative nudge applied to exact-zero samples so the case lookup never sees a
# vertex sitting on the contour.
ZERO_NUDGE = 1e-12

# Segment endpoints per marching-squares case, as cell-local edge ids
# (0 bottom, 1 right, 2 top, 3 left). Saddle cases 5 and 10 are resolved at
# runtime from the cell-center sign.
_CASE_SEGMENTS = {
    0: [],
    1: [(3, 0)],
    2: [(0, 1)],
    3: [(3, 1)],
    4: [(1, 2)],
    6: [(0, 2)],
    7: [(3, 2)],
    8: [(2, 3)],
    9: [(0, 2)],
    11: [(1, 2)],
    12: [(3, 1)],
    13: [(0, 1)],
    14: [(3, 0)],
    15: [],
}


def default_workers():
    env = os.environ.get("SQUIRCLES_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Domain2D:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("domain bounds must satisfy max > min")
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"cell counts must be >= 2, got nx={self.nx}, ny={self.ny}")

    @property
    def dx(self):
        return (self.xmax - self.xmin) / self.nx

    @property
    def dy(self):
        return (self.ymax - self.ymin) / self.ny

    def xs(self):
        return self.xmin + self.dx * np.arange(self.nx + 1)

    def ys(self):
        return self.ymin + self.dy * np.arange(self.ny + 1)


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


def _sample_banded(field, axes, workers):
    """Samples of field over the lattice spanned by axes (x first), indexed
    slowest axis first and evaluated in bands of the slowest axis.

    The result is independent of the worker count: each sample is one scalar
    expression and bands are reassembled in index order.
    """
    n = len(axes)
    # axis k varies along array dimension n - 1 - k
    coords = [a.reshape((1,) * (n - 1 - k) + (-1,) + (1,) * k) for k, a in enumerate(axes)]
    shape = tuple(len(a) for a in reversed(axes))

    def run(lo, hi):
        out = np.asarray(field(*coords[:-1], coords[-1][lo:hi]), dtype=float)
        return np.broadcast_to(out, (hi - lo,) + shape[1:])

    workers = default_workers() if workers is None else max(1, workers)
    if workers == 1 or shape[0] < 4 * workers:
        vals = run(0, shape[0]).copy()
    else:
        bounds = np.linspace(0, shape[0], workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            vals = np.concatenate(list(pool.map(run, bounds[:-1], bounds[1:])), axis=0)
    if not np.isfinite(vals).all():
        index = np.argwhere(~np.isfinite(vals))[0][::-1]
        where = ", ".join(f"{a[i]}" for a, i in zip(axes, index))
        raise ValueError(f"non-finite field value at sample ({where})")
    return vals


def sample_grid2d(field, domain: Domain2D, workers: int | None = None) -> Grid2D:
    """Evaluate a field on the domain lattice, partitioned over row bands."""
    return Grid2D(domain, _sample_banded(field, (domain.xs(), domain.ys()), workers), field=field)


def _nudged(samples):
    scale = float(np.max(np.abs(samples)))
    if scale == 0.0:
        scale = 1.0
    out = samples.copy()
    out[out == 0.0] = ZERO_NUDGE * scale
    return out


def marching_squares(grid: Grid2D) -> list[Polyline]:
    """Extract the zero level set of a sampled field as polylines.

    Saddle cells are disambiguated by the sign of the cell-center field value
    (or the corner mean when the grid carries no field handle). Polylines that
    touch the domain boundary are open; all others are closed. Output is
    ordered by the row-major index of each chain's first cell.
    """
    dom = grid.domain
    vals = _nudged(grid.samples)
    xs, ys = dom.xs(), dom.ys()
    inside = vals < 0
    case = (
        inside[:-1, :-1].astype(np.int8)
        | (inside[:-1, 1:] << 1)
        | (inside[1:, 1:] << 2)
        | (inside[1:, :-1] << 3)
    )
    active = np.argwhere((case != 0) & (case != 15))

    verts: dict[tuple, tuple] = {}

    def edge_key(edge, i, j):
        # global identity of the grid edge carrying this crossing
        if edge == 0:
            return ("h", i, j)
        if edge == 2:
            return ("h", i, j + 1)
        if edge == 1:
            return ("v", i + 1, j)
        return ("v", i, j)

    def vertex(key):
        pt = verts.get(key)
        if pt is None:
            kind, i, j = key
            if kind == "h":
                v0, v1 = vals[j, i], vals[j, i + 1]
                t = v0 / (v0 - v1)
                pt = (xs[i] + t * dom.dx, ys[j])
            else:
                v0, v1 = vals[j, i], vals[j + 1, i]
                t = v0 / (v0 - v1)
                pt = (xs[i], ys[j] + t * dom.dy)
            verts[key] = pt
        return pt

    segments = []  # (key_a, key_b)
    for j, i in active:
        c = int(case[j, i])
        if c in (5, 10):
            if grid.field is not None:
                center = float(grid.field(xs[i] + 0.5 * dom.dx, ys[j] + 0.5 * dom.dy))
            else:
                center = float(vals[j, i] + vals[j, i + 1] + vals[j + 1, i] + vals[j + 1, i + 1])
            # connect the two inside corners through the center when it is inside
            center_inside = center < 0
            if c == 5:
                segs = [(3, 2), (1, 0)] if center_inside else [(3, 0), (1, 2)]
            else:
                segs = [(0, 3), (2, 1)] if center_inside else [(0, 1), (2, 3)]
        else:
            segs = _CASE_SEGMENTS[c]
        for ea, eb in segs:
            ka, kb = edge_key(ea, i, j), edge_key(eb, i, j)
            if vertex(ka) != vertex(kb):
                segments.append((ka, kb))

    return _chain_segments(segments, verts)


def _chain_segments(segments, verts):
    adj = defaultdict(list)
    for si, (ka, kb) in enumerate(segments):
        adj[ka].append((kb, si))
        adj[kb].append((ka, si))

    used = [False] * len(segments)
    polylines = []
    for si, (ka, kb) in enumerate(segments):
        if used[si]:
            continue
        used[si] = True
        chain = [ka, kb]
        closed = False
        # grow forward from the tail, then backward from the head
        for endpos in (-1, 0):
            while True:
                tip = chain[endpos]
                nxt = None
                for other, sj in adj[tip]:
                    if not used[sj]:
                        nxt = (other, sj)
                        break
                if nxt is None:
                    break
                used[nxt[1]] = True
                if endpos == -1:
                    chain.append(nxt[0])
                else:
                    chain.insert(0, nxt[0])
                if chain[0] == chain[-1]:
                    closed = True
                    chain.pop()
                    break
            if closed:
                break
        points = [verts[k] for k in chain]
        deduped = [points[0]]
        for pt in points[1:]:
            if pt != deduped[-1]:
                deduped.append(pt)
        if closed and len(deduped) > 1 and deduped[0] == deduped[-1]:
            deduped.pop()
        if len(deduped) >= (3 if closed else 2):
            polylines.append(Polyline(np.array(deduped), closed))
    return polylines


def frantz_polyline(s, r, n) -> Polyline:
    """Closed polyline of n uniformly-spaced Frantz squircle points."""
    if n < 8:
        raise ValueError(f"sample count must be >= 8, got {n}")
    t = 2.0 * np.pi * np.arange(n) / n
    x, y = frantz_point(t, s, r)
    return Polyline(np.column_stack([x, y]), closed=True)
