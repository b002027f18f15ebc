"""Independent numerical verification: radial profiles by bisection,
limit-replication convergence rates, periodicity probes and cross-form
zero-set equivalences.

Zeros are found along rays: each ray is scanned for its first sign change,
then its bracket is bisected. A scan runs along t in chunks of _SCAN_CHUNK
points, and a ray leaves it at the first chunk that holds a positive sample;
a ray without one is scanned to the end and has no bracket. Each sample is
one elementwise expression, so the first positive index is the same as when
each ray is scanned whole. A check bisects all its rays at once
(_bisect_rays), with the per-ray rules, so a radius is the same bits as one
bisected alone wherever the field evaluates a point the same on an array as
on a scalar. Scans and bisection steps evaluate at most
contour2d.BAND_SAMPLES points per field call.

An r_max that is not finite and > 0, a scan or a sample_count below 1 is a
ValueError: each would give a reversed or empty scan, or a check of nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour2d import BAND_SAMPLES
from .fields2d import eval_oblique, eval_periodic


class NoSignChangeError(RuntimeError):
    """Raised when a ray carries no sign bracket (empty or non-star-shaped set)."""


class InverseDomainError(ValueError):
    """Raised when an isolated-coordinate expression leaves the arccos domain."""


@dataclass(frozen=True)
class RadialProfileReport:
    angles: np.ndarray
    radii: np.ndarray
    reference: np.ndarray
    max_abs_error: float


@dataclass(frozen=True)
class ConvergenceReport:
    omegas: np.ndarray
    errors: np.ndarray
    ratios: np.ndarray


def _bisect_rays(f_at, lo, hi, tol):
    """Roots of many rays at once, each bisected from its bracket [lo, hi].

    f_at(t, rays) is the field at parameter t[i] on ray rays[i]. Every ray
    keeps the per-ray rules: an exact zero at lo or at a midpoint is the root,
    a ray stops once hi - lo <= tol, and the root is then 0.5 * (lo + hi).
    The side of a midpoint is judged against the sign at lo. Rays that stop
    leave the batch, so each call evaluates only the open rays.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    roots = lo.copy()  # a ray with an exact zero at lo keeps it
    flo = f_at(lo, np.arange(lo.size))
    rays = np.flatnonzero(flo != 0.0)
    lo, hi, neg = lo[rays], hi[rays], flo[rays] < 0
    while True:
        live = hi - lo > tol
        roots[rays[~live]] = 0.5 * (lo[~live] + hi[~live])
        rays, lo, hi, neg = rays[live], lo[live], hi[live], neg[live]
        if not rays.size:
            return roots
        mid = 0.5 * (lo + hi)
        fm = f_at(mid, rays)
        zero = fm == 0.0
        roots[rays[zero]] = mid[zero]
        same = (fm < 0) == neg
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        rays, lo, hi, neg = rays[~zero], lo[~zero], hi[~zero], neg[~zero]


# Points per scan chunk. A ray is sampled at most this far past its first
# positive sample, and each chunk costs one field call per BAND_SAMPLES
# samples of the rays still open. In-process `verify --suite all` (2 cores,
# median of three processes' medians of 20 runs) took 0.29 s scanning whole
# rays, and 0.13, 0.13 and 0.20 s with chunks of 32, 64 and 128 points: 64
# makes half the calls of 32, and at 128 points a call on the 1000 rays of a
# residual check holds 1 MB in each of the field's temporaries.
_SCAN_CHUNK = 64


def _check_scan(r_max, **counts):
    # a reversed or empty scan, or a check of nothing, would pass silently
    if not 0.0 < r_max < np.inf:
        raise ValueError(f"r_max must be finite and > 0, got {r_max}")
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")


def _first_positive(samples, n_rays, n_ts):
    """Index of the first positive sample on each ray, or -1 if there is none.

    samples(rays, ts) gives the (len(rays), n) scan of the rays with indices
    rays over the n points of the t-slice ts. The scan runs in chunks of
    _SCAN_CHUNK points along t, and a ray leaves it at the first chunk that
    holds a positive sample; a ray without one is scanned to the end. Each
    call holds at most BAND_SAMPLES samples (a chunk is at most that long).
    """
    first = np.full(n_rays, -1, dtype=np.intp)
    rays = np.arange(n_rays)
    chunk = min(_SCAN_CHUNK, BAND_SAMPLES)
    for t0 in range(0, n_ts, chunk):
        if not rays.size:
            break
        ts = slice(t0, min(t0 + chunk, n_ts))
        step = max(1, BAND_SAMPLES // (ts.stop - t0))
        for start in range(0, rays.size, step):
            group = rays[start:start + step]
            pos = np.asarray(samples(group, ts)) > 0
            hit = pos.any(axis=1)
            first[group[hit]] = t0 + pos[hit].argmax(axis=1)
        rays = rays[first[rays] < 0]
    return first


def _radial_roots(field, angles, r_max, tol, scan):
    # first zero crossing of a 2D field along each ray; the error names the
    # first angle without a sign change
    _check_scan(r_max, scan=scan)
    if not field(0.0, 0.0) < 0:
        raise NoSignChangeError("field is not negative at the origin")
    ct, st = np.cos(angles), np.sin(angles)
    ts = np.linspace(0.0, r_max, scan + 1)
    k = _first_positive(lambda rays, t: field(ts[t] * ct[rays, None], ts[t] * st[rays, None]), len(angles), len(ts))
    missing = np.flatnonzero(k < 0)
    if missing.size:
        raise NoSignChangeError(f"no sign change along theta={angles[missing[0]]}")
    return _bisect_rays(lambda t, rays: field(t * ct[rays], t * st[rays]), ts[k - 1], ts[k], tol)


def radial_profile(field, theta, r_max, tol=1e-12, scan=1024):
    """First zero crossing of a 2D field along the ray at angle theta.

    The ray is scanned for the first sign change, then bisected to tol in
    radius; scanning (rather than a single end bracket) keeps thin positive
    windows near tangential zero sets detectable.
    """
    return _radial_roots(field, np.array([theta]), r_max, tol, scan)[0]


def radial_profile_report(field, r_max, reference, n_angles=360) -> RadialProfileReport:
    """Profile at n half-offset angles against a reference radius function.

    All rays are scanned and bisected together, with the radii of
    radial_profile at each angle.
    """
    angles = 2.0 * np.pi * (np.arange(n_angles) + 0.5) / n_angles
    radii = _radial_roots(field, angles, r_max, 1e-12, 1024)
    ref = np.asarray(reference(angles), dtype=float)
    ref = np.broadcast_to(ref, radii.shape)
    return RadialProfileReport(angles, radii, ref, float(np.max(np.abs(radii - ref))))


def square_metric_axis(r):
    """Radius of the axis-aligned square of half-side r at each angle."""
    return lambda th: r / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))


def square_metric_tilted(r):
    """Radius of the 45-degree tilted square through (+-r, 0) at each angle."""
    return lambda th: r / (np.abs(np.cos(th)) + np.abs(np.sin(th)))


def _isolated_x(family, omega, y):
    if family == "periodic":
        arg = np.cos(omega / 2.0) / np.cos(omega * y / 2.0)
        scale = 2.0 / omega
    elif family == "oblique":
        arg = 1.0 + np.cos(omega) - np.cos(omega * y)
        scale = 1.0 / omega
    else:
        raise ValueError(f"unknown limit family {family!r}")
    bad = np.nonzero((arg < -1) | (arg > 1))[0]
    if len(bad):
        raise InverseDomainError(
            f"arccos argument out of range for omega={omega}, y={np.asarray(y)[bad[0]]}"
        )
    return scale * np.arccos(arg)


def limit_convergence_check(family, y_grid, omegas) -> ConvergenceReport:
    """Convergence of the isolated-x expression to the circle as omega halves.

    The expected rate is quadratic: each halving should shrink the maximum
    error by a factor near 4.
    """
    omegas = np.asarray(omegas, dtype=float)
    if not (omegas > 0).all():
        raise ValueError("omegas must be positive")
    if omegas.max() > 0.5:
        raise ValueError("omegas must not exceed 0.5")
    if not np.allclose(omegas[1:], omegas[:-1] / 2.0, rtol=1e-9):
        raise ValueError("omegas must form a strict halving sequence")
    y = np.asarray(y_grid, dtype=float)
    if len(y) == 0 or np.abs(y).max() >= 0.95:
        raise ValueError("y grid must lie inside (-0.95, 0.95)")
    circle = np.sqrt(1.0 - y * y)
    errors = np.array([np.max(np.abs(_isolated_x(family, w, y) - circle)) for w in omegas])
    return ConvergenceReport(omegas, errors, errors[:-1] / errors[1:])


def periodicity_check(field, period, probes=1000, ndim=2, box=5.0, seed=7):
    """Max |f(p + period*axis) - f(p)| over random probe points."""
    if not period > 0:
        raise ValueError("period must be positive")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(probes, ndim))
    worst = 0.0
    for axis in range(ndim):
        shifted = pts.copy()
        shifted[:, axis] += period
        base = field(*pts.T)
        moved = field(*shifted.T)
        worst = max(worst, float(np.max(np.abs(moved - base))))
    return worst


def square_case_check(family, r=1.0, probes=1000, seed=11):
    """Max |field| at s=1 over random points on the family's grid lines."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    rng = np.random.default_rng(seed)
    ns = rng.integers(-2, 3, size=probes)
    span = rng.uniform(-5.0 * r, 5.0 * r, size=probes)
    if family == "periodic":
        line = (2 * ns + 1) * r
        worst = np.abs(eval_periodic(line, span, 1.0, r))
        worst = np.maximum(worst, np.abs(eval_periodic(span, line, 1.0, r)))
    elif family == "oblique":
        sign = np.where(rng.random(probes) < 0.5, 1.0, -1.0)
        x = span
        y = sign * x + (2 * ns + 1) * r
        worst = np.abs(eval_oblique(x, y, 1.0, r))
    else:
        raise ValueError(f"unknown square-case family {family!r}")
    return float(np.max(worst))


def zero_set_residual(reference, alternate, sample_count, seed_point=(0.0, 0.0, 0.0), r_max=2.0, seed=13):
    """Max |alternate| over reference zeros found by ray bisection from a seed.

    Directions without a sign bracket inside r_max are skipped; if fewer than
    sample_count zeros can be collected within 20 * sample_count directions
    the seeding is considered failed. Directions are drawn in batches from the
    same random stream as one draw per direction, the first sample_count
    bracketed ones are kept in draw order, and all of them are bisected and
    checked together.
    """
    _check_scan(r_max, sample_count=sample_count)
    seed_point = np.asarray(seed_point, dtype=float)
    if not reference(*seed_point) < 0:
        raise NoSignChangeError("seed point is not inside the reference zero set")
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, r_max, 1025)
    origin = seed_point[:, None, None]
    dirs, firsts = [np.empty((0, 3))], [np.empty(0, dtype=np.intp)]
    found = attempts = 0
    while found < sample_count:
        if attempts >= 20 * sample_count:
            raise NoSignChangeError("could not bracket enough reference zeros")
        d = rng.normal(size=(min(sample_count - found, 20 * sample_count - attempts), 3))
        attempts += len(d)
        # row norms by the BLAS dot that np.linalg.norm uses, for the same bits
        d /= np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0]
        k = _first_positive(lambda rays, t: reference(*(origin + ts[t] * d[rays].T[:, :, None])), len(d), len(ts))
        bracketed = k >= 0
        dirs.append(d[bracketed])
        firsts.append(k[bracketed])
        found += int(bracketed.sum())
    d, k = np.concatenate(dirs).T, np.concatenate(firsts)
    roots = _bisect_rays(
        lambda t, rays: reference(*(seed_point[:, None] + t * d[:, rays])), ts[k - 1], ts[k], 1e-13 * r_max
    )
    residuals = np.abs(alternate(*(seed_point[:, None] + roots * d)))
    # NaN residuals are skipped, as max() over floats skips them
    return float(np.fmax.reduce(residuals, initial=0.0))
