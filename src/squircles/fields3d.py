"""3D squircular implicit surfaces as inside-negative scalar fields.

Closed solids (cones, cuboctahedron) are built with pointwise-max CSG so the
bounding inequalities become capping surfaces and the meshes come out
watertight. Evaluators accept scalars or numpy arrays and are pure.

Every evaluator (and every field `make_field3d` builds) also takes out=None.
Given out, an array of the inputs' broadcast shape, it writes its values there
and returns out, with at most one scratch array of that size: each
lattice-sized operation runs as an `out=` ufunc, in the order the expression
evaluates, so the values are the same bits as without out. Without out it
allocates its results as plain expressions do, so scalar calls stay scalar.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields2d import (
    _P_AT_LEAST_1, _UNIT_S, Family, Keys, _check_spec, _circle_keys, _lame_keys, _oblique_key, _periodic_key,
    _require, _round_at_s0, _scaled_pnorm, _scratch, _square, eval_fg,
)


@dataclass(frozen=True)
class ShapeSpec3D:
    """Parameters of one 3D squircular family.

    R is the toroid hole-to-tube-center distance, a/b/c the cone semi-axes and
    height, k the cuboctahedron scale and cc its cross-term constant.
    """

    family: str
    p: float = 2.0
    s: float = 0.0
    r: float = 1.0
    h: float = 0.0
    R: float = 2.0
    a: float = 1.0
    b: float = 1.0
    c: float = 1.0
    k: float = 1.0
    cc: float = 2.0

    def __post_init__(self):
        _check_spec(self, FAMILY_RECORDS_3D, "3D")


def _warn_cc(spec):
    if not 1.5 <= spec.cc <= 4:  # heuristic quality range, not a hard constraint
        # stacklevel 5 is the caller of the ShapeSpec3D constructor
        warnings.warn(f"cuboctahedron constant cc={spec.cc} outside the recommended [1.5, 4]", stacklevel=5)


_RING_TORUS = _require(lambda sp: sp.R > sp.r, "ring torus requires R > r, got R={R}, r={r}")
_CONE_HEIGHT = _require(lambda sp: sp.c > 0, "cone height c must be positive, got {c}")


def eval_lame3d(x, y, z, p, r, out=None):
    """Superellipsoid |x|^p + |y|^p + |z|^p = r^p in normalized p-norm form."""
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    return np.subtract(_scaled_pnorm(p, ax, ay, az, out=out), r, out=out)


def eval_sphube(x, y, z, s, r, out=None):
    """Sphere-cube blend generalizing the Fernandez-Guasti squircle,
    x2 + y2 + z2 - c2 (x2 y2 + y2 z2 + x2 z2) + c2^2 x2 y2 z2 - r^2 with
    c2 = s^2 / r^2, evaluated left to right."""
    x2, y2, z2 = np.square(x), np.square(y), np.square(z)
    c2 = np.float64(s * s) / (r * r)
    xy, scratch = x2 * y2, _scratch(out)
    f = np.add(x2 + y2, z2, out=out)
    t = np.add(xy, y2 * z2, out=scratch)
    t = np.add(t, x2 * z2, out=scratch)
    f = np.subtract(f, np.multiply(t, c2, out=scratch), out=out)
    t = np.multiply(xy, z2, out=scratch)
    f = np.add(f, np.multiply(t, c2 * c2, out=scratch), out=out)
    return np.subtract(f, r * r, out=out)


def eval_periodic3d(x, y, z, s, r, out=None):
    """Triply-periodic cosine-product counterpart of the periodic squircle."""
    key = _periodic_key(s, r)
    f = np.multiply(key(x) * key(y), key(z), out=out)
    return np.subtract(np.cos(s * np.pi / 2.0), f, out=out)


def eval_oblique3d(x, y, z, s, r, h=0.0, out=None):
    """Triply-periodic cosine-sum field 2 + cos(s pi) - floor(s) h - sum of
    cosines (sham octahedron at s = 1).

    The terms are paired so that the six face centers (+-r,0,0), (0,+-r,0),
    (0,0,+-r) evaluate to exactly 0 at h = 0 instead of picking up a stray
    ulp. At s=1, r=pi, h=1 the field is -(cos x + cos y + cos z) to rounding,
    the sham Schwarz surface.
    """
    key = _oblique_key(s, r)
    paired = np.add((np.cos(s * np.pi) - key(x)) + (1.0 - key(y)), 1.0 - key(z), out=out)
    return np.subtract(paired, math.floor(s) * h, out=out)


def eval_toroid(x, y, z, s, R, r, out=None):
    """Squircular toroid, sqrt form: squareness-deformed torus of radii R, r,
    u2 + z2 - (s^2 / r^2) z2 u2 - r^2 with u = sqrt(x2 + y2) - R, which is
    the Fernandez-Guasti squircle of (u, z)."""
    return eval_fg(np.sqrt(np.square(x) + np.square(y)) - R, z, s, r, out)


def eval_toroid_octic(x, y, z, s, R, r, out=None):
    """Squircular toroid, equivalent octic polynomial form (LHS - RHS):
    (q2 + z2 + R^2 - r^2 - w (q2 + R^2))^2 - 4 R^2 q2 (1 - w)^2 with
    q2 = x2 + y2 and w = (s^2 / r^2) z2."""
    q2 = np.square(x) + np.square(y)
    z2 = np.square(z)
    w = np.float64(s * s) / (r * r) * z2
    scratch = _scratch(out)
    f = np.add(q2, z2, out=out)
    f = np.add(f, R * R, out=out)
    f = np.subtract(f, r * r, out=out)
    f = np.subtract(f, np.multiply(w, q2 + R * R, out=scratch), out=out)
    f = np.square(f, out=out)
    return np.subtract(f, np.multiply(4.0 * R * R * q2, np.square(1.0 - w), out=scratch), out=out)


def eval_cone_fg(x, y, z, s, c, out=None):
    """Squircular cone over a Fernandez-Guasti base, closed as a CSG solid.

    The quartic sheet x2 z2 + y2 z2 - s^2 c^2 x2 y2 - z2^2 / c^2 is
    intersected with the height caps 0 <= z <= c and the pruning slabs
    |x| <= z/c, |y| <= z/c that remove its extraneous parts.
    """
    x2, y2, z2 = np.square(x), np.square(y), np.square(z)
    f = np.add(x2 * z2, y2 * z2, out=out)
    f = np.subtract(f, (s * s) * (c * c) * (x2 * y2), out=out)
    f = np.subtract(f, z2 * z2 / (c * c), out=out)
    f = np.maximum(f, -np.asarray(z, dtype=float), out=out)
    f = np.maximum(f, z - c, out=out)
    f = np.maximum(f, (c * c) * x2 - z2, out=out)
    return np.maximum(f, (c * c) * y2 - z2, out=out)


def eval_cone_lame(x, y, z, p, a, b, c, out=None):
    """Squircular cone over a Lame lower-squircle base, closed by height caps."""
    z = np.asarray(z, dtype=float)
    base = _scaled_pnorm(p, np.abs(np.divide(x, a)), np.abs(np.divide(y, b)))
    f = np.subtract(base, z / c, out=out)
    f = np.maximum(f, -z, out=out)
    return np.maximum(f, z - c, out=out)


def eval_sham_cuboctahedron(x, y, z, k=1.0, cc=2.0, out=None):
    """Sextic cuboctahedron approximation, clipped to its bounding box:
    (x2 + y2 + z2) / k^2 - (x2 y2 + y2 z2 + x2 z2) / k^4
    + cc x2 y2 z2 / k^6 - 1."""
    x2, y2, z2 = np.square(x), np.square(y), np.square(z)
    k2 = k * k
    xy, scratch = x2 * y2, _scratch(out)
    f = np.add(x2 + y2, z2, out=out)
    f = np.divide(f, k2, out=out)
    t = np.add(xy, y2 * z2, out=scratch)
    t = np.add(t, x2 * z2, out=scratch)
    f = np.subtract(f, np.divide(t, k2 * k2, out=scratch), out=out)
    t = np.multiply(xy, z2, out=scratch)
    t = np.multiply(t, cc, out=scratch)
    f = np.add(f, np.divide(t, k2 * k2 * k2, out=scratch), out=out)
    return _box_clip(np.subtract(f, 1.0, out=out), x, y, z, k, out)


def _box_clip(f, x, y, z, ext, out=None):
    # Intersect with the cube |x|,|y|,|z| <= ext. On the cube surface the clip
    # term is exactly 0, which overrides the raw field's rounding noise there
    # (it can be a few ulps of either sign where the true value is 0), and
    # beyond it the extra far sheets of the equation are cut away.
    for c in (x, y, z):
        f = np.maximum(f, np.abs(c) - ext, out=out)
    return f


def _ring_clip(f, x, y, R, r, out=None):
    # The toroid lies in the ring |sqrt(x2 + y2) - R| <= r for every s, and the
    # raw field is positive beyond it inside the slab |z| <= r. At s = 1 it is
    # 0 all along the planes |z| = r, so a lattice plane within rounding of
    # them gets samples a few ulps negative beyond the ring, stray inside
    # points that mesh as extra closed sheets; those are raised to 0, which
    # counts as outside. No other sample changes.
    beyond = np.abs(np.sqrt(np.square(x) + np.square(y)) - R) > r
    return np.maximum(f, np.where(beyond, 0.0, -np.inf), out=out)


def _sphube_keys(sp):
    # The raw field is multilinear in x^2, y^2 and z^2, so over |x|, |y|,
    # |z| >= 0 it takes its extremes where each |c| does; each clip term
    # |c| - r grows with |c|. The coefficient c2 is a float64 as the field
    # takes it, computed in the bound: where r * r underflows or s^2 / r^2
    # overflows the bound is not finite and proves no block.
    def terms(kx, ky, kz):
        x2, y2, z2 = np.square(kx), np.square(ky), np.square(kz)
        c2 = np.float64(sp.s * sp.s) / (sp.r * sp.r)
        return x2 + y2 + z2 + c2 * (x2 * y2 + y2 * z2 + x2 * z2) + c2 * c2 * (x2 * y2 * z2) + sp.r * sp.r

    return Keys(np.abs, terms, parts=(lambda x, y, z: eval_sphube(x, y, z, sp.s, sp.r),
                                      lambda x, y, z: np.abs(x) - sp.r, lambda x, y, z: np.abs(y) - sp.r,
                                      lambda x, y, z: np.abs(z) - sp.r))


def _cube(ext):
    return _square(ext) + (-ext, ext)


def _toroid_bounds(sp, tiles):
    return _square(1.15 * (sp.R + sp.r) * tiles) + (-1.5 * sp.r, 1.5 * sp.r)


FAMILY_RECORDS_3D = {
    "lame3d": Family(
        field=lambda sp: lambda x, y, z, out=None: eval_lame3d(x, y, z, sp.p, sp.r, out), checks=(_P_AT_LEAST_1,),
        bounds=lambda sp, tiles: _cube(1.2 * sp.r * tiles), keys=_lame_keys,
        info="superellipsoid |x|^p + |y|^p + |z|^p = r^p; sphere to cube (or octahedron for p in [1, 2])"),
    "sphube": Family(
        field=lambda sp: lambda x, y, z, out=None: _box_clip(eval_sphube(x, y, z, sp.s, sp.r, out), x, y, z, sp.r, out),
        checks=(_UNIT_S,), bounds=lambda sp, tiles: _cube(sp.r * tiles), keys=_sphube_keys,
        info="sphere-cube blend with squareness s in [0, 1]"),
    # unit cells: the periodic families grow far sheets past |x| = r
    "periodic3d": Family(
        field=_round_at_s0(lambda sp: lambda x, y, z, out=None: eval_periodic3d(x, y, z, sp.s, sp.r, out)),
        checks=(_UNIT_S,), bounds=lambda sp, tiles: _cube(sp.r * tiles),
        # multilinear in the cosines, each term at most 1 in size
        keys=_round_at_s0(lambda sp: Keys(_periodic_key(sp.s, sp.r), lambda kx, ky, kz: 2.0), _circle_keys),
        info="triply-periodic cosine product; cube with side 2r at s=1"),
    "oblique3d": Family(
        field=_round_at_s0(lambda sp: lambda x, y, z, out=None: eval_oblique3d(x, y, z, sp.s, sp.r, sp.h, out)),
        checks=(_UNIT_S, _require(lambda sp: 0 <= sp.h <= 4, "3D overshoot h must be in [0, 4], got {h}")),
        bounds=lambda sp, tiles: _cube(sp.r * tiles),
        # linear in the cosines; its terms, the 3 cosines, cos(s pi), two 1s and
        # floor(s) h <= 4, add up to at most 10 in size
        keys=_round_at_s0(lambda sp: Keys(_oblique_key(sp.s, sp.r), lambda kx, ky, kz: 10.0), _circle_keys),
        info="triply-periodic cosine sum; sham octahedron at s=1, overshoot h in [0, 4], "
        "sham Schwarz at s=1 r=pi h=1"),
    "toroid": Family(
        field=lambda sp: lambda x, y, z, out=None: _ring_clip(
            np.maximum(eval_toroid(x, y, z, sp.s, sp.R, sp.r, out), np.abs(z) - sp.r, out=out),
            x, y, sp.R, sp.r, out),
        checks=(_UNIT_S, _RING_TORUS), bounds=_toroid_bounds,
        info="squircular toroid (sqrt form), R > r > 0, cross-section squareness s"),
    "toroid_octic": Family(
        field=lambda sp: lambda x, y, z, out=None: _ring_clip(
            np.maximum(eval_toroid_octic(x, y, z, sp.s, sp.R, sp.r, out),
                       np.where(np.abs(z) > sp.r, 0.0, -np.inf), out=out),
            x, y, sp.R, sp.r, out),
        checks=(_UNIT_S, _RING_TORUS), bounds=_toroid_bounds,
        info="squircular toroid, equivalent octic polynomial form"),
    "cone_fg": Family(
        field=lambda sp: lambda x, y, z, out=None: eval_cone_fg(x, y, z, sp.s, sp.c, out),
        checks=(_UNIT_S, _CONE_HEIGHT),
        bounds=lambda sp, tiles: _square(1.2) + (-0.1 * sp.c, 1.1 * sp.c),
        info="squircular cone over a Fernandez-Guasti base, height c, clipped to 0 <= z <= c"),
    "cone_lame": Family(
        field=lambda sp: lambda x, y, z, out=None: eval_cone_lame(x, y, z, sp.p, sp.a, sp.b, sp.c, out),
        checks=(_CONE_HEIGHT,
                _require(lambda sp: sp.a > 0 and sp.b > 0, "cone semi-axes a, b must be positive"),
                _require(lambda sp: 1 <= sp.p <= 2, "cone_lame exponent p must be in [1, 2], got {p}")),
        bounds=lambda sp, tiles: _square(1.2 * max(sp.a, sp.b)) + (-0.1 * sp.c, 1.1 * sp.c),
        info="squircular cone over a Lame lower base, exponent p in [1, 2], semi-axes a, b, height c"),
    "cuboctahedron": Family(
        field=lambda sp: lambda x, y, z, out=None: eval_sham_cuboctahedron(x, y, z, sp.k, sp.cc, out),
        checks=(_require(lambda sp: sp.k > 0, "cuboctahedron scale k must be positive, got {k}"), _warn_cc),
        bounds=lambda sp, tiles: _cube(1.25 * sp.k * tiles),
        info="sham cuboctahedron sextic with scale k and cross-term constant cc in [1.5, 4]"),
}
FAMILIES_3D = tuple(FAMILY_RECORDS_3D)


def make_field3d(spec: ShapeSpec3D):
    """Build the canonical inside-negative field for a 3D shape spec.

    Degenerate s = 0 periodic3d/oblique3d map to the exact sphere field. The
    sphube is clipped to the cube |x|,|y|,|z| <= r (its equation grows extra
    sheets past |x| = r for every s > 0, meeting the cube only at the six face
    centers); the toroid is clipped to the slab |z| <= r, which at s = 1
    removes the far sheets (|q - R| > r with |z| > r) without touching the
    toroid itself. toroid_octic is raised to at least 0 beyond |z| = r:
    with q = sqrt(x2 + y2) its polynomial is the product
    ((1 - w)(q - R)^2 + z2 - r^2)((1 - w)(q + R)^2 + z2 - r^2), positive
    there while w <= 1, so only samples past |z| = r / s, where its far
    sheets lie, change (none on the default domain, |z| <= 1.5 r, for
    s <= 2/3). Both toroids are then clipped to their ring (`_ring_clip`).

    The field takes out=None: given an array of the broadcast shape of x, y,
    z, it writes its values there and returns it (`fills_out` says so to
    `contour2d._sample_banded`). A family with keys (lame3d, sphube,
    periodic3d, oblique3d) gives the field its `Keys` as `keys`, by which
    `polygonize3d.polygonize` skips the blocks of a large lattice that the
    surface cannot cross.
    """
    record = FAMILY_RECORDS_3D[spec.family]
    field = record.field(spec)
    field.fills_out = True
    if record.keys is not None:
        field.keys = record.keys(spec)
    return field
