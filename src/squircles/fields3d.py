"""3D squircular implicit surfaces as inside-negative scalar fields.

Closed solids (cones, cuboctahedron) are built with pointwise-max CSG so the
bounding inequalities become capping surfaces and the meshes come out
watertight. Evaluators accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields2d import (
    _P_AT_LEAST_1, _UNIT_S, Family, _check_spec, _finite, _require, _round_at_s0, _scaled_pnorm, _square,
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


def eval_lame3d(x, y, z, p, r):
    """Superellipsoid |x|^p + |y|^p + |z|^p = r^p in normalized p-norm form."""
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    if math.isinf(p):
        return np.maximum(np.maximum(ax, ay), az) - r
    return _scaled_pnorm(p, ax, ay, az) - r


def eval_sphube(x, y, z, s, r):
    """Sphere-cube blend generalizing the Fernandez-Guasti squircle."""
    x2, y2, z2 = np.square(x), np.square(y), np.square(z)
    c2 = (s * s) / (r * r)
    return x2 + y2 + z2 - c2 * (x2 * y2 + y2 * z2 + x2 * z2) + (c2 * c2) * (x2 * y2 * z2) - r * r


def eval_periodic3d(x, y, z, s, r):
    """Triply-periodic cosine-product counterpart of the periodic squircle."""
    c = s * np.pi / (2.0 * r)
    return np.cos(s * np.pi / 2.0) - np.cos(c * x) * np.cos(c * y) * np.cos(c * z)


def eval_oblique3d(x, y, z, s, r, h=0.0):
    """Triply-periodic cosine-sum field 2 + cos(s pi) - floor(s) h - sum of
    cosines (sham octahedron at s = 1).

    The terms are paired so that the six face centers (+-r,0,0), (0,+-r,0),
    (0,0,+-r) evaluate to exactly 0 at h = 0 instead of picking up a stray
    ulp. At s=1, r=pi, h=1 the field is -(cos x + cos y + cos z) to rounding,
    the sham Schwarz surface.
    """
    c = s * np.pi / r
    paired = (
        (np.cos(s * np.pi) - np.cos(c * x))
        + (1.0 - np.cos(c * y))
        + (1.0 - np.cos(c * z))
    )
    return paired - math.floor(s) * h


def eval_toroid(x, y, z, s, R, r):
    """Squircular toroid, sqrt form: squareness-deformed torus of radii R, r."""
    u = np.sqrt(np.square(x) + np.square(y)) - R
    u2, z2 = np.square(u), np.square(z)
    return u2 + z2 - (s * s) / (r * r) * (z2 * u2) - r * r


def eval_toroid_octic(x, y, z, s, R, r):
    """Squircular toroid, equivalent octic polynomial form (LHS - RHS)."""
    q2 = np.square(x) + np.square(y)
    z2 = np.square(z)
    w = (s * s) / (r * r) * z2
    lhs = np.square(q2 + z2 + R * R - r * r - w * (q2 + R * R))
    rhs = 4.0 * R * R * q2 * np.square(1.0 - w)
    return lhs - rhs


def eval_cone_fg(x, y, z, s, c):
    """Squircular cone over a Fernandez-Guasti base, closed as a CSG solid.

    The quartic sheet is intersected with the height caps 0 <= z <= c and the
    pruning slabs |x| <= z/c, |y| <= z/c that remove its extraneous parts.
    """
    x2, y2, z2 = np.square(x), np.square(y), np.square(z)
    quartic = x2 * z2 + y2 * z2 - (s * s) * (c * c) * (x2 * y2) - z2 * z2 / (c * c)
    f = np.maximum(quartic, -np.asarray(z, dtype=float))
    f = np.maximum(f, z - c)
    f = np.maximum(f, (c * c) * x2 - z2)
    return np.maximum(f, (c * c) * y2 - z2)


def eval_cone_lame(x, y, z, p, a, b, c):
    """Squircular cone over a Lame lower-squircle base, closed by height caps."""
    z = np.asarray(z, dtype=float)
    lateral = _scaled_pnorm(p, np.abs(np.divide(x, a)), np.abs(np.divide(y, b))) - z / c
    f = np.maximum(lateral, -z)
    return np.maximum(f, z - c)


def eval_sham_cuboctahedron(x, y, z, k=1.0, cc=2.0):
    """Sextic cuboctahedron approximation, clipped to its bounding box."""
    x2, y2, z2 = np.square(x), np.square(y), np.square(z)
    k2 = k * k
    sextic = (
        (x2 + y2 + z2) / k2
        - (x2 * y2 + y2 * z2 + x2 * z2) / (k2 * k2)
        + cc * (x2 * y2 * z2) / (k2 * k2 * k2)
        - 1.0
    )
    return _box_clip(sextic, x, y, z, k)


def _box_clip(f, x, y, z, ext):
    # Intersect with the cube |x|,|y|,|z| <= ext. On the cube surface the clip
    # term is exactly 0, which overrides the raw field's rounding noise there
    # (it can be a few ulps of either sign where the true value is 0), and
    # beyond it the extra far sheets of the equation are cut away.
    f = np.maximum(f, np.abs(x) - ext)
    f = np.maximum(f, np.abs(y) - ext)
    return np.maximum(f, np.abs(z) - ext)


def _cube(ext):
    return _square(ext) + (-ext, ext)


def _toroid_bounds(sp, tiles):
    return _square(1.15 * (sp.R + sp.r) * tiles) + (-1.5 * sp.r, 1.5 * sp.r)


FAMILY_RECORDS_3D = {
    "lame3d": Family(
        field=lambda sp: lambda x, y, z: eval_lame3d(x, y, z, sp.p, sp.r), checks=(_P_AT_LEAST_1,),
        bounds=lambda sp, tiles: _cube(1.2 * sp.r * tiles),
        info="superellipsoid |x|^p + |y|^p + |z|^p = r^p; sphere to cube (or octahedron for p in [1, 2])"),
    "sphube": Family(
        field=lambda sp: lambda x, y, z: _box_clip(eval_sphube(x, y, z, sp.s, sp.r), x, y, z, sp.r),
        checks=(_UNIT_S,), bounds=lambda sp, tiles: _cube(sp.r * tiles),
        info="sphere-cube blend with squareness s in [0, 1]"),
    # unit cells: the periodic families grow far sheets past |x| = r
    "periodic3d": Family(
        field=_round_at_s0(lambda sp: lambda x, y, z: eval_periodic3d(x, y, z, sp.s, sp.r)),
        checks=(_UNIT_S,), bounds=lambda sp, tiles: _cube(sp.r * tiles),
        info="triply-periodic cosine product; cube with side 2r at s=1"),
    "oblique3d": Family(
        field=_round_at_s0(lambda sp: lambda x, y, z: eval_oblique3d(x, y, z, sp.s, sp.r, sp.h)),
        checks=(_UNIT_S, _require(lambda sp: 0 <= sp.h <= 4, "3D overshoot h must be in [0, 4], got {h}")),
        bounds=lambda sp, tiles: _cube(sp.r * tiles),
        info="triply-periodic cosine sum; sham octahedron at s=1, overshoot h in [0, 4], "
        "sham Schwarz at s=1 r=pi h=1"),
    "toroid": Family(
        field=lambda sp: lambda x, y, z: np.maximum(eval_toroid(x, y, z, sp.s, sp.R, sp.r), np.abs(z) - sp.r),
        checks=(_UNIT_S, _finite("R"), _RING_TORUS), bounds=_toroid_bounds,
        info="squircular toroid (sqrt form), R > r > 0, cross-section squareness s"),
    "toroid_octic": Family(
        field=lambda sp: lambda x, y, z: eval_toroid_octic(x, y, z, sp.s, sp.R, sp.r),
        checks=(_UNIT_S, _finite("R"), _RING_TORUS), bounds=_toroid_bounds,
        info="squircular toroid, equivalent octic polynomial form"),
    "cone_fg": Family(
        field=lambda sp: lambda x, y, z: eval_cone_fg(x, y, z, sp.s, sp.c),
        checks=(_UNIT_S, _finite("c"), _CONE_HEIGHT),
        bounds=lambda sp, tiles: _square(1.2) + (-0.1 * sp.c, 1.1 * sp.c),
        info="squircular cone over a Fernandez-Guasti base, height c, clipped to 0 <= z <= c"),
    "cone_lame": Family(
        field=lambda sp: lambda x, y, z: eval_cone_lame(x, y, z, sp.p, sp.a, sp.b, sp.c),
        checks=(_finite("a"), _finite("b"), _finite("c"), _CONE_HEIGHT,
                _require(lambda sp: sp.a > 0 and sp.b > 0, "cone semi-axes a, b must be positive"),
                _require(lambda sp: 1 <= sp.p <= 2, "cone_lame exponent p must be in [1, 2], got {p}")),
        bounds=lambda sp, tiles: _square(1.2 * max(sp.a, sp.b)) + (-0.1 * sp.c, 1.1 * sp.c),
        info="squircular cone over a Lame lower base, exponent p in [1, 2], semi-axes a, b, height c"),
    "cuboctahedron": Family(
        field=lambda sp: lambda x, y, z: eval_sham_cuboctahedron(x, y, z, sp.k, sp.cc),
        checks=(_finite("k"), _finite("cc"),
                _require(lambda sp: sp.k > 0, "cuboctahedron scale k must be positive, got {k}"), _warn_cc),
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
    toroid itself.
    """
    return FAMILY_RECORDS_3D[spec.family].field(spec)
