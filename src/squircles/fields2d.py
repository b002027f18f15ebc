"""2D squircle families as inside-negative scalar fields.

Every closed family is exposed as a field f(x, y) whose zero level set is the
curve and whose value at the origin is negative. All evaluators accept scalars
or numpy arrays and are pure, so they are safe to call concurrently.

Every evaluator (and every field `make_field2d` builds) also takes out=None.
Given out, an array of the inputs' broadcast shape, it writes its values there
and returns out, with at most one scratch array of that size: each
lattice-sized operation runs as an `out=` ufunc, in the order the expression
evaluates, so the values are the same bits as without out. Without out it
allocates its results as plain expressions do, so scalar calls stay scalar.
The Lame field with out takes a shorter route to the same bits; see
`eval_lame`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

# Below this squareness the Frantz ratio tanh(s*cos t)/tanh(s) loses precision,
# so the exact circle limit is substituted instead.
FRANTZ_CIRCLE_CUTOFF = 1e-6


class ParametricOnlyError(ValueError):
    """Raised when an implicit field is requested for a parametric-only family."""


@dataclass(frozen=True)
class Family:
    """Everything the package encodes about one shape family: field(spec) builds
    its inside-negative field, each of checks(spec) raises ValueError on a bad
    parameter, bounds(spec, tiles) is the default (xmin, xmax, ymin, ymax[,
    zmin, zmax]) and info is the `info` text. keys(spec), where a field has
    them, gives the field's `Keys`."""

    field: Callable
    checks: tuple
    bounds: Callable
    info: str
    keys: Callable | None = None


@dataclass(frozen=True)
class Keys:
    """A field as a function of one key per axis, key(c) of each coordinate
    c, in each of which it is monotone or multilinear: over any box of key
    values it takes its extremes at the box's corners. terms(*k) (one |key|
    bound per axis, x first) bounds the sum of the |terms| the field adds up
    where no |key| exceeds them, and so the rounding of any of its values.
    Where parts are given, the field is their pointwise max, and it is each
    part, a function of the coordinates, that is monotone or multilinear in
    the keys. `contour2d` certifies the sign of a block of the lattice by
    these."""

    key: Callable
    terms: Callable
    parts: tuple = ()


def _check_spec(spec, families, dims):
    if spec.family not in families:
        raise ValueError(f"unknown {dims} family {spec.family!r}")
    if not 0 < spec.r < math.inf:
        raise ValueError(f"scale r must be positive and finite, got {spec.r}")
    for f in fields(spec)[1:]:  # p = inf is the exact square (cube)
        value = getattr(spec, f.name)
        if not (math.isfinite(value) or (f.name == "p" and value == math.inf)):
            raise ValueError(f"{spec.family} parameter {f.name} must be finite, got {value}")
    for check in families[spec.family].checks:
        check(spec)


def _require(ok, message):
    # a check raising ValueError(message filled in from the spec's fields) unless ok(spec)
    def check(spec):
        if not ok(spec):
            raise ValueError(message.format(**vars(spec)))

    return check


_P_AT_LEAST_1 = _require(lambda sp: sp.p >= 1, "{family} exponent p must be >= 1, got {p}")
_UNIT_S = _require(lambda sp: 0 <= sp.s <= 1, "squareness must be in [0, 1], got {s}")


@dataclass(frozen=True)
class ShapeSpec2D:
    """Parameters of one 2D squircle family.

    p is the Lame exponent (math.inf selects the exact square), s the
    squareness, r the scale, h the overshoot (oblique only, active at s = 1).
    """

    family: str
    p: float = 2.0
    s: float = 0.0
    r: float = 1.0
    h: float = 0.0

    def __post_init__(self):
        _check_spec(self, FAMILY_RECORDS_2D, "2D")


def _scratch(out):
    # the one array an evaluator writing into out may add, of out's size
    return None if out is None else np.empty(out.shape)


def _scaled_pnorm(p, *parts, out=None):
    # (sum of part^p)^(1/p) with the largest part m factored out, so large
    # exponents cannot overflow. The parts must be non-negative. Given out,
    # each step writes into out or one scratch array; without, each makes a
    # new array, or a scalar, so scalar calls keep numpy's scalar arithmetic
    # (its x ** 1.0 gives a positive nan where an array keeps the sign).
    # Where m is 0 every part is 0, so max(m, 5e-324), the least positive
    # float, stands for m: each term and the result are +0 either way. It is
    # rebuilt from the parts (max is exact) rather than held in a second array.
    # At p = inf the norm is the max, which those steps give too, except
    # where every part is 0: there 0 ** (1/inf) = 1 would leave 5e-324.
    if math.isinf(p):
        return functools.reduce(lambda f, part: np.maximum(f, part, out=out), parts)
    low = np.maximum(functools.reduce(np.maximum, parts[:-1]), 5e-324)
    scratch = _scratch(out)
    f = np.divide(parts[0], np.maximum(low, parts[-1], out=out), out=out)
    f **= p
    for part in parts[1:]:
        term = np.divide(part, np.maximum(low, parts[-1], out=scratch), out=scratch)
        term **= p
        f += term
    f **= 1.0 / p
    f *= np.maximum(low, parts[-1], out=scratch)
    return f


def eval_lame(x, y, p, r, out=None):
    """Superellipse |x|^p + |y|^p = r^p in normalized p-norm form.

    With out and a finite p, m (1 + (min / max(m, 5e-324))^p)^(1/p) - r with
    m = max(|x|, |y|) gives the bits of the plain form in two powers instead
    of three: there the larger part's term is m/m = 1 and 1^p = 1 exactly,
    and (0 + a) + b is 1 + t whichever part is larger. Where m is 0 both
    forms give 0 - r. Where one coordinate is infinite the plain form gives
    nan (inf/inf) and this one inf: both are non-finite.
    """
    ax, ay = np.abs(x), np.abs(y)
    if out is None or math.isinf(p):
        return np.subtract(_scaled_pnorm(p, ax, ay, out=out), r, out=out)
    scratch = np.maximum(np.maximum(ax, 5e-324), ay, out=_scratch(out))
    np.divide(np.minimum(ax, ay, out=out), scratch, out=out)
    out **= p
    out += 1.0
    out **= 1.0 / p
    out *= np.maximum(ax, ay, out=scratch)
    out -= r
    return out


def eval_fg(x, y, s, r, out=None):
    """Fernandez-Guasti quartic squircle."""
    x2, y2 = np.square(x), np.square(y)
    scratch = _scratch(out)
    f = np.add(x2, y2, out=out)
    t = np.multiply(x2, y2, out=scratch)
    f = np.subtract(f, np.multiply(t, np.float64(s * s) / (r * r), out=scratch), out=out)
    return np.subtract(f, r * r, out=out)


def _cos_key(c):
    # the per-axis factor cos(c x) of the periodic and oblique fields: their
    # keys are this very expression, so a key is the factor's bits
    return lambda x: np.cos(c * x)


def _periodic_key(s, r):
    return _cos_key(s * np.pi / (2.0 * r))


def _oblique_key(s, r):
    return _cos_key(s * np.pi / r)


def eval_periodic(x, y, s, r, out=None):
    """Doubly-periodic cosine-product squircle.

    The constant term is cos(s*pi/2), which puts (+-r, 0) and (0, +-r) on the
    curve for every s and r.
    """
    key = _periodic_key(s, r)
    f = np.multiply(key(x), key(y), out=out)
    return np.subtract(np.cos(s * np.pi / 2.0), f, out=out)


def eval_oblique(x, y, s, r, h=0.0, out=None):
    """Doubly-periodic cosine-sum squircle (45-degree tilted square at s = 1).

    The floor(s) factor keeps the overshoot h inert until s reaches 1.
    """
    key = _oblique_key(s, r)
    f = 1.0 + np.cos(s * np.pi) - math.floor(s) * h - key(x)
    return np.subtract(f, key(y), out=out)


def eval_phase_grid(x, y, out=None):
    """Grid variant whose zero set is every line with an integer x or y."""
    sx = np.sin(np.pi * np.asarray(x, dtype=float))
    return np.multiply(sx, np.sin(np.pi * np.asarray(y, dtype=float)), out=out)


def frantz_point(t, s, r):
    """Point on the Frantz parametric squircle at angle parameter t."""
    if s <= FRANTZ_CIRCLE_CUTOFF:
        return r * np.cos(t), r * np.sin(t)
    d = math.tanh(s)
    return r * np.tanh(s * np.cos(t)) / d, r * np.tanh(s * np.sin(t)) / d


def _round_at_s0(build, limit=None):
    # the periodic and oblique families reduce to 0 = 0 at s = 0; substitute
    # their proven limit, the circle (sphere) of radius r, or limit(r), the
    # circle's keys
    return lambda sp: (limit or _sphere)(sp.r) if sp.s == 0 else build(sp)


def _sphere(r):
    # x^2 + y^2 [+ z^2] - r^2, summed left to right; the last sum and the
    # difference are written into out when it is given
    def field(*xyz, out=None):
        f = np.add(sum(np.square(c) for c in xyz[:-1]), np.square(xyz[-1]), out=out)
        return np.subtract(f, r * r, out=out)

    return field


def _circle_keys(r):
    # x^2 + y^2 [+ z^2] - r^2 is linear in the keys x^2, y^2 [and z^2]
    return Keys(np.square, lambda *k: sum(k) + r * r)


def _lame_keys(sp):
    # the p-norm of (|x|, |y| [, |z|]) grows with each and is at most their sum
    return Keys(np.abs, lambda *k: sum(k) + sp.r)


def _fg_keys(sp):
    # bilinear in x^2 and y^2, with the field's own coefficient of x^2 y^2,
    # a float64 as the field takes it: where r * r underflows to 0 both give
    # inf or nan, which proves no block, and the sampler names the sample
    return Keys(np.square, lambda kx, ky: kx + ky + np.float64(sp.s * sp.s) / (sp.r * sp.r) * kx * ky + sp.r * sp.r)


def _parametric_only(spec):
    raise ParametricOnlyError(f"{spec.family} squircle is parametric-only; it has no implicit field")


def _square(ext):
    return (-ext, ext, -ext, ext)


FAMILY_RECORDS_2D = {
    "lame": Family(
        field=lambda sp: lambda x, y, out=None: eval_lame(x, y, sp.p, sp.r, out), checks=(_P_AT_LEAST_1,),
        bounds=lambda sp, tiles: _square(1.2 * sp.r * tiles), keys=_lame_keys,
        info="superellipse |x|^p + |y|^p = r^p; p in [1, inf], p=2 circle, p=inf axis square, p=1 tilted square"),
    "fg": Family(
        field=lambda sp: lambda x, y, out=None: eval_fg(x, y, sp.s, sp.r, out), checks=(_UNIT_S,),
        bounds=lambda sp, tiles: _square(1.2 * sp.r * tiles), keys=_fg_keys,
        info="Fernandez-Guasti quartic x^2 + y^2 - (s^2/r^2) x^2 y^2 = r^2; s in [0, 1]"),
    "periodic": Family(
        field=_round_at_s0(lambda sp: lambda x, y, out=None: eval_periodic(x, y, sp.s, sp.r, out)),
        checks=(_UNIT_S,),
        bounds=lambda sp, tiles: _square(1.2 * sp.r * tiles),
        # bilinear in the cosines, each term at most 1 in size
        keys=_round_at_s0(lambda sp: Keys(_periodic_key(sp.s, sp.r), lambda kx, ky: 2.0), _circle_keys),
        info="doubly-periodic cos(s pi x/2r) cos(s pi y/2r) = cos(s pi/2); s in (0, 1], square grid at s=1"),
    "oblique": Family(
        field=_round_at_s0(lambda sp: lambda x, y, out=None: eval_oblique(x, y, sp.s, sp.r, sp.h, out)),
        checks=(_UNIT_S, _require(lambda sp: 0 <= sp.h <= 2, "2D overshoot h must be in [0, 2], got {h}")),
        bounds=lambda sp, tiles: _square(1.2 * sp.r * tiles),
        # linear in the cosines; 1 + cos(s pi) - floor(s) h is in [-2, 2]
        keys=_round_at_s0(lambda sp: Keys(_oblique_key(sp.s, sp.r), lambda kx, ky: 4.0), _circle_keys),
        info="doubly-periodic cos(s pi x/r) + cos(s pi y/r) = 1 + cos(s pi) - floor(s) h; "
        "tilted square at s=1, overshoot h in [0, 2]"),
    "frantz": Family(
        field=_parametric_only,
        checks=(_require(lambda sp: sp.s >= 0, "frantz squareness must be >= 0, got {s}"),),
        bounds=lambda sp, tiles: _square(1.2 * sp.r),  # one closed polyline: --tiles does not widen it
        info="parametric x = r tanh(s cos t)/tanh s, y = r tanh(s sin t)/tanh s; s > 0, square as s -> inf"),
    "phase_grid": Family(
        field=lambda sp: lambda x, y, out=None: eval_phase_grid(x, y, out), checks=(),
        bounds=lambda sp, tiles: _square(2.5 * tiles),
        info="sin(pi x) sin(pi y) = 0; grid lines through every integer coordinate"),
}
FAMILIES_2D = tuple(FAMILY_RECORDS_2D)


def make_field2d(spec: ShapeSpec2D):
    """Build the canonical inside-negative field for a 2D shape spec.

    The degenerate s = 0 periodic/oblique equations are mapped to the exact
    circle field x^2 + y^2 - r^2, matching their proven limits.

    The field takes out=None: given an array of the broadcast shape of x and
    y, it writes its values there and returns it (`fills_out` says so to
    `contour2d._sample_banded`). A family with keys gives the field its
    `Keys` as `keys`, by which `contour2d.contour` skips the blocks of a
    large lattice that the curve cannot cross.
    """
    record = FAMILY_RECORDS_2D[spec.family]
    field = record.field(spec)
    field.fills_out = True
    if record.keys is not None:
        field.keys = record.keys(spec)
    return field
