import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squircles.fields2d import FAMILIES_2D, ShapeSpec2D, _scaled_pnorm, eval_fg, eval_periodic
from squircles.fields3d import (
    FAMILIES_3D,
    ShapeSpec3D,
    eval_cone_fg,
    eval_cone_lame,
    eval_lame3d,
    eval_oblique3d,
    eval_periodic3d,
    eval_sham_cuboctahedron,
    eval_sphube,
    eval_toroid,
    eval_toroid_octic,
    make_field3d,
)

# high-precision root of the sphube equation along (1,1,1)/sqrt(3), s=0.8
SPHUBE_S08_DIAG = 1.163147680666804287


class TestShapeSpec3D:
    @pytest.mark.parametrize("kwargs", [
        dict(family="nope"),
        dict(family="lame3d", p=0.9),
        dict(family="sphube", s=1.1),
        dict(family="oblique3d", h=4.5),
        dict(family="toroid", R=0.4, r=0.5),
        dict(family="cone_fg", c=0.0),
        dict(family="cone_lame", p=2.5),
        dict(family="cone_lame", a=-1.0),
        dict(family="cuboctahedron", k=0.0),
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ShapeSpec3D(**kwargs)

    def test_cuboctahedron_constant_warns_outside_range(self):
        with pytest.warns(UserWarning):
            ShapeSpec3D("cuboctahedron", cc=5.0)

    def test_cuboctahedron_warning_names_the_caller(self):
        with pytest.warns(UserWarning) as record:
            ShapeSpec3D("cuboctahedron", cc=5.0)
        assert record[0].filename == __file__


@pytest.mark.parametrize("spec_type, family", [(ShapeSpec2D, f) for f in FAMILIES_2D]
                         + [(ShapeSpec3D, f) for f in FAMILIES_3D])
def test_every_parameter_but_r_is_finite_or_p_inf(spec_type, family):
    # r has its own "positive and finite" rule; p = inf is the exact square (cube)
    for f in dataclasses.fields(spec_type)[1:]:
        for value in (math.nan, -math.inf) + ((math.inf,) if f.name != "p" else ()):
            if f.name != "r":
                with pytest.raises(ValueError, match=f"^{family} parameter {f.name} must be finite, got {value}$"):
                    spec_type(family, **{f.name: value})


class TestLame3d:
    def test_sphere_pole(self):
        assert eval_lame3d(0.0, 0.0, 1.0, 2.0, 1.0) == 0.0

    def test_cube_corner_at_inf(self):
        assert eval_lame3d(1.0, 1.0, 1.0, math.inf, 1.0) == 0.0

    def test_octahedron_face_point_p1(self):
        v = eval_lame3d(1 / 3, 1 / 3, 1 / 3, 1.0, 1.0)
        assert v == pytest.approx(0.0, abs=1e-15)


class TestSphube:
    def test_cube_corner_s1(self):
        assert eval_sphube(1.0, 1.0, 1.0, 1.0, 1.0) == 0.0

    def test_axis_anchor(self):
        assert eval_sphube(1.0, 0.0, 0.0, 0.4, 1.0) == 0.0

    def test_origin(self):
        assert eval_sphube(0.0, 0.0, 0.0, 0.9, 1.0) == -1.0

    def test_diagonal_radius_frozen(self):
        u = SPHUBE_S08_DIAG / math.sqrt(3.0)
        assert eval_sphube(u, u, u, 0.8, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_z0_restriction_is_exact(self):
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-2, 2, size=(2, 2000))
        assert np.array_equal(eval_sphube(x, y, 0.0, 0.7, 1.3), eval_fg(x, y, 0.7, 1.3))


class TestPeriodic3d:
    def test_cube_corner_s1(self):
        assert eval_periodic3d(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_axis_anchor(self):
        assert eval_periodic3d(1.0, 0.0, 0.0, 0.5, 1.0) == 0.0

    def test_origin_s1(self):
        assert eval_periodic3d(0.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(-1.0)

    def test_z0_restriction_is_exact(self):
        rng = np.random.default_rng(6)
        x, y = rng.uniform(-3, 3, size=(2, 2000))
        assert np.array_equal(eval_periodic3d(x, y, 0.0, 0.6, 1.1), eval_periodic(x, y, 0.6, 1.1))


class TestOblique3d:
    def test_schwarz_point(self):
        h = math.pi / 2
        assert eval_oblique3d(h, h, h, 1.0, math.pi, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_axis_anchor(self):
        assert eval_oblique3d(1.0, 0.0, 0.0, 0.3, 1.0) == 0.0

    def test_face_centers_exact(self):
        for p in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]:
            assert eval_oblique3d(*p, 0.5, 1.0) == 0.0

    def test_deepest_point_full_overshoot(self):
        assert eval_oblique3d(0.0, 0.0, 0.0, 1.0, 1.0, h=4.0) == -6.0

    def test_recession_at_h4(self):
        # zero set degenerates to the odd lattice corners; elsewhere negative
        g = np.linspace(-1, 1, 65)
        X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
        vals = eval_oblique3d(X, Y, Z, 1.0, 1.0, h=4.0)
        assert vals.max() == 0.0
        at_max = np.argwhere(vals == 0.0)
        corners = {tuple(sorted(np.abs([g[i], g[j], g[k]]))) for i, j, k in at_max}
        assert corners == {(1.0, 1.0, 1.0)}


class TestToroid:
    def test_outer_equator(self):
        assert eval_toroid(2.5, 0.0, 0.0, 0.0, 2.0, 0.5) == 0.0

    def test_square_cross_section_corner(self):
        assert eval_toroid(2.5, 0.0, 0.5, 1.0, 2.0, 0.5) == 0.0

    def test_tube_center(self):
        for s in (0.0, 0.5, 1.0):
            assert eval_toroid(2.0, 0.0, 0.0, s, 2.0, 0.5) == -0.25

    def test_octic_torus_identity(self):
        assert eval_toroid_octic(2.5, 0.0, 0.0, 0.0, 2.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_octic_origin(self):
        assert eval_toroid_octic(0.0, 0.0, 0.0, 0.0, 2.0, 0.5) == pytest.approx(14.0625)


class TestConeFg:
    def test_base_rim(self):
        assert eval_cone_fg(1.0, 0.0, 3.0, 0.8, 3.0) == 0.0

    def test_apex(self):
        for s in (0.0, 0.5, 1.0):
            assert eval_cone_fg(0.0, 0.0, 0.0, s, 3.0) == 0.0

    def test_axis_point(self):
        assert eval_cone_fg(0.0, 0.0, 1.5, 1.0, 3.0) == -0.5625

    def test_below_base_is_outside(self):
        assert eval_cone_fg(0.0, 0.0, -1.0, 0.5, 3.0) > 0

    def test_above_cap_is_outside(self):
        assert eval_cone_fg(0.0, 0.0, 3.5, 0.5, 3.0) > 0


class TestConeLame:
    def test_base_rim(self):
        assert eval_cone_lame(1.0, 0.0, 2.0, 1.5, 1.0, 1.0, 2.0) == 0.0

    def test_axis_point(self):
        assert eval_cone_lame(0.0, 0.0, 1.0, 2.0, 1.0, 1.0, 2.0) == -0.5

    def test_pyramid_base_edge_midpoint(self):
        assert eval_cone_lame(0.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0) == 0.0


class TestCuboctahedron:
    def test_singular_vertex(self):
        assert eval_sham_cuboctahedron(1.0, 1.0, 0.0, 1.0, 2.0) == 0.0

    def test_face_point(self):
        assert eval_sham_cuboctahedron(1.0, 0.0, 0.0, 1.0, 2.0) == 0.0

    def test_origin(self):
        assert eval_sham_cuboctahedron(0.0, 0.0, 0.0, 1.0, 2.0) == -1.0


class TestMakeField3d:
    def test_periodic3d_s0_is_sphere(self):
        field = make_field3d(ShapeSpec3D("periodic3d", s=0.0, r=2.0))
        assert field(2.0, 0.0, 0.0) == 0.0
        assert field(0.0, 0.0, 0.0) == -4.0

    def test_toroid_clip_removes_far_sheets(self):
        # at s=1 the raw equation is also satisfied far from the torus
        field = make_field3d(ShapeSpec3D("toroid", s=1.0, R=2.0, r=0.5))
        assert eval_toroid(10.0, 0.0, 2.0, 1.0, 2.0, 0.5) < 0
        assert field(10.0, 0.0, 2.0) > 0

    def test_toroid_clip_keeps_torus(self):
        field = make_field3d(ShapeSpec3D("toroid", s=1.0, R=2.0, r=0.5))
        assert field(2.5, 0.0, 0.5) == 0.0
        assert field(2.0, 0.0, 0.0) == -0.25

    def test_toroid_beyond_the_ring_is_outside_next_to_the_flat_faces(self):
        # at s=1 the raw field is 0 all along the plane z = r; an ulp below it
        # and beyond the ring it rounds to -1 ulp
        z = np.nextafter(1.0, 0.0)
        field = make_field3d(ShapeSpec3D("toroid", s=1.0, R=2.0, r=1.0))
        assert max(eval_toroid(3.05, 0.0, z, 1.0, 2.0, 1.0), z - 1.0) < 0
        assert field(3.05, 0.0, z) == 0.0
        assert field(2.5, 0.0, 0.5) < 0

    def test_sphube_clip_removes_far_sheets(self):
        field = make_field3d(ShapeSpec3D("sphube", s=0.9))
        assert eval_sphube(0.0, 2.0, 2.0, 0.9, 1.0) < 0
        assert field(0.0, 2.0, 2.0) > 0

    @pytest.mark.parametrize("spec", [
        ShapeSpec3D("lame3d", p=3.0),
        ShapeSpec3D("sphube", s=0.5),
        ShapeSpec3D("periodic3d", s=0.5),
        ShapeSpec3D("oblique3d", s=0.5),
        ShapeSpec3D("cuboctahedron"),
    ])
    def test_inside_negative_at_origin(self, spec):
        assert make_field3d(spec)(0.0, 0.0, 0.0) < 0


# --- writing into out ---------------------------------------------------------
#
# Frozen copies of the 3D fields as the plain expressions they were before
# the evaluators took out=. Given out, a field writes the same bits into it;
# without out, it returns them as before (a scalar for scalar inputs).


def frozen_pnorm(p, *parts):
    m = functools.reduce(np.maximum, parts)
    safe = np.where(m > 0, m, 1.0)
    return m * sum((part / safe) ** p for part in parts) ** (1.0 / p)


def frozen_box_clip(f, x, y, z, ext):
    f = np.maximum(f, np.abs(x) - ext)
    f = np.maximum(f, np.abs(y) - ext)
    return np.maximum(f, np.abs(z) - ext)


def frozen_lame3d(x, y, z, p, r):
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    if math.isinf(p):
        return np.maximum(np.maximum(ax, ay), az) - r
    return frozen_pnorm(p, ax, ay, az) - r


def frozen_sphube(x, y, z, s, r):
    x2, y2, z2 = np.square(x), np.square(y), np.square(z)
    c2 = (s * s) / (r * r)
    return x2 + y2 + z2 - c2 * (x2 * y2 + y2 * z2 + x2 * z2) + (c2 * c2) * (x2 * y2 * z2) - r * r


def frozen_periodic3d(x, y, z, s, r):
    c = s * np.pi / (2.0 * r)
    return np.cos(s * np.pi / 2.0) - np.cos(c * x) * np.cos(c * y) * np.cos(c * z)


def frozen_oblique3d(x, y, z, s, r, h):
    c = s * np.pi / r
    paired = (np.cos(s * np.pi) - np.cos(c * x)) + (1.0 - np.cos(c * y)) + (1.0 - np.cos(c * z))
    return paired - math.floor(s) * h


def frozen_toroid(x, y, z, s, R, r):
    u = np.sqrt(np.square(x) + np.square(y)) - R
    u2, z2 = np.square(u), np.square(z)
    return u2 + z2 - (s * s) / (r * r) * (z2 * u2) - r * r


def frozen_ring_clip(f, x, y, R, r):
    beyond = np.abs(np.sqrt(np.square(x) + np.square(y)) - R) > r
    return np.maximum(f, np.where(beyond, 0.0, -np.inf))


def frozen_toroid_octic(x, y, z, s, R, r):
    q2 = np.square(x) + np.square(y)
    z2 = np.square(z)
    w = (s * s) / (r * r) * z2
    lhs = np.square(q2 + z2 + R * R - r * r - w * (q2 + R * R))
    rhs = 4.0 * R * R * q2 * np.square(1.0 - w)
    return lhs - rhs


def frozen_cone_fg(x, y, z, s, c):
    x2, y2, z2 = np.square(x), np.square(y), np.square(z)
    quartic = x2 * z2 + y2 * z2 - (s * s) * (c * c) * (x2 * y2) - z2 * z2 / (c * c)
    f = np.maximum(quartic, -np.asarray(z, dtype=float))
    f = np.maximum(f, z - c)
    f = np.maximum(f, (c * c) * x2 - z2)
    return np.maximum(f, (c * c) * y2 - z2)


def frozen_cone_lame(x, y, z, p, a, b, c):
    z = np.asarray(z, dtype=float)
    lateral = frozen_pnorm(p, np.abs(np.divide(x, a)), np.abs(np.divide(y, b))) - z / c
    f = np.maximum(lateral, -z)
    return np.maximum(f, z - c)


def frozen_cuboctahedron(x, y, z, k, cc):
    x2, y2, z2 = np.square(x), np.square(y), np.square(z)
    k2 = k * k
    sextic = (
        (x2 + y2 + z2) / k2
        - (x2 * y2 + y2 * z2 + x2 * z2) / (k2 * k2)
        + cc * (x2 * y2 * z2) / (k2 * k2 * k2)
        - 1.0
    )
    return frozen_box_clip(sextic, x, y, z, k)


def frozen_sphere(x, y, z, r):
    return sum(np.square(c) for c in (x, y, z)) - r * r


FROZEN_FIELDS = {
    "lame3d": lambda sp, x, y, z: frozen_lame3d(x, y, z, sp.p, sp.r),
    "sphube": lambda sp, x, y, z: frozen_box_clip(frozen_sphube(x, y, z, sp.s, sp.r), x, y, z, sp.r),
    "periodic3d": lambda sp, x, y, z: (frozen_sphere(x, y, z, sp.r) if sp.s == 0
                                       else frozen_periodic3d(x, y, z, sp.s, sp.r)),
    "oblique3d": lambda sp, x, y, z: (frozen_sphere(x, y, z, sp.r) if sp.s == 0
                                      else frozen_oblique3d(x, y, z, sp.s, sp.r, sp.h)),
    "toroid": lambda sp, x, y, z: frozen_ring_clip(np.maximum(frozen_toroid(x, y, z, sp.s, sp.R, sp.r),
                                                              np.abs(z) - sp.r), x, y, sp.R, sp.r),
    "toroid_octic": lambda sp, x, y, z: frozen_ring_clip(
        np.maximum(frozen_toroid_octic(x, y, z, sp.s, sp.R, sp.r), np.where(np.abs(z) > sp.r, 0.0, -np.inf)),
        x, y, sp.R, sp.r),
    "cone_fg": lambda sp, x, y, z: frozen_cone_fg(x, y, z, sp.s, sp.c),
    "cone_lame": lambda sp, x, y, z: frozen_cone_lame(x, y, z, sp.p, sp.a, sp.b, sp.c),
    "cuboctahedron": lambda sp, x, y, z: frozen_cuboctahedron(x, y, z, sp.k, sp.cc),
}

# the evaluators with every parameter they take, for direct calls
FROZEN_EVALUATORS = [
    (eval_lame3d, frozen_lame3d, ("p", "r")),
    (eval_sphube, frozen_sphube, ("s", "r")),
    (eval_periodic3d, frozen_periodic3d, ("s", "r")),
    (eval_oblique3d, frozen_oblique3d, ("s", "r", "h")),
    (eval_toroid, frozen_toroid, ("s", "R", "r")),
    (eval_toroid_octic, frozen_toroid_octic, ("s", "R", "r")),
    (eval_cone_fg, frozen_cone_fg, ("s", "c")),
    (eval_cone_lame, frozen_cone_lame, ("p", "a", "b", "c")),
    (eval_sham_cuboctahedron, frozen_cuboctahedron, ("k", "cc")),
]


def generic(lo, hi):
    # uniform floats with full mantissas, whose products round; hypothesis's
    # own floats favour short ones, whose products are often exact
    return st.integers(0, 2**32 - 1).map(lambda seed: float(np.random.default_rng(seed).uniform(lo, hi)))


coordinates = st.one_of(generic(-3, 3), st.floats(-3, 3), st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0, 2.5]))
unit_s = st.one_of(st.sampled_from([0.0, 1.0]), generic(0, 1), st.floats(0, 1))
scales = st.one_of(generic(0.25, 4), st.floats(0.25, 4))


@st.composite
def specs(draw):
    family = draw(st.sampled_from(FAMILIES_3D))
    r = draw(scales)
    p = draw(st.one_of(st.sampled_from([1.0, 2.0]), generic(1, 2))) if family == "cone_lame" else \
        draw(st.one_of(st.sampled_from([1.0, math.inf, 2.0]), generic(1, 64), st.floats(1, 64)))
    return ShapeSpec3D(family, p=p, s=draw(unit_s), r=r, h=draw(generic(0, 4)),
                       R=r + draw(generic(0.01, 3)), a=draw(scales), b=draw(scales), c=draw(scales),
                       k=draw(scales), cc=draw(generic(1.5, 4)))


@st.composite
def lattices(draw):
    # band-shaped inputs as contour2d._sample_banded passes them (x fastest),
    # 1-D rays as the oracle passes them, or scalars
    kind = draw(st.sampled_from(["band", "ray", "scalar"]))
    if kind == "scalar":
        return tuple(draw(coordinates) for _ in range(3))
    if kind == "ray":
        n = draw(st.integers(1, 9))
        return tuple(np.array(draw(st.lists(coordinates, min_size=n, max_size=n))) for _ in range(3))
    axes = [np.array(draw(st.lists(coordinates, min_size=1, max_size=6))) for _ in range(3)]
    return tuple(a.reshape((1,) * (2 - k) + (-1,) + (1,) * k) for k, a in enumerate(axes))


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_writes_frozen_bits(call, frozen, xyz):
    want = frozen(*xyz)
    got = call(*xyz)
    assert same_bits(got, want)
    assert type(got) is type(want)  # scalars stay scalars
    if any(np.ndim(c) for c in xyz):
        shape = np.broadcast_shapes(*(np.shape(c) for c in xyz))
        out = np.full(shape, np.nan)
        assert call(*xyz, out=out) is out
        assert same_bits(out, np.broadcast_to(want, shape))


class TestWritesIntoOut:
    @settings(max_examples=400, deadline=None)
    @given(specs(), lattices())
    def test_family_fields_match_frozen_expressions(self, spec, xyz):
        assert_writes_frozen_bits(make_field3d(spec), lambda *xyz: FROZEN_FIELDS[spec.family](spec, *xyz), xyz)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FROZEN_EVALUATORS), specs(), lattices())
    def test_evaluators_match_frozen_expressions(self, evaluator, spec, xyz):
        new, frozen, names = evaluator
        params = [getattr(spec, name) for name in names]
        assert_writes_frozen_bits(lambda *xyz, **out: new(*xyz, *params, **out),
                                  lambda *xyz: frozen(*xyz, *params), xyz)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from([1.0, 2.0, 3.0, math.inf]), st.floats(1, 512)), st.integers(2, 3),
           st.integers(1, 5), st.integers(0, 2**32 - 1))
    @example(math.inf, 2, 3, 30)  # both parts hold a 0
    def test_scaled_pnorm_matches_frozen_expression(self, p, n_parts, size, seed):
        # zero, tiny, huge and subnormal parts, broadcast as lattice axes; at
        # p = inf the norm of all-zero parts is 0
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, 5e-324, 1e-310, 1e-200, 0.3, 1.0, 7.5, 1e8, 1e200])
        parts = [rng.choice(pool, size).reshape((1,) * (n_parts - 1 - k) + (-1,) + (1,) * k)
                 for k in range(n_parts)]
        out = np.empty(np.broadcast_shapes(*(q.shape for q in parts)))
        assert _scaled_pnorm(p, *parts, out=out) is out
        assert same_bits(out, frozen_pnorm(p, *parts))
        assert same_bits(_scaled_pnorm(p, *parts), frozen_pnorm(p, *parts))

    @pytest.mark.parametrize("family", FAMILIES_3D)
    def test_every_family_field_says_it_fills_out(self, family):
        assert make_field3d(ShapeSpec3D(family)).fills_out is True
        assert make_field3d(ShapeSpec3D(family, s=0.0)).fills_out is True
