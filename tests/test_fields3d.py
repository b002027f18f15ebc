import math

import numpy as np
import pytest

from squircles.fields2d import eval_fg, eval_periodic
from squircles.fields3d import (
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
