import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squircles.fields2d import (
    FAMILIES_2D,
    ParametricOnlyError,
    ShapeSpec2D,
    eval_fg,
    eval_lame,
    eval_oblique,
    eval_periodic,
    eval_phase_grid,
    frantz_point,
    make_field2d,
)

# tanh(2 cos(pi/4)) / tanh(2), frozen from a 50-digit evaluation
FRANTZ_PI4_S2 = 0.92153542071461544794


class TestShapeSpec2D:
    def test_valid(self):
        spec = ShapeSpec2D("lame", p=3.0, r=2.0)
        assert spec.p == 3.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ShapeSpec2D("blob")

    @pytest.mark.parametrize("kwargs", [
        dict(family="lame", p=0.5),
        dict(family="fg", s=1.5),
        dict(family="periodic", s=-0.1),
        dict(family="oblique", s=1.0, h=2.5),
        dict(family="frantz", s=-1.0),
        dict(family="fg", r=0.0),
        dict(family="fg", r=-1.0),
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ShapeSpec2D(**kwargs)


class TestLame:
    def test_circle_point(self):
        assert eval_lame(1.0, 0.0, 2.0, 1.0) == 0.0

    def test_square_corner_at_inf(self):
        assert eval_lame(1.0, 1.0, math.inf, 1.0) == 0.0

    def test_tilted_edge_midpoint_p1(self):
        assert eval_lame(0.5, 0.5, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_inside_negative(self):
        assert eval_lame(0.0, 0.0, 2.0, 1.0) == -1.0

    def test_large_exponent_no_overflow(self):
        # normalized form must survive huge p and huge coordinates
        v = eval_lame(1e8, 1e8, 512.0, 1.0)
        assert np.isfinite(v) and v > 0

    def test_vectorized(self):
        x = np.array([1.0, 0.0, 0.5])
        y = np.array([0.0, 1.0, 0.5])
        out = eval_lame(x, y, 2.0, 1.0)
        assert out.shape == (3,)
        assert out[0] == 0.0


class TestFg:
    def test_corner_s1(self):
        assert eval_fg(1.0, 1.0, 1.0, 1.0) == 0.0

    def test_axis_point_any_s(self):
        assert eval_fg(1.0, 0.0, 0.7, 1.0) == 0.0

    def test_circle_case(self):
        assert eval_fg(0.5, 0.5, 0.0, 1.0) == -0.5


class TestPeriodic:
    def test_corner_s1(self):
        assert eval_periodic(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_axis_point(self):
        assert eval_periodic(1.0, 0.0, 0.5, 1.0) == 0.0

    def test_origin_value(self):
        assert eval_periodic(0.0, 0.0, 0.5, 1.0) == pytest.approx(math.sqrt(2) / 2 - 1)


class TestOblique:
    def test_axis_point(self):
        assert eval_oblique(1.0, 0.0, 0.6, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_line_point_s1(self):
        # lies on y = -x + 1
        assert eval_oblique(0.3, 0.7, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_full_overshoot_origin(self):
        assert eval_oblique(0.0, 0.0, 1.0, 1.0, h=2.0) == -4.0

    def test_overshoot_inert_below_s1(self):
        x = np.linspace(-2, 2, 17)
        assert np.array_equal(
            eval_oblique(x, x, 0.9, 1.0, h=0.0), eval_oblique(x, x, 0.9, 1.0, h=2.0)
        )


class TestPhaseGrid:
    def test_lattice_zeros(self):
        assert eval_phase_grid(0.0, 0.5) == 0.0
        assert eval_phase_grid(1.5, 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_cell_center(self):
        assert eval_phase_grid(0.5, 0.5) == pytest.approx(1.0)


class TestFrantzPoint:
    def test_axis_points(self):
        x, y = frantz_point(0.0, 2.0, 1.0)
        assert (x, y) == (1.0, 0.0)
        x, y = frantz_point(math.pi / 2, 2.0, 1.0)
        assert abs(x) < 1e-15 and y == pytest.approx(1.0)

    def test_diagonal_frozen_value(self):
        x, y = frantz_point(math.pi / 4, 2.0, 1.0)
        assert x == pytest.approx(FRANTZ_PI4_S2, abs=1e-14)
        assert y == pytest.approx(FRANTZ_PI4_S2, abs=1e-14)

    def test_circle_substitution_below_cutoff(self):
        t = np.linspace(0, 2 * math.pi, 64)
        x, y = frantz_point(t, 1e-9, 1.0)
        assert np.allclose(np.hypot(x, y), 1.0, atol=1e-15)

    def test_scaling_in_r(self):
        t = 2 * math.pi * np.arange(64) / 64
        x1, y1 = frantz_point(t, 2.0, 1.0)
        x3, y3 = frantz_point(t, 2.0, 3.0)
        assert np.max(np.abs(x3 - 3.0 * x1)) <= 1e-14
        assert np.max(np.abs(y3 - 3.0 * y1)) <= 1e-14

    def test_bounded_by_square(self):
        t = 2 * math.pi * np.arange(4096) / 4096
        x, y = frantz_point(t, 4.0, 1.0)
        assert max(np.abs(x).max(), np.abs(y).max()) <= 1.0
        k = np.argmin(np.abs(t - math.pi / 4))
        assert x[k] > 0.99 and y[k] > 0.99


class TestMakeField2d:
    def test_fg_s0_is_circle(self):
        field = make_field2d(ShapeSpec2D("fg", s=0.0))
        pts = np.linspace(-2, 2, 41)
        assert np.array_equal(field(pts, pts[::-1]), pts**2 + pts[::-1] ** 2 - 1.0)

    def test_periodic_s0_limit(self):
        field = make_field2d(ShapeSpec2D("periodic", s=0.0, r=2.0))
        assert field(1.0, 1.0) == -2.0
        assert field(2.0, 0.0) == 0.0

    def test_frantz_is_parametric_only(self):
        with pytest.raises(ParametricOnlyError):
            make_field2d(ShapeSpec2D("frantz", s=1.0))

    @pytest.mark.parametrize("spec", [
        ShapeSpec2D("lame", p=2.5),
        ShapeSpec2D("fg", s=0.6),
        ShapeSpec2D("periodic", s=0.6),
        ShapeSpec2D("oblique", s=0.6),
    ])
    def test_inside_negative_at_origin(self, spec):
        assert make_field2d(spec)(0.0, 0.0) < 0


# The evaluators as plain expressions, frozen before they took out=: the
# samples written into out must be these bits.
def frozen_lame(x, y, p, r):
    ax, ay = np.abs(x), np.abs(y)
    if math.isinf(p):
        return np.maximum(ax, ay) - r
    m = np.maximum(ax, ay)
    safe = np.where(m > 0, m, 1.0)
    return m * sum((part / safe) ** p for part in (ax, ay)) ** (1.0 / p) - r


def frozen_fg(x, y, s, r):
    x2, y2 = np.square(x), np.square(y)
    return x2 + y2 - (s * s) / (r * r) * (x2 * y2) - r * r


def frozen_periodic(x, y, s, r):
    c = s * np.pi / (2.0 * r)
    return np.cos(s * np.pi / 2.0) - np.cos(c * x) * np.cos(c * y)


def frozen_oblique(x, y, s, r, h):
    c = s * np.pi / r
    return 1.0 + np.cos(s * np.pi) - math.floor(s) * h - np.cos(c * x) - np.cos(c * y)


def frozen_phase_grid(x, y):
    return np.sin(np.pi * np.asarray(x, dtype=float)) * np.sin(np.pi * np.asarray(y, dtype=float))


def frozen_circle(x, y, r):
    return sum(np.square(c) for c in (x, y)) - r * r


FROZEN_FIELDS = {
    "lame": lambda sp, x, y: frozen_lame(x, y, sp.p, sp.r),
    "fg": lambda sp, x, y: frozen_fg(x, y, sp.s, sp.r),
    "periodic": lambda sp, x, y: frozen_circle(x, y, sp.r) if sp.s == 0 else frozen_periodic(x, y, sp.s, sp.r),
    "oblique": lambda sp, x, y: (frozen_circle(x, y, sp.r) if sp.s == 0
                                 else frozen_oblique(x, y, sp.s, sp.r, sp.h)),
    "phase_grid": lambda sp, x, y: frozen_phase_grid(x, y),
}
FIELD_FAMILIES = tuple(FROZEN_FIELDS)

# the evaluators with every parameter they take, for direct calls
FROZEN_EVALUATORS = [
    (eval_lame, frozen_lame, ("p", "r")),
    (eval_fg, frozen_fg, ("s", "r")),
    (eval_periodic, frozen_periodic, ("s", "r")),
    (eval_oblique, frozen_oblique, ("s", "r", "h")),
    (eval_phase_grid, frozen_phase_grid, ()),
]


def generic(lo, hi):
    # uniform floats with full mantissas, whose products round
    return st.integers(0, 2**32 - 1).map(lambda seed: float(np.random.default_rng(seed).uniform(lo, hi)))


# zero, subnormal, tiny, huge, the largest finite and infinite magnitudes, both signs
EXTREMES = [0.0, 5e-324, 1e-310, 1e-200, 0.3, 1.0, 7.5, 1e8, 1e200, 1.7e308, math.inf]
coordinates = st.one_of(generic(-3, 3), st.sampled_from(EXTREMES + [-v for v in EXTREMES]))
unit_s = st.one_of(st.sampled_from([0.0, 1.0]), generic(0, 1), st.floats(0, 1))
scales = st.one_of(generic(0.25, 4), st.floats(0.25, 4))


@st.composite
def specs(draw):
    p = draw(st.one_of(st.sampled_from([1.0, 2.0, math.inf]), generic(1, 64), st.floats(64, 1e6)))
    return ShapeSpec2D(draw(st.sampled_from(FIELD_FAMILIES)), p=p, s=draw(unit_s), r=draw(scales),
                       h=draw(generic(0, 2)))


@st.composite
def lattices(draw):
    # band-shaped inputs as contour2d._sample_banded passes them (x fastest),
    # 1-D rays as the oracle passes them, or scalars
    kind = draw(st.sampled_from(["band", "ray", "scalar"]))
    if kind == "scalar":
        return draw(coordinates), draw(coordinates)
    if kind == "ray":
        n = draw(st.integers(1, 9))
        return tuple(np.array(draw(st.lists(coordinates, min_size=n, max_size=n))) for _ in range(2))
    x, y = (np.array(draw(st.lists(coordinates, min_size=1, max_size=6))) for _ in range(2))
    return x.reshape(1, -1), y.reshape(-1, 1)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_writes_frozen_bits(call, frozen, xy):
    with np.errstate(all="ignore"):
        want = frozen(*xy)
        got = call(*xy)
        assert same_bits(got, want)
        assert type(got) is type(want)  # scalars stay scalars
        if not any(np.ndim(c) for c in xy):
            return
        shape = np.broadcast_shapes(*(np.shape(c) for c in xy))
        out = np.full(shape, np.nan)
        assert call(*xy, out=out) is out
    want = np.broadcast_to(want, shape)
    # an infinite coordinate may give inf where the plain form gives nan (the
    # Lame field); the finite check then names the same first sample
    finite = np.isfinite(np.broadcast_to(xy[0], shape)) & np.isfinite(np.broadcast_to(xy[1], shape))
    assert np.array_equal(np.isfinite(out), np.isfinite(want))
    assert same_bits(out[finite], want[finite])


class TestWritesIntoOut:
    @settings(max_examples=500, deadline=None)
    @given(specs(), lattices())
    def test_family_fields_match_frozen_expressions(self, spec, xy):
        assert_writes_frozen_bits(make_field2d(spec), lambda x, y: FROZEN_FIELDS[spec.family](spec, x, y), xy)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FROZEN_EVALUATORS), specs(), lattices())
    def test_evaluators_match_frozen_expressions(self, evaluator, spec, xy):
        new, frozen, names = evaluator
        params = [getattr(spec, name) for name in names]
        assert_writes_frozen_bits(lambda x, y, **out: new(x, y, *params, **out),
                                  lambda x, y: frozen(x, y, *params), xy)

    @pytest.mark.parametrize("r", [1e-310, 1.0])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 64.0, 1e6])
    def test_lame_on_every_pair_of_extremes(self, p, r):
        axis = np.array(EXTREMES + [-v for v in EXTREMES] + [2e-323, 3e-310, 0.7])
        assert_writes_frozen_bits(lambda x, y, **out: eval_lame(x, y, p, r, **out),
                                  lambda x, y: frozen_lame(x, y, p, r), (axis.reshape(1, -1), axis.reshape(-1, 1)))

    @pytest.mark.parametrize("x, y, want", [(math.inf, 1.0, math.inf), (-1.0, -math.inf, math.inf),
                                            (math.inf, math.inf, math.nan)])
    def test_lame_into_out_at_an_infinite_coordinate(self, x, y, want):
        out = np.empty(1)
        with np.errstate(all="ignore"):
            assert np.isnan(eval_lame(np.array([x]), np.array([y]), 3.0, 1.0))
            eval_lame(np.array([x]), np.array([y]), 3.0, 1.0, out=out)
        assert np.array_equal(out, [want], equal_nan=True)

    @pytest.mark.parametrize("spec", [ShapeSpec2D(family) for family in FIELD_FAMILIES]
                             + [ShapeSpec2D(family, s=s) for family in ("periodic", "oblique") for s in (0.0, 1.0)]
                             + [ShapeSpec2D("lame", p=p) for p in (1.0, 2.0, math.inf)])
    def test_every_family_field_says_it_fills_out(self, spec):
        assert make_field2d(spec).fills_out is True

    def test_every_field_family_is_frozen(self):
        assert set(FIELD_FAMILIES) == set(FAMILIES_2D) - {"frantz"}
