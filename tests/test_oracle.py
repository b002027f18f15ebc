import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squircles import oracle
from squircles.contour2d import BAND_SAMPLES
from squircles.fields2d import ShapeSpec2D, make_field2d
from squircles.fields3d import eval_oblique3d, eval_toroid, eval_toroid_octic
from squircles.oracle import (
    InverseDomainError,
    NoSignChangeError,
    limit_convergence_check,
    periodicity_check,
    radial_profile,
    radial_profile_report,
    square_case_check,
    square_metric_axis,
    square_metric_tilted,
    zero_set_residual,
)

# frozen 50-digit evaluations of the isolated-coordinate radii
PERIODIC_S05_THETA03 = 1.0088185047916818464
OBLIQUE_S07_THETA11 = 0.90712642258390198335

# frozen extended-precision max errors over the 50-point y-grid
PERIODIC_ERRORS = (6.4260461937301838e-4, 1.6036562563674768e-4, 4.0073603590274398e-5)
OBLIQUE_ERRORS = (1.283784949538672e-3, 3.2064267958779082e-4, 8.0141678405646262e-5)

Y_GRID = np.linspace(-0.94, 0.94, 50)


class TestRadialProfile:
    def test_circle_any_angle(self):
        field = make_field2d(ShapeSpec2D("fg", s=0.0))
        for theta in (0.0, 0.7, 2.2, 5.9):
            assert radial_profile(field, theta, 2.0) == pytest.approx(1.0, abs=1e-11)

    def test_periodic_frozen_radius(self):
        field = make_field2d(ShapeSpec2D("periodic", s=0.5))
        r = radial_profile(field, 0.3, 2.0)
        assert r == pytest.approx(PERIODIC_S05_THETA03, abs=1e-11)

    def test_oblique_frozen_radius(self):
        field = make_field2d(ShapeSpec2D("oblique", s=0.7))
        r = radial_profile(field, 1.1, 2.0)
        assert r == pytest.approx(OBLIQUE_S07_THETA11, abs=1e-11)

    def test_square_near_diagonal(self):
        # exactly on the diagonal the zero set is tangential (no sign change),
        # so probe just off it against the exact square metric
        field = make_field2d(ShapeSpec2D("periodic", s=1.0))
        theta = math.pi / 4 + 1e-3
        expected = float(square_metric_axis(1.0)(theta))
        assert radial_profile(field, theta, 2.0) == pytest.approx(expected, abs=1e-9)

    def test_tilted_square_diagonal(self):
        field = make_field2d(ShapeSpec2D("oblique", s=1.0))
        assert radial_profile(field, math.pi / 4, 2.0) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-9
        )

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            radial_profile(lambda x, y: -1.0 + 0 * x + 0 * y, 0.0, 2.0)

    def test_requires_negative_origin(self):
        with pytest.raises(NoSignChangeError):
            radial_profile(lambda x, y: 1.0 + 0 * x + 0 * y, 0.0, 2.0)


class TestRadialProfileReport:
    def test_circle_reference(self):
        field = make_field2d(ShapeSpec2D("lame", p=2.0))
        rep = radial_profile_report(field, 1.5, lambda th: 1.0)
        assert rep.max_abs_error <= 1e-12
        assert len(rep.angles) == 360

    def test_square_metric_axis(self):
        ref = square_metric_axis(1.0)
        assert ref(0.0) == pytest.approx(1.0)
        assert ref(np.pi / 4) == pytest.approx(math.sqrt(2))

    def test_square_metric_tilted(self):
        ref = square_metric_tilted(1.0)
        assert ref(0.0) == pytest.approx(1.0)
        assert ref(np.pi / 4) == pytest.approx(math.sqrt(2) / 2)


class TestLimitConvergence:
    def test_periodic_errors_match_oracle(self):
        rep = limit_convergence_check("periodic", Y_GRID, [0.2, 0.1, 0.05])
        assert np.allclose(rep.errors, PERIODIC_ERRORS, rtol=1e-9)

    def test_oblique_errors_match_oracle(self):
        rep = limit_convergence_check("oblique", Y_GRID, [0.2, 0.1, 0.05])
        assert np.allclose(rep.errors, OBLIQUE_ERRORS, rtol=1e-9)

    def test_quadratic_ratios(self):
        for family in ("periodic", "oblique"):
            rep = limit_convergence_check(family, Y_GRID, [0.2, 0.1, 0.05])
            assert np.all(rep.ratios >= 3.5) and np.all(rep.ratios <= 4.5)

    def test_y0_exact(self):
        rep = limit_convergence_check("periodic", np.array([0.0]), [0.1, 0.05])
        assert rep.errors[0] <= 5e-14

    def test_rejects_non_halving(self):
        with pytest.raises(ValueError):
            limit_convergence_check("periodic", Y_GRID, [0.2, 0.15])

    def test_rejects_wide_y(self):
        with pytest.raises(ValueError):
            limit_convergence_check("periodic", np.array([0.99]), [0.2, 0.1])

    def test_inverse_domain_error(self):
        with pytest.raises((InverseDomainError, ValueError)):
            limit_convergence_check("nope", Y_GRID, [0.2, 0.1])


class TestPeriodicity:
    def test_periodic_2d(self):
        field = make_field2d(ShapeSpec2D("periodic", s=0.5))
        assert periodicity_check(field, 8.0, ndim=2) <= 1e-9

    def test_oblique_2d(self):
        field = make_field2d(ShapeSpec2D("oblique", s=0.5))
        assert periodicity_check(field, 4.0, ndim=2) <= 1e-9

    def test_fg_not_periodic(self):
        field = make_field2d(ShapeSpec2D("fg", s=0.5))
        assert periodicity_check(field, 4.0, ndim=2) > 0.1

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            periodicity_check(lambda x, y: x + y, 0.0)


class TestSquareCase:
    def test_periodic_r1(self):
        assert square_case_check("periodic", r=1.0) <= 1e-12

    def test_oblique_r1(self):
        assert square_case_check("oblique", r=1.0) <= 1e-12

    def test_periodic_r3(self):
        assert square_case_check("periodic", r=3.0) <= 1e-12

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            square_case_check("lame")


class TestZeroSetResidual:
    def test_identity(self):
        # residual against itself is just the bisection leftover, |f'| * tol
        sphere = lambda x, y, z: x * x + y * y + z * z - 1.0
        assert zero_set_residual(sphere, sphere, 100) <= 1e-12

    def test_toroid_octic(self):
        R, r = 2.0, 0.5
        for s in (0.0, 0.5, 1.0):
            ref = lambda x, y, z: eval_toroid(x, y, z, s, R, r)
            alt = lambda x, y, z: eval_toroid_octic(x, y, z, s, R, r)
            res = zero_set_residual(ref, alt, 1000, seed_point=(R, 0.0, 0.0), r_max=2.0)
            assert res <= 1e-9 * R**4

    def test_sham_schwarz(self):
        ref = lambda x, y, z: eval_oblique3d(x, y, z, 1.0, math.pi, 1.0)
        alt = lambda x, y, z: -(np.cos(x) + np.cos(y) + np.cos(z))
        res = zero_set_residual(ref, alt, 500, seed_point=(0.0, 0.0, 0.0), r_max=3.5)
        assert res <= 1e-12

    def test_seed_must_be_inside(self):
        sphere = lambda x, y, z: x * x + y * y + z * z - 1.0
        with pytest.raises(NoSignChangeError):
            zero_set_residual(sphere, sphere, 10, seed_point=(5.0, 0.0, 0.0))


class TestScanArguments:
    """Arguments that would give a silent wrong answer are a ValueError: a
    negative r_max reverses the bracket, which is then never bisected (the
    unit circle's radius would read -0.99976), and a sample_count below 1
    checks nothing."""

    CIRCLE = staticmethod(make_field2d(ShapeSpec2D("fg", s=0.0)))

    @pytest.mark.parametrize("r_max", [-1.5, 0.0, math.inf, math.nan])
    def test_radial_profile_r_max(self, r_max):
        with pytest.raises(ValueError, match=f"^r_max must be finite and > 0, got {r_max}$"):
            radial_profile(self.CIRCLE, 0.0, r_max)

    @pytest.mark.parametrize("r_max", [-1.5, 0.0, math.inf, math.nan])
    def test_radial_profile_report_r_max(self, r_max):
        with pytest.raises(ValueError, match=f"^r_max must be finite and > 0, got {r_max}$"):
            radial_profile_report(self.CIRCLE, r_max, lambda th: 1.0)

    @pytest.mark.parametrize("scan", [0, -3])
    def test_radial_profile_scan(self, scan):
        with pytest.raises(ValueError, match=f"^scan must be >= 1, got {scan}$"):
            radial_profile(self.CIRCLE, 0.0, 2.0, scan=scan)

    @pytest.mark.parametrize("r_max", [-2.0, 0.0, math.inf, math.nan])
    def test_zero_set_residual_r_max(self, r_max):
        with pytest.raises(ValueError, match=f"^r_max must be finite and > 0, got {r_max}$"):
            zero_set_residual(_sphere, _sphere, 10, r_max=r_max)

    @pytest.mark.parametrize("sample_count", [0, -5])
    def test_zero_set_residual_sample_count(self, sample_count):
        with pytest.raises(ValueError, match=f"^sample_count must be >= 1, got {sample_count}$"):
            zero_set_residual(_sphere, _sphere, sample_count)


# The per-ray oracle, one bisection per ray in Python, kept as the reference
# that the batched kernel must reproduce bit for bit.
def ref_bisect_ray(field_on_ray, lo, hi, tol):
    flo = field_on_ray(lo)
    if flo == 0.0:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = field_on_ray(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_radial_profile(field, theta, r_max, tol=1e-12, scan=1024):
    ct, st = np.cos(theta), np.sin(theta)
    if not field(0.0, 0.0) < 0:
        raise NoSignChangeError("field is not negative at the origin")
    ts = np.linspace(0.0, r_max, scan + 1)
    vals = np.asarray(field(ts * ct, ts * st))
    pos = np.nonzero(vals > 0)[0]
    if len(pos) == 0:
        raise NoSignChangeError(f"no sign change along theta={theta}")
    k = pos[0]
    return ref_bisect_ray(lambda t: field(t * ct, t * st), ts[k - 1], ts[k], tol)


def ref_radial_profile_report(field, r_max, reference, n_angles=360):
    angles = 2.0 * np.pi * (np.arange(n_angles) + 0.5) / n_angles
    radii = np.array([ref_radial_profile(field, t, r_max) for t in angles])
    ref = np.asarray(reference(angles), dtype=float)
    ref = np.broadcast_to(ref, radii.shape)
    return angles, radii, ref, float(np.max(np.abs(radii - ref)))


def ref_zero_set_residual(reference, alternate, sample_count, seed_point=(0.0, 0.0, 0.0), r_max=2.0, seed=13):
    seed_point = np.asarray(seed_point, dtype=float)
    if not reference(*seed_point) < 0:
        raise NoSignChangeError("seed point is not inside the reference zero set")
    rng = np.random.default_rng(seed)
    worst = 0.0
    found = 0
    attempts = 0
    ts = np.linspace(0.0, r_max, 1025)
    while found < sample_count:
        if attempts >= 20 * sample_count:
            raise NoSignChangeError("could not bracket enough reference zeros")
        attempts += 1
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        pts = seed_point[None, :] + ts[:, None] * d[None, :]
        vals = np.asarray(reference(pts[:, 0], pts[:, 1], pts[:, 2]))
        pos = np.nonzero(vals > 0)[0]
        if len(pos) == 0:
            continue
        k = pos[0]
        root = ref_bisect_ray(
            lambda t: reference(*(seed_point + t * d)), ts[k - 1], ts[k], 1e-13 * r_max
        )
        p = seed_point + root * d
        worst = max(worst, float(np.abs(alternate(p[0], p[1], p[2]))))
        found += 1
    return worst


def _outcome(fn, *args, **kwargs):
    # the value, or the type and text of the exception
    try:
        return fn(*args, **kwargs), None
    except (NoSignChangeError, ValueError) as exc:
        return None, (type(exc), str(exc))


SPECS_2D = st.one_of(
    st.builds(lambda p: ShapeSpec2D("lame", p=p),
              st.one_of(st.sampled_from([1.0, 2.0, math.inf]), st.floats(1.0, 12.0))),
    st.builds(lambda s: ShapeSpec2D("fg", s=s), st.one_of(st.just(1.0), st.floats(0.0, 1.0))),
    st.builds(lambda s: ShapeSpec2D("periodic", s=s), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
    st.builds(lambda s, h: ShapeSpec2D("oblique", s=s, h=h),
              st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.sampled_from([0.0, 0.5, 2.0])),
)


def _sphere(x, y, z):
    return x * x + y * y + z * z - 1.0


def _toroid_pair(s, R=2.0, r=0.5):
    return (lambda x, y, z: eval_toroid(x, y, z, s, R, r),
            lambda x, y, z: eval_toroid_octic(x, y, z, s, R, r))


def _one_point_arrays(field):
    # the field with every argument evaluated as a one-element array
    return lambda *xs: field(*(np.asarray(x)[None] for x in xs))[0]


def _pow_field(spec):
    # finite-p lame takes ** on its parts. On numpy scalars that is libm pow,
    # which differs from numpy's array power in the last ulp on ~5% of inputs
    return spec.family == "lame" and math.isfinite(spec.p)


class TestBatchedBisection:
    """The batched oracle against the per-ray reference: the same bits, the
    same errors, and scans bounded in memory.

    The reference calls the field on one numpy scalar per bisection step; the
    batched oracle calls it on arrays. Where a field evaluates a point the
    same way in both, the radii are bit-identical. For a finite-p lame field
    they are bit-identical to the reference fed one-element arrays, and a
    midpoint within an ulp of the root can take the other side against the
    raw reference (lame p=4.012340084595129, ray 31 of 360: 3.4e-13 apart).
    """

    @settings(max_examples=60, deadline=None)
    @given(spec=SPECS_2D, n_angles=st.integers(1, 400), r_max=st.floats(0.5, 3.0))
    def test_report_matches_per_ray_reference(self, spec, n_angles, r_max):
        field = make_field2d(spec)
        ref_field = _one_point_arrays(field) if _pow_field(spec) else field
        got, err = _outcome(radial_profile_report, field, r_max, square_metric_axis(1.0), n_angles)
        want, want_err = _outcome(ref_radial_profile_report, ref_field, r_max, square_metric_axis(1.0), n_angles)
        assert err == want_err
        if want is not None:
            angles, radii, ref, max_abs_error = want
            assert got.angles.tobytes() == angles.tobytes()
            assert got.radii.tobytes() == radii.tobytes()
            assert got.reference.tobytes() == ref.tobytes()
            assert got.max_abs_error == max_abs_error or math.isnan(max_abs_error)

    @settings(max_examples=60, deadline=None)
    @given(spec=SPECS_2D, theta=st.floats(-7.0, 7.0), r_max=st.floats(0.5, 3.0),
           tol=st.sampled_from([1e-12, 1e-6, 0.5]), scan=st.integers(1, 300))
    def test_profile_matches_per_ray_reference(self, spec, theta, r_max, tol, scan):
        field = make_field2d(spec)
        ref_field = _one_point_arrays(field) if _pow_field(spec) else field
        got, err = _outcome(radial_profile, field, theta, r_max, tol, scan)
        want, want_err = _outcome(ref_radial_profile, ref_field, theta, r_max, tol, scan)
        assert err == want_err
        if want is not None:
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_one_ulp_pow_difference(self):
        field = make_field2d(ShapeSpec2D("lame", p=4.012340084595129))
        got = radial_profile_report(field, 1.5, lambda th: 1.0).radii
        raw = ref_radial_profile_report(field, 1.5, lambda th: 1.0)[1]
        arrays = ref_radial_profile_report(_one_point_arrays(field), 1.5, lambda th: 1.0)[1]
        assert got.tobytes() == arrays.tobytes()
        assert np.flatnonzero(got != raw).tolist() == [31]
        assert abs(got[31] - raw[31]) <= 1e-12

    def test_verify_checks_match_per_ray_reference(self):
        # the fields and radii of the limit and square checks that verify runs
        checks = [(ShapeSpec2D("lame", p=2.0), 1.5), (ShapeSpec2D("fg", s=0.0), 1.5),
                  (ShapeSpec2D("periodic", s=1e-3), 1.5), (ShapeSpec2D("oblique", s=1e-3), 1.5),
                  (ShapeSpec2D("lame", p=math.inf), 1.6), (ShapeSpec2D("lame", p=1.0), 1.6),
                  (ShapeSpec2D("fg", s=1.0), 1.6), (ShapeSpec2D("periodic", s=1.0), 1.6),
                  (ShapeSpec2D("oblique", s=1.0), 1.6)]
        for spec, r_max in checks:
            field = make_field2d(spec)
            got = radial_profile_report(field, r_max, lambda th: 1.0).radii
            assert got.tobytes() == ref_radial_profile_report(field, r_max, lambda th: 1.0)[1].tobytes()
        for s in (0.0, 0.5, 1.0):
            ref, alt = _toroid_pair(s)
            kwargs = dict(seed_point=(2.0, 0.0, 0.0), r_max=2.0)
            assert zero_set_residual(ref, alt, 1000, **kwargs) == ref_zero_set_residual(ref, alt, 1000, **kwargs)

    @settings(max_examples=40, deadline=None)
    @given(s=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), sample_count=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1), r_max=st.floats(0.6, 2.5))
    def test_toroid_residual_matches_per_ray_reference(self, s, sample_count, seed, r_max):
        ref, alt = _toroid_pair(s)
        kwargs = dict(seed_point=(2.0, 0.0, 0.0), r_max=r_max, seed=seed)
        got = zero_set_residual(ref, alt, sample_count, **kwargs)
        assert type(got) is float
        assert got == ref_zero_set_residual(ref, alt, sample_count, **kwargs)

    @settings(max_examples=40, deadline=None)
    @given(offset=st.floats(0.0, 0.95), sample_count=st.integers(1, 100), seed=st.integers(0, 2**32 - 1),
           r_max=st.floats(0.02, 2.5))
    def test_offset_sphere_matches_per_ray_reference(self, offset, sample_count, seed, r_max):
        # from an off-centre seed only some directions reach the sphere within
        # r_max, so rays are skipped and, below 1 in 20, the attempt cap runs out
        # NaN residuals are skipped, as the reference's max() skips them
        alt = lambda x, y, z: np.where(y > 0.5, np.nan, x + 2.0 * y - z * z)
        kwargs = dict(seed_point=(offset, 0.0, 0.0), r_max=r_max, seed=seed)
        assert _outcome(zero_set_residual, _sphere, alt, sample_count, **kwargs) == _outcome(
            ref_zero_set_residual, _sphere, alt, sample_count, **kwargs)

    def test_directions_are_normalised_as_linalg_norm_does(self):
        # the residual of the reference against itself is the bisection
        # leftover at each root, which moves with the last bit of a direction
        for seed in range(5):
            kwargs = dict(seed_point=(0.3, 0.0, 0.0), seed=seed)
            assert zero_set_residual(_sphere, _sphere, 1000, **kwargs) == ref_zero_set_residual(
                _sphere, _sphere, 1000, **kwargs)

    def test_exact_zeros_in_a_batch(self):
        # a square of half-side 0.75 meets the rays at 90 and 270 degrees at
        # t = 0.75: a scan sample for r_max = 2 and the first midpoint of
        # [0, 1.5] for r_max = 1536, while the other four rays bisect on
        field = make_field2d(ShapeSpec2D("lame", p=math.inf, r=0.75))
        for r_max in (2.0, 1536.0):
            got = radial_profile_report(field, r_max, lambda th: 0.75, n_angles=6).radii
            assert got[[1, 4]].tolist() == [0.75, 0.75]
            assert got.tobytes() == ref_radial_profile_report(field, r_max, lambda th: 0.75, 6)[1].tobytes()

    def test_stop_at_tol_and_nan_at_lo(self):
        # a bracket exactly tol wide is not bisected; a NaN at lo counts as
        # not negative, so midpoints are judged against that
        field = make_field2d(ShapeSpec2D("periodic", s=0.5))
        assert radial_profile(field, 0.3, 2.0, tol=0.5, scan=4) == 1.25
        assert ref_radial_profile(field, 0.3, 2.0, tol=0.5, scan=4) == 1.25

        def holed(x, y):
            r2 = x * x + y * y
            return np.where((0.81 <= r2) & (r2 < 1.0), np.nan, r2 - 1.0)

        got = radial_profile_report(holed, 1.5, lambda th: 1.0, n_angles=7).radii
        assert got.tobytes() == ref_radial_profile_report(holed, 1.5, lambda th: 1.0, 7)[1].tobytes()
        assert (got > 1.0).all()

    def test_origin_error(self):
        field = lambda x, y: 1.0 + 0 * x + 0 * y
        for fn in (radial_profile_report, ref_radial_profile_report):
            with pytest.raises(NoSignChangeError, match="^field is not negative at the origin$"):
                fn(field, 2.0, lambda th: 1.0)

    def test_first_angle_without_sign_change_is_named(self):
        # the square's corners at 45 + 90 k degrees lie beyond r_max = 1.2
        field = make_field2d(ShapeSpec2D("lame", p=math.inf))
        got = _outcome(radial_profile_report, field, 1.2, lambda th: 1.0, 360)
        assert got == _outcome(ref_radial_profile_report, field, 1.2, lambda th: 1.0, 360)
        assert got[1][1].startswith("no sign change along theta=0.6")

    def test_seed_and_cap_errors(self):
        for kwargs, text in [(dict(seed_point=(5.0, 0.0, 0.0)), "seed point is not inside the reference zero set"),
                             (dict(r_max=0.5), "could not bracket enough reference zeros")]:
            for fn in (zero_set_residual, ref_zero_set_residual):
                with pytest.raises(NoSignChangeError, match=f"^{text}$"):
                    fn(_sphere, _sphere, 10, **kwargs)

    def test_scans_are_bounded_in_memory(self):
        # measured 9.5 MB and 8.5-9.3 MB; scanning every ray in one call took
        # 26.6 MB and 65.6 MB
        ref, alt = _toroid_pair(0.5)
        field = make_field2d(ShapeSpec2D("lame", p=3.0))
        checks = [lambda: radial_profile_report(field, 1.6, lambda th: 1.0),
                  lambda: zero_set_residual(ref, alt, 1000, seed_point=(2.0, 0.0, 0.0))]
        for check in checks:
            tracemalloc.start()
            try:
                check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12e6


# The whole-ray scan that the chunked one replaced, kept as the reference for
# its indices: samples(rays) gives the (rays, n_ts) scan of a slice of rays.
def ref_first_positive(samples, n_rays, n_ts):
    first = np.empty(n_rays, dtype=np.intp)
    step = max(1, BAND_SAMPLES // n_ts)
    for start in range(0, n_rays, step):
        pos = np.asarray(samples(slice(start, start + step))) > 0
        k = pos.argmax(axis=1)
        k[~pos.any(axis=1)] = -1
        first[start:start + step] = k
    return first


CHUNK = oracle._SCAN_CHUNK
# where a ray's first positive sample sits: "boundary" is the first or last
# index of a chunk, "none" is a ray without one
FIRST_AT = ("zero", "boundary", "last", "none", "any")


def _scans(rng, kinds, n_ts, chunk, nan_before):
    # one ray per kind: values <= 0 (NaN and signed zeros among them when
    # nan_before) up to its first positive, anything after it
    scans = rng.uniform(-2.0, 2.0, size=(len(kinds), n_ts))
    scans[rng.random(scans.shape) < 0.05] = np.nan
    first = np.full(len(kinds), -1)
    for i, kind in enumerate(kinds):
        boundary = max(0, chunk * rng.integers(0, (n_ts - 1) // chunk + 1) - rng.integers(0, 2))
        k = {"zero": 0, "boundary": boundary, "last": n_ts - 1, "none": n_ts, "any": rng.integers(0, n_ts)}[kind]
        before = -rng.uniform(0.0, 1.0, size=k)
        if nan_before:
            before[rng.random(k) < 0.3] = rng.choice([np.nan, 0.0, -0.0])
        scans[i, :k] = before
        if k < n_ts:
            scans[i, k] = rng.uniform(1e-300, 2.0)
            first[i] = k
    return scans, first


class TestProgressiveScan:
    """The chunked scan gives the whole-ray scan's indices, holds at most
    BAND_SAMPLES samples per call, and samples no ray past the chunk that
    holds its first positive sample."""

    @settings(max_examples=80, deadline=None)
    @given(kinds=st.lists(st.sampled_from(FIRST_AT), max_size=400),
           n_ts=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 1025]),
           band=st.sampled_from([BAND_SAMPLES, 3 * CHUNK + 5, CHUNK, 7]),
           nan_before=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_whole_ray_scan(self, kinds, n_ts, band, nan_before, seed):
        chunk = min(CHUNK, band)
        scans, first = _scans(np.random.default_rng(seed), kinds, n_ts, chunk, nan_before)
        calls, last = [], np.full(len(kinds), -1)

        def counting(rays, ts):
            calls.append(len(rays) * (ts.stop - ts.start))
            assert (last[rays] == ts.start - 1).all()  # each ray's chunks in order, none twice
            last[rays] = ts.stop - 1
            return scans[rays, ts]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "BAND_SAMPLES", band)
            got = oracle._first_positive(counting, len(kinds), n_ts)
        assert got.dtype == np.intp
        assert got.tolist() == first.tolist()
        assert got.tolist() == ref_first_positive(lambda rays: scans[rays], len(kinds), n_ts).tolist()
        assert max(calls, default=0) <= band
        # a ray is sampled up to the end of the chunk that holds its first
        # positive sample, and a ray without one to the end of the scan
        end = np.minimum(np.where(first < 0, n_ts, (first // chunk + 1) * chunk), n_ts)
        assert (last + 1).tolist() == end.tolist()
        assert sum(calls) == int(end.sum())
