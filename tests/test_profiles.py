"""Profile curves, rotation surfaces and their special algebraic cases."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from cmc_elliptic.errors import (DomainError, EmptyDomainError, RangeError,
                                 UnsupportedCaseError)
from cmc_elliptic.profiles import (
    CmcParams,
    Family,
    anchor,
    domain,
    hyperboloid_vertices,
    implicit_residual,
    maximal_profile,
    mean_curvature,
    mesh,
    profile_point,
    surface_point,
)


def in_domain_samples(params, n, seed=0, margin=0.05):
    """Random s values strictly inside the open domain."""
    dom = domain(params)
    lo = dom.lo if math.isfinite(dom.lo) else -2.0 / params.H
    hi = dom.hi if math.isfinite(dom.hi) else 2.0 / params.H
    pad = margin * (hi - lo)
    rng = random.Random(seed)
    return [rng.uniform(lo + pad, hi - pad) for _ in range(n)]


class TestDomain:
    def test_spacelike_degenerates_at_b_one(self):
        dom = domain(CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 1.0))
        assert dom.degenerate
        assert dom.lo == dom.hi == 0.0
        assert not dom.contains(0.0)

    def test_spacelike_symmetric_window(self):
        H, B = 0.5, 2.0
        dom = domain(CmcParams(Family.LORENTZ_SPACELIKE_AXIS, H, B))
        s_max = math.acosh((1 + B * B) / (2 * B)) / (2 * H)
        assert dom.lo == -s_max and dom.hi == s_max

    @pytest.mark.parametrize("B", [1 - 1e-6, 1 + 1e-6])
    def test_spacelike_edge_near_b_one_matches_mpmath(self, B):
        # acosh((1+B^2)/(2B)) keeps about four digits here: its argument is
        # 1 + 5e-13, rounded to 1e-16.
        H = 1.0
        dom = domain(CmcParams(Family.LORENTZ_SPACELIKE_AXIS, H, B))
        with mp.workdps(40):
            ref = mp.acosh((1 + mp.mpf(B) ** 2) / (2 * mp.mpf(B))) / (2 * H)
            assert abs(dom.hi - ref) <= 1e-14 * ref
        assert dom.lo == -dom.hi

    @pytest.mark.parametrize("B", [1 - 1e-6, 1 + 1e-6])
    def test_spacelike_radius_near_b_one_matches_mpmath(self, B):
        H = 1.0
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, H, B)
        edge = domain(params).hi
        for f in (-0.9, -0.5, 0.1, 0.5, 0.9):
            s = f * edge
            with mp.workdps(40):
                ref = mp.sqrt(1 + mp.mpf(B) ** 2 - 2 * mp.mpf(B)
                              * mp.cosh(2 * H * mp.mpf(s))) / (2 * H)
                got = profile_point(params, s).second
                assert abs(got - ref) <= 1e-14 * ref, f

    def test_spacelike_b_zero_full_line(self):
        dom = domain(CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 1.0, 0.0))
        assert dom.lo == -math.inf and dom.hi == math.inf

    def test_euclidean_full_line_off_b_one(self):
        dom = domain(CmcParams(Family.EUCLIDEAN, 1.0, 0.5))
        assert dom.lo == -math.inf and dom.hi == math.inf

    def test_euclidean_b_one_window(self):
        H = 0.5
        dom = domain(CmcParams(Family.EUCLIDEAN, H, 1.0))
        assert dom.lo == pytest.approx(-math.pi / (4 * H), rel=1e-15)
        assert dom.hi == pytest.approx(3 * math.pi / (4 * H), rel=1e-15)

    def test_timelike_b_one_positive_ray(self):
        dom = domain(CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 1.0))
        assert dom.lo == 0.0 and dom.hi == math.inf

    def test_timelike_b_zero_empty(self):
        with pytest.raises(EmptyDomainError):
            domain(CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 1.0, 0.0))

    def test_params_validation(self):
        with pytest.raises(DomainError):
            CmcParams(Family.EUCLIDEAN, 0.0, 1.0)
        with pytest.raises(DomainError):
            CmcParams(Family.EUCLIDEAN, 1.0, -0.1)

    @pytest.mark.parametrize("H,B", [(math.inf, 1.0), (math.nan, 1.0),
                                     (1.0, math.inf), (1.0, math.nan)])
    def test_params_must_be_finite(self, H, B):
        with pytest.raises(DomainError):
            CmcParams(Family.EUCLIDEAN, H, B)


class TestProfilePoint:
    def test_spacelike_b_zero_line(self):
        H = 0.8
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, H, 0.0)
        for s in (-1.5, 0.0, 0.7):
            cs = profile_point(params, s)
            assert cs.x == pytest.approx(-s, abs=1e-15)
            assert cs.second == pytest.approx(1 / (2 * H), rel=1e-15)
            assert cs.dx == -1.0 and cs.dsecond == 0.0

    def test_euclidean_b_zero_cylinder(self):
        H = 0.8
        params = CmcParams(Family.EUCLIDEAN, H, 0.0)
        for s in (-2.0, 0.4):
            cs = profile_point(params, s)
            assert cs.x == pytest.approx(s, abs=1e-15)
            assert cs.second == pytest.approx(1 / (2 * H), rel=1e-15)

    def test_euclidean_b_one_circle(self):
        # Sphere case: profile is a circle of radius 1/H around the equator axis value.
        H = 0.5
        params = CmcParams(Family.EUCLIDEAN, H, 1.0)
        x0 = profile_point(params, math.pi / (4 * H)).x
        for s in (-1.0, 0.0, 0.8, 2.0, 3.5):
            cs = profile_point(params, s)
            assert (cs.x - x0) ** 2 + cs.second ** 2 == pytest.approx(
                1 / (H * H), abs=1e-8)

    def test_out_of_domain_rejected(self):
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 2.0)
        with pytest.raises(DomainError):
            profile_point(params, domain(params).hi + 0.1)

    @pytest.mark.parametrize("family,s", [
        (Family.LORENTZ_TIMELIKE_AXIS, 400.0),
        (Family.EUCLIDEAN, 1e308),
    ])
    def test_float_overflow_is_a_range_error(self, family, s):
        with pytest.raises(RangeError):
            profile_point(CmcParams(family, 1.0, 2.0), s)

    def test_mean_curvature_needs_finite_second_derivatives(self):
        # At s = 200 the profile is representable (see test_axis.py) but
        # the second derivatives overflow.
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 1.0, 2.0)
        with pytest.raises(RangeError):
            mean_curvature(params, 200.0)

    def test_radius_positive_inside_domain(self):
        for family, B in [(Family.LORENTZ_SPACELIKE_AXIS, 0.7),
                          (Family.LORENTZ_TIMELIKE_AXIS, 1.3),
                          (Family.EUCLIDEAN, 0.4)]:
            params = CmcParams(family, 1.0, B)
            radius = "x" if family is Family.LORENTZ_TIMELIKE_AXIS else "second"
            for s in in_domain_samples(params, 10, seed=3):
                assert getattr(profile_point(params, s), radius) > 0

    @pytest.mark.parametrize("family,B", [
        (Family.LORENTZ_SPACELIKE_AXIS, 0.3),
        (Family.LORENTZ_SPACELIKE_AXIS, 2.0),
        (Family.LORENTZ_TIMELIKE_AXIS, 0.5),
        (Family.LORENTZ_TIMELIKE_AXIS, 2.0),
        (Family.EUCLIDEAN, 0.5),
        (Family.EUCLIDEAN, 1.0),
    ])
    def test_unit_speed(self, family, B):
        params = CmcParams(family, 0.7, B)
        sign = 1.0 if family is Family.EUCLIDEAN else -1.0
        for s in in_domain_samples(params, 15, seed=11):
            cs = profile_point(params, s)
            assert cs.dx ** 2 + sign * cs.dsecond ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_anchor_conventions(self):
        assert anchor(CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 1.0, 0.5)) == 0.0
        assert anchor(CmcParams(Family.EUCLIDEAN, 1.0, 1.0)) == 0.0
        # B > 1 puts the edge left of 0, so the base point stays at 0.
        assert anchor(CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 1.0, 2.0)) == 0.0
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 2.0, 1.0)
        assert anchor(params) == pytest.approx(5e-7, rel=1e-12)
        assert anchor(params, edge_offset=1e-3) == pytest.approx(1e-3, rel=1e-12)

    def test_axis_starts_at_anchor(self):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        assert profile_point(params, anchor(params)).second == 0.0


class TestSurfacePoint:
    def test_theta_zero_embeds_profile(self):
        for family in Family:
            params = CmcParams(family, 0.7, 2.0)
            s = 0.2
            cs = profile_point(params, s)
            pt = surface_point(params, s, 0.0)
            if family is Family.EUCLIDEAN:
                assert pt == (cs.x, cs.second, 0.0)
            elif family is Family.LORENTZ_SPACELIKE_AXIS:
                assert pt == (cs.x, 0.0, cs.second)
            else:
                assert pt == (cs.x, 0.0, cs.second)

    def test_spacelike_orbit_invariant(self):
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 0.7)
        s = 0.2
        z = profile_point(params, s).second
        for theta in (-1.5, 0.0, 0.9, 2.0):
            x1, x2, x3 = surface_point(params, s, theta)
            assert x3 * x3 - x2 * x2 == pytest.approx(z * z, rel=1e-12)

    def test_timelike_orbit_invariant(self):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        s = 0.4
        x = profile_point(params, s).x
        for theta in (0.0, 1.1, 4.0):
            x1, x2, x3 = surface_point(params, s, theta)
            assert x1 * x1 + x2 * x2 == pytest.approx(x * x, rel=1e-12)


class TestMeanCurvature:
    def test_spacelike_example(self):
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 0.3)
        assert mean_curvature(params, 0.2) == pytest.approx(0.5, abs=1e-9)

    def test_euclidean_cylinder(self):
        params = CmcParams(Family.EUCLIDEAN, 1.0, 0.0)
        for s in (-3.0, 0.0, 1.7):
            assert mean_curvature(params, s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family,B", [
        (Family.LORENTZ_SPACELIKE_AXIS, 1.5),
        (Family.LORENTZ_TIMELIKE_AXIS, 0.9),
        (Family.EUCLIDEAN, 3.0),
    ])
    def test_constant_along_profile(self, family, B):
        H = 1.25
        params = CmcParams(family, H, B)
        for s in in_domain_samples(params, 12, seed=7):
            assert mean_curvature(params, s) == pytest.approx(H, rel=1e-8)


def lorentz_mean_curvature_fd(F, a, b, h):
    """Mean curvature of the map F(a, b) in the (+,+,-) metric, all derivatives
    by Richardson-extrapolated central differences."""
    J = np.diag([1.0, 1.0, -1.0])

    def lor(u, v):
        return u @ (J @ v)

    def d1(g, x, step):
        return (g(x + step) - g(x - step)) / (2 * step)

    def d2(g, x, step):
        return (g(x + step) - 2 * g(x) + g(x - step)) / step ** 2

    def rich(d, g, x):
        return (4 * d(g, x, h / 2) - d(g, x, h)) / 3

    def dcross(step):
        return (F(a + step, b + step) - F(a + step, b - step)
                - F(a - step, b + step) + F(a - step, b - step)) / (4 * step ** 2)

    Fa = rich(d1, lambda x: F(x, b), a)
    Fb = rich(d1, lambda y: F(a, y), b)
    Faa = rich(d2, lambda x: F(x, b), a)
    Fbb = rich(d2, lambda y: F(a, y), b)
    Fab = (4 * dcross(h / 2) - dcross(h)) / 3
    E, Ff, G = lor(Fa, Fa), lor(Fa, Fb), lor(Fb, Fb)
    N = J @ np.cross(Fa, Fb)
    n = N / math.sqrt(abs(lor(N, N)))
    e, f, g = lor(Faa, n), lor(Fab, n), lor(Fbb, n)
    return (e * G - 2 * f * Ff + g * E) / (2 * (E * G - Ff * Ff))


class TestMaximalProfile:
    def test_value_at_origin(self):
        assert maximal_profile(1.0, 0.0) == 1.0
        assert maximal_profile(2.5, 0.0) == 2.5

    def test_even_symmetry(self):
        assert maximal_profile(1.3, 0.4) == maximal_profile(1.3, -0.4)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            maximal_profile(0.0, 0.0)
        with pytest.raises(DomainError):
            maximal_profile(1.0, math.pi / 2)

    def test_rotation_has_zero_mean_curvature(self):
        def F(a, b):
            z = maximal_profile(1.0, a)
            return np.array([a, z * math.sinh(b), z * math.cosh(b)])

        assert abs(lorentz_mean_curvature_fd(F, 0.3, 0.2, h=0.01)) < 1e-8


class TestImplicitResidual:
    def test_spacelike_b_zero_cylinder(self):
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 0.0)
        for s in (-1.0, 0.3):
            for theta in (-0.8, 0.0, 1.4):
                pt = surface_point(params, s, theta)
                assert implicit_residual(params, pt) < 1e-10

    def test_euclidean_b_zero_cylinder(self):
        params = CmcParams(Family.EUCLIDEAN, 1.5, 0.0)
        pt = surface_point(params, 0.7, 2.0)
        assert implicit_residual(params, pt) < 1e-12

    def test_timelike_b_zero_form(self):
        # No profile exists at B=0, but the cylinder polynomial is still defined.
        H = 0.5
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, H, 0.0)
        r = 1 / (2 * H)
        assert implicit_residual(params, (r, 0.0, 5.0)) < 1e-15
        assert implicit_residual(params, (0.0, 2 * r, 0.0)) == pytest.approx(3 * r * r)

    def test_euclidean_b_one_sphere(self):
        params = CmcParams(Family.EUCLIDEAN, 0.5, 1.0)
        for s in (-0.5, 0.2, 1.0, 2.8):
            for theta in (0.0, 2.2):
                pt = surface_point(params, s, theta)
                assert implicit_residual(params, pt) < 1e-8

    def test_spacelike_b_one_canonical_hyperboloid(self):
        H = 0.5
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, H, 1.0)
        for pt in hyperboloid_vertices(H, 7, 5):
            assert implicit_residual(params, pt) < 1e-12

    def test_generic_b_unsupported(self):
        params = CmcParams(Family.EUCLIDEAN, 1.0, 0.5)
        with pytest.raises(UnsupportedCaseError):
            implicit_residual(params, (0.0, 0.0, 0.0))


class TestMesh:
    def test_vertices_match_surface_point(self):
        params = CmcParams(Family.EUCLIDEAN, 1.0, 0.5)
        m = mesh(params, (-0.5, 0.5), 2, 2)
        (s_lo, s_hi), thetas = m.grid[0], m.grid[1]
        expected = [surface_point(params, float(s), float(t))
                    for s in (s_lo, s_hi) for t in thetas]
        for v, w in zip(m.vertices, expected):
            assert max(abs(a - b) for a, b in zip(v, w)) < 1e-12

    def test_vertex_and_face_counts(self):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        m = mesh(params, (0.1, 1.0), 5, 7)
        assert len(m.vertices) == 5 * 7
        assert len(m.faces) == 2 * 4 * 6
        assert all(0 <= i < 35 for face in m.faces for i in face)

    def test_spacelike_b_zero_mesh_on_quadric(self):
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 0.0)
        m = mesh(params, (-1.0, 1.0), 4, 4)
        for v in m.vertices:
            assert implicit_residual(params, v) < 1e-10

    def test_mesh_validation(self):
        params = CmcParams(Family.EUCLIDEAN, 1.0, 0.5)
        with pytest.raises(DomainError):
            mesh(params, (-0.5, 0.5), 1, 4)
        with pytest.raises(DomainError):
            mesh(CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 1.0, 1.0),
                 (-0.1, 0.1), 3, 3)
        spacelike = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 1.0, 2.0)
        with pytest.raises(DomainError):
            mesh(spacelike, (0.0, 10.0), 3, 3)


class TestParityAndConsistency:
    def test_spacelike_axis_odd_radius_even(self):
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 2.0)
        for s in (0.1, 0.35, 0.6):
            plus = profile_point(params, s)
            minus = profile_point(params, -s)
            assert minus.x == pytest.approx(-plus.x, rel=1e-10)
            assert minus.second == pytest.approx(plus.second, rel=1e-14)

    def test_euclidean_radius_periodic(self):
        H = 0.8
        params = CmcParams(Family.EUCLIDEAN, H, 0.6)
        period = math.pi / H
        for s in (-0.4, 0.2, 1.1):
            assert profile_point(params, s + period).second == pytest.approx(
                profile_point(params, s).second, rel=1e-12)

    @pytest.mark.parametrize("family,H,B", [
        (Family.LORENTZ_SPACELIKE_AXIS, 0.5, 2.0),
        (Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0),
        (Family.EUCLIDEAN, 1.0, 0.5),
    ])
    def test_quadrature_derivative_consistency(self, family, H, B):
        # d(axis)/ds from the closed form vs numeric derivative of the
        # quadrature-computed axis coordinate.
        params = CmcParams(family, H, B)
        axis = "second" if family is Family.LORENTZ_TIMELIKE_AXIS else "x"
        daxis = "dsecond" if family is Family.LORENTZ_TIMELIKE_AXIS else "dx"
        h = 1e-5
        for s in in_domain_samples(params, 6, seed=5, margin=0.1):
            numeric = (getattr(profile_point(params, s + h), axis)
                       - getattr(profile_point(params, s - h), axis)) / (2 * h)
            assert numeric == pytest.approx(
                getattr(profile_point(params, s), daxis), abs=1e-7)
