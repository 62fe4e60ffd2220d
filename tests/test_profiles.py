"""Profile curves, rotation surfaces and their special algebraic cases."""

import math
import pickle
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from radicand import _radicand
from surface_point import surface_point

from cmc_elliptic.errors import (CmcError, DomainError, EmptyDomainError,
                                 RangeError, UnsupportedCaseError)
from cmc_elliptic.profiles import (
    CmcParams,
    Family,
    anchor,
    domain,
    hyperboloid_vertices,
    implicit_residual,
    mean_curvature,
    mean_curvatures,
    mesh,
    profile_point,
)
from cmc_elliptic.profiles import _closed_pieces, _linspace, _mesh_vertices


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

    def test_params_validated_on_every_construction_path(self):
        good = CmcParams(Family.EUCLIDEAN, 1.0, 0.5)
        with pytest.raises(DomainError):
            good._replace(H=-1.0)
        with pytest.raises(DomainError):
            CmcParams._make((Family.EUCLIDEAN, 1.0, math.nan))
        assert good._replace(B=2.0) == CmcParams(Family.EUCLIDEAN, 1.0, 2.0)
        assert pickle.loads(pickle.dumps(good)) == good


NEAR_ONE = [1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)] + [
    1.0 + sign * d for d in (1e-15, 1e-12, 1e-9, 1e-6) for sign in (1, -1)]


def _radicand_terms(family, H, B, s):
    """The radicand's defining terms in 50-digit mpmath at the float inputs.

    Returns (terms, slack): the radicand is sum(terms), and slack is the
    rounding of B*B where a form has to subtract 1 from it. The spacelike
    1 + B^2 - 2B cosh(2Hs) is written (1-B)^2 - 4B sinh^2(Hs), whose terms
    do not cancel by construction.
    """
    H, B, s = mp.mpf(H), mp.mpf(B), mp.mpf(s)
    if family is Family.EUCLIDEAN:
        return [1 + B * B, 2 * B * mp.sin(2 * H * s)], 0
    if family is Family.LORENTZ_SPACELIKE_AXIS:
        return [(1 - B) ** 2, -4 * B * mp.sinh(H * s) ** 2], 0
    slack = abs(mp.mpf(float(B * B)) - B * B)
    return [B * B - 1, 2 * B * mp.sinh(2 * H * s)], slack


@pytest.mark.parametrize("B", NEAR_ONE)
def test_radicand_near_b_one_matches_mpmath(B):
    # Within a few ulps of its terms' sizes, however much they cancel,
    # apart from the rounding of B*B.
    H = 0.5
    for family in Family:
        params = CmcParams(family, H, B)
        dom = domain(params)
        if dom.degenerate:  # spacelike B = 1
            continue
        if math.isfinite(dom.lo) and math.isfinite(dom.hi):
            width = dom.hi - dom.lo
            points = [dom.lo + f * width for f in (1e-6, 0.25, 0.5)]
        elif math.isfinite(dom.lo):
            points = [dom.lo + t for t in (1e-17, 1e-9, 1e-3, 0.5)]
        else:
            points = [-2.0, 0.0, 1e-17, 0.5, 2.0]
        with mp.workdps(50):
            for s in points:
                terms, slack = _radicand_terms(family, H, B, s)
                err = abs(_radicand(params, s) - sum(terms))
                size = sum(abs(t) for t in terms)
                assert err <= slack + 16 * 2.0 ** -52 * size, (family, s, err)


# Euclidean B = 1: 2(1 + sin 2Hs) rounds to 0 within about 1e-9 of either
# edge of the window; as 4 sin^2(H d), d the distance to the nearer edge,
# it is positive at every float inside, so the first ones are profile
# points.
@settings(max_examples=300, deadline=None)
@given(st.floats(-300.0, 300.0))
def test_sphere_profile_at_the_window_edges(log_h):
    params = CmcParams(Family.EUCLIDEAN, 10.0 ** log_h, 1.0)
    dom = domain(params)
    for edge, inward in ((dom.lo, dom.hi), (dom.hi, dom.lo)):
        s = edge
        for _ in range(4):
            s = math.nextafter(s, inward)
            assert _radicand(params, s) > 0
            cs = profile_point(params, s)
            assert all(map(math.isfinite, cs)), (params, s)


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

    def test_carlson_arguments_near_the_largest_float_evaluate(self):
        # The axis coordinate here takes R_F of an argument near 1.4e306,
        # where the duplication's error scale overflows; inside the open
        # domain (about +/-354.54) the sample is finite.
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 1.0,
                           1.1125369292536007e-308)
        cs = profile_point(params, -353.1598422983792)
        assert all(map(math.isfinite, cs))
        assert cs.dx ** 2 - cs.dsecond ** 2 == pytest.approx(1.0, abs=1e-9)

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

    def test_hyperboloid_needs_two_samples_per_direction(self):
        with pytest.raises(DomainError):
            hyperboloid_vertices(0.5, 1, 5)
        with pytest.raises(DomainError):
            hyperboloid_vertices(0.5, 7, 0)


# Finite endpoints of any size, plus spans of a few hundred subnormal units,
# where (hi - lo)/(n - 1) underflows to zero for most n.
_ENDPOINTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(min_value=-1e-321, max_value=1e-321))


@settings(max_examples=300, deadline=None)
@given(lo=_ENDPOINTS, hi=_ENDPOINTS, n=st.integers(2, 300))
@example(lo=0.0, hi=5e-324, n=5)
@example(lo=-0.0, hi=0.0, n=3)
def test_linspace_matches_numpy(lo, hi, n):
    with np.errstate(all="ignore"):  # spans past the float range give inf/nan
        want = np.linspace(lo, hi, n).tolist()
    # repr tells signed zeros apart and lets nan equal nan.
    assert [repr(x) for x in _linspace(lo, hi, n)] == [repr(y) for y in want]


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


# ---------------------------------------------------------------------------
# Grid forms against their one-sample forms


def _outcome(fn, *args):
    """repr of fn(*args), or the type and message of the error it raised;
    repr, so that a nan piece compares equal to itself."""
    try:
        return repr(fn(*args))
    except CmcError as exc:
        return type(exc), str(exc)


def _one_by_one(fn, params, grid):
    """fn at each sample in turn, up to the first error."""
    return _outcome(lambda: [fn(params, s) for s in grid])


@st.composite
def grids(draw):
    """(params, s grid) inside the open domain: a finite window's interior
    and the rounding distance of its edges, or 1e-3..1e3 in units of 1/H
    past the edge (or 0) of an unbounded side, where sinh overflows."""
    family = draw(st.sampled_from(list(Family)))
    H = 10.0 ** draw(st.floats(-2, 1))
    B = draw(st.one_of(st.sampled_from([0.0, 1.0, 1 - 1e-12, 1 + 1e-12]),
                       st.floats(-3, 1).map(lambda e: 10.0 ** e)))
    assume(not (family is Family.LORENTZ_TIMELIKE_AXIS and B == 0.0))
    params = CmcParams(family, H, B)
    dom = domain(params)
    if dom.degenerate:
        return params, [0.0]
    offsets = st.floats(-3, 3).map(lambda e: 10.0 ** e / H)
    if math.isfinite(dom.lo) and math.isfinite(dom.hi):
        width = dom.hi - dom.lo
        s = st.one_of(
            st.floats(0.0, 1.0).map(lambda f: dom.lo + f * width),
            st.floats(-17, -8).map(lambda e: dom.lo + 10.0 ** e * width),
            st.floats(-17, -8).map(lambda e: dom.hi - 10.0 ** e * width))
    elif math.isfinite(dom.lo):
        s = offsets.map(lambda d: dom.lo + d)
    else:
        s = st.tuples(offsets, st.sampled_from([-1, 1])).map(
            lambda t: t[0] * t[1])
    grid = draw(st.lists(s, min_size=1, max_size=6))
    assume(all(dom.contains(x) for x in grid))
    return params, grid


class TestGridForms:
    @settings(max_examples=300, deadline=None)
    @given(grids())
    # Timelike overflow past s ~ 355/H, after two finite samples.
    @example((CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 1.0, 2.0),
              [0.5, 1.0, 400.0, 2.0]))
    def test_mean_curvatures_is_mean_curvature_per_sample(self, case):
        params, grid = case
        assert (_outcome(mean_curvatures, params, grid)
                == _one_by_one(mean_curvature, params, grid))

    @settings(max_examples=300, deadline=None)
    @given(grids())
    @example((CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 1.0, 0.0),
              [1.0, -500.0, 2.0]))
    def test_closed_pieces_of_a_grid_are_its_samples(self, case):
        params, grid = case
        assert (_outcome(lambda: list(_closed_pieces(params, grid)))
                == _one_by_one(lambda p, s: next(_closed_pieces(p, [s])),
                               params, grid))

    # _closed_pieces forms the radicand in its loop; _radicand is that
    # radicand at one s: each radius is sqrt(R)/(2H) of it, bit for bit,
    # and a DomainError comes where it is <= 0.
    @settings(max_examples=300, deadline=None)
    @given(grids())
    def test_radius_is_the_root_of_the_radicand(self, case):
        params, grid = case
        radii = []
        try:
            for pieces in _closed_pieces(params, grid):
                radii.append(pieces[0])
        except DomainError as exc:
            s = grid[len(radii)]
            assert str(exc) == f"radicand non-positive at s={s!r}"
            assert _radicand(params, s) <= 0
        except RangeError:
            pass
        for s, radius in zip(grid, radii):
            assert radius == math.sqrt(_radicand(params, s)) / (2 * params.H)

    @settings(max_examples=100, deadline=None)
    @given(grids(), st.integers(2, 5), st.integers(2, 5),
           st.floats(0.5, 3.0))
    def test_mesh_vertices_are_the_mesh_vertices(self, case, n_s, n_theta,
                                                 angle_range):
        params, grid = case
        s_range = (min(grid), max(grid) + (max(grid) - min(grid) or 1.0))
        m = _outcome(lambda: (lambda m: (m.vertices, m.grid))(
            mesh(params, s_range, n_s, n_theta, angle_range)))
        assert _outcome(_mesh_vertices, params, s_range, n_s, n_theta,
                        angle_range) == m
