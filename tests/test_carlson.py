"""Carlson's R_F and R_D, and the closed forms built on them.

The duplication core is checked against mpmath's elliprf/elliprd at 30
digits. The closed forms of the axis coordinate, the P-inverse and the
P-integral are checked, property-based, against mpmath quadrature of the
defining integrals: none of these references uses R_F or R_D.
"""

import math

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmc_elliptic._carlson import rd, rf
from cmc_elliptic.errors import DomainError, PoleError
from cmc_elliptic.profiles import (CmcParams, Family, _radicand, anchor,
                                   domain, profile_points)
from cmc_elliptic.weierstrass import WpEvaluator

REL = 4e-15  # the duplication core, relative


def _close(got, ref, rel):
    assert abs(got - ref) <= rel * abs(ref), (got, ref)


class TestCore:
    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 2.0), (1.0, 0.0, 1e-3), (2.0, 3.0, 0.0),
        (1e-200, 1.0, 1e200), (1e-150, 2e-150, 3e-150), (3e150, 1e150, 7e149),
        (0.5, 0.5, 0.5), (1.0, 1.0, 1.0 + 1e-12),
    ])
    def test_rf_and_rd_match_mpmath(self, args):
        with mp.workdps(30):
            _close(rf(*args), mp.elliprf(*args), REL)
            if args[2] > 0:
                _close(rd(*args), mp.elliprd(*args), REL)

    @pytest.mark.parametrize("x,p,q", [
        (0.0, 1.0, 2.0), (3.0, -2.0, 0.5), (0.5, -2507.3, 1.9e-6),
        (1e-3, 1e4, 1e-8), (2.0, 0.25, 1.0), (1e100, -1e100, 1e99),
    ])
    def test_rf_conjugate_pair_matches_mpmath(self, x, p, q):
        y = complex(p, q)
        with mp.workdps(30):
            ref = mp.elliprf(x, mp.mpc(p, q), mp.mpc(p, -q))
            assert abs(ref.imag) <= 1e-25 * abs(ref)
            _close(rf(x, y, y.conjugate()), ref.real, REL)
            _close(rf(x, y.conjugate(), y), ref.real, REL)

    def test_complete_integrals(self):
        # R_F(0, 1, 1) = pi/2 and R_D(0, 1, 1) = 3 pi/4.
        _close(rf(0.0, 1.0, 1.0), math.pi / 2, REL)
        _close(rd(0.0, 1.0, 1.0), 3 * math.pi / 4, REL)

    @pytest.mark.parametrize("args", [
        (0.0, 0.0, 1.0), (1.0, math.inf, 1.0), (math.nan, 1.0, 1.0),
        (1e308, 1e308, 1e308),
    ])
    def test_outside_the_domain_raises(self, args):
        with pytest.raises(DomainError):
            rf(*args)
        with pytest.raises(DomainError):
            rd(*args)

    def test_rd_needs_positive_z(self):
        with pytest.raises(DomainError):
            rd(1.0, 2.0, 0.0)

    def test_pair_needs_a_non_real_pair(self):
        with pytest.raises(DomainError):
            rf(1.0, complex(-1.0, 0.0), complex(-1.0, 0.0))


# ---------------------------------------------------------------------------
# The axis coordinate against mpmath quadrature of its rate

AXIS_TOL = 1e-10  # absolute, or relative beyond 1


def _rate(params, t):
    H, B = mp.mpf(params.H), mp.mpf(params.B)
    u = 2 * H * t
    if params.family is Family.EUCLIDEAN:
        return (1 + B * mp.sin(u)) / mp.sqrt(1 + B * B + 2 * B * mp.sin(u))
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        return (B * mp.cosh(u) - 1) / mp.sqrt(1 + B * B - 2 * B * mp.cosh(u))
    return (B * mp.sinh(u) - 1) / mp.sqrt(B * B + 2 * B * mp.sinh(u) - 1)


@mp.workdps(25)
def _axis_quadrature(params, s):
    """Axis coordinate at s from the anchor, by mpmath quadrature.

    Square-root zeros at a domain edge are removed by t = edge -/+ g^2;
    the Euclidean rate is integrated over whole periods with breakpoints at
    its extremes, where it is sharply peaked as B approaches 1.
    """
    H, B, s = mp.mpf(params.H), mp.mpf(params.B), mp.mpf(s)
    rate = lambda t: _rate(params, t)  # noqa: E731
    if params.family is Family.LORENTZ_TIMELIKE_AXIS:
        edge = mp.asinh((1 - B * B) / (2 * B)) / (2 * H)
        a = mp.mpf(anchor(params))
        return mp.quad(lambda g: 2 * g * rate(edge + g * g),
                       [mp.sqrt(a - edge), mp.sqrt(s - edge)])
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        if B == 0:
            return -s
        edge = mp.acosh((1 + B * B) / (2 * B)) / (2 * H)
        val = mp.quad(lambda g: 2 * g * rate(edge - g * g),
                      [mp.sqrt(edge - abs(s)), mp.sqrt(edge)])
        return val if s >= 0 else -val
    period = mp.pi / H
    if B == 1:
        return mp.quad(rate, [0, s])
    k = mp.floor(s / period)
    rest = s - k * period
    whole = mp.quad(rate, [0, period / 4, 3 * period / 4, period]) if k else 0
    cuts = [0] + [c for c in (period / 4, 3 * period / 4) if c < rest]
    return k * whole + mp.quad(rate, cuts + [rest])


# B away from 1, or within 1e-6..1e-1 of it on either side.
B_VALUES = st.one_of(
    st.floats(-2, 1).map(lambda e: 10.0 ** e),
    st.tuples(st.floats(-6, -1), st.sampled_from([-1, 1])).map(
        lambda t: 1.0 + t[1] * 10.0 ** t[0]),
    st.just(0.0),
)
H_VALUES = st.floats(-2, 1).map(lambda e: 10.0 ** e)
# Position inside a finite domain: a fraction of its width, or a distance
# 10^-9..10^-1 of the width from either edge.
FRACTION = st.one_of(
    st.floats(0.02, 0.98),
    st.floats(-9, -1).map(lambda e: 10.0 ** e),
    st.floats(-9, -1).map(lambda e: 1.0 - 10.0 ** e),
)


@st.composite
def profile_samples(draw):
    family = draw(st.sampled_from(list(Family)))
    H, B = draw(H_VALUES), draw(B_VALUES)
    if family is Family.LORENTZ_SPACELIKE_AXIS:
        assume(B != 1.0)
    if family is Family.LORENTZ_TIMELIKE_AXIS:
        assume(B > 0.0)
    params = CmcParams(family, H, B)
    dom = domain(params)
    if family is Family.EUCLIDEAN and B != 1.0:
        periods = draw(st.integers(-25, 25))
        s = (periods * math.pi + draw(st.floats(0, math.pi))) / H
    elif family is Family.LORENTZ_TIMELIKE_AXIS:
        # 10^-9 .. 5 in units of 1/H past the edge.
        s = dom.lo + 10.0 ** draw(st.floats(-9, math.log10(5))) / H
    else:
        lo = max(dom.lo, -50 / H)  # the spacelike B = 0 line is unbounded
        hi = min(dom.hi, 50 / H)
        s = lo + (hi - lo) * draw(FRACTION)
    assume(dom.contains(s))
    return params, s


@settings(max_examples=150, deadline=None)
@given(profile_samples())
def test_closed_form_axis_matches_quadrature(sample):
    params, s = sample
    # Within rounding of an edge the radius formula's radicand comes out
    # <= 0 and the sample is a domain error before any axis value.
    assume(_radicand(params, s) > 0)
    cs = profile_points(params, [s])[0]
    got = cs.second if params.family is Family.LORENTZ_TIMELIKE_AXIS else cs.x
    ref = _axis_quadrature(params, s)
    assert abs(got - ref) <= AXIS_TOL * max(1, abs(ref)), (params, s)


# ---------------------------------------------------------------------------
# P-inverse and P-integral

# The invariants of 4(x - e1)(x - e2)(x - e3) from e1 + e2 + e3 = 0: three
# real roots (positive discriminant) or e1 and a complex pair (negative).
@st.composite
def invariants(draw):
    a = draw(st.floats(-2, 2))
    gap = draw(st.floats(0.05, 2))
    if draw(st.booleans()):
        e1, e2 = a, a - gap
        e3 = -e1 - e2
        assume(min(abs(e1 - e3), abs(e2 - e3)) >= 0.05)
        g2 = -4 * (e1 * e2 + e1 * e3 + e2 * e3)
        g3 = 4 * e1 * e2 * e3
    else:
        g2, g3 = 3 * a * a - 4 * gap * gap, a * (a * a + 4 * gap * gap)
    return WpEvaluator(g2, g3)


def _cubic(ev, w):
    return 4 * w ** 3 - ev.g2 * w - ev.g3


def _breakpoints(ev, lo, hi):
    """lo, hi and the real parts of the cubic's roots between them.

    A complex pair close to the real axis makes the integrands sharply
    peaked there.
    """
    roots = mp.polyroots([4, 0, -ev.g2, -ev.g3], maxsteps=100, extraprec=40)
    inside = sorted(mp.re(r) for r in roots if lo < mp.re(r) < hi)
    return [lo] + inside + [hi]


@settings(max_examples=100, deadline=None)
@given(invariants(), st.floats(-6, 3))
def test_wp_of_wp_inverse_is_identity(ev, log_offset):
    w = ev.e_max + 10.0 ** log_offset
    z = ev.wp_inverse(w)
    p, _ = ev.wp(z)
    assert abs(p - w) <= 1e-9 * max(1.0, abs(w))
    with mp.workdps(25):
        cuts = _breakpoints(ev, w, w + 10)
        ref = mp.quad(lambda t: 1 / mp.sqrt(_cubic(ev, t)), cuts + [mp.inf])
    # Near the branch point z inherits the rounding of e_max, amplified by
    # 1/sqrt(w - e_max).
    assert abs(z - ref) <= 1e-10 * ref


@settings(max_examples=100, deadline=None)
@given(invariants(), st.floats(-5, 2), st.floats(-5, 2), st.booleans())
def test_wp_integral_matches_the_integral_in_w(ev, log0, log1, negative):
    w0, w1 = ev.e_max + 10.0 ** log0, ev.e_max + 10.0 ** log1
    assume(abs(log0 - log1) > 1e-3)
    sign = -1 if negative else 1
    t0, t1 = sign * ev.wp_inverse(w0), sign * ev.wp_inverse(w1)
    # Under w = P(t), dt = -dw / sqrt(cubic) on (0, omega); P is even.
    with mp.workdps(25):
        cuts = _breakpoints(ev, min(w0, w1), max(w0, w1))
        ref = mp.quad(lambda w: w / mp.sqrt(_cubic(ev, w)), cuts)
        ref = sign * (ref if w0 > w1 else -ref)
    got = ev.wp_integral(t0, t1)
    # Near the real half-period zeta's doubling step amplifies the ~1e-13
    # relative error of the duplicated P to ~1e-11 for a complex pair of
    # roots close to the real axis.
    assert abs(got - ref) <= 1e-10 * max(1, abs(ref))


@pytest.mark.parametrize("g2,g3", [(4.0, 0.0), (1.0, 1.0)])
def test_wp_integral_across_a_lattice_pole_raises(g2, g3):
    # The real-axis poles sit at the multiples of the real period 2 omega.
    ev = WpEvaluator(g2, g3)
    omega = ev.wp_inverse(ev.e_max)
    for t0, t1 in [(omega, 2.5 * omega), (-2.5 * omega, -omega),
                   (1.9 * omega, 2.0 * omega)]:
        with pytest.raises(PoleError):
            ev.wp_integral(t0, t1)
    assert math.isfinite(ev.wp_integral(1.5 * omega, 1.9 * omega))
