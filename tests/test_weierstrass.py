"""P-function evaluator: the AGM descent, inversion and integration.

Frozen reference values were computed independently at 40 decimal digits by
inverting z(w) = int_w^inf dt/sqrt(4t^3 - g2 t - g3) with mpmath quadrature
and root-finding (no Laurent series, no duplication), then rounded here.
"""

import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from cmc_elliptic.elliptic_reduction import reduce
from cmc_elliptic.errors import (AccuracyError, BranchError, DomainError,
                                 PoleError, RangeError, SingularError)
from cmc_elliptic import weierstrass
from cmc_elliptic.profiles import Family
from cmc_elliptic.weierstrass import WpEvaluator

G2_A = -2.0 * 2.0 ** (1 / 3)  # invariants of the timelike-axis B=1 reduction
G3_A = 0.0

# Oracle values for (G2_A, G3_A): e_max = 0, real half-period 2.081128460002238.
OMEGA_A = 2.081128460002238
WP_A = {
    0.3: (11.09977567844107, None),
    0.5: (3.968584550846361, -16.12500197929387),
    0.9: (1.135290997637354, -2.951913811406175),
    1.8: (0.04982700557588238, -0.3550366381929856),  # beyond r0
}
INT_A_03_09 = 2.193098551384825  # integral of P over [0.3, 0.9]

# (4, 0): three real branch points -1, 0, 1; half-period 1.311028777146060.
OMEGA_B = 1.311028777146060
WP_B_04 = (6.282054656384248, -31.08917972340278)

# (1, 1): negative discriminant pair used for the homogeneity law.
WP_C_03 = (11.11590103689849, -74.04020390844637)


# A relative move of 8 ulps in z: the phase 2^N M kappa z and the period
# carry a few ulps of rounding, which near the pole at 2 omega alone moves
# P by more than 1e-13 of it. The allowance is what that move does to P
# (|z P'|), P' (|z P''|) or a zeta difference (|t P(t)| at each end).
_ULPS = 8 * 2.0 ** -52


def _own_roots(ev):
    """e1, e2, e3: the evaluator's own float roots, as mpmath numbers."""
    e1 = mp.mpf(ev.e_max)
    if ev._pair is None:
        return (e1, *map(mp.mpf, ev._others))
    q = mp.mpf(ev._pair[0])
    return e1, mp.mpc(-e1 / 2, q), mp.mpc(-e1 / 2, -q)


def _mp_wp(ev, z):
    """(P(z), P'(z), omega) in 40-digit mpmath at the evaluator's roots:
    Newton on R_F(w - e1, w - e2, w - e3) = z after z is reduced into
    (0, omega] (P even, 2 omega periodic), starting from the float P."""
    with mp.workdps(40):
        e1, e2, e3 = roots = _own_roots(ev)
        omega = mp.re(mp.elliprf(0, e1 - e2, e1 - e3))
        t = mp.fmod(abs(mp.mpf(z)), 2 * omega)
        sign = mp.sign(z) * (1 if t <= omega else -1)
        t = min(t, 2 * omega - t)

        def cubic(w):
            return mp.re(4 * (w - e1) * (w - e2) * (w - e3))

        w = max(mp.mpf(ev._wp_zeta(z)[0]), e1 + mp.mpf(10) ** -30)
        for _ in range(100):
            step = (mp.re(mp.elliprf(*(w - e for e in roots))) - t) * \
                mp.sqrt(cubic(w))
            w = max(w + step, (w + e1) / 2)
            if abs(step) <= mp.mpf(10) ** -36 * w:
                break
        return w, -sign * mp.sqrt(cubic(w)), omega


def _mp_from_omega(ev, t, w, omega):
    """The integral of P from omega to t, t in (0, 2 omega) and P(t) = w:
    w = e1 + u^2 turns the integral of w dw / sqrt(cubic) from e1 into
    that of w du / sqrt((w - e2)(w - e3)), split where a complex pair
    near the real axis makes it peak."""
    e1, e2, e3 = _own_roots(ev)
    top = mp.sqrt(w - e1)
    knots = [0, top]
    if 0 < mp.re(e2) - e1 < w - e1:
        knots.insert(1, mp.sqrt(mp.re(e2) - e1))
    value = mp.quad(lambda u: mp.re((e1 + u * u) / mp.sqrt(
        (e1 + u * u - e2) * (e1 + u * u - e3))), knots)
    return value if t > omega else -value


def _assert_wp_near_mpmath(ev, z, tol):
    """P, P' within tol of mpmath relative to max(|P|, |e_max|) and its
    3/2 power, plus what _ULPS of z moves them by."""
    p, pp = ev.wp(z)
    with mp.workdps(40):
        P, PP, _ = _mp_wp(ev, z)
        scale = max(abs(P), abs(mp.mpf(ev.e_max)))
        z = mp.mpf(z)
        assert abs(p - P) <= tol * scale + _ULPS * abs(z * PP)
        assert abs(pp - PP) <= tol * scale ** 1.5 + \
            _ULPS * abs(z * (6 * P * P - mp.mpf(ev.g2) / 2))


def _assert_integral_near_mpmath(ev, t0, t1, tol):
    """wp_integral(t0, t1), t0 and t1 of one sign inside one real period,
    within tol of mpmath relative to max(|integral|, |e_max (t1 - t0)|),
    plus what _ULPS of t0 and t1 moves it by."""
    got = ev.wp_integral(t0, t1)
    with mp.workdps(40):
        ends = []
        for t in (abs(t0), abs(t1)):
            P, _, omega = _mp_wp(ev, t)
            ends.append((_mp_from_omega(ev, mp.mpf(t), P, omega),
                         abs(t * P)))
        (g0, m0), (g1, m1) = ends
        want = (g1 - g0) * (1 if t0 > 0 else -1)
        scale = max(abs(want), abs(mp.mpf(ev.e_max) * (t1 - t0)))
        assert abs(got - want) <= tol * scale + _ULPS * (m0 + m1)


def _reduced(family, log_b):
    d = reduce(family, 10.0 ** log_b)
    return d.g2, d.g3


@pytest.fixture(scope="module")
def ev_a():
    return WpEvaluator(G2_A, G3_A)


@pytest.fixture(scope="module")
def ev_b():
    return WpEvaluator(4.0, 0.0)


class TestConstruction:
    def test_disc_and_e_max(self, ev_a, ev_b):
        assert ev_a.disc == pytest.approx(-16.0, rel=1e-14)
        assert ev_a.e_max == pytest.approx(0.0, abs=1e-15)
        assert ev_b.disc == 64.0
        assert ev_b.e_max == pytest.approx(1.0, rel=1e-14)

    def test_e_max_timelike_b_two(self):
        d = reduce(Family.LORENTZ_TIMELIKE_AXIS, 2.0)
        ev = WpEvaluator(d.g2, d.g3)
        # 4x^3 - g2 x - g3 with g2 = -13/4, g3 = -17/8 has the rational root -1/2.
        assert ev.e_max == pytest.approx(-0.5, rel=1e-13)

    def test_singular_invariants_rejected(self):
        with pytest.raises(SingularError):
            WpEvaluator(3.0, 1.0)  # 27 - 27 = 0
        with pytest.raises(SingularError):
            WpEvaluator(0.0, 0.0)
        d = reduce(Family.LORENTZ_SPACELIKE_AXIS, 1.0)
        with pytest.raises(SingularError):
            WpEvaluator(d.g2, d.g3)

    @pytest.mark.parametrize("g2, g3", [(1e-300, 0.0), (0.0, 1e-200),
                                        (-5e-324, 5e-324), (1e-120, 1e-160)])
    def test_invariants_below_the_float_range_are_a_range_error(self, g2,
                                                                 g3):
        with pytest.raises(RangeError, match="underflows"):
            WpEvaluator(g2, g3)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            WpEvaluator(math.inf, 0.0)

    @pytest.mark.parametrize("g2, g3", [(1e103, 0.0), (0.0, 1e155),
                                        (-1e103, 1.0), (1.0, -4e153)])
    def test_discriminant_past_the_float_range_is_a_range_error(self, g2,
                                                                  g3):
        # g2^3 raised OverflowError. At g3 = -4e153, g3^2 is finite and
        # 27 g3^2 is not: the -inf discriminant read as vanishing.
        with pytest.raises(RangeError, match="discriminant"):
            WpEvaluator(g2, g3)

    def test_laurent_recurrence_seeds(self, ev_b):
        assert ev_b.laurent[0] == ev_b.g2 / 20.0
        assert ev_b.laurent[1] == ev_b.g3 / 28.0
        # c_4 = c_2^2 / 3 from the recurrence's first composite step.
        assert ev_b.laurent[2] == pytest.approx(ev_b.laurent[0] ** 2 / 3.0, rel=1e-15)

    # Magnitudes whose monomials up to g2^12 and g3^8 stay normal floats.
    _INVARIANT = st.one_of(
        st.just(0.0),
        st.builds(lambda m, e: m * 10.0 ** e,
                  st.floats(-10.0, 10.0).filter(lambda m: abs(m) >= 1.0),
                  st.integers(-6, 6)))

    @settings(max_examples=150, deadline=None)
    @given(g2=_INVARIANT, g3=_INVARIANT)
    def test_laurent_table_matches_exact_recurrence(self, g2, g3):
        """c_2..c_25 against the recurrence run over Q at the float (g2, g3).

        The error is relative to the same recurrence at (|g2|, |g3|), the sum
        of the monomials' magnitudes (every table entry is positive): for
        g2, g3 >= 0 that is the coefficient itself, and otherwise a plain
        relative error would measure the cancellation of the exact value.
        """
        try:
            ev = WpEvaluator(g2, g3)
        except SingularError:
            reject()

        def recurrence(x2, x3):
            c = {2: Fraction(x2) / 20, 3: Fraction(x3) / 28}
            for k in range(4, 26):
                c[k] = 3 * sum(c[m] * c[k - m] for m in range(2, k - 1)) / (
                    (2 * k + 1) * (k - 3))
            return [c[k] for k in range(2, 26)]

        exact, scale = recurrence(g2, g3), recurrence(abs(g2), abs(g3))
        for c, x, size in zip(ev.laurent, exact, scale):
            assert abs(Fraction(c) - x) <= Fraction(1e-15) * size

    # Both signs of the discriminant: two reductions with three real roots,
    # two with a complex pair, and the module's oracle lattices. Near a
    # repeated root the float e1 itself is off (at (7.67, -4.112), with its
    # pair 0.05 off the real axis, by enough to move omega 1e-14 on both
    # routes), so the lattices here keep their roots apart.
    @pytest.mark.parametrize("g2, g3", [
        (d.g2, d.g3) for d in (reduce(Family.EUCLIDEAN, 0.5),
                               reduce(Family.LORENTZ_SPACELIKE_AXIS, 2.0),
                               reduce(Family.LORENTZ_TIMELIKE_AXIS, 2.0),
                               reduce(Family.LORENTZ_TIMELIKE_AXIS, 0.5))
    ] + [(3.0, 0.5), (1.0, -0.3), (G2_A, G3_A), (4.0, 0.0)])
    def test_half_period_by_agm(self, g2, g3):
        ev = WpEvaluator(g2, g3)
        assert ev.omega == pytest.approx(ev.wp_inverse(ev.e_max), rel=2e-15)
        with mp.workdps(30):
            roots = mp.polyroots([4, 0, -mp.mpf(g2), -mp.mpf(g3)],
                                 extraprec=100)
            e1 = max(mp.re(r) for r in roots if abs(mp.im(r)) < 1e-25)
            e2, e3 = sorted(roots, key=lambda r: abs(r - e1))[1:]
            ref = mp.re(mp.elliprf(0, e1 - e2, e1 - e3))
            assert abs(ev.omega - ref) <= 2e-15 * ref

    def test_half_period_oracles(self, ev_a, ev_b):
        assert ev_a.omega == pytest.approx(OMEGA_A, rel=2e-15)
        assert ev_b.omega == pytest.approx(OMEGA_B, rel=2e-15)

    # Laurent coefficients past the float range, some of them nan (inf * 0
    # or inf - inf in a monomial sum), so no series radius: P, P' and the
    # P-integral come from the AGM descent all the same.
    @pytest.mark.parametrize("g2, g3", [
        (1e30, 0.0), (0.0, 1e40), (1e100, 0.0), (-1e30, 1e45),
        (-1e100, 1.0), (-1e45, -1e100)])
    def test_coefficients_past_float_range_evaluate(self, g2, g3):
        ev = WpEvaluator(g2, g3)
        assert ev.r0 == 0.0 and not all(map(math.isfinite, ev.laurent))
        assert math.isfinite(ev.omega) and ev.omega > 0
        for z in (0.1 * ev.omega, 0.5 * ev.omega, 0.9 * ev.omega):
            _assert_wp_near_mpmath(ev, z, 5e-14)
        t0, t1 = 0.25 * ev.omega, 0.5 * ev.omega
        _assert_integral_near_mpmath(ev, t0, t1, 1e-14)


class TestWp:
    def test_pole_at_origin(self, ev_a):
        with pytest.raises(PoleError):
            ev_a.wp(0.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_is_a_domain_error(self, ev_a, z):
        for fn in (ev_a.wp, ev_a._wp_zeta):
            with pytest.raises(DomainError, match="z must be finite"):
                fn(z)

    def test_leading_laurent_term(self, ev_a):
        z = 1e-3
        p, _ = ev_a.wp(z)
        assert abs(z * z * p - 1.0) < 1e-8

    @pytest.mark.parametrize("z", sorted(WP_A))
    def test_frozen_oracle_values(self, ev_a, z):
        p, pp = ev_a.wp(z)
        p_ref, pp_ref = WP_A[z]
        assert p == pytest.approx(p_ref, rel=1e-12)
        if pp_ref is not None:
            assert pp == pytest.approx(pp_ref, rel=1e-12)

    def test_frozen_oracle_other_pairs(self, ev_b):
        p, pp = ev_b.wp(0.4)
        assert (p, pp) == (pytest.approx(WP_B_04[0], rel=1e-12),
                           pytest.approx(WP_B_04[1], rel=1e-12))
        evc = WpEvaluator(1.0, 1.0)
        p, pp = evc.wp(0.3)
        assert (p, pp) == (pytest.approx(WP_C_03[0], rel=1e-12),
                           pytest.approx(WP_C_03[1], rel=1e-12))

    def test_defining_ode_residual(self, ev_a):
        for i in range(50):
            z = 0.05 + (0.95 * OMEGA_A - 0.05) * i / 49
            p, pp = ev_a.wp(z)
            res = abs(pp * pp - (4 * p ** 3 - ev_a.g2 * p - ev_a.g3))
            assert res < 1e-9 * (1.0 + abs(p) ** 3)

    def test_parity(self, ev_a):
        for z in (0.2, 0.8, 1.5):
            p_plus, pp_plus = ev_a.wp(z)
            p_minus, pp_minus = ev_a.wp(-z)
            assert abs(p_plus - p_minus) < 1e-12 * max(1.0, abs(p_plus))
            assert abs(pp_plus + pp_minus) < 1e-12 * max(1.0, abs(pp_plus))

    def test_homogeneity(self):
        t = 2.0
        z = 0.3
        base = WpEvaluator(1.0, 1.0)
        scaled = WpEvaluator(t ** -4 * 1.0, t ** -6 * 1.0)
        p, _ = base.wp(z)
        ps, _ = scaled.wp(t * z)
        assert ps == pytest.approx(p / t ** 2, rel=1e-9)

    # The lattice scaled by 1/t has invariants (t^4 g2, t^6 g3) (DLMF 23.10):
    # omega t, t^-2 P(z/t) and t P^-1(t^2 w) are the unscaled values. A
    # RangeError only where max(|g2|^3, 27 g3^2) leaves 2^-1000..2^1000.
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(G2_A, G3_A), (4.0, 0.0), (4.0, 1.0),
                            _reduced(Family.EUCLIDEAN, -0.3),
                            _reduced(Family.LORENTZ_SPACELIKE_AXIS, 0.5)]),
           st.integers(-60, 60), st.floats(0.05, 0.95), st.floats(-3, 3))
    # (4e-8, 1e-12): disc / max(|g2|^3, 27 g3^2) = 37/64, once "singular".
    @example(g=(4.0, 1.0), k=-4, frac=0.5, log_off=0.0)
    def test_homogeneity_over_the_float_range(self, g, k, frac, log_off):
        t, base = 10.0 ** (k / 2), WpEvaluator(*g)
        g2, g3 = t ** 4 * g[0], t ** 6 * g[1]
        try:
            ev = WpEvaluator(g2, g3)
        except RangeError:
            log2_scale = max(3 * math.log2(abs(g2)) if g2 else -math.inf,
                             math.log2(27) + 2 * math.log2(abs(g3)) if g3
                             else -math.inf)
            assert not -1000 < log2_scale < 1000, (g2, g3)
            return
        assert ev.omega * t == pytest.approx(base.omega, rel=1e-13)
        z = frac * base.omega
        p = base.wp(z)[0]
        scale = max(abs(p), abs(base.e_max))
        assert abs(ev.wp(z / t)[0] / t ** 2 - p) <= 1e-13 * scale
        w = base.e_max + 10.0 ** log_off
        assert t * ev.wp_inverse(t * t * w) == pytest.approx(
            base.wp_inverse(w), rel=1e-13)

    def test_monotone_decreasing_on_real_branch(self, ev_a):
        zs = [0.1 + 0.18 * i for i in range(10)]
        ps = [ev_a.wp(z)[0] for z in zs]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    # One real period is 2 omega; past 2^12 omega the rounding of the
    # period moves the phase by more than about 2^-40.
    @pytest.mark.parametrize("g2, g3", [(G2_A, G3_A), (4.0, 0.0),
                                        (7.67, -4.112)])
    def test_reach_is_2_to_the_12_half_periods(self, g2, g3):
        ev = WpEvaluator(g2, g3)
        z, far = 0.7 * ev.omega, 2.0 ** 12 * ev.omega
        p, pp = ev.wp(z)
        shifted = ev.wp(z + (far - 2.0 * ev.omega))
        assert abs(shifted[0] - p) <= 2.0 ** -40 * ev.omega * abs(pp)
        for x in (math.nextafter(far, math.inf), -2.0 * far):
            with pytest.raises(AccuracyError, match="2\\^12"):
                ev.wp(x)
        with pytest.raises(AccuracyError):  # a pole-free stretch past it
            ev.wp_integral(far + 0.3 * ev.omega, far + 0.6 * ev.omega)


def _pair(e1, q):
    """(g2, g3) with roots e1 and -e1/2 +/- iq."""
    return 3.0 * e1 * e1 - 4.0 * q * q, e1 * (e1 * e1 + 4.0 * q * q)


class TestAgainstMpmath:
    """P, P' and the P-integral against 40-digit mpmath at the evaluator's
    own roots; the error of those roots themselves is e_max's."""

    # Reductions at B = 10^U(-1.5, 1.5), |B - 1| >= 0.05, in every family;
    # three real roots; complex pairs, some within 0.05 of the real axis.
    _LATTICE = st.one_of(
        st.builds(_reduced, st.sampled_from(list(Family)),
                  st.floats(-1.5, 1.5).filter(
                      lambda e: abs(10.0 ** e - 1.0) >= 0.05)),
        st.builds(lambda g2, t: (g2, t * math.sqrt(g2 ** 3 / 27)),
                  st.floats(0.01, 100.0), st.floats(-0.99, 0.99)),
        st.builds(lambda sign, e, q: _pair(sign * 10.0 ** e, q),
                  st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0),
                  st.floats(0.05 / 16, 0.05)),
        st.builds(lambda sign, e, f: _pair(sign * 10.0 ** e,
                                           10.0 ** e * 2.0 ** f),
                  st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0),
                  st.floats(-5.0, 2.0)))
    # Down to 1e-90 of the period, where P' ~ -2/z^3 still has a float, and
    # up to 2^-40 of it short of the pole at 2 omega, where a move of a few
    # ulps in z is still small next to the distance to the pole.
    _FRACTION = st.floats(1e-90, 1.0 - 2.0 ** -40)

    @settings(max_examples=80, deadline=None)
    @given(_LATTICE, _FRACTION, st.sampled_from([1.0, -1.0]))
    def test_wp_matches_mpmath(self, lattice, frac, sign):
        # z over (0, 2 omega) and its negatives. Measured: 3.0e-15 (P) and
        # 7.9e-15 (P') over 400 random such lattices, 2,000 points; 2.1e-14
        # (P') where a 3,000-example search found its worst, the pair
        # -e1/2 +/- 0.0039i at e1 = -sqrt(10), whose k' is 4e-4.
        ev = WpEvaluator(*lattice)
        _assert_wp_near_mpmath(ev, sign * frac * 2.0 * ev.omega, 5e-14)

    # Ends from 1e-6 of the period on: nearer the pole the quadrature in u
    # of the reference spans 1e6 and more (TestFloatRange takes zeta there).
    _END = st.floats(1e-6, 1.0 - 2.0 ** -40)

    @settings(max_examples=30, deadline=None)
    @given(_LATTICE, _END, _END, st.sampled_from([1.0, -1.0]))
    def test_wp_integral_matches_mpmath(self, lattice, f0, f1, sign):
        # Both ends inside one real period, of one sign. Measured: every
        # case of the same sweep within the allowance for the ends alone.
        assume(f0 != f1)
        ev = WpEvaluator(*lattice)
        t0, t1 = (sign * f * 2.0 * ev.omega for f in (f0, f1))
        _assert_integral_near_mpmath(ev, t0, t1, 1e-14)

    def test_the_integral_across_a_pair_near_the_real_axis(self):
        # Roots -1.6 and 0.8 +/- 0.05i. The Laurent series with 12
        # duplications was 1.2e-12 off here, its doubling step through
        # P'' near 0 at omega/2 amplifying the error of P.
        ev = WpEvaluator(7.67, -4.112)
        _assert_integral_near_mpmath(ev, 3.3456, 3.8396, 2e-15)
        # At the exact roots of the float lattice (mpmath, 50 digits),
        # e_max's own rounding shows: 6.4e-14.
        assert ev.wp_integral(3.3456, 3.8396) == pytest.approx(
            -0.6013938921036775821, rel=1e-13)


class TestFloatRange:
    """P ~ 1/z^2, P' ~ -2/z^3 and zeta ~ 1/z at the pole: each has a float
    value down to its own z."""

    def test_p_prime_leaves_the_float_range_first(self):
        ev = WpEvaluator(7.67, -4.112)
        p, pp = ev.wp(2.3e-103)  # 2/z^3 passes the largest float below
        assert p == pytest.approx(2.3e-103 ** -2, rel=1e-15)
        assert pp == pytest.approx(-2.0 * 2.3e-103 ** -3, rel=1e-15)
        for z in (2.2e-103, 1e-154, -1e-200, 1e-320):
            with pytest.raises(RangeError, match="float range"):
                ev.wp(z)

    def test_zeta_at_1e_minus_200(self):
        # zeta(t) = 1/t + O(t^3): zeta(1e-200) - zeta(0.5) rounds to 1e200.
        # The Laurent series raised ZeroDivisionError here (z^3 underflows).
        ev = WpEvaluator(7.67, -4.112)
        assert ev.wp_integral(1e-200, 0.5) == pytest.approx(1e200, rel=1e-15)
        assert ev.wp_integral(-0.5, -1e-200) == pytest.approx(1e200,
                                                              rel=1e-15)
        with pytest.raises(RangeError, match="float range"):
            ev.wp_integral(1e-320, 0.5)


class TestWpSecond:
    def test_agrees_with_fd_of_pprime(self, ev_b):
        z, h = 0.4, 1e-5
        fd = (ev_b.wp(z + h)[1] - ev_b.wp(z - h)[1]) / (2 * h)
        assert ev_b.wp_second(z) == pytest.approx(fd, rel=1e-6)

    def test_value_at_half_period(self, ev_b):
        # P' vanishes there and P equals the branch point e = 1.
        p, pp = ev_b.wp(OMEGA_B)
        assert pp == pytest.approx(0.0, abs=1e-9)
        assert ev_b.wp_second(OMEGA_B) == pytest.approx(6 * 1.0 ** 2 - 4.0 / 2, rel=1e-9)

    def test_homogeneity_power_four(self):
        t = 2.0
        z = 0.3
        base = WpEvaluator(1.0, 1.0)
        scaled = WpEvaluator(t ** -4, t ** -6)
        assert scaled.wp_second(t * z) == pytest.approx(
            base.wp_second(z) / t ** 4, rel=1e-9)


class TestOdeResidual:
    """|P'^2 - (4P^3 - g2 P - g3)| / max(1, |4P^3|, |g2 P|, |g3|)."""

    @staticmethod
    def _mp_wp_b(z):
        # (P, P') for (4, 0), roots 1, 0, -1, from Jacobi's functions:
        # P = -1 + 2/sn^2(sqrt(2) z | 1/2), P' = -2^(5/2) cn dn / sn^3.
        u, m = mp.sqrt(2) * z, mp.mpf(1) / 2
        sn, cn, dn = (mp.ellipfun(k, u, m=m) for k in ("sn", "cn", "dn"))
        return -1 + 2 / sn ** 2, -2 * mp.sqrt(2) ** 3 * cn * dn / sn ** 3

    @pytest.mark.parametrize("z", [0.05, 0.4, 0.9, 1.3, 2.0])
    def test_points_of_the_curve_read_at_rounding_level(self, ev_b, z):
        with mp.workdps(40):
            p, pp = self._mp_wp_b(mp.mpf(z))
        assert ev_b.ode_residual(float(p), float(pp)) < 2e-15
        assert ev_b.ode_residual(*ev_b.wp(z)) < 1e-13

    @pytest.mark.parametrize("g2,g3", [(4.0, 0.0), (7.0, -6.0), (-3.0, 50.0)])
    @pytest.mark.parametrize("w,off", [(1.5, 1e-6), (30.0, -1e-9),
                                       (2e3, 3e-3)])
    def test_matches_mpmath_off_the_curve(self, g2, g3, w, off):
        # (P, P') rounded from a point of the curve, P' then moved by a
        # relative off; the reference is the formula at those floats.
        ev = WpEvaluator(g2, g3)
        w += ev.e_max
        with mp.workdps(40):
            pp = float(-mp.sqrt(4 * mp.mpf(w) ** 3 - g2 * mp.mpf(w) - g3))
            pp *= 1 + off
            P, Q = mp.mpf(w), mp.mpf(pp)
            want = abs(Q * Q - (4 * P ** 3 - g2 * P - g3)) / max(
                1, abs(4 * P ** 3), abs(g2 * P), abs(g3))
        assert ev.ode_residual(w, pp) == pytest.approx(float(want), rel=1e-6)

    @pytest.mark.parametrize("off", [0.0, 1e-9, 1e-6, 1e-3])
    def test_4p_cubed_past_the_float_range(self, off):
        # At z = 1e-60, P = 1e120 and 4P^3 overflows: the pair is read at
        # P scaled by a power of four, by the weights of P, P', g2, g3.
        d = reduce(Family.LORENTZ_TIMELIKE_AXIS, 2.0)
        ev = WpEvaluator(d.g2, d.g3)
        p, pp = ev.wp(1e-60)
        pp *= 1 + off
        with mp.workdps(40):
            P, Q = mp.mpf(p), mp.mpf(pp)
            want = abs(Q * Q - (4 * P ** 3 - d.g2 * P - d.g3)) / (4 * P ** 3)
        assert abs(ev.ode_residual(p, pp) - want) <= 1e-6 * want + 1e-15


class TestWpInverse:
    def test_roundtrip(self, ev_a):
        for w in (ev_a.e_max + 0.1, ev_a.e_max + 1.0, ev_a.e_max + 10.0):
            z = ev_a.wp_inverse(w)
            assert ev_a.wp(z)[0] == pytest.approx(w, rel=1e-8)

    def test_roundtrip_three_real_roots(self, ev_b):
        z = ev_b.wp_inverse(ev_b.e_max + 0.5)
        assert ev_b.wp(z)[0] == pytest.approx(ev_b.e_max + 0.5, rel=1e-8)

    def test_strictly_decreasing(self, ev_a):
        ws = [ev_a.e_max + 0.05 * 2 ** k for k in range(10)]
        zs = [ev_a.wp_inverse(w) for w in ws]
        assert all(a > b for a, b in zip(zs, zs[1:]))

    def test_asymptotic_large_w(self, ev_a):
        w = 1e6
        assert ev_a.wp_inverse(w) == pytest.approx(w ** -0.5, rel=0.01)

    def test_below_branch_rejected(self, ev_a):
        with pytest.raises(BranchError):
            ev_a.wp_inverse(ev_a.e_max - 0.1)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_w_is_a_domain_error(self, ev_a, w):
        with pytest.raises(DomainError, match="w must be finite"):
            ev_a.wp_inverse(w)

    def test_inverse_of_wp_identity(self, ev_a):
        for z in (0.3, 0.9, 1.6):
            w = ev_a.wp(z)[0]
            assert ev_a.wp_inverse(w) == pytest.approx(z, rel=1e-8)


def _pair_rf(ev, w):
    """mpmath's R_F(w - e1, w - e2, w - e3) at the evaluator's own float
    roots: e1 = e_max and e2, e3 = -e1/2 +/- iq."""
    q = ev._pair[0]
    with mp.workdps(40):
        W, b = mp.mpf(w), -mp.mpf(ev.e_max) / 2
        return mp.re(mp.elliprf(W - ev.e_max, W - mp.mpc(b, q),
                                W - mp.mpc(b, -q)))


def _timelike(B):
    d = reduce(Family.LORENTZ_TIMELIKE_AXIS, B)
    return WpEvaluator(d.g2, d.g3)


class TestComplexPairInverse:
    """wp_inverse where the discriminant is negative: a real Legendre
    integral, omega - g or g, against R_F at the complex roots."""

    # Timelike lattices (disc = -(B^2+1)^4/B^2), and signed (g2, g3) with
    # disc < 0; w from e_max to 1e8 max(1, |e_max|) above it.
    @settings(max_examples=250, deadline=None)
    @given(st.one_of(
        st.floats(-4.0, 4.0).map(lambda e: ("B", 10.0 ** e)),
        st.tuples(st.floats(-3.0, 6.0), st.floats(-3.0, 9.0),
                  st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]))
        .map(lambda t: (t[2] * 10.0 ** t[0], t[3] * 10.0 ** t[1]))),
        st.one_of(st.just(None), st.floats(-16.0, 8.0)))
    def test_matches_rf_at_the_roots(self, lattice, log_offset):
        if lattice[0] == "B":
            ev = _timelike(lattice[1])
        else:
            assume(lattice[0] ** 3 < 27.0 * lattice[1] ** 2)
            try:
                ev = WpEvaluator(*lattice)
            except SingularError:
                reject()
        assert ev._others is None
        w = ev.e_max
        if log_offset is not None:
            w += 10.0 ** log_offset * max(1.0, abs(ev.e_max))
        ref = _pair_rf(ev, w)
        assert abs(ev.wp_inverse(w) - ref) <= 2e-15 * ref

    def test_h2_minus_x_keeps_its_digits(self):
        # At w = e_max + h2, c = (h2 - x)/(h2 + x) is about 0; formed from
        # x = w - e1 it read 2.6e-14 off at timelike B = 10^3.5.
        ev = _timelike(3162.2776601683795)
        w = ev.e_max + ev._pair[1]
        ref = _pair_rf(ev, w)
        assert abs(ev.wp_inverse(w) - ref) <= 2e-15 * ref

    # P = e1 + h2 (1 + cn v)/(1 - cn v) reads e1 + h2 where cn v = 0, at
    # v = K, z = omega/2: the Legendre integral against the AGM's period.
    @pytest.mark.parametrize("ev", [
        _timelike(1e-4), _timelike(0.5), _timelike(2.0),
        WpEvaluator(1.0, 1.0), WpEvaluator(G2_A, G3_A), WpEvaluator(3.0, -40.0)])
    def test_e_max_plus_h2_is_half_the_period(self, ev):
        z = ev.wp_inverse(ev.e_max + ev._pair[1])
        assert abs(z - ev.omega / 2) <= 1e-15 * ev.omega

    # Either side of w = e_max + h2, where the inverse turns from omega - g
    # to g; at B = 1e4 the modulus is near 1 and z moves fast there.
    @pytest.mark.parametrize("frac", [0.5, 0.999, 1.001, 2.0])
    @pytest.mark.parametrize("ev", [
        _timelike(1e-3), _timelike(1e4),
        WpEvaluator(-5.0, 30.0), WpEvaluator(3.0, -40.0)])
    def test_both_sides_of_the_branch_switch(self, ev, frac):
        w = ev.e_max + frac * ev._pair[1]
        z, ref = ev.wp_inverse(w), _pair_rf(ev, w)
        assert abs(z - ref) <= 2e-15 * ref
        assert (z > ev.omega / 2) == (frac < 1.0)

    @pytest.mark.parametrize("ev", [
        _timelike(1e-4), _timelike(0.5), _timelike(2.0), _timelike(1e4),
        WpEvaluator(1.0, 1.0), WpEvaluator(G2_A, G3_A)])
    def test_complete_at_e_max_and_finite_at_the_largest_float(self, ev):
        assert ev.wp_inverse(ev.e_max) == ev.omega
        w = sys.float_info.max
        z = ev.wp_inverse(w)
        assert 0.0 < z < math.inf
        assert abs(z - _pair_rf(ev, w)) <= 2e-15 * z


class TestWpIntegral:
    def test_empty_interval(self, ev_a):
        assert ev_a.wp_integral(0.7, 0.7) == 0.0

    def test_frozen_oracle_value(self, ev_a):
        assert ev_a.wp_integral(0.3, 0.9) == pytest.approx(INT_A_03_09, rel=1e-9)

    def test_additivity(self, ev_a):
        a, b, c = 0.25, 0.6, 1.4
        lhs = ev_a.wp_integral(a, b) + ev_a.wp_integral(b, c)
        assert lhs == pytest.approx(ev_a.wp_integral(a, c), abs=1e-10)

    def test_orientation(self, ev_a):
        assert ev_a.wp_integral(0.9, 0.3) == pytest.approx(-INT_A_03_09, rel=1e-9)

    def test_derivative_is_wp(self, ev_a):
        t, h = 0.8, 1e-5
        fd = (ev_a.wp_integral(0.3, t + h) - ev_a.wp_integral(0.3, t - h)) / (2 * h)
        assert fd == pytest.approx(ev_a.wp(t)[0], abs=1e-7)

    # (inf, inf) too: the bounds are checked before the empty stretch.
    @pytest.mark.parametrize("t0, t1", [
        (math.nan, 0.5), (0.3, math.nan), (0.3, math.inf), (-math.inf, 0.5),
        (math.inf, math.inf), (math.nan, math.nan)])
    def test_non_finite_bound_is_a_domain_error(self, ev_a, t0, t1):
        with pytest.raises(DomainError, match="bounds must be finite"):
            ev_a.wp_integral(t0, t1)

    def test_pole_in_interval_rejected(self, ev_a):
        with pytest.raises(PoleError):
            ev_a.wp_integral(-0.2, 0.5)
        with pytest.raises(PoleError):
            ev_a.wp_integral(0.0, 0.5)


class TestReductionPairs:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("B", [0.5, 2.0])
    def test_identities_along_real_branch(self, family, B):
        d = reduce(family, B)
        ev = WpEvaluator(d.g2, d.g3)
        z_lo = 0.05
        z_hi = 0.95 * ev.wp_inverse(ev.e_max + 1e-9)
        for i in range(50):
            z = z_lo + (z_hi - z_lo) * i / 49
            p, pp = ev.wp(z)
            ode = abs(pp * pp - (4 * p ** 3 - d.g2 * p - d.g3))
            assert ode < 1e-9 * (1.0 + abs(p) ** 3)
            assert ev.wp_second(z) == 6 * p * p - d.g2 / 2
            assert p >= ev.e_max - 1e-9 * max(1.0, abs(ev.e_max))
