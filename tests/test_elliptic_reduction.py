"""Depressed-cubic reduction, discriminant polynomials and singular values."""

import math
import random
from fractions import Fraction

import pytest

from cmc_elliptic._ratpoly import Poly, count_positive_roots
from cmc_elliptic.elliptic_reduction import (
    DiscPoly,
    ReductionData,
    discriminant_poly,
    exact_discriminant_poly,
    is_singular_value,
    positive_root_count,
    reduce,
    reduction_report,
    shifted_cubic_identity,
    singular_B,
)
from cmc_elliptic.errors import DomainError, RangeError
from cmc_elliptic.profiles import Family

F = Fraction

# Degree-12 screening numerators over 54*B^4, primitive, ascending in B.
SCREEN_TIMELIKE = [1, 0, 12, 0, 807, 0, -2504, 0, 807, 0, 12, 0, 1]
SCREEN_OTHER = [1, 0, -12, 0, 807, 0, 2504, 0, 807, 0, -12, 0, 1]

# Refined screening roots for the timelike-axis family.
ROOT_LO = 0.6209687128607873
ROOT_HI = 1.6103870924398513


class TestReduce:
    def test_timelike_b_one(self):
        d = reduce(Family.LORENTZ_TIMELIKE_AXIS, 1.0)
        assert d.c_shift == 0.0
        assert d.l == 0.0
        assert d.m == 2.0
        assert d.n == 2.0
        assert d.lam == pytest.approx(2.0 ** (1 / 3), rel=1e-15)
        assert d.g2 == pytest.approx(-2.0 * 2.0 ** (1 / 3), rel=1e-15)
        assert d.g3 == 0.0
        assert d.disc == pytest.approx(-16.0, rel=1e-13)

    def test_timelike_shift_formula(self):
        for B in (0.5, 1.0, 2.0, 3.0):
            d = reduce(Family.LORENTZ_TIMELIKE_AXIS, B)
            assert d.c_shift == pytest.approx((B * B - 1) / (6 * B), abs=1e-15)

    def test_spacelike_b_two_exact_values(self):
        d = reduce(Family.LORENTZ_SPACELIKE_AXIS, 2.0)
        assert d.c_shift == pytest.approx(-5 / 12, rel=1e-15)
        assert d.l == pytest.approx(-595 / 216, rel=1e-14)
        assert d.m == pytest.approx(73 / 12, rel=1e-14)
        assert d.n == -4.0
        assert d.lam == -1.0  # real cube root of 4/n = -1
        assert d.disc == pytest.approx(81 / 4, rel=1e-12)

    def test_negative_n_gives_negative_lambda(self):
        for fam in (Family.LORENTZ_SPACELIKE_AXIS, Family.EUCLIDEAN):
            d = reduce(fam, 0.7)
            assert d.n == pytest.approx(-1.4)
            assert d.lam < 0
            assert d.lam ** 3 == pytest.approx(4.0 / d.n, rel=1e-14)

    def test_invariant_wiring(self):
        for fam in Family:
            for B in (0.3, 1.7):
                d = reduce(fam, B)
                assert d.g2 == pytest.approx(-d.m * d.lam, rel=1e-15)
                assert d.g3 == -d.l
                assert d.disc == pytest.approx(d.g2 ** 3 - 27 * d.g3 ** 2, rel=1e-13)

    def test_b_zero_rejected(self):
        with pytest.raises(DomainError):
            reduce(Family.LORENTZ_TIMELIKE_AXIS, 0.0)

    @pytest.mark.parametrize("B", [math.nan, math.inf])
    def test_non_finite_b_rejected(self, B):
        with pytest.raises(DomainError):
            reduce(Family.LORENTZ_TIMELIKE_AXIS, B)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("B", [1e-300, 1e300])
    def test_overflow_is_a_range_error(self, family, B):
        with pytest.raises(RangeError):
            reduce(family, B)

    def test_report_shape(self):
        rep = reduction_report(reduce(Family.LORENTZ_TIMELIKE_AXIS, 1.0))
        assert list(rep) == ["family", "B", "c", "l", "m", "n", "lambda",
                             "g2", "g3", "disc", "singular"]
        assert rep["family"] == "timelike-axis"
        assert rep["singular"] is False


class TestShiftedCubic:
    @pytest.mark.parametrize("family,B", [
        (Family.LORENTZ_TIMELIKE_AXIS, F(3, 2)),
        (Family.LORENTZ_SPACELIKE_AXIS, F(1, 2)),
        (Family.EUCLIDEAN, F(2)),
    ])
    def test_zero_difference(self, family, B):
        diff = shifted_cubic_identity(reduce(family, float(B)))
        assert diff == [0, 0, 0, 0]

    def test_quadratic_coefficient_killed_exactly(self):
        # The w^2 coefficient of the expansion is 3*n*c + a2 = 0 by choice of c;
        # the all-zero difference above asserts it along with every other slot.
        diff = shifted_cubic_identity(reduce(Family.LORENTZ_SPACELIKE_AXIS, 2.0))
        assert all(isinstance(e, Fraction) and e == 0 for e in diff)


class TestDiscriminantPolynomials:
    def test_screening_degree_and_coeffs(self):
        for fam, frozen in [(Family.LORENTZ_TIMELIKE_AXIS, SCREEN_TIMELIKE),
                            (Family.LORENTZ_SPACELIKE_AXIS, SCREEN_OTHER),
                            (Family.EUCLIDEAN, SCREEN_OTHER)]:
            dp = discriminant_poly(fam)
            assert dp.numerator.degree == 12
            assert dp.numerator == Poly(frozen)
            assert (dp.den_coeff, dp.den_power) == (54, 4)

    def test_screening_palindromic(self):
        for fam in Family:
            cs = discriminant_poly(fam).numerator.coeffs
            assert cs == tuple(reversed(cs))

    def test_true_disc_closed_forms(self):
        # Timelike: -(B^2+1)^4 / B^2; the other families: (B^2-1)^4 / B^2.
        for B in (F(1, 3), F(1), F(5, 2)):
            t = exact_discriminant_poly(Family.LORENTZ_TIMELIKE_AXIS).evaluate(B)
            assert t == -((B * B + 1) ** 4) / (B * B)
            for fam in (Family.LORENTZ_SPACELIKE_AXIS, Family.EUCLIDEAN):
                v = exact_discriminant_poly(fam).evaluate(B)
                assert v == ((B * B - 1) ** 4) / (B * B)

    def test_exact_vs_float_disc(self):
        rng = random.Random(20260814)
        for _ in range(50):
            B = rng.uniform(0.05, 10.0)
            fam = rng.choice(list(Family))
            exact = exact_discriminant_poly(fam).evaluate(F(B))
            d = reduce(fam, B).disc
            assert d == pytest.approx(float(exact), rel=1e-10, abs=1e-12)

    def test_timelike_closed_form_identity(self):
        # disc(B) = -([12B^2-(B^2-1)^2]^3 + [36B^2(B^2-1)+(B^2-1)^3]^2) / (108 B^4)
        for B in (0.37, 1.0, 2.6):
            a = B * B - 1
            M = 12 * B * B - a * a
            L = 36 * B * B * a + a ** 3
            closed = -(M ** 3 + L ** 2) / (108 * B ** 4)
            assert reduce(Family.LORENTZ_TIMELIKE_AXIS, B).disc == pytest.approx(
                closed, rel=1e-10)
        assert reduce(Family.LORENTZ_TIMELIKE_AXIS, 1.0).disc == pytest.approx(-16.0)

    def test_symbolic_oracle(self):
        # Re-derive both polynomials with sympy straight from the cubic
        # coefficients, independently of the Fraction pipeline.
        import sympy as sp

        B = sp.symbols("B", positive=True)
        cubics = {
            Family.LORENTZ_TIMELIKE_AXIS: [B**2 - 1, 2 * B, B**2 - 1, 2 * B],
            Family.LORENTZ_SPACELIKE_AXIS: [-(1 + B**2), 2 * B, 1 + B**2, -2 * B],
            Family.EUCLIDEAN: [1 + B**2, 2 * B, -(1 + B**2), -2 * B],
        }
        for fam, (a0, a1, a2, a3) in cubics.items():
            c = a2 / (3 * a3)
            m = 3 * a3 * c**2 - 2 * a2 * c + a1
            l = -a3 * c**3 + a2 * c**2 - a1 * c + a0
            for dp, sign in [(discriminant_poly(fam), +1),
                             (exact_discriminant_poly(fam), -1)]:
                expected = -4 * m**3 / a3 + sign * 27 * l**2
                got = (sp.Poly([sp.Rational(x) for x in reversed(dp.numerator.coeffs)], B)
                       .as_expr() / (sp.Rational(dp.den_coeff) * B**dp.den_power))
                assert sp.simplify(expected - got) == 0


class TestSingularValues:
    def test_timelike_roots(self):
        roots = singular_B(Family.LORENTZ_TIMELIKE_AXIS)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.620969, abs=1e-5)
        assert roots[1] == pytest.approx(1.61039, abs=1e-5)
        assert roots[0] == pytest.approx(ROOT_LO, rel=1e-12)
        assert roots[1] == pytest.approx(ROOT_HI, rel=1e-12)

    def test_returned_list_is_a_copy(self):
        roots = singular_B(Family.LORENTZ_TIMELIKE_AXIS)
        expected = list(roots)
        roots.append(99.0)
        roots[0] = -1.0
        assert singular_B(Family.LORENTZ_TIMELIKE_AXIS) == expected
        assert is_singular_value(Family.LORENTZ_TIMELIKE_AXIS, expected[0])
        assert not is_singular_value(Family.LORENTZ_TIMELIKE_AXIS, 99.0)

    def test_roots_are_reciprocal_pair(self):
        # Palindromic numerator in B^2 pairs roots as B <-> 1/B.
        lo, hi = singular_B(Family.LORENTZ_TIMELIKE_AXIS)
        assert lo * hi == pytest.approx(1.0, abs=1e-10)

    def test_roots_kill_screening_numerator(self):
        num = discriminant_poly(Family.LORENTZ_TIMELIKE_AXIS).numerator
        scale = max(abs(float(c)) for c in num.coeffs)
        for r in singular_B(Family.LORENTZ_TIMELIKE_AXIS):
            assert abs(num(r)) < 1e-9 * scale

    def test_sturm_counts(self):
        assert positive_root_count(Family.LORENTZ_TIMELIKE_AXIS) == 2
        # The screening combination never vanishes for the other two families;
        # their true discriminant vanishes only at B=1 (degenerate profile).
        assert positive_root_count(Family.LORENTZ_SPACELIKE_AXIS) == 0
        assert positive_root_count(Family.EUCLIDEAN) == 0
        assert singular_B(Family.LORENTZ_SPACELIKE_AXIS) == []
        assert singular_B(Family.EUCLIDEAN) == []

    def test_screening_disc_sign_off_roots(self):
        # Between and outside the two roots the screening value changes sign;
        # for the families without roots it stays positive throughout.
        dp = discriminant_poly(Family.LORENTZ_TIMELIKE_AXIS)
        assert dp.evaluate(0.5) > 0 and dp.evaluate(2.0) > 0
        assert dp.evaluate(1.0) < 0
        for fam in (Family.LORENTZ_SPACELIKE_AXIS, Family.EUCLIDEAN):
            dpf = discriminant_poly(fam)
            for B in (0.1, 0.5, 0.9, 1.1, 2.0, 5.0):
                assert dpf.evaluate(B) > 0

    def test_is_singular_value(self):
        assert is_singular_value(Family.LORENTZ_TIMELIKE_AXIS, 0.620969)
        assert is_singular_value(Family.LORENTZ_TIMELIKE_AXIS, 1.610390)
        assert not is_singular_value(Family.LORENTZ_TIMELIKE_AXIS, 0.5)
        assert not is_singular_value(Family.LORENTZ_SPACELIKE_AXIS, 1.0)

    def test_true_disc_vanishes_only_at_b_one(self):
        assert reduce(Family.LORENTZ_SPACELIKE_AXIS, 1.0).disc == 0.0
        assert reduce(Family.EUCLIDEAN, 1.0).disc == 0.0
        assert count_positive_roots(
            exact_discriminant_poly(Family.LORENTZ_TIMELIKE_AXIS).numerator) == 0
