"""Depressed-cubic reduction, discriminant polynomials and singular values."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from cmc_elliptic import _ratpoly, elliptic_reduction
from cmc_elliptic._ratpoly import (
    Poly,
    count_positive_roots,
    isolate_positive_roots,
    sturm_chain,
)
from cmc_elliptic.elliptic_reduction import (
    ReductionData,
    _cubic_coeffs,
    _shift_and_depress,
    _y_cubic,
    discriminant_poly,
    is_singular_value,
    reduce,
    reduction_report,
    singular_B,
)
from cmc_elliptic.errors import DomainError, RangeError
from cmc_elliptic.profiles import Family

F = Fraction

# Degree-12 screening numerators over 54*B^4, primitive, ascending in B.
SCREEN_TIMELIKE = [1, 0, 12, 0, 807, 0, -2504, 0, 807, 0, 12, 0, 1]
SCREEN_OTHER = [1, 0, -12, 0, 807, 0, 2504, 0, 807, 0, -12, 0, 1]

# The screening numerators are B^6 * g(B^2 + B^-2) for these cubics g,
# ascending in y.
Y_CUBIC_TIMELIKE = [-2528, 804, 12, 1]
Y_CUBIC_OTHER = [2528, 804, -12, 1]

# Refined screening roots for the timelike-axis family.
ROOT_LO = 0.6209687128607871
ROOT_HI = 1.6103870924398513


def shifted_cubic_identity(data: ReductionData) -> list[Fraction]:
    """Coefficient-wise difference between the re-expanded depressed cubic
    and the original cubic, in exact rational arithmetic (must be all-zero).

    Expands l + m*w + n*w**3 under w = u + c and subtracts the u-cubic.
    """
    B = Fraction(data.B)
    c, l, m, n = _shift_and_depress(data.family, B)
    a0, a1, a2, a3 = _cubic_coeffs(data.family, B)
    # l + m(u+c) + n(u+c)^3, ascending in u.
    expanded = [
        l + m * c + n * c ** 3,
        m + 3 * n * c * c,
        3 * n * c,
        n,
    ]
    return [e - a for e, a in zip(expanded, [a0, a1, a2, a3])]


def exact_invariants(family: Family, B: Fraction) -> tuple[Fraction, ...]:
    """g2^3, g3 and disc = g2^3 - 27 g3^2 over Q, from the depressed cubic.

    g2 = -m*lam with lam^3 = 4/n, so g2^3 = -4m^3/n; g3 = -l.
    """
    _, l, m, n = _shift_and_depress(family, B)
    g2_cubed, g3 = -4 * m ** 3 / n, -l
    return g2_cubed, g3, g2_cubed - 27 * g3 ** 2


def factored_disc(family: Family, B):
    """The true discriminant's closed form: -(B^2+1)^4/B^2 on the timelike
    axis, (B^2-1)^4/B^2 in the other families."""
    if family is Family.LORENTZ_TIMELIKE_AXIS:
        return -((B * B + 1) ** 4) / (B * B)
    return (B * B - 1) ** 4 / (B * B)


def screening_value(family: Family, B):
    """discriminant_poly's rational function at B, in B's arithmetic."""
    return discriminant_poly(family)(B) / (54 * B ** 4)


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
            assert dp.degree == 12
            assert dp == Poly(frozen)

    @pytest.mark.parametrize("family", list(Family))
    def test_polynomials_are_built_once_per_family(self, family):
        assert discriminant_poly(family) is discriminant_poly(family)

    def test_screening_palindromic(self):
        for fam in Family:
            cs = discriminant_poly(fam).coeffs
            assert cs == tuple(reversed(cs))

    @pytest.mark.parametrize("family", list(Family))
    def test_screening_value_is_g2_cubed_plus_27_g3_squared(self, family):
        # g2 = -m*lam with lam^3 = 4/n and g3 = -l, so g2^3 = -4m^3/n: the
        # screening roots are where Klein's J = g2^3/disc equals 1/2, and
        # disc = g2^3 - 27*g3^2 does not vanish there. Times B^4 both sides
        # are polynomials of degree <= 12 in B (6B*m and 54B^2*l have
        # degrees 4 and 6), so agreement at 13 points is the identity.
        for B in (F(k, 3) for k in range(1, 14)):
            g2_cubed, g3, _ = exact_invariants(family, B)
            assert screening_value(family, B) == g2_cubed + 27 * g3 ** 2

    @pytest.mark.parametrize("family", list(Family))
    def test_screening_numerator_is_a_cubic_in_b2_plus_inverse(self, family):
        # numerator = B^6 g(y) with y = B^2 + B^-2, that is
        # sum_j g_j B^(6-2j) (B^4+1)^j, exactly.
        g = (Y_CUBIC_TIMELIKE if family is Family.LORENTZ_TIMELIKE_AXIS
             else Y_CUBIC_OTHER)
        expected, power = Poly([0]), Poly([1])
        for j, gj in enumerate(g):
            expected = expected + Poly([0] * (6 - 2 * j) + [gj]) * power
            power = power * Poly([1, 0, 0, 0, 1])
        assert discriminant_poly(family) == expected
        assert _y_cubic(family) == Poly(g)
        # g' = 3y^2 + 2*g[2]*y + g[1] has no real zero, so g increases, and
        # y >= 2 on B > 0 with y = 2 only at B = 1, every y > 2 coming from
        # the pair B, 1/B. So the positive screening roots are two when
        # g(2) < 0 (timelike) and none when g(2) > 0 (the other families):
        # criteria 2 and 4, which ask for two spacelike roots, cannot hold.
        gy = Poly(g)
        assert (2 * g[2]) ** 2 - 4 * 3 * g[1] < 0
        assert gy(F(2)) == (-864 if family is Family.LORENTZ_TIMELIKE_AXIS
                            else 4096)
        assert len(singular_B(family)) == (2 if gy(F(2)) < 0 else 0)

    def test_true_disc_closed_forms(self):
        # Times B^4 both sides are polynomials of degree <= 12 in B, so
        # agreement at 13 points is the identity.
        for fam in Family:
            for B in (F(k, 3) for k in range(1, 14)):
                assert exact_invariants(fam, B)[2] == factored_disc(fam, B)

    def test_exact_vs_float_disc(self):
        rng = random.Random(20260814)
        for _ in range(50):
            B = rng.uniform(0.05, 10.0)
            fam = rng.choice(list(Family))
            exact = factored_disc(fam, F(B))
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
        # Re-derive the screening polynomial and the true discriminant with
        # sympy straight from the cubic coefficients, independently of the
        # Fraction pipeline.
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
            dp = discriminant_poly(fam)
            got = (sp.Poly([sp.Rational(x) for x in reversed(dp.coeffs)], B)
                   .as_expr() / (54 * B**4))
            assert sp.simplify(-4 * m**3 / a3 + 27 * l**2 - got) == 0
            disc = -4 * m**3 / a3 - 27 * l**2
            assert sp.simplify(disc - factored_disc(fam, B)) == 0


class TestJInvariant:
    """Klein's J = g2^3/disc as a function of y = B^2 + B^-2 alone."""

    @pytest.mark.parametrize("family", list(Family))
    def test_j_is_one_cubic_in_y(self, family):
        # J = 1/2 + g(y)/(108 (y-2)^2), y = -(B^2 + B^-2) on the timelike
        # axis, cleared of denominators:
        #   108 (y-2)^2 g2^3 = (54 (y-2)^2 + g(y)) disc.
        # Times B^8 both sides are polynomials of degree <= 20 in B (g2^3
        # has degree 12 over B^4, disc 8 over B^2, (y-2)^2 8 over B^4 and
        # g(y) 6 over B^6), so agreement at 24 distinct B is the identity.
        g = Poly(Y_CUBIC_OTHER)
        sign = -1 if family is Family.LORENTZ_TIMELIKE_AXIS else 1
        points = [F(k, 7) for k in range(1, 25)]
        for B in points:
            y = sign * (B * B + 1 / (B * B))
            g2_cubed, _, disc = exact_invariants(family, B)
            assert 108 * (y - 2) ** 2 * g2_cubed == \
                (54 * (y - 2) ** 2 + g(y)) * disc
        # Away from B = 1, where the non-timelike disc vanishes, J itself.
        for B in points[:6]:
            y = sign * (B * B + 1 / (B * B))
            g2_cubed, _, disc = exact_invariants(family, B)
            assert g2_cubed / disc == F(1, 2) + g(y) / (108 * (y - 2) ** 2)

    @pytest.mark.parametrize("family", list(Family))
    def test_j_is_invariant_under_b_to_inverse(self, family):
        for B in (F(1, 3), F(2, 5), F(5, 2), F(7), F(13, 11)):
            g2_cubed, _, disc = exact_invariants(family, B)
            g2_inv, _, disc_inv = exact_invariants(family, 1 / B)
            assert g2_cubed / disc == g2_inv / disc_inv

    def test_euclidean_and_spacelike_share_g2_with_opposite_g3(self):
        # Same m and n (so the same lam and g2 = -m lam), opposite l = -g3:
        # the spacelike lattice is the Euclidean one rotated by i.
        for B in (F(1, 3), F(1), F(5, 2), F(17, 4)):
            _, l_e, m_e, n_e = _shift_and_depress(Family.EUCLIDEAN, B)
            _, l_s, m_s, n_s = _shift_and_depress(
                Family.LORENTZ_SPACELIKE_AXIS, B)
            assert (m_e, n_e, l_e) == (m_s, n_s, -l_s)
        for B in (0.3, 1.0, 2.5, 17.0):
            e = reduce(Family.EUCLIDEAN, B)
            sp = reduce(Family.LORENTZ_SPACELIKE_AXIS, B)
            assert (e.g2, e.g3) == (sp.g2, -sp.g3)


class TestSingularValues:
    def test_timelike_roots(self):
        roots = singular_B(Family.LORENTZ_TIMELIKE_AXIS)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.620969, abs=1e-5)
        assert roots[1] == pytest.approx(1.61039, abs=1e-5)
        assert roots[0] == pytest.approx(ROOT_LO, rel=1e-12)
        assert roots[1] == pytest.approx(ROOT_HI, rel=1e-12)
        # Bit for bit: however the roots are isolated and refined.
        assert [r.hex() for r in roots] == [
            "0x1.3def9c7327103p-1", "0x1.9c425417ee003p+0"]

    @pytest.mark.parametrize("family", list(Family))
    def test_roots_are_correctly_rounded(self, family):
        # Within half an ulp of the 50-digit roots: the real roots y > 2 of
        # the frozen cubic in y = B^2 + B^-2, each giving a pair B, 1/B.
        g = (Y_CUBIC_TIMELIKE if family is Family.LORENTZ_TIMELIKE_AXIS
             else Y_CUBIC_OTHER)
        with mp.workdps(50):
            ys = [y.real for y in mp.polyroots(g[::-1], maxsteps=100,
                                               extraprec=100)
                  if abs(y.imag) < mp.mpf(10) ** -40 and y.real > 2]
            exact = sorted(mp.sqrt((y + s * mp.sqrt(y * y - 4)) / 2)
                           for y in ys for s in (-1, 1))
            roots = singular_B(family)
            assert len(roots) == len(exact)
            for r, e in zip(roots, exact):
                assert abs(mp.mpf(r) - e) <= math.ulp(r) / 2

    def test_sturm_brackets_contain_the_closed_form_roots(self):
        # Sturm isolation of the degree-12 numerator is the independent
        # oracle: one bracket (a, b] around each closed-form root.
        for fam in Family:
            brackets = isolate_positive_roots(discriminant_poly(fam))
            roots = singular_B(fam)
            assert len(brackets) == len(roots)
            for (a, b), r in zip(brackets, roots):
                assert a < r <= b

    def test_no_sturm_function_on_the_production_path(self, monkeypatch):
        expected = {fam: singular_B(fam) for fam in Family}

        def boom(*args):
            raise AssertionError("Sturm machinery called")

        for name in ("sturm_chain", "isolate_positive_roots",
                     "count_positive_roots", "cauchy_root_bound",
                     "sign_variations_at", "sign_variations_at_inf"):
            monkeypatch.setattr(_ratpoly, name, boom)
            assert not hasattr(elliptic_reduction, name)
        elliptic_reduction._screening_roots.cache_clear()
        for fam in Family:
            assert singular_B(fam) == expected[fam]
            assert is_singular_value(fam, 0.620969) == bool(expected[fam])
            assert not is_singular_value(fam, 2.0)

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
        num = discriminant_poly(Family.LORENTZ_TIMELIKE_AXIS)
        scale = max(abs(float(c)) for c in num.coeffs)
        for r in singular_B(Family.LORENTZ_TIMELIKE_AXIS):
            assert abs(num(r)) < 1e-9 * scale

    def test_sturm_counts(self):
        # The isolated roots are exactly the Sturm count on (0, inf).
        for fam in Family:
            assert count_positive_roots(discriminant_poly(fam)) \
                == len(singular_B(fam))
        assert len(singular_B(Family.LORENTZ_TIMELIKE_AXIS)) == 2
        # The screening combination never vanishes for the other two families;
        # their true discriminant vanishes only at B=1 (degenerate profile).
        assert singular_B(Family.LORENTZ_SPACELIKE_AXIS) == []
        assert singular_B(Family.EUCLIDEAN) == []

    def test_screening_disc_sign_off_roots(self):
        # Between and outside the two roots the screening value changes sign;
        # for the families without roots it stays positive throughout.
        timelike = Family.LORENTZ_TIMELIKE_AXIS
        assert screening_value(timelike, 0.5) > 0
        assert screening_value(timelike, 2.0) > 0
        assert screening_value(timelike, 1.0) < 0
        for fam in (Family.LORENTZ_SPACELIKE_AXIS, Family.EUCLIDEAN):
            for B in (0.1, 0.5, 0.9, 1.1, 2.0, 5.0):
                assert screening_value(fam, B) > 0

    def test_isolation_evaluates_each_point_once(self, monkeypatch):
        # Brackets carry their end counts, so each split evaluates the Sturm
        # chain at its midpoint only: 2 ends plus 11 splits on the timelike
        # numerator, against 2 + 3*11 = 35 with both ends re-evaluated.
        num = discriminant_poly(Family.LORENTZ_TIMELIKE_AXIS)
        expected = isolate_positive_roots(num)
        calls = []
        count = _ratpoly.sign_variations_at
        monkeypatch.setattr(_ratpoly, "sign_variations_at",
                            lambda chain, x: calls.append(x) or count(chain, x))
        assert isolate_positive_roots(num) == expected
        assert len(calls) == 13 and len(set(calls)) == 13

    def test_screening_numerators_are_squarefree(self):
        # The remainder pass of num and num' ends in a constant, so the chain
        # is left undivided and refine_root can bisect on num itself.
        for fam in Family:
            num = discriminant_poly(fam)
            assert sturm_chain(num)[0] == num

    def test_sturm_chain_is_one_remainder_pass(self, monkeypatch):
        # One division per remainder, of degrees 10 down to 0, on the
        # timelike numerator; a gcd pass ahead of the chain made it 23.
        num = discriminant_poly(Family.LORENTZ_TIMELIKE_AXIS)
        expected = sturm_chain(num)
        calls = []
        divmod_ = Poly.divmod
        monkeypatch.setattr(Poly, "divmod",
                            lambda p, q: calls.append(q) or divmod_(p, q))
        assert sturm_chain(num) == expected
        assert len(calls) == 11

    def test_is_singular_value(self):
        assert is_singular_value(Family.LORENTZ_TIMELIKE_AXIS, 0.620969)
        assert is_singular_value(Family.LORENTZ_TIMELIKE_AXIS, 1.610390)
        assert not is_singular_value(Family.LORENTZ_TIMELIKE_AXIS, 0.5)
        assert not is_singular_value(Family.LORENTZ_SPACELIKE_AXIS, 1.0)

    def test_true_disc_vanishes_only_at_b_one(self):
        # By the factored forms: (B^2-1)^4/B^2 in the Euclidean and
        # spacelike families, and -(B^2+1)^4/B^2 < 0 on the timelike axis.
        assert reduce(Family.LORENTZ_SPACELIKE_AXIS, 1.0).disc == 0.0
        assert reduce(Family.EUCLIDEAN, 1.0).disc == 0.0
        for B in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert reduce(Family.LORENTZ_TIMELIKE_AXIS, B).disc < 0
