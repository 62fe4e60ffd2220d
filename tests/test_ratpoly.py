"""Exact polynomial arithmetic, Sturm root isolation and the cubic field."""

from fractions import Fraction

import pytest
from cubic_field import CbrtNum, CubicField, rational_cbrt

from cmc_elliptic._ratpoly import (
    Poly,
    cauchy_root_bound,
    count_positive_roots,
    isolate_positive_roots,
    real_cbrt,
    refine_root,
    sign_variations_at,
    sturm_chain,
)

F = Fraction


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Poly([0, 0]).coeffs == (F(0),)

    def test_degree_conventions(self):
        assert Poly([0]).degree == -1
        assert Poly([5]).degree == 0
        assert Poly([0, 0, 3]).degree == 2

    def test_eval_exact_and_float(self):
        p = Poly([1, -3, 2])  # 2x^2 - 3x + 1 = (2x-1)(x-1)
        assert p(F(1, 2)) == 0
        assert p(F(1)) == 0
        assert isinstance(p(F(2)), Fraction) and p(F(2)) == 3
        assert p(2.0) == pytest.approx(3.0, abs=0.0)

    def test_ring_identities(self):
        p = Poly([1, 2, 3])
        q = Poly([-1, 0, 0, 4])
        assert p + q - q == p
        assert (p * q)(F(7)) == p(F(7)) * q(F(7))
        assert (p * 2).coeffs == (F(2), F(4), F(6))
        # A scalar on either side of + and - is a constant polynomial.
        for c in (3, F(-5, 2)):
            assert p + c == c + p == p + Poly([c])
            assert p - c == p + Poly([-c])
            assert c - p == Poly([c]) - p == -(p - c)
        assert (q - F(-1)).coeffs == (F(0), F(0), F(0), F(4))
        assert 1 - Poly([1]) == Poly([0])

    def test_divmod_roundtrip(self):
        a = Poly([3, -2, 0, 1, 5])
        b = Poly([1, 1, 2])
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_divmod_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Poly([1, 1]).divmod(Poly([0]))

    def test_derivative(self):
        assert Poly([5, 1, 0, 2]).derivative() == Poly([1, 0, 6])
        assert Poly([7]).derivative() == Poly([0])

    def test_primitive_preserves_sign_and_content(self):
        p = Poly([F(2, 3), F(-4, 3)])
        prim = p.primitive()
        assert prim == Poly([1, -2])
        assert (-p).primitive() == Poly([-1, 2])


class TestRootIsolation:
    def test_count_positive_roots(self):
        p = Poly([-1, 1]) * Poly([-2, 1]) * Poly([3, 1])
        assert count_positive_roots(p) == 2
        # One distinct root in (0, 3/2]: the Sturm counts at its ends.
        chain = sturm_chain(p)
        assert sign_variations_at(chain, F(0)) \
            - sign_variations_at(chain, F(3, 2)) == 1
        assert count_positive_roots(Poly([1, 0, 1])) == 0
        # (x-1)^2 (x+1): the chain is divided by gcd(p, p') = x - 1 up to a
        # scalar, so it starts with the squarefree part and counts 2 roots.
        p = Poly([-1, 1]) * Poly([-1, 1]) * Poly([1, 1])
        chain = sturm_chain(p)
        assert chain[0].degree == 2
        assert chain[0](F(1)) == 0 and chain[0](F(-1)) == 0
        assert sign_variations_at(chain, F(-2)) \
            - sign_variations_at(chain, F(2)) == 2
        assert count_positive_roots(p) == 1

    def test_cauchy_bound_contains_roots(self):
        p = Poly([1, -10, 0, 1])  # x^3 - 10x + 1
        bound = cauchy_root_bound(p)
        chain = sturm_chain(p)
        assert sign_variations_at(chain, -bound) \
            - sign_variations_at(chain, bound) == 3

    def test_isolate_positive_roots_brackets(self):
        p = Poly([-1, 1]) * Poly([-2, 1]) * Poly([-2, 1]) * Poly([5, 1])
        brackets = isolate_positive_roots(p)
        assert len(brackets) == 2
        for (lo, hi), root in zip(brackets, (F(1), F(2))):
            assert lo < root <= hi

    def test_isolate_requires_nonzero_constant_term(self):
        with pytest.raises(ValueError):
            isolate_positive_roots(Poly([0, 1]))

    def test_refine_root_sqrt2(self):
        x = refine_root(Poly([-2, 0, 1]), F(1), F(2))
        assert x == pytest.approx(2.0 ** 0.5, rel=1e-14)

    # Triple roots, where Newton converges only linearly, so only the exact
    # returns give them exactly: at lo, at hi, at a non-dyadic lo, and at
    # 3/8, the third bisection midpoint of [0, 1].
    @pytest.mark.parametrize("coeffs, lo, hi, root", [
        ([-1, 3, -3, 1], F(1), F(2), 1.0),
        ([-27, 27, -9, 1], F(2), F(3), 3.0),
        ([-1, 9, -27, 27], F(1, 3), F(1), 1 / 3),
        ([-27, 216, -576, 512], F(0), F(1), 0.375),
    ])
    def test_refine_root_returns_an_exact_root(self, coeffs, lo, hi, root):
        x = refine_root(Poly(coeffs), lo, hi)
        assert type(x) is float and x == root

    def test_refine_root_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            refine_root(Poly([-2, 0, 1]), F(2), F(3))
        # A root of even multiplicity has no sign change to bisect on.
        with pytest.raises(ValueError):
            refine_root(Poly([1, -2, 1]), F(1, 2), F(2))


class TestCubicField:
    def test_real_cbrt_negative(self):
        assert real_cbrt(-8.0) == -2.0
        assert real_cbrt(0.0) == 0.0

    def test_rational_cbrt(self):
        assert rational_cbrt(F(27, 8)) == F(3, 2)
        assert rational_cbrt(F(-1, 8)) == F(-1, 2)
        assert rational_cbrt(F(2)) is None

    def test_collapsed_field_returns_fractions(self):
        field = CubicField(F(-1, 8))
        assert field.collapsed
        assert field.lam == F(-1, 2)
        assert field.element(1, 2, 4) == 1 + 2 * F(-1, 2) + 4 * F(1, 4)

    def test_generator_cubes_to_d(self):
        field = CubicField(2)
        assert not field.collapsed
        t = field.lam
        assert t * t * t == field.element(2)

    def test_inverse(self):
        field = CubicField(2)
        x = field.element(1, 1, -1)
        assert x * x.inv() == field.element(1)
        assert 1 / x == x.inv()

    def test_zero_has_no_inverse(self):
        field = CubicField(5)
        with pytest.raises(ZeroDivisionError):
            field.element(0).inv()

    def test_incompatible_extensions_rejected(self):
        with pytest.raises(ValueError):
            CubicField(2).lam * CubicField(3).lam

    def test_float_embedding(self):
        field = CubicField(-4)
        t = real_cbrt(-4.0)
        x = field.element(F(1, 3), 2, F(-1, 5))
        assert float(x) == pytest.approx(1 / 3 + 2 * t - t * t / 5, rel=1e-15)


class TestPolyOverFloats:
    def test_trim_and_zero_predicate(self):
        assert Poly([1.0, 0.0, 0.0]).coeffs == (1.0,)
        assert Poly([0.0, 0.0]).is_zero()
        assert not Poly([0.0, 1e-30]).is_zero()
        assert all(type(c) is float for c in Poly([0.5, 0.0, 2.0]).coeffs)

    def test_add_sub_mul_eval(self):
        a = Poly([1.0, 2.0])
        b = Poly([3.0, 0.0, 1.0])
        assert (a + b)(2.0) == a(2.0) + b(2.0)
        assert (a - a).is_zero()
        assert (a * b)(-1.5) == pytest.approx(a(-1.5) * b(-1.5))
        for p in (a + b, a - a, a * b, a * 0.5):
            assert all(type(c) is float for c in p.coeffs)

    def test_derivative(self):
        assert Poly([5.0, 1.0, 0.0, 2.0]).derivative().coeffs == (1.0, 0.0, 6.0)
        # A constant's derivative is a float zero, not a Fraction.
        [zero] = Poly([-3.0]).derivative().coeffs
        assert type(zero) is float and repr(zero) == "0.0"

    def test_divmod_by_linear(self):
        n = Poly([2.0, -3.0, 0.5, 1.0])
        d = Poly([0.7, -1.3])
        q, rem = n.divmod(d)
        assert q.degree == 2 and rem.degree <= 0
        x = 0.31
        assert q(x) * d(x) + rem(x) == pytest.approx(n(x), rel=1e-14)

    def test_fraction_coefficients_at_a_float_give_float_horner_bits(self):
        p = Poly([F(1, 3), F(-2, 7), F(5, 11), F(9, 13)])
        x = 0.37
        acc = float(p.coeffs[-1])
        for c in reversed(p.coeffs[:-1]):
            acc = acc * x + float(c)
        assert type(p(x)) is float and p(x) == acc


class TestPolyOverCubicField:
    def test_equality_with_rationals(self):
        # Trimming compares coefficients with 0, so Q(t) zeros must say so.
        field = CubicField(2)
        assert field.element(3) == 3 and field.element(F(1, 2)) == F(1, 2)
        assert field.element(0) == 0 and F(0) == field.element(0)
        assert field.lam != 0 and field.element(1, 0, 1) != 1
        assert hash(field.element(F(1, 2))) == hash(F(1, 2))
        assert Poly([field.lam, field.element(0)]).coeffs == (field.lam,)

    def test_divmod_by_linear(self):
        field = CubicField(2)
        t = field.lam
        # (1 + t x) * (t^2 + x) + 3
        linear = Poly([field.element(1), t])
        q_true = Poly([t * t, field.element(1)])
        n = linear * q_true + Poly([field.element(3)])
        q, rem = n.divmod(linear)
        assert q == q_true
        assert rem == Poly([field.element(3)])
        assert all(isinstance(c, CbrtNum) for c in q.coeffs + rem.coeffs)
