"""Split-complex arithmetic and the first-order profile equation.

An independent oracle for the spacelike-axis family: numbers x + k*y with
k**2 = +1, in which the Lorentzian profile geometry linearizes. The
combination Y = z*z' + k*z*x' built along a unit-speed profile satisfies the
first-order equation Y' + 2kH*Y + 1 = 0, whose closed solution is
parametrized by a single non-negative constant B. The oracle below provides
the arithmetic, the closed solution, and a residual check for that equation
on sampled data; the tests run it against the package's profiles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import pytest

from cmc_elliptic.errors import (
    CmcError,
    DomainError,
    RangeError,
    UnsupportedCaseError,
)
from cmc_elliptic.profiles import CmcParams, Family, profile_point


class InsufficientDataError(CmcError):
    """Too few samples to carry out the requested computation."""


@dataclass(frozen=True)
class SplitComplex:
    """Number re + k*im with k**2 = 1."""

    re: float
    im: float

    def __add__(self, other: "SplitComplex") -> "SplitComplex":
        return SplitComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "SplitComplex") -> "SplitComplex":
        return SplitComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "SplitComplex":
        return SplitComplex(-self.re, -self.im)

    def __mul__(self, other: "SplitComplex") -> "SplitComplex":
        return split_mul(self, other)

    def scaled(self, f: float) -> "SplitComplex":
        return SplitComplex(f * self.re, f * self.im)

    def conj(self) -> "SplitComplex":
        return SplitComplex(self.re, -self.im)

    def sq_modulus(self) -> float:
        """re**2 - im**2; may be negative or zero (null cone)."""
        return self.re * self.re - self.im * self.im

    def max_abs(self) -> float:
        return max(abs(self.re), abs(self.im))


ONE = SplitComplex(1.0, 0.0)
K = SplitComplex(0.0, 1.0)


def split_mul(a: SplitComplex, b: SplitComplex) -> SplitComplex:
    """Product in R[k]: (a.re*b.re + a.im*b.im, a.re*b.im + a.im*b.re)."""
    return SplitComplex(a.re * b.re + a.im * b.im,
                        a.re * b.im + a.im * b.re)


def split_exp(theta: float) -> SplitComplex:
    """Exponential e^(k*theta) = cosh(theta) + k*sinh(theta).

    The result always has squared modulus 1.
    """
    try:
        return SplitComplex(math.cosh(theta), math.sinh(theta))
    except OverflowError as exc:
        raise RangeError(f"split_exp overflow at theta={theta!r}") from exc


def closed_form_Y(H: float, B: float, s: float) -> SplitComplex:
    """Closed solution (B*e^(-2kHs) - 1) * k / (2H) of Y' + 2kH*Y + 1 = 0.

    Division by 2kH is realized as multiplication by k/(2H), using k**(-1)=k.
    For the spacelike-axis profile family this equals z*z' + k*z*x' exactly.
    """
    if H <= 0:
        raise DomainError(f"H must be positive, got {H!r}")
    if B < 0:
        raise DomainError(f"B must be non-negative, got {B!r}")
    e = split_exp(-2.0 * H * s)
    inner = SplitComplex(B * e.re - 1.0, B * e.im)
    return split_mul(inner, K).scaled(1.0 / (2.0 * H))


@dataclass(frozen=True)
class ProfileOdeSample:
    """One sampled value of Y (and its numeric derivative) along a profile."""

    s: float
    Y: SplitComplex
    dY: SplitComplex


def ode_residual(samples: Sequence[ProfileOdeSample], H: float) -> float:
    """Max componentwise residual of dY + 2kH*Y + 1 over the samples.

    H may be 0, in which case the checked equation degenerates to dY + 1 = 0.
    """
    if len(samples) < 3:
        raise InsufficientDataError(
            f"need at least 3 samples, got {len(samples)}")
    worst = 0.0
    for smp in samples:
        r = smp.dY + split_mul(K, smp.Y).scaled(2.0 * H) + ONE
        worst = max(worst, r.max_abs())
    return worst


def _stencil_derivative(f, s: float, h: float) -> SplitComplex:
    """Fourth-order five-point first derivative of a SplitComplex-valued f."""
    fp2, fp1 = f(s + 2 * h), f(s + h)
    fm1, fm2 = f(s - h), f(s - 2 * h)
    return SplitComplex(
        (-fp2.re + 8 * fp1.re - 8 * fm1.re + fm2.re) / (12 * h),
        (-fp2.im + 8 * fp1.im - 8 * fm1.im + fm2.im) / (12 * h),
    )


def samples_from_closed_form(H: float, B: float, s_values: Sequence[float],
                             h: float = 1e-3) -> list[ProfileOdeSample]:
    """Samples of the closed solution with five-point numeric derivatives.

    The wide stencil keeps the derivative truncation+roundoff error near
    1e-13 so residual checks at the 1e-12 level are meaningful.
    """
    out = []
    for s in s_values:
        out.append(ProfileOdeSample(
            s=s,
            Y=closed_form_Y(H, B, s),
            dY=_stencil_derivative(lambda t: closed_form_Y(H, B, t), s, h),
        ))
    return out


def samples_from_profile(params, s_values: Sequence[float],
                         h: float = 1e-3) -> list[ProfileOdeSample]:
    """Builds Y = z*z' + k*z*x' from actual profile samples.

    Only the spacelike-axis family carries this exact combination (there z is
    the radius coordinate); other families are rejected. All inputs must keep
    the five-point stencil inside the open domain.
    """
    if params.family is not Family.LORENTZ_SPACELIKE_AXIS:
        raise UnsupportedCaseError(
            "Y = z z' + k z x' is the spacelike-axis combination; "
            f"got family {params.family}")

    def y_of(s: float) -> SplitComplex:
        cs = profile_point(params, s)
        if cs.second <= 0:
            raise DomainError("profile sample has non-positive radius")
        return SplitComplex(cs.second * cs.dsecond, cs.second * cs.dx)

    out = []
    for s in s_values:
        out.append(ProfileOdeSample(
            s=s, Y=y_of(s), dY=_stencil_derivative(y_of, s, h)))
    return out


# ---------------------------------------------------------------------------
# Tests


def close(a: SplitComplex, b: SplitComplex, tol: float = 1e-12) -> bool:
    return abs(a.re - b.re) <= tol and abs(a.im - b.im) <= tol


class TestSplitMul:
    def test_unit_squares_to_one(self):
        assert split_mul(K, K) == ONE

    def test_one_is_identity(self):
        x = SplitComplex(0.7, -2.5)
        assert split_mul(ONE, x) == x

    def test_zero_divisors_on_null_cone(self):
        z = split_mul(SplitComplex(1, 1), SplitComplex(1, -1))
        assert z == SplitComplex(0.0, 0.0)

    def test_commutative_associative(self):
        rng = random.Random(42)
        for _ in range(25):
            a, b, c = (SplitComplex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(3))
            assert close(a * b, b * a, 0.0)
            assert close((a * b) * c, a * (b * c), 1e-13)

    def test_sq_modulus_multiplicative(self):
        a = SplitComplex(1.2, 0.4)
        b = SplitComplex(-0.3, 2.0)
        assert (a * b).sq_modulus() == pytest.approx(
            a.sq_modulus() * b.sq_modulus(), rel=1e-13)


class TestSplitExp:
    def test_theta_zero(self):
        assert split_exp(0.0) == ONE

    def test_components_are_hyperbolic(self):
        e = split_exp(0.8)
        assert e.re == math.cosh(0.8)
        assert e.im == math.sinh(0.8)

    def test_negation_conjugates(self):
        assert split_exp(-1.3) == split_exp(1.3).conj()

    def test_addition_law(self):
        lhs = split_exp(0.3) * split_exp(0.5)
        rhs = split_exp(0.8)
        assert close(lhs, rhs, 1e-12 * math.cosh(0.8))

    def test_unit_modulus(self):
        for theta in (-3.0, -0.1, 0.0, 2.7):
            assert split_exp(theta).sq_modulus() == pytest.approx(1.0, rel=1e-12)

    def test_overflow_raises(self):
        with pytest.raises(RangeError):
            split_exp(1e6)


class TestClosedFormY:
    def test_b_zero_is_constant(self):
        H = 0.8
        expected = SplitComplex(0.0, -1.0 / (2 * H))
        for s in (-1.0, 0.0, 2.5):
            assert close(closed_form_Y(H, 0.0, s), expected, 0.0)

    def test_component_formulas(self):
        H, B, s = 0.5, 2.0, 0.4
        y = closed_form_Y(H, B, s)
        ch, sh = math.cosh(2 * H * s), math.sinh(2 * H * s)
        assert y.re == pytest.approx(-B * sh / (2 * H), rel=1e-14)
        assert y.im == pytest.approx((B * ch - 1) / (2 * H), rel=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            closed_form_Y(0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            closed_form_Y(1.0, -0.5, 0.1)

    def test_satisfies_first_order_equation(self):
        samples = samples_from_closed_form(0.5, 0.5, [0.7, 0.8, 0.9])
        assert ode_residual(samples, 0.5) <= 1e-12

    def test_matches_profile_combination(self):
        # z z' + k z x' along the spacelike-axis profile; (H, B, s) = (0.5, 2, 0.4).
        H, B, s = 0.5, 2.0, 0.4
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, H, B)
        [sample] = samples_from_profile(params, [s])
        assert close(sample.Y, closed_form_Y(H, B, s), 1e-8)

    def test_profile_combination_rejects_other_families(self):
        params = CmcParams(Family.EUCLIDEAN, 0.5, 2.0)
        with pytest.raises(UnsupportedCaseError):
            samples_from_profile(params, [0.4])


class TestOdeResidual:
    def test_needs_three_samples(self):
        samples = samples_from_closed_form(1.0, 0.5, [0.1, 0.2])
        with pytest.raises(InsufficientDataError):
            ode_residual(samples, 1.0)

    def test_perturbation_detected(self):
        H = 1.0
        samples = samples_from_closed_form(H, 0.5, [0.1, 0.2, 0.3])
        bad = list(samples)
        bad[1] = ProfileOdeSample(
            s=bad[1].s, Y=bad[1].Y + SplitComplex(0.1, 0.0), dY=bad[1].dY)
        # The 0.1 bump enters the residual as 2kH*0.1; subtract the stencil
        # noise floor of the unperturbed samples (~1e-12).
        assert ode_residual(bad, H) >= 0.1 * 2 * H - 1e-9

    def test_h_zero_degenerate_equation(self):
        # At H=0 the equation is dY + 1 = 0; feed exact linear data.
        samples = [ProfileOdeSample(s, SplitComplex(-s, 3.0), SplitComplex(-1.0, 0.0))
                   for s in (0.0, 0.5, 1.0)]
        assert ode_residual(samples, 0.0) == 0.0

    def test_closed_form_on_parameter_grid(self):
        for H in (0.1, 0.575, 1.05, 1.525, 2.0):
            for B in (0.0, 0.75, 1.5, 2.25, 3.0):
                s_values = [-0.4 + 0.2 * i for i in range(5)]
                samples = samples_from_closed_form(H, B, s_values)
                assert ode_residual(samples, H) < 1e-9
