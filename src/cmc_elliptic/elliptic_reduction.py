"""Reduction of profile integrals to short-Weierstrass elliptic curves.

Each family's radicand, written in the variable u (a hyperbolic sine or
cosine, or a sine, of 2Hs), combines with the substitution Jacobian into a
cubic in u.  Shifting u by a constant kills the quadratic term, giving
l + m*w + n*w**3; rescaling w by lambda = (4/n)**(1/3) (real cube root)
produces the short form v**2 = 4W**3 - g2*W - g3 with

    g2 = -m*lambda,  g3 = -l,  disc = g2**3 - 27*g3**2 = -4m**3/n - 27l**2.

Two discriminant-like polynomials in B are exposed:

* ``discriminant_poly``: the degree-12 screening polynomial, the numerator
  of -4m**3/n + 27l**2 over a monomial denominator.  Its positive real
  roots are the classifying "singular" B values used for gating; for the
  timelike-axis family they are approximately 0.620969 and 1.610387.
* ``exact_discriminant_poly``: the numerator/denominator of the true
  discriminant -4m**3/n - 27l**2, which matches ReductionData.disc.

The two differ by the sign of the 27l**2 term; the screening variant is the
one whose roots reproduce the reference classification values, and the true
variant is the one ruling existence of the Weierstrass function. The
screening value is g2**3 + 27*g3**2, so its roots are the B where Klein's
J = g2**3/disc equals 1/2, and disc does not vanish there.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

from ._ratpoly import Poly, isolate_positive_roots, real_cbrt, refine_root
from .errors import DomainError, RangeError
from .profiles import Family


class ReductionData(NamedTuple):
    """Shift, depressed-cubic coefficients, scale and invariants for one B."""

    family: Family
    B: float
    c_shift: float
    l: float
    m: float
    n: float
    lam: float
    g2: float
    g3: float
    disc: float


def _cubic_coeffs(family: Family, B):
    """Ascending coefficients [a0, a1, a2, a3] of the family's u-cubic.

    The cubic is radicand times substitution Jacobian:
    timelike axis  (u = sinh 2Hs): (B^2+2Bu-1)(u^2+1)
    spacelike axis (u = cosh 2Hs): (1+B^2-2Bu)(u^2-1)
    Euclidean      (u = sin 2Hs):  (1+B^2+2Bu)(1-u^2)
    """
    if family is Family.LORENTZ_TIMELIKE_AXIS:
        return [B * B - 1, 2 * B, B * B - 1, 2 * B]
    if family is Family.LORENTZ_SPACELIKE_AXIS:
        return [-(1 + B * B), 2 * B, 1 + B * B, -2 * B]
    return [1 + B * B, 2 * B, -(1 + B * B), -2 * B]


def _shift_and_depress(family: Family, B):
    """Shift constant and depressed coefficients (c, l, m, n) over B's ring."""
    a0, a1, a2, a3 = _cubic_coeffs(family, B)
    c = a2 / (3 * a3)
    # Substituting u = w - c kills the quadratic term by the choice of c.
    m = 3 * a3 * c * c - 2 * a2 * c + a1
    l = -a3 * c ** 3 + a2 * c * c - a1 * c + a0
    return c, l, m, a3


def reduce(family: Family, B: float) -> ReductionData:
    """Reduction data at one parameter value (float arithmetic)."""
    if not (B > 0 and math.isfinite(B)):
        raise DomainError(
            "B must be positive and finite (the shift constant has B in its "
            f"denominator), got {B!r}")
    try:
        c, l, m, n = _shift_and_depress(family, float(B))
        lam = real_cbrt(4.0 / n)
        g2 = -m * lam
        g3 = -l
        disc = g2 ** 3 - 27.0 * g3 ** 2
        finite = all(map(math.isfinite, (c, l, m, lam, g2, g3, disc)))
    except OverflowError:
        finite = False
    if not finite:
        raise RangeError(f"reduction data at B={B!r} overflow the float range")
    return ReductionData(family=family, B=float(B), c_shift=c, l=l, m=m, n=n,
                         lam=lam, g2=g2, g3=g3, disc=disc)


class DiscPoly(NamedTuple):
    """Exact rational function of B: numerator / (den_coeff * B**den_power)."""

    family: Family
    numerator: Poly
    den_coeff: Fraction
    den_power: int

    def evaluate(self, B):
        """Exact for Fraction input, float for float input."""
        if isinstance(B, Fraction):
            return self.numerator(B) / (self.den_coeff * B ** self.den_power)
        return float(self.numerator(float(B))) / (float(self.den_coeff) * float(B) ** self.den_power)


@functools.cache
def _assemble(family: Family, disc_sign: int) -> DiscPoly:
    """Numerator/denominator of -4m^3/n + disc_sign*27l^2 (exact).

    From the family cubic over Q[B], the depressed-cubic invariants
    3n*m = 3a1*a3 - a2^2 and 27n^2*l = 27a0*a3^2 - 9a1*a2*a3 + 2a2^3 (n = a3)
    turn the expression into (disc_sign*(27n^2*l)^2 - 4(3n*m)^3) / (27n^4),
    and n = +-2B makes the denominator 27*16*B^4. Built once per family and
    sign; the frozen result is shared by every caller.
    """
    a0, a1, a2, a3 = _cubic_coeffs(family, Poly([0, 1]))
    M = 3 * a1 * a3 - a2 * a2
    L = 27 * a0 * a3 * a3 - 9 * a1 * a2 * a3 + 2 * a2 * a2 * a2
    raw = L * L * disc_sign - M * M * M * 4
    prim = raw.primitive()
    scale = raw.leading() / prim.leading()
    return DiscPoly(family=family, numerator=prim,
                    den_coeff=27 * a3.leading() ** 4 / scale, den_power=4)


def discriminant_poly(family: Family) -> DiscPoly:
    """Degree-12 screening polynomial: -4m^3/n + 27l^2 cleared of denominators."""
    return _assemble(family, +1)


def exact_discriminant_poly(family: Family) -> DiscPoly:
    """True discriminant -4m^3/n - 27l^2 as an exact rational function of B."""
    return _assemble(family, -1)


@functools.cache
def _screening_roots(family: Family) -> tuple[tuple[float, ...], float]:
    """Sorted screening roots and the seconds their isolation took."""
    t0 = perf_counter()
    num = discriminant_poly(family).numerator
    # num is squarefree in every family, so it changes sign across each
    # bracket; the brackets come sorted and disjoint, and so do the roots.
    roots = tuple(refine_root(num, *b) for b in isolate_positive_roots(num))
    return roots, perf_counter() - t0


def singular_B(family: Family) -> list[float]:
    """All positive real roots of the screening polynomial, sorted.

    Roots are isolated by Sturm-count bisection, then bisected exactly to
    brackets of width 1e-12 and polished by two float Newton steps, once per
    family; each call returns a fresh list.
    """
    return list(_screening_roots(family)[0])


def isolation_seconds(family: Family) -> float:
    """Wall time of the family's one-time screening-root isolation."""
    return _screening_roots(family)[1]


def is_singular_value(family: Family, B: float) -> bool:
    """Whether B lies within 1e-5 (relative) of a screening root."""
    return any(abs(B - r) <= 1e-5 * max(1.0, r)
               for r in _screening_roots(family)[0])


def reduction_report(data: ReductionData) -> dict:
    """JSON-shaped report of one reduction."""
    return {
        "family": data.family.value,
        "B": data.B,
        "c": data.c_shift,
        "l": data.l,
        "m": data.m,
        "n": data.n,
        "lambda": data.lam,
        "g2": data.g2,
        "g3": data.g3,
        "disc": data.disc,
        "singular": is_singular_value(data.family, data.B),
    }
