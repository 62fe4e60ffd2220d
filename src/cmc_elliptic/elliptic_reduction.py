"""Reduction of profile integrals to short-Weierstrass elliptic curves.

Each family's radicand, written in the variable u (a hyperbolic sine or
cosine, or a sine, of 2Hs), combines with the substitution Jacobian into a
cubic in u.  Shifting u by a constant kills the quadratic term, giving
l + m*w + n*w**3; rescaling w by lambda = (4/n)**(1/3) (real cube root)
produces the short form v**2 = 4W**3 - g2*W - g3 with

    g2 = -m*lambda,  g3 = -l,  disc = g2**3 - 27*g3**2 = -4m**3/n - 27l**2.

``discriminant_poly`` is the degree-12 screening polynomial, the ``Poly``
N with -4m**3/n + 27l**2 = g2**3 + 27g3**2 = N/(54*B**4), whose positive
roots are the "singular" B used for gating. There Klein's J = g2**3/disc
is 1/2, and disc ((B**2 - 1)**4/B**2, or -(B**2 + 1)**4/B**2 on the
timelike axis) is not 0.
In every family J depends on B only through y = +-(B**2 + B**-2), with the
minus sign on the timelike axis:

    J(y) = 1/2 + g(y) / (108*(y - 2)**2),  g(y) = y**3 - 12y**2 + 804y + 2528.

g increases, and B**2 + B**-2 >= 2, so the Euclidean and spacelike families
(g(2) = 4096) have no screening root and the timelike one (-g(-2) = -864)
one reciprocal pair B, 1/B: the whole content of acceptance criteria 1-4.
The roots come from g in closed form; the Sturm isolation in ``_ratpoly``
of the degree-12 polynomial is the tests' independent oracle for them.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

from ._ratpoly import Poly, real_cbrt, refine_root
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


@functools.cache
def discriminant_poly(family: Family) -> Poly:
    """Degree-12 screening numerator N: -4m^3/n + 27l^2 = N/(54*B^4).

    From the family cubic over Q[B], the depressed-cubic invariants
    3n*m = 3a1*a3 - a2^2 and 27n^2*l = 27a0*a3^2 - 9a1*a2*a3 + 2a2^3 (n = a3)
    turn the expression into ((27n^2*l)^2 - 4(3n*m)^3) / (27n^4), and
    n = +-2B makes the denominator 27*16*B^4; the numerator's content 8
    leaves 54*B^4 under the primitive part. Built once per family.
    """
    a0, a1, a2, a3 = _cubic_coeffs(family, Poly([0, 1]))
    M = 3 * a1 * a3 - a2 * a2
    L = 27 * a0 * a3 * a3 - 9 * a1 * a2 * a3 + 2 * a2 * a2 * a2
    return (L * L - M * M * M * 4).primitive()


_J_CUBIC = (2528, 804, -12, 1)  # g(y), ascending


def _y_cubic(family: Family) -> Poly:
    """J - 1/2 = h(y)/(108(y - 2)^2), y = B^2 + B^-2: h = g, or -g(-y) timelike.

    B^6 h(B^2 + B^-2) is the screening numerator.
    """
    sign = -1 if family is Family.LORENTZ_TIMELIKE_AXIS else 1
    return Poly([sign ** (j + 1) * c for j, c in enumerate(_J_CUBIC)])


@functools.cache
def _screening_roots(family: Family) -> tuple[tuple[float, ...], float]:
    """Sorted screening roots and the seconds their computation took."""
    t0 = perf_counter()
    h, roots = _y_cubic(family), ()
    # h increases and y >= 2, so a root needs h(2) < 0; h(4) > 0 always.
    if h(Fraction(2)) < 0:
        y = refine_root(h, Fraction(2), Fraction(4))
        # B^2 = (y -+ d)/2, d = sqrt(y^2 - 4); the low one as 2/(y + d),
        # since y - d cancels.
        d = math.sqrt(y * y - 4)
        roots = (math.sqrt(2 / (y + d)), math.sqrt((y + d) / 2))
    return roots, perf_counter() - t0


def singular_B(family: Family) -> list[float]:
    """All positive screening roots (where J = 1/2), sorted, in a fresh list.

    Once per family, the real root y of the cubic in B^2 + B^-2 is bisected
    exactly, then Newton-polished; the pair B, 1/B follows in closed form.
    """
    return list(_screening_roots(family)[0])


def isolation_seconds(family: Family) -> float:
    """Wall time of the family's one-time screening-root computation."""
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
