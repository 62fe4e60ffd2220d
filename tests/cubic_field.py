"""Exact arithmetic in Q(cbrt d): the oracle for the derivative chain.

The package runs its exact chain over the integers in X = lambda*P, with a
rational scale per order, and grades the result by powers of
lambda = cbrt(4/n). ``field_chain`` runs the same derivative chain directly
in P over Q(lambda) with ``CubicField`` scalars, by plain field arithmetic
and exact division, so the two can be compared element for element
(``test_wp_chain.TestExactChain``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cmc_elliptic._ratpoly import Poly, real_cbrt


def _icbrt(n: int) -> int:
    """Floor integer cube root of n >= 0."""
    if n < 0:
        raise ValueError("negative argument")
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    return x


def rational_cbrt(d: Fraction) -> Fraction | None:
    """Exact cube root of d when d is a perfect rational cube, else None."""
    d = Fraction(d)
    sign = -1 if d < 0 else 1
    num, den = abs(d.numerator), d.denominator
    rn, rd = _icbrt(num), _icbrt(den)
    if rn ** 3 == num and rd ** 3 == den:
        return Fraction(sign * rn, rd)
    return None


@dataclass(frozen=True, eq=False)
class CbrtNum:
    """Element a + b*t + c*t**2 of Q(t) with t**3 = d (d a rational non-cube)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def _coerce(self, other):
        if isinstance(other, CbrtNum):
            if other.d != self.d:
                raise ValueError("mixing incompatible cubic extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return CbrtNum(Fraction(other), Fraction(0), Fraction(0), self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CbrtNum(self.a + o.a, self.b + o.b, self.c + o.c, self.d)

    __radd__ = __add__

    def __neg__(self):
        return CbrtNum(-self.a, -self.b, -self.c, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, c1, d = self.a, self.b, self.c, self.d
        a2, b2, c2 = o.a, o.b, o.c
        return CbrtNum(
            a1 * a2 + d * (b1 * c2 + c1 * b2),
            a1 * b2 + b1 * a2 + d * c1 * c2,
            a1 * c2 + b1 * b2 + c1 * a2,
            d,
        )

    __rmul__ = __mul__

    def inv(self) -> "CbrtNum":
        a, b, c, d = self.a, self.b, self.c, self.d
        norm = a ** 3 + d * b ** 3 + d * d * c ** 3 - 3 * d * a * b * c
        if norm == 0:
            raise ZeroDivisionError("zero (or non-invertible) cubic field element")
        return CbrtNum((a * a - d * b * c) / norm,
                       (d * c * c - a * b) / norm,
                       (b * b - a * c) / norm, d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.a == other and self.b == 0 and self.c == 0
        if isinstance(other, CbrtNum):
            return (self.a, self.b, self.c, self.d) == \
                (other.a, other.b, other.c, other.d)
        return NotImplemented

    def __hash__(self):
        if self.b == 0 and self.c == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    def __float__(self) -> float:
        t = real_cbrt(float(self.d))
        return float(self.a) + float(self.b) * t + float(self.c) * t * t


class CubicField:
    """Factory for exact scalars in Q(cbrt(d)).

    When d is a perfect rational cube the extension collapses and elements
    are plain Fractions (keeps real-number equality decidable); otherwise
    elements are :class:`CbrtNum` triples and the ring is a genuine field.
    """

    def __init__(self, d):
        self.d = Fraction(d)
        if self.d == 0:
            raise ValueError("d must be nonzero")
        self.root = rational_cbrt(self.d)

    @property
    def collapsed(self) -> bool:
        return self.root is not None

    def element(self, a=0, b=0, c=0):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if self.collapsed:
            r = self.root
            return a + b * r + c * r * r
        return CbrtNum(a, b, c, self.d)

    @property
    def lam(self):
        """The generator t = cbrt(d) itself."""
        return self.element(0, 1, 0)


def field_chain(alpha, beta, cubic, seed, upto_k: int):
    """Numerators of d^k r/dx3^k for k = 1..upto_k over the given scalars.

    Starts from r' = seed*P'/(alpha + beta*P) with (P')^2 = cubic(P) and
    P'' = cubic'(P)/2; returns a list of (k, numerator Poly, den_power,
    has_wp_prime). A numerator that (alpha + beta*P) divides exactly is
    divided, lowering den_power, as long as the remainder is zero.
    """
    P = Poly(cubic)
    S = P.derivative() * Fraction(1, 2)
    D = Poly([alpha, beta])
    N = Poly([seed])
    j = 1
    has_prime = True
    out = []
    for k in range(1, upto_k + 1):
        out.append((k, N, j, has_prime))
        if k == upto_k:
            break
        dN = N.derivative()
        if has_prime:
            N = (dN * P + N * S) * D - N * P * (beta * j)
        else:
            N = dN * D - N * (beta * j)
        has_prime = not has_prime
        j += 2
        if N.is_zero():
            j = 0
            continue
        while j > 1 and N.degree >= 1:
            q, rem = N.divmod(D)
            if not rem.is_zero():
                break
            N, j = q, j - 1
    return out
