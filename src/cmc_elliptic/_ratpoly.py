"""Exact univariate polynomial arithmetic over the rationals.

Provides the pieces the reduction and derivative-chain modules need and no
more: dense polynomials with ``Fraction`` coefficients, Sturm-sequence real
root counting and isolation on (0, inf), bisection+Newton root refinement,
and exact arithmetic in the cubic radical extension Q(t) with t**3 rational
(an independent oracle for the derivative chain, which itself runs over Q).

Also hosts small generic coefficient-list helpers that work over any scalar
ring (floats, Fractions or Q(t) elements) through a thin :class:`Ring`
adapter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence


# ---------------------------------------------------------------------------
# Fraction polynomials


class Poly:
    """Dense polynomial with exact rational coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as degree -1."""
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation; exact for Fraction x, float for float x."""
        acc = self.coeffs[-1] if isinstance(x, Fraction) else float(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + (c if isinstance(x, Fraction) else float(c))
        return acc

    def derivative(self) -> "Poly":
        if len(self.coeffs) == 1:
            return Poly([0])
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q = [Fraction(0)] * max(1, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while len(rem) > 1 and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            rem.pop()
        return Poly(q), Poly(rem)

    # -- normal forms --------------------------------------------------------

    def primitive(self) -> "Poly":
        """Integer-primitive scalar multiple (content divided out).

        The sign of the leading coefficient is preserved.
        """
        if self.is_zero():
            return Poly([0])
        den_lcm = 1
        for c in self.coeffs:
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        ints = [int(c * den_lcm) for c in self.coeffs]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        return Poly([Fraction(v, g) for v in ints])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm (exact)."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r.monic() if not r.is_zero() else r
    return a.monic()


# ---------------------------------------------------------------------------
# Sturm machinery


def squarefree_part(p: Poly) -> Poly:
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    q, r = p.divmod(g)
    if not r.is_zero():
        raise ArithmeticError("gcd division left a remainder")
    return q


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of the squarefree part of p."""
    p = squarefree_part(p)
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        chain.append(-r)
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _variations(signs: list[int]) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(seq, seq[1:]) if x * y < 0)


def sign_variations_at(chain: list[Poly], x: Fraction) -> int:
    return _variations([_sign(q(x)) for q in chain])


def sign_variations_at_inf(chain: list[Poly]) -> int:
    return _variations([_sign(q.leading()) for q in chain])


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def cauchy_root_bound(p: Poly) -> Fraction:
    """Upper bound on the absolute value of every real root."""
    lead = abs(p.leading())
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree > 0 else Fraction(0)
    return 1 + m / lead


def count_roots_in(p: Poly, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    chain = sturm_chain(p)
    return sign_variations_at(chain, a) - sign_variations_at(chain, b)


def count_positive_roots(p: Poly) -> int:
    """Number of distinct real roots in (0, inf)."""
    chain = sturm_chain(p)
    return sign_variations_at(chain, Fraction(0)) - sign_variations_at_inf(chain)


def isolate_positive_roots(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint brackets (a, b], each containing exactly one positive root.

    Requires p(0) != 0 (strip powers of the variable first if needed).
    """
    if p(Fraction(0)) == 0:
        raise ValueError("polynomial vanishes at 0; divide out the monomial factor")
    sf = squarefree_part(p)
    chain = sturm_chain(sf)

    def var(x: Fraction | None) -> int:
        if x is None:
            return sign_variations_at_inf(chain)
        return sign_variations_at(chain, x)

    out: list[tuple[Fraction, Fraction]] = []
    bound = cauchy_root_bound(sf)
    stack = [(Fraction(0), bound, var(Fraction(0)) - var(bound))]
    # Roots beyond the Cauchy bound cannot exist, so (0, bound] covers (0, inf).
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        va, vm, vb = var(a), var(mid), var(b)
        stack.append((a, mid, va - vm))
        stack.append((mid, b, vm - vb))
    out.sort()
    return out


def refine_root(p: Poly, lo: Fraction, hi: Fraction, tol: float = 1e-12) -> float:
    """Refine a simple-root bracket by exact bisection, then Newton polish."""
    sf = squarefree_part(p)
    flo = sf(lo)
    if flo == 0:
        return float(lo)
    fhi = sf(hi)
    if fhi == 0:
        return float(hi)
    if _sign(flo) == _sign(fhi):
        raise ValueError("bracket endpoints do not straddle a sign change")
    while float(hi - lo) > tol:
        mid = (lo + hi) / 2
        fm = sf(mid)
        if fm == 0:
            return float(mid)
        if _sign(fm) == _sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    x = float((lo + hi) / 2)
    dp = sf.derivative()
    for _ in range(2):
        d = dp(x)
        if d == 0:
            break
        x -= sf(x) / d
    return x


# ---------------------------------------------------------------------------
# Cubic radical field Q(cbrt(d))


def real_cbrt(x: float) -> float:
    """Real cube root, valid for negative arguments."""
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


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


@dataclass(frozen=True)
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

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

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

    @staticmethod
    def is_zero(x) -> bool:
        if isinstance(x, CbrtNum):
            return x.is_zero()
        return x == 0


# ---------------------------------------------------------------------------
# Generic coefficient-list helpers (shared by float and exact chain modes)


class Ring:
    """Scalar adapter: zero/one construction plus division and predicates.

    Arithmetic itself goes through the scalars' own operators so the same
    polynomial code runs on floats, Fractions and CbrtNum values.
    """

    def __init__(self, zero, one, div: Callable, is_zero: Callable):
        self.zero = zero
        self.one = one
        self.div = div
        self.is_zero = is_zero


FLOAT_RING = Ring(0.0, 1.0, lambda x, y: x / y, lambda x: x == 0.0)
RATIONAL_RING = Ring(Fraction(0), Fraction(1), lambda x, y: x / y,
                     lambda x: x == 0)


def exact_ring(field: CubicField) -> Ring:
    def div(x, y):
        if isinstance(y, CbrtNum):
            return (x if isinstance(x, CbrtNum) else field.element(x)) * y.inv()
        return x / y

    return Ring(field.element(0), field.element(1), div, field.is_zero)


def pl_trim(cs: list, ring: Ring) -> list:
    cs = list(cs)
    while len(cs) > 1 and ring.is_zero(cs[-1]):
        cs.pop()
    return cs or [ring.zero]


def pl_is_zero(cs: list, ring: Ring) -> bool:
    return all(ring.is_zero(c) for c in cs)


def pl_degree(cs: list, ring: Ring) -> int:
    cs = pl_trim(cs, ring)
    if pl_is_zero(cs, ring):
        return -1
    return len(cs) - 1


def pl_add(a: list, b: list, ring: Ring) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else ring.zero) + (b[i] if i < len(b) else ring.zero)
            for i in range(n)]


def pl_sub(a: list, b: list, ring: Ring) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else ring.zero) - (b[i] if i < len(b) else ring.zero)
            for i in range(n)]


def pl_mul(a: list, b: list, ring: Ring) -> list:
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if ring.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def pl_scale(a: list, s, ring: Ring) -> list:
    return [c * s for c in a]


def pl_deriv(a: list, ring: Ring) -> list:
    if len(a) == 1:
        return [ring.zero]
    return [c * i for i, c in enumerate(a[1:], start=1)]


def pl_eval(a: list, x, ring: Ring):
    acc = a[-1]
    for c in reversed(a[:-1]):
        acc = acc * x + c
    return acc


def pl_divmod_linear(a: list, c0, c1, ring: Ring) -> tuple[list, object]:
    """Divide by the linear polynomial c1*X + c0 (c1 invertible).

    Returns (quotient coefficients, remainder scalar).
    """
    a = pl_trim(a, ring)
    if pl_is_zero(a, ring):
        return [ring.zero], ring.zero
    q = [ring.zero] * max(1, len(a) - 1)
    rem = a[-1]
    for i in range(len(a) - 2, -1, -1):
        q[i] = ring.div(rem, c1)
        rem = a[i] - q[i] * c0
    return pl_trim(q, ring), rem
