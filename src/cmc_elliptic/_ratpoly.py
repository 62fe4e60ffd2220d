"""Dense univariate polynomials, Sturm root isolation and the real cube root.

``Poly`` is exact over integer or ``Fraction`` input (the derivative chain
over Q, bisection+Newton refinement of a sign change). The Sturm functions
(counting and isolating roots on (0, inf)) are on no production path: they
are the tests' oracle for the screening roots, and traced layers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence


# ---------------------------------------------------------------------------
# Dense polynomials


class Poly:
    """Dense polynomial in ascending order, over whatever scalars it is given.

    Int coefficients become ``Fraction`` so integer input stays exact (the
    Sturm machinery relies on it); floats and Fractions are kept as given
    and combine through their own operators.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs) if cs else (Fraction(0),)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as degree -1."""
        if self.is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def leading(self):
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    # -- arithmetic ---------------------------------------------------------
    # Zeros are made as c - c so they keep the scalar type of c. A scalar
    # operand of + or - acts as a constant polynomial.

    def __add__(self, other) -> "Poly":
        b = other.coeffs if isinstance(other, Poly) else (other,)
        pairs = zip_longest(self.coeffs, b, fillvalue=0)
        return _poly([x + y for x, y in pairs])

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        b = other.coeffs if isinstance(other, Poly) else (other,)
        pairs = zip_longest(self.coeffs, b, fillvalue=0)
        return _poly([x - y for x, y in pairs])

    def __rsub__(self, other) -> "Poly":
        pairs = zip_longest((other,), self.coeffs, fillvalue=0)
        return _poly([x - y for x, y in pairs])

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.coeffs])

    def __mul__(self, other):
        a = self.coeffs
        if not isinstance(other, Poly):
            return _poly([c * other for c in a])
        b = other.coeffs
        out = [a[-1] - a[-1]] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b, i):
                out[j] += x * y
        return _poly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Horner evaluation in the arithmetic of the coefficients and x."""
        cs = reversed(self.coeffs)
        acc = next(cs)
        for c in cs:
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        cs = self.coeffs
        if len(cs) == 1:
            return _poly([cs[0] - cs[0]])
        return _poly([i * c for i, c in enumerate(cs[1:], 1)])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Synthetic division with remainder; exact over exact scalars."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        a, b = self.coeffs, other.coeffs
        d = len(b) - 1
        if len(a) <= d:
            return _poly([a[-1] - a[-1]]), self
        low, lead = b[:-1], b[-1]
        rem = list(a)
        q = [None] * (len(a) - d)
        for k in range(len(q) - 1, -1, -1):
            f = q[k] = rem[k + d] / lead
            for i, c in enumerate(low, k):
                rem[i] -= f * c
        return _poly(q), _poly(rem[:d] or [a[-1] - a[-1]])

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


def _poly(cs: list) -> Poly:
    """Poly from arithmetic results: trimmed, without the int coercion."""
    while cs[-1] == 0 and len(cs) > 1:
        cs.pop()
    p = object.__new__(Poly)
    p.coeffs = tuple(cs)
    return p


# ---------------------------------------------------------------------------
# Sturm machinery


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of the distinct roots of p, from one remainder pass.

    The negated remainders of p and p' end in a scalar multiple g of
    gcd(p, p'). When g has positive degree every member is divided by it
    exactly, which gives a Sturm sequence of the squarefree part of p
    (Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 2).
    """
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        chain.append(-r)
    if chain[-1].is_zero():
        chain.pop()
    g = chain[-1]
    if g.degree > 0:
        chain = [q.divmod(g)[0] for q in chain]
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
    chain = sturm_chain(p)
    # Roots beyond the Cauchy bound cannot exist, so (0, bound] covers (0, inf).
    bound = cauchy_root_bound(chain[0])
    # Each bracket carries the sign-variation counts at its ends, so a split
    # evaluates the chain at its midpoint only.
    stack = [(Fraction(0), bound, sign_variations_at(chain, Fraction(0)),
              sign_variations_at(chain, bound))]
    out: list[tuple[Fraction, Fraction]] = []
    while stack:
        a, b, va, vb = stack.pop()
        cnt = va - vb
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        vm = sign_variations_at(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort()
    return out


_REFINE_WIDTH = 1e-12


def refine_root(p: Poly, lo: Fraction, hi: Fraction) -> float:
    """Root of p in a bracket across which p changes sign.

    Exact bisection to width _REFINE_WIDTH, then two float Newton steps.
    The bisection runs over the integers: lo and hi are kept as integers
    over one denominator d*2^j, and the sign of p at x/e is that of
    e^n p(x/e), a Horner pass over the primitive integer coefficients.
    """
    cs = [int(c) for c in reversed(p.primitive().coeffs)]

    def sign_at(x: int, e: int) -> int:
        acc, power = cs[0], 1
        for c in cs[1:]:
            power *= e
            acc = acc * x + c * power
        return _sign(acc)

    e = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (e // lo.denominator)
    b = hi.numerator * (e // hi.denominator)
    slo = sign_at(a, e)
    if slo == 0:
        return float(lo)
    shi = sign_at(b, e)
    if shi == 0:
        return float(hi)
    if slo == shi:
        raise ValueError("bracket endpoints do not straddle a sign change")
    while (b - a) / e > _REFINE_WIDTH:
        mid = a + b
        a, b, e = 2 * a, 2 * b, 2 * e
        sm = sign_at(mid, e)
        if sm == 0:
            return mid / e
        if sm == slo:
            a = mid
        else:
            b = mid
    x = (a + b) / (2 * e)
    dp = p.derivative()
    for _ in range(2):
        d = dp(x)
        if d == 0:
            break
        x -= p(x) / d
    return x


# ---------------------------------------------------------------------------
# Real cube root


def real_cbrt(x: float) -> float:
    """Real cube root, valid for negative arguments."""
    return math.copysign(abs(x) ** (1.0 / 3.0), x)
