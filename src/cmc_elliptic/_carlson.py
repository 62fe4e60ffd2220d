"""Carlson's symmetric elliptic integrals R_F and R_D by duplication.

B. C. Carlson, Numer. Algorithms 10 (1995); DLMF 19.36.i. Each step divides
the spread of the arguments by 4; each series stops once its last step is
accurate to the unit roundoff, five or six steps for comparable arguments.
The sequence depends on the arguments alone: rf_rd gives both of a triple.
"""

from __future__ import annotations

import math

from .errors import DomainError, RangeError

_RF_SPREAD = (3 * 2.0 ** -53) ** (-1 / 6)  # (3r)^(-1/6), r the unit roundoff
_RD_SPREAD = (2.0 ** -53 / 4) ** (-1 / 6)  # (r/4)^(-1/6)
# Arguments whose error scale overflows are scaled by 4^-8: every finite
# float is below 2^1024, so the scaled ones are below 2^1008, where the
# scale is finite. R_F and R_D are homogeneous of degree -1/2 and -3/2
# (DLMF 19.20), so their values scale back by 2^-8 and 2^-24.
_SHRINK = 2.0 ** -16
# Below this mean (the largest argument of a conjugate pair, whose mean can
# cancel at any scale) R_F's duplication mean can underflow to 0 and never
# stop: the arguments are scaled up by 4^j, the largest to about 1/2, and
# the value by 2^j, by the same homogeneity.
_TINY = 2.0 ** -969
# Smallest normal float. Below it the conjugate pair's first 2 Re(sqrt y)^2
# has lost its digits, or is 0 and the loop need not end: the arguments
# are scaled up by 4^j, the largest to below 2^1008, where _shrunk starts,
# and a second call still below it is a RangeError.
_NORMAL = 2.0 ** -1022


def rf(x, y, z):
    """R_F(x, y, z) = (1/2) int_0^inf dt / sqrt((t+x)(t+y)(t+z)).

    x, y, z >= 0 with at most one of them 0, or x >= 0 with y, z a
    complex-conjugate pair (the value is then real).
    """
    if isinstance(y, complex):
        return _rf_pair(x, y.real, abs(y.imag))
    a0 = a = (x + y + z) / 3
    spread = _RF_SPREAD * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    if not (min(x + y, y + z, z + x) > 0 and spread < math.inf):
        xs, ys, zs = _shrunk(x, y, z)
        if min(xs + ys, ys + zs, zs + xs) > 0:
            return rf(xs, ys, zs) * 2.0 ** -8
        raise DomainError(f"R_F({x!r}, {y!r}, {z!r}) is outside its domain")
    if a0 < _TINY and min(x, y, z) >= 0:
        j = -math.frexp(max(x, y, z))[1] // 2
        return math.ldexp(rf(*(math.ldexp(v, 2 * j) for v in (x, y, z))), j)
    fac, xm, ym, zm = 1.0, x, y, z
    try:
        while fac * spread >= a:
            sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
            lam = sx * (sy + sz) + sy * sz
            xm, ym, zm, a = (xm + lam) / 4, (ym + lam) / 4, (zm + lam) / 4, (a + lam) / 4
            fac /= 4
    except ValueError:  # the square root of a negative argument
        raise DomainError(
            f"R_F({x!r}, {y!r}, {z!r}) is outside its domain") from None
    X, Y = fac * (a0 - x) / a, fac * (a0 - y) / a
    return _rf_series(X * Y - (X + Y) ** 2, -X * Y * (X + Y), a)


def _shrunk(x: float, y: float, z: float) -> tuple[float, float, float]:
    """(x, y, z) times _SHRINK where only the error scale overflowed: all
    three finite and >= 0, the largest above 2^1008; else (0, 0, 0), which
    no domain admits."""
    if all(0 <= v < math.inf for v in (x, y, z)) and max(x, y, z) > 2.0 ** 1008:
        return x * _SHRINK, y * _SHRINK, z * _SHRINK
    return 0.0, 0.0, 0.0


def _rf_pair(x: float, p: float, q: float, named=None) -> float:
    """R_F(x, p + iq, p - iq) in real arithmetic.

    sqrt(y) sqrt(conj y) = |y| and 2 Re(sqrt y)^2 = |y| + p; for p < 0 the
    sum is formed as q * (q / (|y| - p)), so that arguments near the
    negative real axis keep their digits and q^2 does not overflow.
    Arguments whose error scale overflows are scaled by 4^-8 as in rf, and
    a RangeError then names the caller's (x, p, q), passed as named.
    """
    a0 = a = (x + 2 * p) / 3
    spread = _RF_SPREAD * max(abs(a0 - x), math.hypot(a0 - p, q))
    if not (x >= 0 and q > 0 and spread < math.inf):
        xs, ps, qs = _shrunk(x, abs(p), q)
        if qs > 0:
            return _rf_pair(xs, math.copysign(ps, p), qs,
                            (x, p, q)) * 2.0 ** -8
        raise DomainError(f"R_F({x!r}, {p!r} +/- {q!r}i) is outside its domain")
    if x < _TINY and abs(p) < _TINY and q < _TINY:
        j = -math.frexp(max(x, abs(p), q))[1] // 2
        return math.ldexp(_rf_pair(*(math.ldexp(v, 2 * j) for v in (x, p, q))),
                          j)
    r = math.hypot(p, q)
    re2 = p + r if p >= 0 else q * (q / (r - p))
    if re2 < _NORMAL:  # the first step's, before the loop forms it
        named = named or (x, p, q)
        j = (1008 - math.frexp(max(x, abs(p), q))[1]) // 2
        if j <= 0:
            raise RangeError(
                "R_F(%r, %r +/- %ri) is past the float range: the imaginary "
                "part is too small beside the others" % named)
        return math.ldexp(
            _rf_pair(*(math.ldexp(v, 2 * j) for v in (x, p, q)), named), j)
    fac, xm, pm, qm = 1.0, x, p, q
    while fac * spread >= abs(a):
        cross = 2 * math.sqrt(xm) * math.sqrt(re2 / 2)
        lam = cross + r
        xm, pm, qm, a = (xm + lam) / 4, (re2 + cross) / 4, qm / 4, (a + lam) / 4
        fac /= 4
        r = math.hypot(pm, qm)
        re2 = pm + r if pm >= 0 else qm * (qm / (r - pm))
    X, u, v = fac * (a0 - x) / a, fac * (a0 - p) / a, fac * q / a  # Y = u - iv
    return _rf_series(2 * X * u + u * u + v * v, X * (u * u + v * v), a)


def _rf_series(e2: float, e3: float, a: float) -> float:
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / math.sqrt(a)


def rd(x: float, y: float, z: float) -> float:
    """R_D(x, y, z) = (3/2) int_0^inf dt / ((t+z) sqrt((t+x)(t+y)(t+z))).

    x, y >= 0, not both 0, and z > 0; RangeError where the value is past
    the largest float, which only arguments near the smallest ones give.
    """
    return _duplicate(x, y, z, False)[1]


def rf_rd(x: float, y: float, z: float) -> tuple[float, float]:
    """(rf(x, y, z), rd(x, y, z)); rf's error if it has one, else rd's."""
    return _duplicate(x, y, z, True)


def _duplicate(x: float, y: float, z: float, with_rf: bool):
    """(R_F if with_rf else None, R_D) from one sequence, a series per value.

    rf and rd give both where either needs the 4^-8 rescale or leaves its
    domain; rf gives R_F where it needs more steps. An R_D below 2^-969 may
    have lost terms to underflow: it is redone with the arguments times 4^-j
    (largest near 1, smallest nonzero normal) and scaled back by 2^-3j.
    """
    a0 = a = (x + y + 3 * z) / 5
    spread = _RD_SPREAD * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    f0 = f = (x + y + z) / 3
    f_end = None if with_rf else ()  # R_F's (fac, mean) once it stops
    ok = x + y > 0 and z > 0 and spread < math.inf
    if with_rf:
        f_spread = _RF_SPREAD * max(abs(f0 - x), abs(f0 - y), abs(f0 - z))
        if not (ok and min(x + y, y + z, z + x) > 0 and f_spread < math.inf):
            return rf(x, y, z), rd(x, y, z)
    if not ok:
        xs, ys, zs = _shrunk(x, y, z)
        if xs + ys > 0 and zs > 0:
            return None, rd(xs, ys, zs) * 2.0 ** -24
        raise DomainError(f"R_D({x!r}, {y!r}, {z!r}) is outside its domain")
    try:
        fac, tail, xm, ym, zm = 1.0, 0.0, x, y, z
        while True:
            if f_end is None and fac * f_spread < f:
                f_end = fac, f
            if fac * spread < a:
                break
            sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
            lam = sx * (sy + sz) + sy * sz
            tail += fac / (sz * (zm + lam))
            xm, ym, zm = (xm + lam) / 4, (ym + lam) / 4, (zm + lam) / 4
            a, fac = (a + lam) / 4, fac / 4
            if f_end is None:
                f = (f + lam) / 4
        X, Y = fac * (a0 - x) / a, fac * (a0 - y) / a
        Z = -(X + Y) / 3
        xy, zz = X * Y, Z * Z
        e2, e3 = xy - 6 * zz, (3 * xy - 8 * zz) * Z
        e4, e5 = 3 * (xy - zz) * zz, xy * zz * Z
        series = (1 - 3 * e2 / 14 + e3 / 6 + 9 * e2 * e2 / 88 - 3 * e4 / 22
                  - 9 * e2 * e3 / 52 + 3 * e5 / 26)
        value = fac * series / (a * math.sqrt(a)) + 3 * tail
    except ZeroDivisionError:  # a power of tiny arguments underflowed to 0
        value = math.inf
    except ValueError:  # the square root of a negative argument
        if with_rf:
            return rf(x, y, z), rd(x, y, z)
        raise DomainError(
            f"R_D({x!r}, {y!r}, {z!r}) is outside its domain") from None
    if value == math.inf:
        raise RangeError(f"R_D({x!r}, {y!r}, {z!r}) is past the float range")
    if value < 2.0 ** -969:
        low = min(v for v in (x, y, z) if v > 0)
        j = min(math.frexp(max(x, y, z))[1], math.frexp(low)[1] + 1021) // 2
        if j > 0:  # rd is homogeneous of degree -3/2
            value = math.ldexp(rd(*(math.ldexp(v, -2 * j) for v in (x, y, z))),
                               -3 * j)
    if not f_end:  # () without R_F; None if its series needs more steps
        return (rf(x, y, z) if with_rf else None), value
    fac, f = f_end
    X, Y = fac * (f0 - x) / f, fac * (f0 - y) / f
    return _rf_series(X * Y - (X + Y) ** 2, -X * Y * (X + Y), f), value
