"""Carlson's symmetric elliptic integrals R_F and R_D by duplication.

B. C. Carlson, Numer. Algorithms 10 (1995); DLMF 19.36.i. Each step divides
the spread of the arguments by 4; the loop stops once the truncated series
of the last step is accurate to the unit roundoff, which takes five or six
steps for arguments of comparable size.
"""

from __future__ import annotations

import math

from .errors import DomainError

_RF_SPREAD = (3 * 2.0 ** -53) ** (-1 / 6)  # (3r)^(-1/6), r the unit roundoff
_RD_SPREAD = (2.0 ** -53 / 4) ** (-1 / 6)  # (r/4)^(-1/6)


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
        raise DomainError(f"R_F({x!r}, {y!r}, {z!r}) is outside its domain")
    fac, xm, ym, zm = 1.0, x, y, z
    while fac * spread >= a:
        sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
        lam = sx * (sy + sz) + sy * sz
        xm, ym, zm, a = (xm + lam) / 4, (ym + lam) / 4, (zm + lam) / 4, (a + lam) / 4
        fac /= 4
    X, Y = fac * (a0 - x) / a, fac * (a0 - y) / a
    return _rf_series(X * Y - (X + Y) ** 2, -X * Y * (X + Y), a)


def _rf_pair(x: float, p: float, q: float) -> float:
    """R_F(x, p + iq, p - iq) in real arithmetic.

    sqrt(y) sqrt(conj y) = |y| and 2 Re(sqrt y)^2 = |y| + p; for p < 0 the
    sum is formed as q^2 / (|y| - p), so that arguments near the negative
    real axis keep their digits.
    """
    a0 = a = (x + 2 * p) / 3
    spread = _RF_SPREAD * max(abs(a0 - x), math.hypot(a0 - p, q))
    if not (x >= 0 and q > 0 and spread < math.inf):
        raise DomainError(f"R_F({x!r}, {p!r} +/- {q!r}i) is outside its domain")
    fac, xm, pm, qm = 1.0, x, p, q
    while fac * spread >= abs(a):
        r = math.hypot(pm, qm)
        re2 = pm + r if pm >= 0 else qm * qm / (r - pm)
        cross = 2 * math.sqrt(xm) * math.sqrt(re2 / 2)
        lam = cross + r
        xm, pm, qm, a = (xm + lam) / 4, (re2 + cross) / 4, qm / 4, (a + lam) / 4
        fac /= 4
    X, u, v = fac * (a0 - x) / a, fac * (a0 - p) / a, fac * q / a  # Y = u - iv
    return _rf_series(2 * X * u + u * u + v * v, X * (u * u + v * v), a)


def _rf_series(e2: float, e3: float, a: float) -> float:
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / math.sqrt(a)


def rd(x: float, y: float, z: float) -> float:
    """R_D(x, y, z) = (3/2) int_0^inf dt / ((t+z) sqrt((t+x)(t+y)(t+z))).

    x, y >= 0, not both 0, and z > 0.
    """
    a0 = a = (x + y + 3 * z) / 5
    spread = _RD_SPREAD * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    if not (x + y > 0 and z > 0 and spread < math.inf):
        raise DomainError(f"R_D({x!r}, {y!r}, {z!r}) is outside its domain")
    fac, tail, xm, ym, zm = 1.0, 0.0, x, y, z
    while fac * spread >= a:
        sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
        lam = sx * (sy + sz) + sy * sz
        tail += fac / (sz * (zm + lam))
        xm, ym, zm, a = (xm + lam) / 4, (ym + lam) / 4, (zm + lam) / 4, (a + lam) / 4
        fac /= 4
    X, Y = fac * (a0 - x) / a, fac * (a0 - y) / a
    Z = -(X + Y) / 3
    xy, zz = X * Y, Z * Z
    e2, e3 = xy - 6 * zz, (3 * xy - 8 * zz) * Z
    e4, e5 = 3 * (xy - zz) * zz, xy * zz * Z
    series = (1 - 3 * e2 / 14 + e3 / 6 + 9 * e2 * e2 / 88 - 3 * e4 / 22
              - 9 * e2 * e3 / 52 + 3 * e5 / 26)
    return fac * series / (a * math.sqrt(a)) + 3 * tail
