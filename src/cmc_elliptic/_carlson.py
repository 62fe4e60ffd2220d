"""Carlson's symmetric elliptic integrals R_F and R_D of real arguments,
by duplication.

B. C. Carlson, Numer. Algorithms 10 (1995); DLMF 19.36.i. Each step divides
the spread of the arguments by 4; each series stops once its last step is
accurate to the unit roundoff, five or six steps for comparable arguments.
The sequence depends on the arguments alone: rf_rd gives both of a triple.

At the ends of the float range a form runs once on its arguments times a
power of four 4^j, and its value is scaled back by 2^j (R_F) or 2^3j (R_D),
their homogeneity (DLMF 19.20). Both scalings are exact, and so is every
duplication step, so the bits do not depend on j while no intermediate
leaves the normal range. j brings the largest argument to at most 2^1008;
for R_D, as near 1 as keeps the smallest nonzero one normal, but no higher
than keeps the value above 2^-969, unless that is below 2^680 (see
_duplicate). The contract: a form gives its value wherever one power of four
keeps its nonzero arguments normal, which means within 2^2028 of the largest
(2^1700 for R_D), and beyond that it raises RangeError, naming the arguments
as passed, wherever scaling by its 4^j and back does not return every
argument bit for bit.
"""

from __future__ import annotations

import math

from .errors import DomainError, RangeError

_RF_SPREAD = (3 * 2.0 ** -53) ** (-1 / 6)  # (3r)^(-1/6), r the unit roundoff
_RD_SPREAD = (2.0 ** -53 / 4) ** (-1 / 6)  # (r/4)^(-1/6)
_RF, _RD = "R_F(%r, %r, %r)", "R_D(%r, %r, %r)"


def rf(x: float, y: float, z: float, _named=None) -> float:
    """R_F(x, y, z) = (1/2) int_0^inf dt / sqrt((t+x)(t+y)(t+z)).

    Real x, y, z >= 0 with at most one of them 0. RangeError as the module
    docstring says. _named is private: _rescaled passes its label with the
    arguments it has scaled.
    """
    a0 = a = (x + y + z) / 3
    spread = _RF_SPREAD * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    # Besides the error scale, past a mean of 2^1020 the loop's sums can
    # overflow; below 2^-969 its own mean can underflow to 0 and never stop.
    if not (min(x + y, y + z, z + x) > 0 and spread < math.inf
            and 2.0 ** -969 <= a0 < 2.0 ** 1020):
        return _rescaled(rf, (x, y, z), _named,
                         all(0 <= v < math.inf for v in (x, y, z))
                         and min(x + y, y + z, z + x) > 0)
    fac, xm, ym, zm = 1.0, x, y, z
    try:
        while fac * spread >= a:
            sx, sy, sz = math.sqrt(xm), math.sqrt(ym), math.sqrt(zm)
            lam = sx * (sy + sz) + sy * sz
            xm, ym, zm, a = (xm + lam) / 4, (ym + lam) / 4, (zm + lam) / 4, (a + lam) / 4
            fac /= 4
    except ValueError:  # the square root of a negative argument
        raise DomainError(f"{_RF % (x, y, z)} is outside its domain") from None
    X, Y = fac * (a0 - x) / a, fac * (a0 - y) / a
    return _rf_series(X * Y - (X + Y) ** 2, -X * Y * (X + Y), a)


def _rescaled(form, args, named, inside):
    """form(*args) as 2^(degree j) form(*(4^j args)), j as in the module
    docstring, where args are inside the form's domain. named is set on
    scaled arguments, where a second trigger raises."""
    degree, label = _FORMS[form]
    if named is not None:
        raise RangeError(f"{named} is past the float range")
    named = label % args
    if not inside:
        raise DomainError(f"{named} is outside its domain")
    top = math.frexp(max(args))[1]
    j = (1008 - top) // 2
    if degree == 3:  # no higher than keeps 0.43 / (largest sqrt z) >= 2^-969,
        # a lower bound on R_D, unless 2^680 is higher (see _duplicate)
        e_low, e_z = (math.frexp(v)[1] for v in (min(v for v in args if v > 0), args[2]))
        cap = max((680 - top) // 2, (1934 - 2 * top - e_z) // 6)
        j = min(j, cap, max(-(top // 2), -((e_low + 1021) // 2)))
    scaled = [math.ldexp(v, 2 * j) for v in args]
    if [math.ldexp(v, -2 * j) for v in scaled] != list(args):
        raise RangeError(f"{named} is past the float range: the power of four "
                         "that rescales it rounds an argument")
    return math.ldexp(form(*scaled, named), degree * j)


def _rf_series(e2: float, e3: float, a: float) -> float:
    return (1 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / math.sqrt(a)


def rd(x: float, y: float, z: float, _named=None) -> float:
    """R_D(x, y, z) = (3/2) int_0^inf dt / ((t+z) sqrt((t+x)(t+y)(t+z))).

    x, y >= 0, not both 0, and z > 0. RangeError as the module docstring
    says, and where the value is past the largest float. _named is as in rf.
    """
    return _duplicate(x, y, z, False, _named)[1]


def rf_rd(x: float, y: float, z: float) -> tuple[float, float]:
    """(rf(x, y, z), rd(x, y, z)); rf's error if it has one, else rd's."""
    return _duplicate(x, y, z, True)


def _duplicate(x: float, y: float, z: float, with_rf: bool, named=None):
    """(R_F if with_rf else None, R_D) from one sequence, a series per value.

    rf and rd give both where either needs a rescale or leaves its domain;
    rf gives R_F where it needs more steps. An R_D below 2^-969 may have
    lost a term to underflow, or to a divisor past 2^1024 (a term below
    2^-1023), where its largest argument is past 2^680: below that every
    divisor is below 2^1022, and a term that underflows loses less than
    2^-1074, 2^-54 of the value, which is at least 2^-1020. Such a value is
    rescaled.
    """
    a0 = a = (x + y + 3 * z) / 5
    spread = _RD_SPREAD * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    f0 = f = (x + y + z) / 3
    f_end = None if with_rf else ()  # R_F's (fac, mean) once it stops
    ok = x + y > 0 and z > 0 and spread < math.inf
    if with_rf:
        f_spread = _RF_SPREAD * max(abs(f0 - x), abs(f0 - y), abs(f0 - z))
        if not (ok and min(x + y, y + z, z + x) > 0 and f_spread < math.inf
                and 2.0 ** -969 <= f0 < 2.0 ** 1020):
            return rf(x, y, z), rd(x, y, z)
    if not ok:
        return None, _rescaled(rd, (x, y, z), named,
                               all(0 <= v < math.inf for v in (x, y, z))
                               and x + y > 0 and z > 0)
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
        raise DomainError(f"{_RD % (x, y, z)} is outside its domain") from None
    if value == math.inf:
        raise RangeError(f"{named or _RD % (x, y, z)} is past the float range")
    if value < 2.0 ** -969 and max(x, y, z) > 2.0 ** 680:
        value = _rescaled(rd, (x, y, z), named, True)
    if not f_end:  # () without R_F; None if its series needs more steps
        return (rf(x, y, z) if with_rf else None), value
    fac, f = f_end
    X, Y = fac * (f0 - x) / f, fac * (f0 - y) / f
    return _rf_series(X * Y - (X + Y) ** 2, -X * Y * (X + Y), f), value


# Per form: its degree and label.
_FORMS = {rf: (1, _RF), rd: (3, _RD)}
