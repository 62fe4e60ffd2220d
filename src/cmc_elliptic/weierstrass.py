"""Real-axis evaluation of the Weierstrass P-function and its companions.

A :class:`WpEvaluator` is bound to one invariant pair (g2, g3) with nonzero
discriminant. One real AGM sequence gives the real half-period (DLMF
19.8.5) and, by its descending Landen transformation (DLMF 22.20.ii), the
Jacobi amplitude and zeta function, hence P, P' and the Weierstrass zeta
function. The inverse is R_F(w - e1, w - e2, w - e3) in Carlson's form
(DLMF 19.29.i), or a real Legendre integral where e2, e3 are a complex pair
(DLMF 23.6.iv); the antiderivative of P is -zeta. Only real arguments on
the branch P(z) >= e_max (e_max the largest real root of 4x^3 - g2*x - g3)
are supported; there P takes real values on the real axis. The Laurent
coefficients at the pole (DLMF 23.9) are reference data for a check.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul

from ._carlson import rf
from ._ratpoly import real_cbrt
from .errors import (AccuracyError, BranchError, DomainError, PoleError,
                     RangeError, SingularError)

_N_LAURENT = 24  # series coefficients c_2..c_25


def _laurent_table() -> tuple[tuple[tuple, ...], ...]:
    """Monomials (a, 13 + b, q) of c_4..c_25, c_k = sum q g2^a g3^b: the
    recurrence c_k = 3/((2k+1)(k-3)) sum_{m=2}^{k-2} c_m c_(k-m) over integer
    numerators keyed by b, so each q > 0 is rounded once; 13 + b indexes
    g3^b past g2^0..g2^12 in one power list."""
    c = {2: ({0: 1}, 20), 3: ({1: 1}, 28)}  # c_2 = g2/20, c_3 = g3/28
    for k in range(4, _N_LAURENT + 2):
        pairs = [(c[m], c[k - m]) for m in range(2, k - 1)]
        den = math.lcm(*(d1 * d2 for (_, d1), (_, d2) in pairs))
        num: dict[int, int] = {}
        for (n1, d1), (n2, d2) in pairs:
            f = 3 * den // (d1 * d2)
            for b1, x1 in n1.items():
                for b2, x2 in n2.items():
                    num[b1 + b2] = num.get(b1 + b2, 0) + f * x1 * x2
        c[k] = (num, den * (2 * k + 1) * (k - 3))
    return tuple(tuple(((k - 3 * b) // 2, 13 + b, x / d)
                       for b, x in sorted(n.items(), reverse=True))
                 for k, (n, d) in c.items() if k > 3)


_LAURENT_TABLE = _laurent_table()
# 1/(2k) for the orders k = 14..25 that estimate the series radius.
_RADIUS_EXPONENTS = tuple(1.0 / (2.0 * k) for k in range(14, _N_LAURENT + 2))


class WpEvaluator:
    """Immutable P/P'/P-inverse evaluator for one (g2, g3) pair."""

    def __init__(self, g2: float, g3: float):
        if not (math.isfinite(g2) and math.isfinite(g3)):
            raise DomainError("g2 and g3 must be finite")
        self.g2 = float(g2)
        self.g3 = float(g3)
        try:
            self.disc = self.g2 ** 3 - 27.0 * self.g3 ** 2
        except OverflowError:
            self.disc = math.inf
        if not math.isfinite(self.disc):
            raise RangeError(f"the discriminant of g2={g2!r}, g3={g3!r} "
                             "overflows the float range")
        scale = max(abs(self.g2) ** 3, 27.0 * self.g3 ** 2)
        if scale < 2.0 ** -1022 and (self.g2 or self.g3):
            raise RangeError(f"the discriminant of g2={g2!r}, g3={g3!r} "
                             "underflows the float range")
        if abs(self.disc) <= 1e-14 * scale:
            raise SingularError(
                f"discriminant {self.disc!r} vanishes; the P-function does not exist")
        self.laurent = self._laurent_coeffs()
        self.r0 = self._series_radius()
        self.e_max = e1 = self._largest_cubic_root()
        # The other two roots have squared difference s (the cubic deflated
        # by e1). P = e1 + r^2 cot^2 psi, psi = am(kappa r z)/kappa, descends
        # from the AGM of a0 = r, b0 = r k', c0 = r k; its limit M gives
        # omega = pi/2M, taken where |a - b| <= 2^-26 a (the next mean is M
        # to 2^-55 a) while the sequence runs on to c/a < 2^-52.
        s = self.g2 - 3.0 * e1 ** 2
        if s >= 0:  # r = sqrt(e1 - e3), b0 = sqrt(e1 - e2), c0^2 = e2 - e3
            d = math.sqrt(s)
            self._others, self._pair = ((-e1 + d) / 2, (-e1 - d) / 2), None
            r2, r3 = (math.sqrt(e1 - e) for e in self._others)
            a, b, c = (r2 + r3) / 2, math.sqrt(r2 * r3), d / (2 * (r2 + r3))
            r, k1, kappa, c0sq, base = r3, r2 / r3, 1.0, d, -self._others[1]
            steps = [(c / a, c)]  # from n = 1: c1 = (r3 - r2)/2
        else:  # e2, e3 = -e1/2 +/- iq, h2 = |e1 - e2|; the AGM's complex
            # first step gives sqrt(h2) and Re sqrt(e1 - e2) = sqrt(gap/2),
            # gap = h2 + 3 e1/2, as q^2 / (h2 - 3 e1/2) where that cancels;
            # r = sqrt(h2), kappa = 2 and c0^2 = (h2 - 3 e1/2)/2.
            q = math.sqrt(-s) / 2
            h2 = math.hypot(1.5 * e1, q)
            gap = h2 + 1.5 * e1 if e1 >= 0 else q * q / (h2 - 1.5 * e1)
            self._others, self._pair = None, (q, h2, gap)
            a, b = math.sqrt(gap / 2), math.sqrt(h2)
            c0sq = (h2 - 1.5 * e1) / 2 if e1 < 0 else q * q / (2 * gap)
            r, k1, kappa, c, base = b, a / b, 2.0, math.sqrt(c0sq), h2 - e1
            steps = []
        omega = None
        for _ in range(40):  # a ratio of 1e300 between a and b takes 14
            if omega is None and abs(a - b) <= 2.0 ** -26 * a:
                omega = math.pi / (a + b)
            if c <= 2.0 ** -52 * a:
                break
            a, b, c = (a + b) / 2, math.sqrt(a * b), c * c / (2 * (a + b))
            steps.append((c / a, c))
        self.omega = omega
        # eta/omega = r^2 - e1 - kappa r^2 (1 - E/K), with r^2 (1 - E/K) the
        # sum of 2^(n-1) c_n^2 over n >= 0 (DLMF 19.8.6).
        self._eta_omega = base - kappa * (c0sq / 2 + sum(
            math.ldexp(c * c, n) for n, (_, c) in enumerate(steps)))
        self._phase = math.ldexp(kappa * a, len(steps))  # 2^N M kappa
        self._descent = tuple(reversed(steps))  # (c_n/a_n, c_n), n = N..1
        self._r, self._k1, self._kappa = r, k1, kappa

    # -- construction helpers ------------------------------------------------

    def _laurent_coeffs(self) -> tuple[float, ...]:
        """Coefficients c_2..c_25 of P(z) = 1/z^2 + sum c_k z^(2k-2)."""
        pw = [*accumulate([1.0] + [self.g2] * 12, mul),
              *accumulate([1.0] + [self.g3] * 8, mul)]
        out = [self.g2 / 20.0, self.g3 / 28.0]
        for row in _LAURENT_TABLE:
            acc = 0.0
            for a, b, q in row:
                acc += q * pw[a] * pw[b]
            out.append(acc)
        return tuple(out)

    def _series_radius(self) -> float:
        """Radius on which 24 Laurent terms are accurate to ~1e-15: half
        the distance rho to the nearest lattice point (tail < 2^-48), from
        |c_k| ~ 1/rho^(2k) at the top coefficients."""
        if not all(map(math.isfinite, self.laurent)):  # none past the range
            return 0.0
        gamma = max(abs(c) ** e
                    for c, e in zip(self.laurent[12:], _RADIUS_EXPONENTS))
        if gamma == 0.0:
            return 0.5
        return 0.5 / gamma

    def _largest_cubic_root(self) -> float:
        """Largest real root of 4x^3 - g2*x - g3 (Cardano/trig + Newton)."""
        p = -self.g2 / 4.0
        q = -self.g3 / 4.0
        if self.disc > 0:
            # Three real roots; the largest is the k=0 trigonometric one.
            r = math.sqrt(-p / 3.0)
            arg = min(1.0, max(-1.0, 3.0 * q / (2.0 * p * r)))
            x = 2.0 * r * math.cos(math.acos(arg) / 3.0)
        else:
            d = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
            x = real_cbrt(-q / 2.0 + d) + real_cbrt(-q / 2.0 - d)
        for _ in range(3):
            f = 4.0 * x ** 3 - self.g2 * x - self.g3
            df = 12.0 * x * x - self.g2
            if df == 0.0:
                break
            x -= f / df
        return x

    # -- evaluation -----------------------------------------------------------

    def wp(self, z: float) -> tuple[float, float]:
        """(P(z), P'(z)); RangeError where either has no float value."""
        p, pp, _ = self._wp_zeta(z)
        if not (math.isfinite(p) and math.isfinite(pp)):
            raise RangeError(f"P or P' at z={z!r} is outside the float range")
        return p, pp

    def _wp_zeta(self, z: float) -> tuple[float, float, float]:
        """(P(z), P'(z), zeta(z)) from phi_N = 2^N M kappa z down to phi_0
        by phi_(n-1) = (phi_n + asin((c_n/a_n) sin phi_n))/2, with Jacobi's
        Z = sum c_n sin phi_n on the way: P = e1 + r^2 cot^2 psi, P' =
        -2 r^3 dn cot(psi)/sin^2(psi) and zeta = (eta/omega) z + r (dn cot
        psi + Z), psi = phi_0/kappa. A value past the float range is inf."""
        if z == 0.0:
            raise PoleError("P has a pole at z=0")
        if not math.isfinite(z):
            raise DomainError(f"z must be finite, got {z!r}")
        if abs(z) > 2.0 ** 12 * self.omega:  # the phase's rounding > 2^-40
            raise AccuracyError(f"|z|={abs(z)!r} is past 2^12 half-periods")
        phi, zsum = self._phase * z, 0.0
        for x, c in self._descent:
            s = math.sin(phi)
            zsum += c * s
            phi = (phi + math.asin(x * s)) / 2
        psi = phi / self._kappa
        s = math.sin(psi)
        if s == 0.0:
            raise RangeError(f"P at z={z!r} is outside the float range")
        dn = math.hypot(math.cos(phi), self._k1 * math.sin(phi))
        rc, rs = self._r * math.cos(psi) / s, self._r / s  # r cot, r csc
        return (self.e_max + rc * rc, -2.0 * dn * rc * rs * rs,
                self._eta_omega * z + dn * rc + zsum)

    def _slope(self, w: float) -> float:
        """P' = -2 sqrt((w - e1)(w - e2)(w - e3)) where P = w, z in
        (0, omega], a complex pair taken as (w + e1/2)^2 + q^2."""
        if self._pair is None:
            e2, e3 = self._others
            rest = (w - e2) * (w - e3)
        else:
            u = w + self.e_max / 2
            rest = u * u + self._pair[0] ** 2
        return -2.0 * math.sqrt((w - self.e_max) * rest)

    def ode_residual(self, p: float, pp: float) -> float:
        """|P'^2 - (4P^3 - g2 P - g3)| at (P, P') = (p, pp), relative to
        max(1, |4P^3|, |g2 P|, |g3|): how far the pair is off the curve.
        Where 4P^3 overflows, the weights 2, 3, 4, 6 of P, P', g2, g3 scale
        out, and the pair is read at P near 2^40."""
        g2, g3 = self.g2, self.g3
        try:
            p3 = 4.0 * p ** 3
        except OverflowError:
            j = (math.frexp(p)[1] - 40) // 2
            p, pp, g2, g3 = (math.ldexp(v, -k * j) for v, k in
                             ((p, 2), (pp, 3), (g2, 4), (g3, 6)))
            p3 = 4.0 * p ** 3
        g2p = g2 * p
        scale = max(1.0, abs(p3), abs(g2p), abs(g3))
        return abs(pp * pp - (p3 - g2p - g3)) / scale

    def wp_second(self, z: float) -> float:
        """P''(z) = 6 P(z)^2 - g2/2."""
        p, _ = self.wp(z)
        return 6.0 * p * p - self.g2 / 2.0

    def wp_inverse(self, w: float) -> float:
        """The z in (0, omega] with P(z) = w: R_F(w - e1, w - e2, w - e3)
        for real roots. For a complex pair, P = e1 + h2 (1 + cn v)/(1 - cn v)
        at v = 2 sqrt(h2) z, m = 1/2 - 3 e1/(4 h2) (DLMF 23.6.iv): with
        x = w - e1 and cos(phi) = c = (h2 - x)/(h2 + x), z is g for c <= 0
        and omega - g otherwise, g = F(phi|m)/(2 sqrt(h2)) (DLMF 19.25.i).
        h2 - x is formed as gap - (w + e1/2), which does not cancel."""
        if not math.isfinite(w):
            raise DomainError(f"w must be finite, got {w!r}")
        if w < self.e_max - 1e-12 * max(1.0, abs(self.e_max)):
            raise BranchError(
                f"w={w!r} below the real branch (e_max={self.e_max!r})")
        w = max(w, self.e_max)
        if self._pair is None:
            e2, e3 = self._others
            return rf(w - self.e_max, w - e2, w - e3)
        q, h2, gap = self._pair
        x, u = w - self.e_max, w + self.e_max / 2
        t = h2 + x
        c, y = (gap - u) / t, math.hypot(u, q) / t
        g = math.sqrt(x) / t * rf(c * c, y * y, 1.0)
        return g if c <= 0 else self.omega - g

    def wp_integral(self, t0: float, t1: float) -> float:
        """Integral of P over [t0, t1] on a pole-free stretch of the real axis.

        P = -zeta', so the integral is zeta(t0) - zeta(t1). The poles on
        the real axis sit at the multiples of the real period 2 omega.
        """
        if self._empty_stretch(t0, t1):
            return 0.0
        value = self._wp_zeta(t0)[2] - self._wp_zeta(t1)[2]
        if not math.isfinite(value):
            raise RangeError(f"the integral of P over [{t0!r}, {t1!r}] is "
                             "outside the float range")
        return value

    def _empty_stretch(self, t0: float, t1: float) -> bool:
        """Whether t0 == t1; DomainError where a bound is not finite and
        PoleError where [t0, t1] holds a pole, as wp_integral checks."""
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise DomainError(f"bounds must be finite, got {t0!r}, {t1!r}")
        if t0 == t1:
            return True
        period = 2.0 * self.omega
        lo, hi = min(t0, t1), max(t0, t1)
        if math.ceil(lo / period) <= math.floor(hi / period):
            raise PoleError(
                f"integration interval [{lo!r}, {hi!r}] contains a pole "
                f"(real period {period!r})")
        return False
