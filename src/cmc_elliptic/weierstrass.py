"""Real-axis evaluation of the Weierstrass P-function and its companions.

A :class:`WpEvaluator` is bound to one invariant pair (g2, g3) with nonzero
discriminant. P, P' and the Weierstrass zeta function are computed from
their truncated Laurent series inside a safe radius and extended by
repeated argument duplication. The inverse is the elliptic integral from
the argument to infinity, R_F(w - e1, w - e2, w - e3) in Carlson's form
(DLMF 19.29.i; e2, e3 a complex pair when the discriminant is negative),
and the antiderivative of P is -zeta. Only real arguments on the branch
P(z) >= e_max (e_max the largest real root of 4x^3 - g2*x - g3) are
supported; that is the branch on which P takes real values on the real axis.
"""

from __future__ import annotations

import math

from ._carlson import rf
from ._ratpoly import real_cbrt
from .errors import (AccuracyError, BranchError, DomainError, PoleError,
                     SingularError)

_N_LAURENT = 24  # series coefficients c_2..c_25
_MAX_DUPLICATIONS = 12


class WpEvaluator:
    """Immutable P/P'/P-inverse evaluator for one (g2, g3) pair."""

    def __init__(self, g2: float, g3: float):
        if not (math.isfinite(g2) and math.isfinite(g3)):
            raise DomainError("g2 and g3 must be finite")
        self.g2 = float(g2)
        self.g3 = float(g3)
        self.disc = self.g2 ** 3 - 27.0 * self.g3 ** 2
        scale = max(abs(self.g2) ** 3, 27.0 * self.g3 ** 2, 1.0)
        if abs(self.disc) <= 1e-14 * scale:
            raise SingularError(
                f"discriminant {self.disc!r} vanishes; the P-function does not exist")
        self.laurent = self._laurent_coeffs()
        self.r0 = self._series_radius()
        self.e_max = self._largest_cubic_root()
        # The other two roots, from the cubic deflated by e_max: their
        # squared difference is g2 - 3 e_max^2.
        e1, h = self.e_max, self.g2 - 3.0 * self.e_max ** 2
        if h >= 0:
            self._others = ((-e1 + math.sqrt(h)) / 2, (-e1 - math.sqrt(h)) / 2)
        else:
            e2 = complex(-e1 / 2, math.sqrt(-h) / 2)
            self._others = (e2, e2.conjugate())

    # -- construction helpers ------------------------------------------------

    def _laurent_coeffs(self) -> tuple[float, ...]:
        """Coefficients c_2..c_25 of P(z) = 1/z^2 + sum c_k z^(2k-2)."""
        c = {2: self.g2 / 20.0, 3: self.g3 / 28.0}
        for k in range(4, _N_LAURENT + 2):
            acc = 0.0
            for mm in range(2, k - 1):
                acc += c[mm] * c[k - mm]
            c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
        return tuple(c[k] for k in range(2, _N_LAURENT + 2))

    def _series_radius(self) -> float:
        """Radius on which 24 Laurent terms are accurate to ~1e-15.

        |c_k| grows like 1/rho^(2k) with rho the distance to the nearest
        lattice point, so rho is estimated from the top coefficients and the
        series is trusted on half that distance (tail then < 2^-48).
        """
        gamma = 0.0
        for k in range(14, _N_LAURENT + 2):
            ck = self.laurent[k - 2]
            if ck != 0.0:
                gamma = max(gamma, abs(ck) ** (1.0 / (2.0 * k)))
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

    def _series(self, u: float) -> tuple[float, float, float]:
        v = u * u
        p_tail = 0.0
        dp_tail = 0.0
        zeta_tail = 0.0
        for k in range(_N_LAURENT + 1, 1, -1):
            ck = self.laurent[k - 2]
            p_tail = p_tail * v + ck
            dp_tail = dp_tail * v + (2 * k - 2) * ck
            zeta_tail = zeta_tail * v + ck / (2 * k - 1)
        # p = 1/v + v * p_tail_as_series: c_k v^(k-1) = v * (c_k v^(k-2))
        p = 1.0 / v + v * p_tail
        pp = -2.0 / (v * u) + u * dp_tail
        # zeta = 1/u - sum c_k u^(2k-1) / (2k-1), the antiderivative of -P
        zeta = 1.0 / u - v * u * zeta_tail
        return p, pp, zeta

    def wp(self, z: float) -> tuple[float, float]:
        """(P(z), P'(z)) by Laurent series plus argument duplication."""
        p, pp, _ = self._wp_zeta(z)
        return p, pp

    def _wp_zeta(self, z: float) -> tuple[float, float, float]:
        """(P(z), P'(z), zeta(z)), duplicated together from the series."""
        if z == 0.0:
            raise PoleError("P has a pole at z=0")
        if not math.isfinite(z):
            raise DomainError(f"z must be finite, got {z!r}")
        n_dup = 0
        zz = z
        while abs(zz) > self.r0:
            zz *= 0.5
            n_dup += 1
            if n_dup > _MAX_DUPLICATIONS:
                raise AccuracyError(
                    f"|z|={abs(z)!r} needs more than {_MAX_DUPLICATIONS} duplications")
        p, pp, zeta = self._series(zz)
        for _ in range(n_dup):
            if abs(pp) < 1e-14:
                raise BranchError(
                    "argument duplication hit a half-period (P' vanished)")
            q = (6.0 * p * p - self.g2 / 2.0) / (2.0 * pp)  # P''/(2P')
            p, pp = -2.0 * p + q * q, -pp + 6.0 * p * q - 2.0 * q ** 3
            zeta = 2.0 * zeta + q
        return p, pp, zeta

    def wp_second(self, z: float) -> float:
        """P''(z) = 6 P(z)^2 - g2/2."""
        p, _ = self.wp(z)
        return 6.0 * p * p - self.g2 / 2.0

    def _branch_integral(self, w: float) -> float:
        """int_w^inf dt / sqrt(4t^3 - g2 t - g3) for w >= e_max."""
        e2, e3 = self._others
        return rf(w - self.e_max, w - e2, w - e3)

    def wp_inverse(self, w: float) -> float:
        """The positive z with P(z) = w: R_F(w - e1, w - e2, w - e3)."""
        if not math.isfinite(w):
            raise DomainError(f"w must be finite, got {w!r}")
        if w < self.e_max - 1e-12 * max(1.0, abs(self.e_max)):
            raise BranchError(
                f"w={w!r} below the real branch (e_max={self.e_max!r})")
        return self._branch_integral(max(w, self.e_max))

    def wp_integral(self, t0: float, t1: float) -> float:
        """Integral of P over [t0, t1] on a pole-free stretch of the real axis.

        P = -zeta', so the integral is zeta(t0) - zeta(t1). The poles on
        the real axis sit at the multiples of the real period 2 omega,
        omega = wp_inverse(e_max).
        """
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise DomainError(f"bounds must be finite, got {t0!r}, {t1!r}")
        if t0 == t1:
            return 0.0
        period = 2.0 * self._branch_integral(self.e_max)
        lo, hi = min(t0, t1), max(t0, t1)
        if math.ceil(lo / period) <= math.floor(hi / period):
            raise PoleError(
                f"integration interval [{lo!r}, {hi!r}] contains a pole "
                f"(real period {period!r})")
        return self._wp_zeta(t0)[2] - self._wp_zeta(t1)[2]
