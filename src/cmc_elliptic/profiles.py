"""Generating curves of CMC rotation surfaces and their meshes.

Three families of unit-speed profiles, classified by a constant B >= 0 at
fixed mean curvature H > 0:

* ``EUCLIDEAN``: profile (x(s), y(s)) rotated about the x-axis of E3.
* ``LORENTZ_SPACELIKE_AXIS``: profile (x(s), z(s)) rotated about the
  spacelike x-axis of Lorentz-Minkowski space (metric dx^2+dy^2-dz^2),
  orbit (x, z sinh(theta), z cosh(theta)).
* ``LORENTZ_TIMELIKE_AXIS``: profile (x(s), z(s)) rotated about the
  timelike z-axis, orbit (x cos(theta), x sin(theta), z).

In every family the radius is an explicit square root of a trigonometric or
hyperbolic expression in s, and the axis coordinate a sum of incomplete
elliptic integrals in Carlson's form (``_carlson.rf_rd``); derivatives are
analytic, and the kernels take a whole grid of s per call.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import namedtuple
from typing import Callable, NamedTuple, Sequence

from ._carlson import rd, rf, rf_rd
from .errors import (DomainError, EmptyDomainError, RangeError,
                     UnsupportedCaseError)


class Family(enum.Enum):
    EUCLIDEAN = "euclidean"
    LORENTZ_SPACELIKE_AXIS = "spacelike-axis"
    LORENTZ_TIMELIKE_AXIS = "timelike-axis"


class CmcParams(namedtuple("CmcParams", "family H B")):
    """Family, mean curvature H > 0, classifying B >= 0; always checked."""

    __slots__ = ()

    def __new__(cls, family: Family, H: float, B: float):
        if not (H > 0 and math.isfinite(H)):
            raise DomainError(f"H must be positive and finite, got {H!r}")
        if not (B >= 0 and math.isfinite(B)):
            raise DomainError(f"B must be non-negative and finite, got {B!r}")
        return super().__new__(cls, family, H, B)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SInterval(NamedTuple):
    """Open arc-length interval (lo, hi); degenerate marks a single point."""

    lo: float
    hi: float
    degenerate: bool = False

    def contains(self, s: float) -> bool:
        return (not self.degenerate) and self.lo < s < self.hi


class CurveSample(NamedTuple):
    """Profile point: coordinates and their s-derivatives.

    ``second`` is the non-x coordinate (y for the Euclidean family, z for the
    Lorentzian ones).
    """

    s: float
    x: float
    second: float
    dx: float
    dsecond: float


class SurfaceMesh(NamedTuple):
    vertices: list[tuple[float, float, float]]
    faces: list[tuple[int, int, int]]
    grid: tuple[list[float], list[float]]


# ---------------------------------------------------------------------------
# Domains


@functools.lru_cache(maxsize=128)
def domain(params: CmcParams) -> SInterval:
    """Maximal open s-interval (around the base point) with positive radicand.

    Memoized, as CmcParams and SInterval are immutable; an EmptyDomainError
    is not cached, so every call raises it.
    """
    H, B = params.H, params.B
    if params.family is Family.EUCLIDEAN:
        if B == 1.0:
            # Radicand 2(1+sin 2Hs) vanishes on an isolated set; principal window.
            return SInterval(-math.pi / (4 * H), 3 * math.pi / (4 * H))
        return SInterval(-math.inf, math.inf)
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        if B == 0.0:
            return SInterval(-math.inf, math.inf)
        if B == 1.0:
            return SInterval(0.0, 0.0, degenerate=True)
        # cosh(2Hs) = (1 + B^2)/(2B) through sinh(Hs): no cancellation at B ~ 1.
        s_max = math.asinh(abs(1 - B) / (2 * math.sqrt(B))) / H
        return SInterval(-s_max, s_max)
    if B == 0.0:
        raise EmptyDomainError(
            "timelike-axis family has no profile at B=0 (radicand is -1)")
    s_min = math.asinh((1 - B * B) / (2 * B)) / (2 * H)
    return SInterval(s_min, math.inf)


def _require_in_domain(params: CmcParams, s_grid: Sequence[float]) -> None:
    lo, hi, degenerate = domain(params)
    if degenerate:
        raise DomainError(
            f"domain of {params.family.value} B={params.B} degenerates to a point")
    for s in s_grid:
        if not lo < s < hi:
            raise DomainError(f"s={s!r} outside open domain ({lo!r}, {hi!r})")


# ---------------------------------------------------------------------------
# Closed-form coordinate pieces


def _closed_pieces(params: CmcParams, grid: Sequence[float]):
    """(radius, d(radius), dd(radius), d(axis), dd(axis)) at each sample.

    Generated over grid in order, the family and its constants resolved
    once; the radicand R shares its sin or sinh of 2Hs with the pieces
    (``tests/radicand.py`` forms it at one s). DomainError where R <= 0;
    RangeError where sinh/cosh or sin overflows or R**1.5 underflows to 0
    in a divisor. Past that a piece may be inf or nan, which callers check.
    """
    H, B = params.H, params.B
    h2, b2 = 2 * H, 2 * B
    try:
        if params.family is Family.EUCLIDEAN:
            sphere, r0 = B == 1.0, 1 + B * B
            if sphere:
                lo, hi, _ = domain(params)
            k1, k2 = -2 * B * H, 2 * B * B * H
            for s in grid:
                sn = math.sin(h2 * s)
                R = (4 * math.sin(H * min(s - lo, hi - s)) ** 2 if sphere
                     else r0 + b2 * sn)
                if R <= 0:
                    raise DomainError(f"radicand non-positive at s={s!r}")
                sq = math.sqrt(R)
                R32, cs, u, v = R * sq, math.cos(h2 * s), 1 + B * sn, B + sn
                yield (sq / h2, B * cs / sq, k1 * u * v / R32, u / sq,
                       k2 * cs * v / R32)
        elif params.family is Family.LORENTZ_SPACELIKE_AXIS:
            b4, k1, k2 = 4 * B, -2 * B * H, 2 * B * B * H
            for s in grid:
                # (1 - B)**2 stays per sample: past B = 2^512 it overflows,
                # a RangeError that names the first sample.
                R = (1 - B) ** 2 - b4 * math.sinh(H * s) ** 2
                if R <= 0:
                    raise DomainError(f"radicand non-positive at s={s!r}")
                sq = math.sqrt(R)
                R32, sh, ch = R * sq, math.sinh(h2 * s), math.cosh(h2 * s)
                yield (sq / h2, -B * sh / sq,
                       k1 * (ch - B) * (1 - B * ch) / R32, (B * ch - 1) / sq,
                       k2 * sh * (B - ch) / R32)
        else:
            r0, k1, k2 = B * B - 1, 2 * B * H, 2 * B * B * H
            for s in grid:
                sh = math.sinh(h2 * s)
                R = r0 + b2 * sh  # exact at B = 1
                if R <= 0:
                    raise DomainError(f"radicand non-positive at s={s!r}")
                sq = math.sqrt(R)
                R32, ch, u = R * sq, math.cosh(h2 * s), B * sh - 1
                yield (sq / h2, B * ch / sq, k1 * (B + sh) * u / R32, u / sq,
                       k2 * ch * (B + sh) / R32)
    except (OverflowError, ValueError, ZeroDivisionError):
        raise _overflow(params, s) from None


def _overflow(params: CmcParams, s: float) -> RangeError:
    return RangeError(
        f"profile of {params.family.value} H={params.H!r} B={params.B!r} "
        f"overflows the float range at s={s!r}")


def anchor(params: CmcParams) -> float:
    """Base point of the axis coordinate (0 whenever 0 is in the open domain).

    Only the timelike-axis family with B <= 1 needs a shifted base point:
    there the domain edge sits at s >= 0 and the axis coordinate vanishes at
    edge + 1e-6/H. Profiles are defined up to a translation along the axis,
    so the anchor is a pure convention shared with the Weierstrass-path
    reconstruction.
    """
    if params.family is not Family.LORENTZ_TIMELIKE_AXIS:
        return 0.0
    dom = domain(params)
    if dom.lo < 0:
        return 0.0
    return dom.lo + 1e-6 / params.H


# ---------------------------------------------------------------------------
# Axis coordinate: incomplete elliptic integrals in Carlson's form


def _legendre(sn: float, c2: float, m: float,
              m1: float) -> tuple[float, float]:
    """F(phi|m) and D = F - E from sin(phi) and cos(phi)^2, |phi| <= pi/2.

    m1 = 1 - m comes separately so that it keeps its digits near m = 1.
    """
    f, d = rf_rd(c2, c2 + m1 * sn * sn, 1.0)  # y = 1 - m sin^2(phi)
    return sn * f, m / 3 * sn ** 3 * d


def _euclidean_axis(H: float, B: float) -> Callable[[float], float]:
    """x(s), x(0) = 0: Delaunay's unduloids and nodoids.

    With theta = pi/4 - Hs and m = 4B/(1+B)^2 the rate is
    [(1-B)/dn + (1+B) dn]/2, dn = sqrt(1 - m sin^2(theta)), so
    x = [2 (F(pi/4) - F(theta)) - (1+B) (D(pi/4) - D(theta))]/(2H). A
    half-turn of theta adds 2K to F and 2(K - E) to D; at B = 1, where K
    is infinite, the domain keeps theta inside (-pi/2, pi/2).
    """
    m, m1 = 4 * B / (1 + B) ** 2, ((1 - B) / (1 + B)) ** 2
    f0, d0 = _legendre(math.sqrt(0.5), 0.5, m, m1)
    sphere = B == 1.0
    if not sphere:
        k, d = rf_rd(0.0, m1, 1.0)
        half_k, half_d = 2 * k, 2 * m / 3 * d

    def axis(s: float) -> float:
        theta = math.pi / 4 - H * s
        phi = theta if sphere else math.remainder(theta, math.pi)
        f, d = _legendre(math.sin(phi), math.cos(phi) ** 2, m, m1)
        turns = round((theta - phi) / math.pi)
        if turns:
            f, d = f + turns * half_k, d + turns * half_d
        return (2 * (f0 - f) - (1 + B) * (d0 - d)) / (2 * H)

    return axis


def _spacelike_axis(H: float, B: float) -> Callable[[float], float]:
    """x(s), x(0) = 0; B = 0 is the line x = -s.

    With v = sinh(Hs) and n = 4B/(1-B)^2,
    x = int_0^v (B - 1 + 2B t^2) dt / sqrt((1 - nt^2)(1 + t^2)) / (H|1-B|),
    and the integrals of 1 and t^2 there are v R_F(1, 1 - nv^2, 1 + v^2)
    and (v^3/3) R_D(1 - nv^2, 1 + v^2, 1).
    """
    if B == 0.0:
        return lambda s: -s
    n = 4 * B / (1 - B) ** 2

    def axis(s: float) -> float:
        v = math.sinh(H * s)
        y, z = 1 - n * v * v, 1 + v * v
        return ((B - 1) * v * rf(1.0, y, z)
                + 2 * B * v / 3 * v * v * rd(y, z, 1.0)) / (H * abs(1 - B))

    return axis


def _timelike_axis(H: float, B: float, edge: float,
                   start: float) -> Callable[[float], float]:
    """z(s), z(start) = 0.

    Under e^(Hs) = 1/(sqrt(B) cos(phi)), i.e. cos(phi) = e^(-H(s - edge)),
    z = G(s) - G(start) with G = sqrt(1+B^2)/(2H)
    [sqrt(1 - k^2 sin^2(phi)) tan(phi) - 2 E(phi|k^2)], k^2 = B^2/(1+B^2).
    """
    k2, k1 = B / (B + 1 / B), 1 / B / (B + 1 / B)  # k^2 and 1 - k^2
    scale = math.hypot(1.0, B) / (2 * H)

    def g(s: float) -> float:
        d = H * (s - edge)
        sec, c2, sn2 = math.exp(d), math.exp(-2 * d), -math.expm1(-2 * d)
        sn = math.sqrt(sn2)
        f, dd = _legendre(sn, c2, k2, k1)
        return scale * (math.sqrt(c2 + k1 * sn2) * sn * sec - 2 * (f - dd))

    g_start = g(start)
    return lambda s: g(s) - g_start


def _axis_values(params: CmcParams, grid: Sequence[float]) -> list[float]:
    """Axis coordinate at every sample of grid, vanishing at ``anchor``."""
    H, B = params.H, params.B
    if params.family is Family.EUCLIDEAN:
        axis = _euclidean_axis(H, B)
    elif params.family is Family.LORENTZ_SPACELIKE_AXIS:
        axis = _spacelike_axis(H, B)
    else:
        axis = _timelike_axis(H, B, domain(params).lo, anchor(params))
    isfinite, values = math.isfinite, []
    for s in grid:
        try:
            value = axis(s)
        except (OverflowError, ZeroDivisionError):  # exp, or H|1-B| -> 0
            raise _overflow(params, s) from None
        if not isfinite(value):
            raise _overflow(params, s)
        values.append(value)
    return values


# ---------------------------------------------------------------------------
# Public profile operations


def profile_points(params: CmcParams,
                   s_grid: Sequence[float]) -> list[CurveSample]:
    """Profile samples along a grid of arc lengths, in grid order.

    Closed forms at every sample, each computed on its own. The axis
    coordinate vanishes at ``anchor``; the profile is defined up to axis
    translation.
    """
    grid = [float(s) for s in s_grid]
    _require_in_domain(params, grid)
    isfinite, pieces = math.isfinite, []
    rows = zip(grid, _closed_pieces(params, grid))
    for s, (radius, drad, _, dax, _) in rows:
        if not (isfinite(radius) and isfinite(drad) and isfinite(dax)):
            raise _overflow(params, s)
        pieces.append((radius, drad, dax))
    axes = _axis_values(params, grid)
    if params.family is Family.LORENTZ_TIMELIKE_AXIS:
        # Profile is (x, z) = (radius, axis).
        return [CurveSample(s=s, x=radius, second=axis, dx=drad, dsecond=dax)
                for s, (radius, drad, dax), axis in zip(grid, pieces, axes)]
    return [CurveSample(s=s, x=axis, second=radius, dx=dax, dsecond=drad)
            for s, (radius, drad, dax), axis in zip(grid, pieces, axes)]


def profile_point(params: CmcParams, s: float) -> CurveSample:
    """Profile sample at arc length s: the one-sample ``profile_points``."""
    return profile_points(params, [s])[0]


def _rotation(params: CmcParams, theta: float) -> tuple[float, float]:
    """(cos, sin) of a circular angle, (sinh, cosh) of the hyperbolic one."""
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        try:
            ch = math.cosh(theta)
        except OverflowError:
            ch = math.inf
        if not math.isfinite(ch):
            raise RangeError(
                f"hyperbolic angle {theta!r} overflows the float range")
        return math.sinh(theta), ch
    return math.cos(theta), math.sin(theta)


def _orbit(params: CmcParams, cs: CurveSample,
           rotations: Sequence[tuple[float, float]]
           ) -> list[tuple[float, float, float]]:
    """The profile point's orbit at each precomputed ``_rotation``."""
    if params.family is Family.LORENTZ_TIMELIKE_AXIS:
        r, z = cs.x, cs.second
        return [(r * c, r * sn, z) for c, sn in rotations]
    x, r = cs.x, cs.second
    return [(x, r * c, r * sn) for c, sn in rotations]


def mean_curvatures(params: CmcParams,
                    s_grid: Sequence[float]) -> list[float]:
    """Mean curvature of the rotation surface at each profile parameter.

    From the analytic derivatives of the profile, after one domain check
    for the whole grid; orientation is fixed so the cylinder case returns
    +H, and by continuity every profile of the family returns +H.
    """
    _require_in_domain(params, s_grid)
    isfinite, out = math.isfinite, []
    spacelike = params.family is Family.LORENTZ_SPACELIKE_AXIS
    rows = zip(s_grid, _closed_pieces(params, s_grid))
    for s, (r, dr, ddr, da, dda) in rows:
        if not (isfinite(r) and isfinite(dr) and isfinite(ddr)
                and isfinite(da) and isfinite(dda)):
            raise _overflow(params, s)
        if spacelike:
            # [-x' z - z^2 (x' z'' - z' x'')] / (2 z^2), z = r and x = a
            out.append((-da * r - r * r * (da * ddr - dr * dda)) / (2 * r * r))
        else:
            # Euclidean and timelike axis, r the radius and a the axis
            # coordinate: (1/2) [a'/r + a'' r' - a' r'']
            out.append(0.5 * (da / r + dda * dr - da * ddr))
    return out


def mean_curvature(params: CmcParams, s: float) -> float:
    """Mean curvature at s: the one-sample ``mean_curvatures``."""
    return mean_curvatures(params, [s])[0]


def _quadric_residuals(params: CmcParams,
                       points: Sequence[Sequence[float]]) -> list[float]:
    """Residual of the algebraic special-case surface at each (x1, x2, x3).

    Supported only for B in {0, 1}: cylinders (B=0), the Euclidean sphere and
    the Lorentzian hyperboloid x1^2+x2^2-x3^2 = -1/H^2 (B=1).
    """
    H, B = params.H, params.B
    if B == 0.0:
        c = 1 / (4 * H * H)
        if params.family is Family.EUCLIDEAN:
            return [abs(x2 * x2 + x3 * x3 - c) for _, x2, x3 in points]
        if params.family is Family.LORENTZ_SPACELIKE_AXIS:
            return [abs(x3 * x3 - x2 * x2 - c) for _, x2, x3 in points]
        return [abs(x1 * x1 + x2 * x2 - c) for x1, x2, _ in points]
    if B == 1.0:
        c = 1 / (H * H)
        if params.family is Family.EUCLIDEAN:
            x0 = math.sqrt(2) / (2 * H)  # axis value at the equator
            return [abs((x1 - x0) ** 2 + x2 * x2 + x3 * x3 - c)
                    for x1, x2, x3 in points]
        return [abs(x1 * x1 + x2 * x2 - x3 * x3 + c) for x1, x2, x3 in points]
    raise UnsupportedCaseError(
        f"no known implicit polynomial for B={B!r} (need B in {{0, 1}})")


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from lo to hi: i*step + lo, then hi.

    A step that underflows to zero (a subnormal span) falls back to
    i/(n-1) * (hi-lo) + lo. These are the array-library linspace values,
    bit for bit, signed zeros included.
    """
    step = (hi - lo) / (n - 1)
    if step == 0:
        out = [i / (n - 1) * (hi - lo) + lo for i in range(n)]
    else:
        out = [i * step + lo for i in range(n)]
    out[-1] = float(hi)
    return out


def mesh(params: CmcParams, s_range: tuple[float, float], n_s: int,
         n_theta: int, angle_range: float = 2.0) -> SurfaceMesh:
    """Grid mesh of the rotation surface over s_range x angle grid.

    The angle grid is [0, 2pi] for circular rotations and
    [-angle_range, angle_range] for the hyperbolic angle of the
    spacelike-axis family. Quads are triangulated; vertex (i, j) sits at
    index i*n_theta + j.
    """
    vertices, grid = _mesh_vertices(params, s_range, n_s, n_theta, angle_range)
    faces: list[tuple[int, int, int]] = []
    for i in range(n_s - 1):
        for v in range(i * n_theta, (i + 1) * n_theta - 1):  # vertex (i, j)
            w = v + n_theta  # vertex (i + 1, j)
            faces.append((v, w, w + 1))
            faces.append((v, w + 1, v + 1))
    return SurfaceMesh(vertices=vertices, faces=faces, grid=grid)


def _mesh_vertices(params: CmcParams, s_range: tuple[float, float], n_s: int,
                   n_theta: int, angle_range: float = 2.0):
    """``mesh``'s vertices and (s grid, angle grid), without its faces."""
    if n_s < 2 or n_theta < 2:
        raise DomainError("n_s and n_theta must both be at least 2")
    dom = domain(params)
    if dom.degenerate:
        raise DomainError("cannot mesh a degenerate (single-point) domain")
    lo, hi = s_range
    if not (dom.contains(lo) and dom.contains(hi)) or not lo < hi:
        raise DomainError(f"s_range {s_range!r} not inside open domain")
    if not math.isfinite(hi - lo):
        raise RangeError(f"s_range {s_range!r} spans more than the float range")
    s_samples = _linspace(lo, hi, n_s)
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        if not math.isfinite(angle_range):
            raise RangeError(f"hyperbolic angle range {angle_range!r} "
                             "is not finite")
        if not math.isfinite(2 * angle_range):
            raise RangeError(f"hyperbolic angle range {angle_range!r} spans "
                             "more than the float range")
        theta_samples = _linspace(-angle_range, angle_range, n_theta)
    else:
        theta_samples = _linspace(0.0, 2 * math.pi, n_theta)
    rotations = [_rotation(params, t) for t in theta_samples]
    vertices: list[tuple[float, float, float]] = []
    for cs in profile_points(params, s_samples):
        vertices += _orbit(params, cs, rotations)
    return vertices, (s_samples, theta_samples)


def hyperboloid_vertices(H: float, n_s: int,
                         n_theta: int) -> list[tuple[float, float, float]]:
    """Canonical vertices of the hyperboloid x1^2+x2^2-x3^2 = -1/H^2.

    Used to expose the B=1 Lorentzian quadric where the profile integral
    degenerates (spacelike-axis family): points
    (x, z sinh(theta), z cosh(theta)) with z = sqrt(x^2 + 1/H^2) over
    x in [-1, 1] and theta in [-2, 2].
    """
    if n_s < 2 or n_theta < 2:
        raise DomainError("n_s and n_theta must both be at least 2")
    rotations = [(math.sinh(t), math.cosh(t))
                 for t in _linspace(-2.0, 2.0, n_theta)]
    rows = [(x, math.sqrt(x * x + 1 / (H * H)))
            for x in _linspace(-1.0, 1.0, n_s)]
    return [(x, z * sh, z * ch) for x, z in rows for sh, ch in rotations]
