"""Generating curves of CMC rotation surfaces and their meshes.

Three families of unit-speed profiles, classified by a constant B >= 0 at
fixed mean curvature H > 0:

* ``EUCLIDEAN``: profile (x(s), y(s)) rotated about the x-axis of E3.
* ``LORENTZ_SPACELIKE_AXIS``: profile (x(s), z(s)) rotated about the
  spacelike x-axis of Lorentz-Minkowski space (metric dx^2+dy^2-dz^2),
  orbit (x, z sinh(theta), z cosh(theta)).
* ``LORENTZ_TIMELIKE_AXIS``: profile (x(s), z(s)) rotated about the
  timelike z-axis, orbit (x cos(theta), x sin(theta), z).

In every family the radius coordinate is an explicit square root of a
trigonometric/hyperbolic expression in s, and the axis coordinate is a sum
of incomplete elliptic integrals, evaluated in Carlson's symmetric form
(``_carlson``); first and second derivatives are analytic throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._carlson import rd, rf
from .errors import (DomainError, EmptyDomainError, RangeError,
                     UnsupportedCaseError)


class Family(enum.Enum):
    EUCLIDEAN = "euclidean"
    LORENTZ_SPACELIKE_AXIS = "spacelike-axis"
    LORENTZ_TIMELIKE_AXIS = "timelike-axis"


@dataclass(frozen=True)
class CmcParams:
    """Physical input: family, mean curvature H > 0, classifying B >= 0."""

    family: Family
    H: float
    B: float

    def __post_init__(self):
        if not (self.H > 0 and math.isfinite(self.H)):
            raise DomainError(f"H must be positive and finite, got {self.H!r}")
        if not (self.B >= 0 and math.isfinite(self.B)):
            raise DomainError(f"B must be non-negative and finite, got {self.B!r}")


@dataclass(frozen=True)
class SInterval:
    """Open arc-length interval (lo, hi); degenerate marks a single point."""

    lo: float
    hi: float
    degenerate: bool = False

    def contains(self, s: float) -> bool:
        return (not self.degenerate) and self.lo < s < self.hi


@dataclass(frozen=True)
class CurveSample:
    """Profile point: coordinates and their s-derivatives.

    ``second`` is the non-x coordinate (y for the Euclidean family, z for the
    Lorentzian ones).
    """

    s: float
    x: float
    second: float
    dx: float
    dsecond: float


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: list[tuple[float, float, float]]
    faces: list[tuple[int, int, int]]
    params: CmcParams
    grid: tuple[np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# Domains


def domain(params: CmcParams) -> SInterval:
    """Maximal open s-interval (around the base point) with positive radicand."""
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
    dom = domain(params)
    if dom.degenerate:
        raise DomainError(
            f"domain of {params.family.value} B={params.B} degenerates to a point")
    for s in s_grid:
        if not dom.contains(s):
            raise DomainError(
                f"s={s!r} outside open domain ({dom.lo!r}, {dom.hi!r})")


# ---------------------------------------------------------------------------
# Closed-form coordinate pieces


def _radicand(params: CmcParams, s: float) -> float:
    H, B = params.H, params.B
    if params.family is Family.EUCLIDEAN:
        return 1 + B * B + 2 * B * math.sin(2 * H * s)
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        # 1 + B^2 - 2B cosh(2Hs), free of the cancellation as B -> 1.
        return (1 - B) ** 2 - 4 * B * math.sinh(H * s) ** 2
    return B * B + 2 * B * math.sinh(2 * H * s) - 1


def _closed_pieces(params: CmcParams, s: float):
    """Radius coordinate, its two derivatives, and the axis derivatives.

    Returns (radius, d(radius), dd(radius), d(axis), dd(axis)). Raises
    RangeError where sinh/cosh or sin overflows; past that a piece may
    still come out inf or nan, so callers check the ones they use with
    ``_finite``.
    """
    H, B = params.H, params.B
    try:
        R = _radicand(params, s)
        if R <= 0:
            raise DomainError(f"radicand non-positive at s={s!r}")
        sq = math.sqrt(R)
        R32 = R * sq
        if params.family is Family.EUCLIDEAN:
            sn, cs = math.sin(2 * H * s), math.cos(2 * H * s)
            radius = sq / (2 * H)
            drad = B * cs / sq
            ddrad = -2 * B * H * (1 + B * sn) * (B + sn) / R32
            dax = (1 + B * sn) / sq
            ddax = 2 * B * B * H * cs * (B + sn) / R32
        elif params.family is Family.LORENTZ_SPACELIKE_AXIS:
            sh, ch = math.sinh(2 * H * s), math.cosh(2 * H * s)
            radius = sq / (2 * H)
            drad = -B * sh / sq
            ddrad = -2 * B * H * (ch - B) * (1 - B * ch) / R32
            dax = (B * ch - 1) / sq
            ddax = 2 * B * B * H * sh * (B - ch) / R32
        else:
            sh, ch = math.sinh(2 * H * s), math.cosh(2 * H * s)
            radius = sq / (2 * H)
            drad = B * ch / sq
            ddrad = 2 * B * H * (B + sh) * (B * sh - 1) / R32
            dax = (B * sh - 1) / sq
            ddax = 2 * B * B * H * ch * (B + sh) / R32
    except (OverflowError, ValueError):  # sinh/cosh overflow, sin(inf)
        raise _overflow(params, s) from None
    return radius, drad, ddrad, dax, ddax


def _overflow(params: CmcParams, s: float) -> RangeError:
    return RangeError(
        f"profile of {params.family.value} H={params.H!r} B={params.B!r} "
        f"overflows the float range at s={s!r}")


def _finite(params: CmcParams, s: float, values: tuple) -> tuple:
    """values, or RangeError if any of them left the float range."""
    if not all(map(math.isfinite, values)):
        raise _overflow(params, s)
    return values


def anchor(params: CmcParams, edge_offset: float | None = None) -> float:
    """Base point of the axis coordinate (0 whenever 0 is in the open domain).

    Only the timelike-axis family with B <= 1 needs a shifted base point:
    there the domain edge sits at s >= 0 and the axis coordinate vanishes at
    edge + edge_offset (default 1e-6/H). Profiles are defined up to a
    translation along the axis, so the anchor is a pure convention shared
    with the Weierstrass-path reconstruction.
    """
    if params.family is not Family.LORENTZ_TIMELIKE_AXIS:
        return 0.0
    dom = domain(params)
    if dom.lo < 0:
        return 0.0
    delta = edge_offset if edge_offset is not None else 1e-6 / params.H
    return dom.lo + delta


# ---------------------------------------------------------------------------
# Axis coordinate: incomplete elliptic integrals in Carlson's form


def _legendre(sn: float, c2: float, m: float,
              m1: float) -> tuple[float, float]:
    """F(phi|m) and D = F - E from sin(phi) and cos(phi)^2, |phi| <= pi/2.

    m1 = 1 - m comes separately so that it keeps its digits near m = 1.
    """
    d2 = c2 + m1 * sn * sn  # 1 - m sin^2(phi)
    return sn * rf(c2, d2, 1.0), m / 3 * sn ** 3 * rd(c2, d2, 1.0)


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
        half_k, half_d = 2 * rf(0.0, m1, 1.0), 2 * m / 3 * rd(0.0, m1, 1.0)

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


def _axis_values(params: CmcParams, grid: Sequence[float],
                 edge_offset: float | None) -> list[float]:
    """Axis coordinate at every sample of grid, vanishing at ``anchor``."""
    H, B = params.H, params.B
    if params.family is Family.EUCLIDEAN:
        axis = _euclidean_axis(H, B)
    elif params.family is Family.LORENTZ_SPACELIKE_AXIS:
        axis = _spacelike_axis(H, B)
    else:
        axis = _timelike_axis(H, B, domain(params).lo,
                              anchor(params, edge_offset))
    values = []
    for s in grid:
        try:
            values.append(_finite(params, s, (axis(s),))[0])
        except OverflowError:  # exp past the float range
            raise _overflow(params, s) from None
    return values


# ---------------------------------------------------------------------------
# Public profile operations


def profile_points(params: CmcParams, s_grid: Sequence[float],
                   edge_offset: float | None = None) -> list[CurveSample]:
    """Profile samples along a grid of arc lengths, in grid order.

    Closed forms at every sample, each computed on its own. For the
    timelike-axis family the axis coordinate is anchored at s_ref = 0 when
    B > 1, else at the domain edge plus ``edge_offset`` (default 1e-6/H);
    the profile is defined up to axis translation.
    """
    grid = [float(s) for s in s_grid]
    _require_in_domain(params, grid)
    pieces = []
    for s in grid:
        radius, drad, _, dax, _ = _closed_pieces(params, s)
        pieces.append(_finite(params, s, (radius, drad, dax)))
    axes = _axis_values(params, grid, edge_offset)
    if params.family is Family.LORENTZ_TIMELIKE_AXIS:
        # Profile is (x, z) = (radius, axis).
        return [CurveSample(s=s, x=radius, second=axis, dx=drad, dsecond=dax)
                for s, (radius, drad, dax), axis in zip(grid, pieces, axes)]
    return [CurveSample(s=s, x=axis, second=radius, dx=dax, dsecond=drad)
            for s, (radius, drad, dax), axis in zip(grid, pieces, axes)]


def profile_point(params: CmcParams, s: float,
                  edge_offset: float | None = None) -> CurveSample:
    """Profile sample at arc length s: the one-sample ``profile_points``."""
    return profile_points(params, [s], edge_offset)[0]


def surface_point(params: CmcParams, s: float, theta: float,
                  edge_offset: float | None = None) -> tuple[float, float, float]:
    """The rotation-orbit map applied to the profile point."""
    cs = profile_point(params, s, edge_offset)
    return _orbit(params, cs, [_rotation(params, theta)])[0]


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


def mean_curvature(params: CmcParams, s: float) -> float:
    """Mean curvature of the rotation surface at profile parameter s.

    Evaluated from the analytic first/second derivatives of the profile
    (no finite differences); orientation is fixed so the cylinder case
    returns +H, and by continuity every profile of the family returns +H.
    """
    _require_in_domain(params, [s])
    radius, drad, ddrad, dax, ddax = _finite(params, s,
                                             _closed_pieces(params, s))
    if params.family is Family.EUCLIDEAN:
        # (1/2) [x'/y + x'' y' - x' y'']
        return 0.5 * (dax / radius + ddax * drad - dax * ddrad)
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        # [-x' z - z^2 (x' z'' - z' x'')] / (2 z^2)
        z, dz, ddz, dx, ddx = radius, drad, ddrad, dax, ddax
        return (-dx * z - z * z * (dx * ddz - dz * ddx)) / (2 * z * z)
    # timelike axis: (1/2) [z'/x + x' z'' - x'' z']
    x, dx, ddx, dz, ddz = radius, drad, ddrad, dax, ddax
    return 0.5 * (dz / x + dx * ddz - ddx * dz)


def maximal_profile(c: float, x: float) -> float:
    """Zero-mean-curvature profile z = c*cos(x/c), on the branch z > 0."""
    if c <= 0:
        raise DomainError(f"c must be positive, got {c!r}")
    if abs(x / c) >= math.pi / 2:
        raise DomainError(f"|x/c| must stay below pi/2, got x={x!r}")
    return c * math.cos(x / c)


def implicit_residual(params: CmcParams, pt: Sequence[float]) -> float:
    """Residual of the algebraic special-case surface equation at a point.

    Supported only for B in {0, 1}: cylinders (B=0), the Euclidean sphere and
    the Lorentzian hyperboloid x1^2+x2^2-x3^2 = -1/H^2 (B=1).
    """
    H, B = params.H, params.B
    x1, x2, x3 = pt
    if B == 0.0:
        if params.family is Family.EUCLIDEAN:
            return abs(x2 * x2 + x3 * x3 - 1 / (4 * H * H))
        if params.family is Family.LORENTZ_SPACELIKE_AXIS:
            return abs(x3 * x3 - x2 * x2 - 1 / (4 * H * H))
        return abs(x1 * x1 + x2 * x2 - 1 / (4 * H * H))
    if B == 1.0:
        if params.family is Family.EUCLIDEAN:
            x0 = math.sqrt(2) / (2 * H)  # axis value at the equator
            return abs((x1 - x0) ** 2 + x2 * x2 + x3 * x3 - 1 / (H * H))
        return abs(x1 * x1 + x2 * x2 - x3 * x3 + 1 / (H * H))
    raise UnsupportedCaseError(
        f"no known implicit polynomial for B={B!r} (need B in {{0, 1}})")


def mesh(params: CmcParams, s_range: tuple[float, float], n_s: int,
         n_theta: int, angle_range: float = 2.0,
         edge_offset: float | None = None) -> SurfaceMesh:
    """Grid mesh of the rotation surface over s_range x angle grid.

    The angle grid is [0, 2pi] for circular rotations and
    [-angle_range, angle_range] for the hyperbolic angle of the
    spacelike-axis family. Quads are triangulated; vertex (i, j) sits at
    index i*n_theta + j.
    """
    if n_s < 2 or n_theta < 2:
        raise DomainError("n_s and n_theta must both be at least 2")
    dom = domain(params)
    if dom.degenerate:
        raise DomainError("cannot mesh a degenerate (single-point) domain")
    lo, hi = s_range
    if not (dom.contains(lo) and dom.contains(hi)) or not lo < hi:
        raise DomainError(f"s_range {s_range!r} not inside open domain")
    s_samples = np.linspace(lo, hi, n_s)
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        if not math.isfinite(angle_range):
            raise RangeError(f"hyperbolic angle range {angle_range!r} "
                             "is not finite")
        theta_samples = np.linspace(-angle_range, angle_range, n_theta)
    else:
        theta_samples = np.linspace(0.0, 2 * math.pi, n_theta)
    rotations = [_rotation(params, float(t)) for t in theta_samples]
    vertices: list[tuple[float, float, float]] = []
    for cs in profile_points(params, s_samples, edge_offset):
        vertices += _orbit(params, cs, rotations)
    faces: list[tuple[int, int, int]] = []
    for i in range(n_s - 1):
        for j in range(n_theta - 1):
            v00 = i * n_theta + j
            v01 = v00 + 1
            v10 = v00 + n_theta
            v11 = v10 + 1
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return SurfaceMesh(vertices=vertices, faces=faces, params=params,
                       grid=(s_samples, theta_samples))


def hyperboloid_vertices(H: float, n_s: int, n_theta: int,
                         x_range: tuple[float, float] = (-1.0, 1.0),
                         angle_range: float = 2.0
                         ) -> list[tuple[float, float, float]]:
    """Canonical vertices of the hyperboloid x1^2+x2^2-x3^2 = -1/H^2.

    Used to expose the B=1 Lorentzian quadric where the profile integral
    degenerates (spacelike-axis family): points
    (x, z sinh(theta), z cosh(theta)) with z = sqrt(x^2 + 1/H^2).
    """
    out = []
    for x in np.linspace(x_range[0], x_range[1], n_s):
        z = math.sqrt(x * x + 1 / (H * H))
        for theta in np.linspace(-angle_range, angle_range, n_theta):
            out.append((float(x), z * math.sinh(theta), z * math.cosh(theta)))
    return out
