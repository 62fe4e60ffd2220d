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
trigonometric/hyperbolic expression in s and the axis coordinate is the
integral of a closed-form derivative; first and second derivatives are
analytic throughout.  The square-root factor vanishes at the domain edges,
so axis integrals near a finite edge are computed under the substitution
s = edge +/- sigma^2, which makes the integrand smooth.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import (AccuracyError, DomainError, EmptyDomainError, RangeError,
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
        s_max = math.acosh((1 + B * B) / (2 * B)) / (2 * H)
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
        return 1 + B * B - 2 * B * math.cosh(2 * H * s)
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


def _axis_derivative(params: CmcParams, s: float) -> float:
    H, B = params.H, params.B
    R = _radicand(params, s)
    sq = math.sqrt(R)
    if params.family is Family.EUCLIDEAN:
        return (1 + B * math.sin(2 * H * s)) / sq
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        return (B * math.cosh(2 * H * s) - 1) / sq
    return (B * math.sinh(2 * H * s) - 1) / sq


# ---------------------------------------------------------------------------
# Quadrature


def _gate(val: float) -> float:
    """Largest quadrature error estimate accepted for an integral of val."""
    return max(1e-9 * abs(val), 1e-10)


def _quad(f: Callable[[float], float], a: float,
          b: float) -> tuple[float, float]:
    """Integral of f from a to b and its error estimate."""
    if a == b:
        return 0.0, 0.0
    val, err = quad(f, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)
    if err > _gate(val):
        val, err = quad(f, a, b, epsabs=1e-13, epsrel=1e-11, limit=800)
        if err > _gate(val):
            raise AccuracyError(
                f"quadrature error estimate {err:.3e} over [{a!r}, {b!r}]",
                achieved=err)
    return val, err


def _integral_from_edge(params: CmcParams, edge: float, sign: int,
                        a: float, b: float) -> tuple[float, float]:
    """Integral of the axis derivative from a to b via s = edge + sign*sigma^2.

    Both a and b must lie on the sign side of the edge; the substituted
    integrand 2*sigma*f(edge + sign*sigma^2) stays smooth as the radicand's
    simple zero at the edge is approached. Returns (value, error estimate).
    """
    sa = math.sqrt(sign * (a - edge))
    sb = math.sqrt(sign * (b - edge))

    def g(sigma: float) -> float:
        return 2.0 * sigma * _axis_derivative(params, edge + sign * sigma * sigma)

    val, err = _quad(g, sa, sb)
    return sign * val, err


def anchor(params: CmcParams, edge_offset: float | None = None) -> float:
    """Base point of the axis integral (0 whenever 0 is in the open domain).

    Only the timelike-axis family with B <= 1 needs a shifted base point:
    there the domain edge sits at s >= 0 and the integral is anchored at
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


@functools.lru_cache(maxsize=64)
def _euclidean_period(H: float, B: float) -> tuple[float, float]:
    """Axis advance over one period pi/H of the Euclidean rate (B != 1)."""
    params = CmcParams(Family.EUCLIDEAN, H, B)
    return _quad(lambda t: _axis_derivative(params, t), 0.0, math.pi / H)


def _split_step(params: CmcParams, a: float, m: float,
                b: float) -> tuple[float, float]:
    val_a, err_a = _axis_step(params, a, m)
    val_b, err_b = _axis_step(params, m, b)
    return val_a + val_b, err_a + err_b


def _axis_step(params: CmcParams, a: float, b: float) -> tuple[float, float]:
    """Integral of the axis derivative from a to b (either order), with error.

    Each family keeps the substitution that makes its integrand smooth:
    timelike axis, s = edge + sigma^2 at the left edge; spacelike axis, the
    rate is even, so each side of 0 folds onto [0, s_max) against the right
    edge; Euclidean B = 1, each side of the equator pi/(4H) against its own
    edge. Off B = 1 the Euclidean rate has period pi/H, so whole periods
    come from the cached one-period integral.
    """
    H, B = params.H, params.B
    fam = params.family
    if fam is Family.LORENTZ_TIMELIKE_AXIS:
        return _integral_from_edge(params, domain(params).lo, +1, a, b)
    if fam is Family.LORENTZ_SPACELIKE_AXIS:
        if a * b < 0:
            return _split_step(params, a, 0.0, b)
        val, err = _integral_from_edge(params, domain(params).hi, -1,
                                       abs(a), abs(b))
        return (val if a + b >= 0 else -val), err
    if B == 1.0:
        mid = math.pi / (4 * H)
        if (a - mid) * (b - mid) < 0:
            return _split_step(params, a, mid, b)
        dom = domain(params)
        if max(a, b) <= mid:
            return _integral_from_edge(params, dom.lo, +1, a, b)
        return _integral_from_edge(params, dom.hi, -1, a, b)
    k = math.trunc((b - a) * H / math.pi)
    val, err = _quad(lambda t: _axis_derivative(params, t),
                     a, b - k * math.pi / H)
    if k:
        period, period_err = _euclidean_period(H, B)
        val, err = k * period + val, abs(k) * period_err + err
    return val, err


def _axis_values(params: CmcParams, s_grid: Sequence[float],
                 edge_offset: float | None) -> list[float]:
    """Axis coordinate at every sample of s_grid, one integral per step.

    The first sample is integrated from the anchor, each later one adds the
    integral from its predecessor, so a monotone grid (ascending or
    descending) costs one short integral per sample. The summed error
    estimates of the steps behind a sample must pass the gate of a single
    quadrature of the largest axis value reached so far: a sample where
    the axis comes back near 0 still carries the error of the path there.
    """
    if params.family is Family.LORENTZ_SPACELIKE_AXIS and params.B == 0.0:
        return [-s for s in s_grid]  # the profile is the line x = -s
    values = []
    axis = err = scale = 0.0
    prev = anchor(params, edge_offset)
    for s in s_grid:
        step, step_err = _axis_step(params, prev, s)
        axis += step
        err += step_err
        scale = max(scale, abs(axis))
        if err > _gate(scale):
            raise AccuracyError(
                f"summed quadrature error estimate {err:.3e} at s={s!r}",
                achieved=err)
        values.append(axis)
        prev = s
    return values


# ---------------------------------------------------------------------------
# Public profile operations


def profile_points(params: CmcParams, s_grid: Sequence[float],
                   edge_offset: float | None = None) -> list[CurveSample]:
    """Profile samples along a grid of arc lengths, in grid order.

    Closed-form derivatives at every sample; the axis coordinate is
    accumulated along the grid (see ``_axis_values``). For the
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


_EQUATOR_CACHE: dict[float, float] = {}


def _sphere_center(H: float) -> float:
    """x-offset of the Euclidean B=1 sphere: axis value at the equator."""
    if H not in _EQUATOR_CACHE:
        params = CmcParams(Family.EUCLIDEAN, H, 1.0)
        s_eq = math.pi / (4 * H)
        _EQUATOR_CACHE[H] = profile_point(params, s_eq).x
    return _EQUATOR_CACHE[H]


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
            x0 = _sphere_center(H)
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
