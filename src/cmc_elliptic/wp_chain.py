"""Elliptic-path reconstruction of profiles and the derivative-chain engine.

Along every profile the squared radius, rescaled by (2H)^2, is an affine
function of a Weierstrass P value: r = c1 + c2*P(t), while the axis
coordinate satisfies dt/dx3 = 1/(alpha + beta*P(t)). Repeated d/dx3 then
stays inside a small closed system: rewriting P'' = 6P^2 - g2/2 and
(P')^2 = 4P^3 - g2*P - g3 keeps every derivative of the shape

    d^k r / dx3^k = N_k(P) * (P')^(k mod 2) / (alpha + beta*P)^(2k-1).

If r were a polynomial in x3 of degree d, the numerator N_{d+1} would be
identically zero. ``polynomiality_probe`` certifies in exact rational
arithmetic that no numerator collapses, which is the computational content
of the non-algebraicity argument.

The exact chain works in the unscaled cubic variable X = lambda*P, where
(P')^2 = n*X^3 + m*X + l and alpha + beta*P = lambda*(a + b*X) with
a = -p/(2H), b = B/(2H). Every step is homogeneous in lambda, so the P^i
coefficient of N_k is lambda^(2k-2+i) times a rational one. H leaves the
chain the same way: order k at H is (2H)^-(k-1) times order k at H = 1/2.
The chain therefore runs at H = 1/2, over Python ints, each order a
primitive integer numerator times one exact Fraction scale. That chain
is the only recursion: the float coefficients are its graded values
rounded once, order by order, at the reduced scale times (2H)^-(k-1), so
a coefficient that vanishes over Q is 0.0 and every numerator degree is
exact, as is the denominator power 2k-1. One LRU memo keeps the probe
rows of the most recently used requests (configuration, K), so a
repeated probe steps, rounds and evaluates nothing.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import profiles
from ._ratpoly import Poly, _poly
from .elliptic_reduction import (ReductionData, _shift_and_depress,
                                 is_singular_value)
from .errors import DomainError, NearPoleError, RangeError, SingularError
from .profiles import CmcParams, Family
from .weierstrass import WpEvaluator

# Relative size of alpha + beta*P below which a point counts as on the pole.
_NEAR_POLE = 1e-12


class ChainConfig(NamedTuple):
    """Constants tying one profile family at (H, B) to its elliptic path.

    alpha and beta give dt/dx3 = 1/(alpha + beta*P(t)); c1 and c2 give the
    rescaled squared radius r = c1 + c2*P(t); lam is the cube-root scale
    from the reduction and c_shift the cubic's depressing shift.
    """

    family: Family
    H: float
    B: float
    g2: float
    g3: float
    alpha: float
    beta: float
    c1: float
    c2: float
    lam: float
    c_shift: float


class ChainTerm(NamedTuple):
    """One order: num(P)/(alpha + beta*P)^(2k-1), times P' when flagged."""

    k: int
    num: Poly
    has_wp_prime: bool


def _family_constants(family: Family, c, B):
    """(p, c1_raw, c2_sign) over the ring of c and B.

    p is chosen so that the axis-coordinate derivative along the path is
    exactly alpha + beta*P with alpha = -p*lam/(2H); the radius closed
    forms fix c1 and the sign of c2 = sign * 2*B*lam.
    """
    if family is Family.LORENTZ_TIMELIKE_AXIS:
        return (1 + B * c), (B * B - 2 * B * c - 1), +1
    if family is Family.LORENTZ_SPACELIKE_AXIS:
        return (1 + B * c), (1 + B * B + 2 * B * c), -1
    # Euclidean: the rotation radius sits on the other leg of the unit-speed
    # identity, which flips the sign pattern of the axis derivative.
    return (B * c - 1), (1 + B * B - 2 * B * c), +1


def chain_config(data: ReductionData, H: float) -> ChainConfig:
    """Chain constants for one reduction; rejects singular configurations.

    Raises SingularError when the cubic has a repeated root (disc = 0, no
    elliptic path exists) and likewise when B sits at one of the family's
    classification roots where the screening polynomial vanishes.
    """
    if H <= 0 or not math.isfinite(H):
        raise DomainError(f"H must be positive and finite, got {H!r}")
    for name in ("g2", "g3", "lam", "disc"):
        if not math.isfinite(getattr(data, name)):
            raise DomainError(f"non-finite reduction field {name}")
    scale = max(1.0, abs(data.g2) ** 3, 27.0 * data.g3 * data.g3)
    if abs(data.disc) <= 1e-12 * scale:
        raise SingularError(
            f"disc={data.disc!r} vanishes at B={data.B!r}: repeated cubic root, "
            "no elliptic path")
    if is_singular_value(data.family, data.B):
        raise SingularError(
            f"B={data.B!r} is a classification root of the {data.family.value} "
            "screening polynomial")
    B, lam, c = data.B, data.lam, data.c_shift
    p, c1, c2_sign = _family_constants(data.family, c, B)
    alpha = -p * lam / (2.0 * H)
    beta = B * lam * lam / (2.0 * H)
    c2 = c2_sign * 2.0 * B * lam
    if beta == 0.0:
        raise DomainError("beta = 0: configuration does not define a chain")
    return ChainConfig(family=data.family, H=float(H), B=B, g2=data.g2,
                       g3=data.g3, alpha=alpha, beta=beta, c1=c1, c2=c2,
                       lam=lam, c_shift=c)


# ---------------------------------------------------------------------------
# Core chain recursion (over the integers)


def _chain_core(alpha, beta, cubic):
    """The step from order k of d^k r/dx3^k to order k+1.

    An order is (k, N, scale, has_wp_prime): the numerator is scale*N, with
    N an int Poly of unit content and scale a Fraction, over the
    denominator (alpha + beta*P)^(2k-1); order 1 is _FIRST_ORDER, r' = P'/D.
    Each step applies d/dt followed by the 1/(alpha + beta*P) factor of
    d/dx3; the substitutions (P')^2 -> C(P) and P'' -> C'(P)/2 close the
    system. The rational inputs are cleared once: with q the lcm of their
    denominators, a = q*alpha, b = q*beta and c = q*C are integer, an odd
    step (doubled, so C'/2 stays integral) puts 1/(2q^2) into the scale and
    an even step 1/q, and each order's content moves there too.

    No linear factor cancels: at P0 = -a/b, with j = 2k-1, an odd step
    leaves N_{k+1}(P0) = -2jb*N_k(P0)*c(P0) and an even step -jb*N_k(P0), so
    no N_k vanishes there unless C(P0) = 0. In the X of _exact_chain,
    P0 = p/B and C(P0) is (B^2+1)^2/B^2, -(B^2-1)^2/B^2 or (B^2-1)^2/B^2
    (timelike, spacelike, Euclidean): zero only at the repeated-root B = 1
    that chain_config rejects, a SingularError here.
    """
    q = math.lcm(*(Fraction(x).denominator for x in (alpha, beta, *cubic)))
    a, b = int(q * alpha), int(q * beta)
    c = _poly([int(q * x) for x in cubic])
    if c(Fraction(-a, b)) == 0:
        raise SingularError("the cubic vanishes at the zero of alpha + beta*P:"
                            " repeated cubic root, no elliptic path")
    dc = c.derivative()
    D = _poly([a, b])

    def step(order):
        k, N, scale, has_prime = order
        dN = N.derivative()
        j = 2 * k - 1
        if has_prime:
            N = (dN * c * 2 + N * dc) * D - N * c * (2 * j * b)
            scale /= 2 * q * q
        else:
            N = dN * D - N * (j * b)
            scale /= q
        g = math.gcd(*N.coeffs)
        if g > 1:
            N = _poly([x // g for x in N.coeffs])
            scale *= g
        return k + 1, N, scale, not has_prime

    return step


_FIRST_ORDER = (1, _poly([1]), Fraction(1), True)


def _exact_chain(cfg: ChainConfig, upto_k: int):
    """Unit-seed chain in X = lambda*P at H = 1/2, where alpha = -p and
    beta = B: a generator of orders 1..upto_k, each stepped from the one
    before. Order k at cfg.H is (2H)^-(k-1) times order k here."""
    B = Fraction(cfg.B)
    c, l, m, n = _shift_and_depress(cfg.family, B)
    p, _, _ = _family_constants(cfg.family, c, B)
    step = _chain_core(-p, B, [l, m, 0, n])
    row = _FIRST_ORDER
    yield row
    for _ in range(upto_k - 1):
        row = step(row)
        yield row


def differentiate_chain(cfg: ChainConfig, upto_k: int) -> list[ChainTerm]:
    """Symbolic d^k r/dx3^k for k = 1..upto_k as rational functions of P.

    Each numerator coefficient is cfg.c2 times the graded exact one, rounded
    once as each order arrives; RangeError at the first one with no float
    value, which is the only bound on upto_k. The scale of order k at H is
    its scale at H = 1/2 times (2H)^-(k-1), one reduced Fraction whose
    numerator and denominator _true_coefficient divides once; Fraction(H)
    is exact for every float H. cfg.c2 may be overridden (e.g. the c2 = 0
    degenerate control): the chain scales linearly with it. Other fields
    must come from chain_config.
    """
    if upto_k < 1:
        raise DomainError(f"upto_k must be >= 1, got {upto_k}")
    c2, lam, at_h = cfg.c2, cfg.lam, Fraction(1)  # at_h = (2H)^-(k-1)
    inv_2h = 1 / (2 * Fraction(cfg.H))
    terms = []
    for k, num, scale, has_prime in _exact_chain(cfg, upto_k):
        scale *= at_h
        at_h *= inv_2h
        coeffs = [0.0] if c2 == 0.0 else [
            _true_coefficient(k, i, c2, lam, 2 * k - 2 + i, x,
                              scale.numerator, scale.denominator)
            for i, x in enumerate(num.coeffs)]
        terms.append(ChainTerm(k, _poly(coeffs), has_prime))
    return terms


def _true_coefficient(k: int, i: int, c2: float, lam: float, power: int,
                      x: int, num: int, den: int) -> float:
    """c2 * lam**power * x*num/den as a float; RangeError when it has no
    float value.

    x*num/den is the exact coefficient, rounded once by int true division,
    which is correct in the subnormal range too. The float product serves
    unless it overflows, or underflows to zero while x does not vanish.
    Then the exact product decides, so that a nonzero coefficient never
    rounds to 0.0 or inf.
    """
    try:
        value = c2 * lam ** power * (x * num / den)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) or (value == 0.0 and x != 0):
        try:
            value = float(Fraction(c2) * Fraction(lam) ** power *
                          Fraction(x * num, den))
        except OverflowError:
            value = math.inf
        if math.isinf(value) or (value == 0.0 and x != 0):
            raise RangeError(f"chain step {k}: exact coefficient of P^{i} "
                             "is outside the float range")
    return value


def eval_chain_term(cfg: ChainConfig, term: ChainTerm, ev: WpEvaluator,
                    t: float) -> float:
    """Numeric value of one chain term of cfg at parameter t."""
    p, pp = ev.wp(t)
    return _term_value(term, p, pp, _linear_factor(cfg, p))


def _linear_factor(cfg: ChainConfig, p: float) -> float:
    """alpha + beta*P; NearPoleError where the sum cancels to round-off."""
    d = cfg.alpha + cfg.beta * p
    if abs(d) <= _NEAR_POLE * (abs(cfg.alpha) + abs(cfg.beta * p)):
        raise NearPoleError(f"alpha + beta*P = {d!r} cancels at P={p!r}")
    return d


def _term_value(term: ChainTerm, p: float, pp: float, d: float) -> float:
    """num(P)/d^(2k-1), times P' when flagged, with d = alpha + beta*P;
    RangeError where the power or the value leaves the float range."""
    num = term.num(p)
    fac = pp if term.has_wp_prime else 1.0
    try:
        val = num / d ** (2 * term.k - 1) * fac
    except (OverflowError, ZeroDivisionError):
        val = math.nan
    if not math.isfinite(val) or (val == 0.0 and num * fac != 0.0):
        raise RangeError(f"chain step {term.k}: value at P={p!r} is outside "
                         "the float range")
    return val


# ---------------------------------------------------------------------------
# Curve reconstruction through the elliptic path


def _path_parameter(cfg: ChainConfig, ev: WpEvaluator, s: float) -> tuple:
    """(t, P(t) = w) for t = -inverse(w), w = (u(s) + c_shift)/lam clamped to
    the branch, u the sin, cosh or sinh of 2Hs; -inverse orients t as s."""
    x = 2.0 * cfg.H * s
    if cfg.family is Family.LORENTZ_TIMELIKE_AXIS:
        u = math.sinh(x)
    elif cfg.family is Family.LORENTZ_SPACELIKE_AXIS:
        u = math.cosh(x)
    else:
        u = math.sin(x)
    w = (u + cfg.c_shift) / cfg.lam
    return -ev.wp_inverse(w), max(w, ev.e_max)


def _path_axis(cfg: ChainConfig, ev: WpEvaluator, t0: float, t: float,
               zeta0: float | None = None) -> tuple:
    """(axis coordinate at path parameter t, vanishing at t0; zeta(t0); the
    (P, P', zeta) of t, or None where t = t0 reads no series).

    The axis coordinate is alpha*(t - t0) + beta*ev.wp_integral(t0, t), the
    same floats and the same errors in the same order. zeta(t0) is summed
    only where zeta0 is None and t needs it; a path passes back the one it
    got, so that it is summed once per path.
    """
    if ev._empty_stretch(t0, t):
        return cfg.alpha * (t - t0) + cfg.beta * 0.0, zeta0, None
    if zeta0 is None:
        zeta0 = ev._wp_zeta(t0)[2]
    series = ev._wp_zeta(t)
    return (cfg.alpha * (t - t0) + cfg.beta * (zeta0 - series[2]), zeta0,
            series)


def curve_points_from_wp(cfg: ChainConfig, params: CmcParams,
                         s_grid: Sequence[float]) -> list[tuple[float, float]]:
    """(radius, axis) at each arc length of s_grid through the P path.

    Must agree with profiles.profile_points up to the axis translation fixed
    by the shared anchor. Every sample is checked against the domain first;
    one evaluator, one anchor parameter t0 and one zeta(t0) then serve the
    grid. The parameter map is ``_path_parameter``; the axis coordinate
    integrates forward from the anchor. t0 follows the first sample's t, so
    one sample fails in the order params, domain, evaluator, t(s), t0,
    radicand, axis.
    """
    if params.family is not cfg.family:
        raise DomainError(
            f"params family {params.family.value!r} does not match the "
            f"configuration family {cfg.family.value!r}")
    if abs(params.H - cfg.H) > 1e-12 * cfg.H or \
            abs(params.B - cfg.B) > 1e-12 * max(1.0, cfg.B):
        raise DomainError("params (H, B) do not match the configuration")
    grid = list(s_grid)
    lo, hi, _ = profiles.domain(params)  # a degenerate one holds no s
    for s in grid:
        if not lo < s < hi:
            raise DomainError(f"s={s!r} outside the profile domain")
    ev = WpEvaluator(cfg.g2, cfg.g3)
    t0 = zeta0 = None
    out = []
    for s in grid:
        t, p = _path_parameter(cfg, ev, s)
        if t0 is None:
            t0, _ = _path_parameter(cfg, ev, profiles.anchor(params))
        radicand = cfg.c1 + cfg.c2 * p
        if radicand < 0:
            raise DomainError(f"negative squared radius {radicand!r}: "
                              f"s={s!r} is off the branch")
        axis, zeta0, _ = _path_axis(cfg, ev, t0, t, zeta0)
        out.append((math.sqrt(radicand) / (2.0 * cfg.H), axis))
    return out


def curve_from_wp(cfg: ChainConfig, params: CmcParams,
                  s: float) -> tuple[float, float]:
    """(radius, axis) at arc length s: the one-sample
    ``curve_points_from_wp``."""
    return curve_points_from_wp(cfg, params, [s])[0]


# ---------------------------------------------------------------------------
# Non-polynomiality probe

# Offsets above e_max for generic sample points; chosen away from small
# rationals so none coincides with the denominator's lone real zero.
_PROBE_OFFSETS = (0.37, 0.83, 1.91, 4.3, 8.7)

# The memo _probe_rows keeps the rows of the _KEPT_PROBES most recently used
# requests (cfg, K) with K <= _KEPT_ORDERS; a larger K is probed and not
# stored. Forty rows take about 4.5 kB, so a full memo is near 0.6 MB.
_KEPT_PROBES = 128
_KEPT_ORDERS = 40


@functools.lru_cache(maxsize=_KEPT_PROBES)
def _probe_rows(cfg: ChainConfig, K: int) -> tuple[tuple, ...]:
    """(k, num_degree, has_wp_prime, min_abs_value, identically_zero) of
    each order k = 1..K of cfg; a call that raises stores nothing."""
    terms = differentiate_chain(cfg, K)
    ev = WpEvaluator(cfg.g2, cfg.g3)
    points = []
    for off in _PROBE_OFFSETS:
        p = ev.e_max + off
        try:
            points.append((p, ev._slope(p), _linear_factor(cfg, p)))
        except NearPoleError:
            continue
    rows = []
    for term in terms:
        values = [abs(_term_value(term, *point)) for point in points]
        rows.append((term.k, term.num.degree, term.has_wp_prime,
                     min(values) if values else float("nan"),
                     term.num.is_zero()))
    return tuple(rows)


def polynomiality_probe(cfg: ChainConfig, K: int) -> dict:
    """Certify that no derivative numerator collapses for k = 1..K.

    The exact chain decides identically_zero per term (a nonzero exact
    coefficient never rounds to 0.0); float evaluation at five branch points
    P = e_max + offset reports the observed minimum magnitude, leaving out
    a point where alpha + beta*P cancels. A polynomial radius of degree d would
    force the k = d+1 numerator to vanish identically, so an all-nonzero
    report up to K rules out polynomial radii of degree < K.

    A request with K <= _KEPT_ORDERS is served from the memo of
    _probe_rows, keyed by (cfg, K); a larger K is stored nowhere.
    """
    if K < 3:
        raise DomainError(f"K must be >= 3 for a meaningful probe, got {K}")
    probe = _probe_rows if K <= _KEPT_ORDERS else _probe_rows.__wrapped__
    terms = [{"k": k, "num_degree": degree, "den_degree": 2 * k - 1,
              "parity": "odd" if odd else "even", "min_abs_value": min_abs,
              "identically_zero": zero}
             for k, degree, odd, min_abs, zero in probe(cfg, K)]
    return {"family": cfg.family.value, "H": cfg.H, "B": cfg.B,
            "terms": terms}
