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

The exact chain runs over Q in the unscaled cubic variable X = lambda*P,
where (P')^2 = n*X^3 + m*X + l and alpha + beta*P = lambda*(a + b*X) with
a = -p/(2H), b = B/(2H). Every step is homogeneous in lambda, so the P^i
coefficient of N_k over denominator power j is lambda^(j-1+i) times the
rational one. Float coefficients are the working representation, checked
against the exact pass at orders 1-4 on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from . import profiles
from ._ratpoly import (FLOAT_RING, RATIONAL_RING, Ring, pl_add, pl_degree,
                       pl_deriv, pl_divmod_linear, pl_is_zero, pl_mul,
                       pl_scale, pl_sub, pl_trim, real_cbrt)
from .elliptic_reduction import (ReductionData, _shift_and_depress,
                                 is_singular_value)
from .errors import AccuracyError, DomainError, NearPoleError, SingularError
from .profiles import CmcParams, Family
from .weierstrass import WpEvaluator

# Derivative orders beyond this need no new mathematics, only bigger
# polynomials; the cap keeps coefficient growth inside double precision.
_DEFAULT_MAX_K = 12

_NEAR_POLE_DEN = 1e-12


@dataclass(frozen=True)
class ChainConfig:
    """Constants tying one profile family at (H, B) to its elliptic path.

    alpha and beta give dt/dx3 = 1/(alpha + beta*P(t)); c1 and c2 give the
    rescaled squared radius r = c1 + c2*P(t); p and q are the underlying
    shift combination and the coefficient B itself; lam is the cube-root
    scale from the reduction and c_shift the cubic's depressing shift.
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
    p: float
    q: float
    c_shift: float


@dataclass(frozen=True)
class PRational:
    """Rational function of one variable: num/den as ascending coefficients."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    @property
    def num_degree(self) -> int:
        return pl_degree(list(self.num), FLOAT_RING)

    @property
    def den_degree(self) -> int:
        return pl_degree(list(self.den), FLOAT_RING)


@dataclass(frozen=True)
class ChainTerm:
    """One derivative order: rat evaluated at P, times P' when flagged."""

    k: int
    rat: PRational
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
                       lam=lam, p=p, q=B, c_shift=c)


# ---------------------------------------------------------------------------
# Core chain recursion (generic over the coefficient ring)


def _chain_core(alpha, beta, cubic, seed, upto_k: int, ring: Ring):
    """Numerators of d^k r/dx3^k for k = 1..upto_k, starting from r' = seed*P'/D.

    Returns a list of (k, num_coeffs, den_power, has_wp_prime). Each step
    applies d/dt followed by the 1/(alpha + beta*P) factor of d/dx3; the
    substitutions (P')^2 -> cubic(P) and P'' -> cubic'(P)/2 close the
    system. The denominator is (alpha + beta*P)^den_power; an exact-zero
    remainder lets a linear factor cancel (never observed for regular
    configurations, but the reduction keeps the representation gcd-free).
    """
    P = list(cubic)
    S = pl_scale(pl_deriv(P, ring), ring.div(ring.one, ring.one + ring.one),
                 ring)
    D = [alpha, beta]
    N = [seed]
    j = 1
    has_prime = True
    out = []
    for k in range(1, upto_k + 1):
        out.append((k, pl_trim(N, ring), j, has_prime))
        if k == upto_k:
            break
        dN = pl_deriv(N, ring)
        if has_prime:
            part = pl_add(pl_mul(dN, P, ring), pl_mul(N, S, ring), ring)
            N = pl_sub(pl_mul(part, D, ring),
                       pl_scale(pl_mul(N, P, ring), beta * j, ring), ring)
        else:
            N = pl_sub(pl_mul(dN, D, ring), pl_scale(N, beta * j, ring), ring)
        has_prime = not has_prime
        j += 2
        N = pl_trim(N, ring)
        if pl_is_zero(N, ring):
            N, j = [ring.zero], 0
            continue
        while j > 1 and pl_degree(N, ring) >= 1:
            q, rem = pl_divmod_linear(N, alpha, beta, ring)
            if not ring.is_zero(rem):
                break
            N, j = q, j - 1
    return out


def _exact_chain(cfg: ChainConfig, upto_k: int):
    """Unit-seed chain over Q in X = lambda*P, and the float lambda.

    Derived from (family, B, H) alone: floats are exact rationals, so the
    canonical reduction re-run over Fraction gives the true values.
    """
    B = Fraction(cfg.B)
    H2 = 2 * Fraction(cfg.H)
    c, l, m, n = _shift_and_depress(cfg.family, B)
    p, _, _ = _family_constants(cfg.family, c, B)
    terms = _chain_core(-p / H2, B / H2, [l, m, Fraction(0), n], Fraction(1),
                        upto_k, RATIONAL_RING)
    return terms, real_cbrt(float(4 / n))


def _den_poly(alpha: float, beta: float, j: int) -> tuple[float, ...]:
    den = [1.0]
    for _ in range(j):
        den = pl_mul(den, [alpha, beta], FLOAT_RING)
    return tuple(den)


def differentiate_chain(cfg: ChainConfig, upto_k: int,
                        max_k: int = _DEFAULT_MAX_K) -> list[ChainTerm]:
    """Symbolic d^k r/dx3^k for k = 1..upto_k as rational functions of P.

    The first min(upto_k, 4) steps are re-derived in exact arithmetic and
    compared coefficient-by-coefficient; disagreement raises AccuracyError.
    cfg.c2 may be overridden (e.g. the c2 = 0 degenerate control): the chain
    scales linearly with it. Other fields must come from chain_config.
    """
    if upto_k < 1:
        raise DomainError(f"upto_k must be >= 1, got {upto_k}")
    if upto_k > max_k:
        raise DomainError(f"upto_k={upto_k} exceeds the configured max {max_k}")
    return _checked_terms(cfg, upto_k, *_exact_chain(cfg, min(upto_k, 4)))


def _checked_terms(cfg: ChainConfig, upto_k: int, exact, lam):
    """Float chain terms for k = 1..upto_k, guarded by the exact chain.

    The chain is seed-linear, so each float coefficient of the first four
    orders must match cfg.c2 times the graded exact unit coefficient to
    within roundoff.
    """
    raw = _chain_core(cfg.alpha, cfg.beta, [-cfg.g3, -cfg.g2, 0.0, 4.0],
                      cfg.c2, upto_k, FLOAT_RING)
    for (k, num_f, j_f, _), (_, num_e, j_e, _) in zip(raw[:4], exact):
        if cfg.c2 == 0.0:
            expected = [0.0] * len(num_f)
        else:
            if j_f != j_e:
                raise AccuracyError(
                    f"chain step {k}: denominator power {j_f} != exact {j_e}")
            expected = [cfg.c2 * lam ** (j_e - 1 + i) * float(cc)
                        for i, cc in enumerate(num_e)]
        tol = 1e-9 * max(1.0, max(abs(e) for e in expected))
        for cf, ce in zip_longest(num_f, expected, fillvalue=0.0):
            if abs(cf - ce) > tol:
                raise AccuracyError(
                    f"chain step {k}: float coefficient {cf!r} drifted from "
                    f"exact value {ce!r}", achieved=abs(cf - ce))
    return [ChainTerm(k=k, rat=PRational(num=tuple(num),
                                         den=_den_poly(cfg.alpha, cfg.beta, j)),
                      has_wp_prime=has_prime)
            for k, num, j, has_prime in raw]


def _horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eval_chain_term(term: ChainTerm, ev: WpEvaluator, t: float) -> float:
    """Numeric value of one chain term at parameter t."""
    p, pp = ev.wp(t)
    den = _horner(term.rat.den, p)
    if abs(den) < _NEAR_POLE_DEN:
        raise NearPoleError(
            f"denominator {den!r} below {_NEAR_POLE_DEN} at P={p!r}")
    val = _horner(term.rat.num, p) / den
    if term.has_wp_prime:
        val *= pp
    return val


# ---------------------------------------------------------------------------
# Curve reconstruction through the elliptic path


def _u_of_s(family: Family, H: float, s: float) -> float:
    if family is Family.LORENTZ_TIMELIKE_AXIS:
        return math.sinh(2.0 * H * s)
    if family is Family.LORENTZ_SPACELIKE_AXIS:
        return math.cosh(2.0 * H * s)
    return math.sin(2.0 * H * s)


def curve_from_wp(cfg: ChainConfig, params: CmcParams, s: float,
                  edge_offset: float | None = None) -> tuple[float, float]:
    """(radius, axis) at arc length s, reconstructed through the P path.

    Must agree with profiles.profile_point up to the axis translation fixed
    by the shared anchor. The parameter map is t = -inverse(w(s)) with
    w = (u(s) + c_shift)/lam; the minus sign orients t increasingly in s so
    the axis coordinate integrates forward from the anchor.
    """
    if params.family is not cfg.family:
        raise DomainError(
            f"params family {params.family.value!r} does not match the "
            f"configuration family {cfg.family.value!r}")
    if abs(params.H - cfg.H) > 1e-12 * cfg.H or \
            abs(params.B - cfg.B) > 1e-12 * max(1.0, cfg.B):
        raise DomainError("params (H, B) do not match the configuration")
    dom = profiles.domain(params)
    if not dom.contains(s):
        raise DomainError(f"s={s!r} outside the profile domain")
    ev = WpEvaluator(cfg.g2, cfg.g3)
    w = (_u_of_s(cfg.family, cfg.H, s) + cfg.c_shift) / cfg.lam
    s_ref = profiles.anchor(params, edge_offset)
    w_ref = (_u_of_s(cfg.family, cfg.H, s_ref) + cfg.c_shift) / cfg.lam
    t = -ev.wp_inverse(w)
    t0 = -ev.wp_inverse(w_ref)
    radicand = cfg.c1 + cfg.c2 * ev.wp(t)[0]
    if radicand < 0:
        raise DomainError(
            f"negative squared radius {radicand!r}: s={s!r} is off the branch")
    x = math.sqrt(radicand) / (2.0 * cfg.H)
    z = cfg.alpha * (t - t0) + cfg.beta * ev.wp_integral(t0, t)
    return x, z


# ---------------------------------------------------------------------------
# Non-polynomiality probe

# Offsets above e_max for generic sample points; chosen away from small
# rationals so none coincides with the denominator's lone real zero.
_PROBE_OFFSETS = (0.37, 0.83, 1.91, 4.3, 8.7)


def polynomiality_probe(cfg: ChainConfig, K: int) -> dict:
    """Certify that no derivative numerator collapses for k = 1..K.

    Exact coefficient arithmetic decides identically_zero per term; float
    evaluation at five generic parameters reports the observed minimum
    magnitude. A polynomial radius of degree d would force the k = d+1
    numerator to vanish identically, so an all-nonzero report up to K rules
    out polynomial radii of degree < K.
    """
    if K < 3:
        raise DomainError(f"K must be >= 3 for a meaningful probe, got {K}")
    unit, lam = _exact_chain(cfg, K)
    terms = _checked_terms(cfg, K, unit, lam)
    ev = WpEvaluator(cfg.g2, cfg.g3)
    ts = [ev.wp_inverse(ev.e_max + off) for off in _PROBE_OFFSETS]
    report_terms = []
    for term, (_, num_e, _, _) in zip(terms, unit):
        zero = cfg.c2 == 0.0 or pl_is_zero(num_e, RATIONAL_RING)
        values = []
        for t in ts:
            try:
                values.append(abs(eval_chain_term(term, ev, t)))
            except NearPoleError:
                continue
        min_abs = min(values) if values else float("nan")
        report_terms.append({
            "k": term.k,
            "num_degree": term.rat.num_degree,
            "den_degree": term.rat.den_degree,
            "parity": "odd" if term.has_wp_prime else "even",
            "min_abs_value": min_abs,
            "identically_zero": zero,
        })
    return {"family": cfg.family.value, "H": cfg.H, "B": cfg.B,
            "terms": report_terms}
