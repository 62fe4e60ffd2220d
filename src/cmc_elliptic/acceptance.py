"""End-to-end acceptance checks, one callable per criterion.

Each criterion returns a CriterionResult with a pass flag and a measured
detail string; run_all executes all of them in order. Three criteria state
targets the mathematics does not support (documented in the repository
notes); they are implemented faithfully and report honest failures rather
than weakened checks.
"""

from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

from . import profiles
from ._ratpoly import Poly
from .elliptic_reduction import (discriminant_poly, isolation_seconds,
                                 reduce, singular_B)
from .profiles import CmcParams, Family
from .weierstrass import WpEvaluator
from .wp_chain import (_path_axis, _path_parameter, chain_config,
                       curve_points_from_wp, differentiate_chain,
                       eval_chain_term, polynomiality_probe)


class CriterionResult(NamedTuple):
    num: int
    name: str
    passed: bool
    detail: str


def _fmt(x: float) -> str:
    return f"{x:.3e}"


# ---------------------------------------------------------------------------
# 1-2: screening-polynomial roots


def _root_criterion(num: int, name: str, family: Family,
                    targets: list[float], tol: float) -> CriterionResult:
    roots = singular_B(family)
    dt = isolation_seconds(family)
    ok = len(roots) == len(targets) and all(
        abs(r - t) <= tol for r, t in zip(roots, sorted(targets)))
    ok = ok and dt < 1.0
    detail = (f"computed roots {[round(r, 6) for r in roots]} vs targets "
              f"{targets} (tol {tol:g}) in {dt:.2f}s")
    if not ok and not roots:
        detail += "; the screening polynomial has no positive real roots"
    return CriterionResult(num, name, ok, detail)


def criterion_1() -> CriterionResult:
    return _root_criterion(1, "timelike screening roots",
                           Family.LORENTZ_TIMELIKE_AXIS,
                           [0.620969, 1.61039], 1e-5)


def criterion_2() -> CriterionResult:
    return _root_criterion(2, "spacelike screening roots",
                           Family.LORENTZ_SPACELIKE_AXIS,
                           [0.28126, 3.55543], 1e-4)


# ---------------------------------------------------------------------------
# 3-4: screening-polynomial shape


def criterion_3() -> CriterionResult:
    # Float coefficients: each Fraction is converted once, not per sample.
    num = Poly([float(c) for c in discriminant_poly(Family.EUCLIDEAN).coeffs])
    lo_band = [0.01 + i * (0.99 - 0.01) / 249 for i in range(250)]
    hi_band = [1.01 + i * (10.0 - 1.01) / 249 for i in range(250)]
    min_abs = min(abs(num(b)) for b in lo_band + hi_band)
    count = len(singular_B(Family.EUCLIDEAN))
    ok = min_abs > 1e-6 and count == 0
    detail = (f"min |numerator| over 500 samples = {_fmt(min_abs)} (> 1e-06 "
              f"required); positive-root count = {count} (0 required)")
    return CriterionResult(3, "euclidean screening nonvanishing", ok, detail)


def criterion_4() -> CriterionResult:
    parts = []
    ok = True
    for fam, label in ((Family.LORENTZ_TIMELIKE_AXIS, "timelike"),
                       (Family.LORENTZ_SPACELIKE_AXIS, "spacelike")):
        deg = discriminant_poly(fam).degree
        count = len(singular_B(fam))
        good = deg == 12 and count == 2
        ok = ok and good
        parts.append(f"{label}: degree {deg}, {count} positive roots"
                     + ("" if good else " (2 required)"))
    return CriterionResult(4, "degree-12 screening polynomials", ok,
                           "; ".join(parts))


# ---------------------------------------------------------------------------
# 5-6: profile geometry


def _in_domain_window(params: CmcParams) -> tuple[float, float]:
    """Conservative closed window inside the open profile domain."""
    dom = profiles.domain(params)
    H = params.H
    margin = 0.05 / H
    lo = dom.lo if math.isfinite(dom.lo) else -2.0 / H
    hi = dom.hi if math.isfinite(dom.hi) else 2.0 / H
    if math.isfinite(dom.lo):
        lo += margin
    if math.isfinite(dom.hi):
        hi -= margin
    if not math.isfinite(dom.hi):
        hi = max(hi, lo + 2.0 / H)
    return lo, hi


def criterion_5() -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    n = 0
    for fam in Family:
        for H in (0.25, 0.5, 1.0, 2.0):
            for B in (0.1, 0.5, 0.9, 1.5, 3.0):
                params = CmcParams(fam, H, B)
                lo, hi = _in_domain_window(params)
                grid = [lo + (hi - lo) * (i + 0.5) / 20 for i in range(20)]
                ks = profiles.mean_curvatures(params, grid)
                # x -> x/H is monotone in floats: one division per grid.
                worst = max(worst, max([abs(k - H) for k in ks]) / H)
                n += len(grid)
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 5.0
    return CriterionResult(
        5, "constant mean curvature", ok,
        f"max relative deviation {_fmt(worst)} over {n} samples in {dt:.2f}s")


def _random_params(rng: random.Random, fam: Family) -> CmcParams:
    H = rng.uniform(0.25, 2.0)
    while True:
        if fam is Family.EUCLIDEAN:
            B = rng.uniform(0.0, 2.8)
        elif fam is Family.LORENTZ_SPACELIKE_AXIS:
            B = rng.uniform(0.0, 2.5)
            if B < 0.05:
                B = 0.0
        else:
            B = rng.uniform(0.15, 3.0)
        # Keep away from B=1, where the radicand can degenerate.
        if abs(B - 1.0) > 0.05:
            return CmcParams(fam, H, B)


def criterion_6() -> CriterionResult:
    rng = random.Random(987654321)
    worst = 0.0
    for fam in Family:
        sign = 1.0 if fam is Family.EUCLIDEAN else -1.0
        flip = -1 if fam is Family.LORENTZ_TIMELIKE_AXIS else 1  # x = radius
        for _ in range(100):
            params = _random_params(rng, fam)
            lo, hi = _in_domain_window(params)
            s = rng.uniform(lo, hi)
            profiles._require_in_domain(params, [s])  # no axis value needed
            [(_, drad, _, dax, _)] = profiles._closed_pieces(params, [s])
            if not (math.isfinite(dax) and math.isfinite(drad)):
                raise profiles._overflow(params, s)
            dx, dsecond = (dax, drad)[::flip]
            worst = max(worst, abs(dx ** 2 + sign * dsecond ** 2 - 1.0))
    ok = worst < 1e-9
    return CriterionResult(
        6, "unit-speed profiles", ok,
        f"max |dx^2 -/+ dsecond^2 - 1| = {_fmt(worst)} over 300 random points")


# ---------------------------------------------------------------------------
# 7: algebraic special cases


def _fitted_hyperboloid_residual(vertices, H: float) -> float:
    """Residual of x1^2+x2^2-(x3+C)^2 = -1/H^2 with the best axis shift C.

    The profile is defined up to translation along the rotation axis, so the
    claim is tested against the most favorable constant.
    """
    inv = 1.0 / (H * H)
    rows = [(x1 * x1 + x2 * x2, x3) for x1, x2, x3 in vertices]
    c = sum([math.sqrt(r2 + inv) - x3 for r2, x3 in rows]) / len(rows)
    return max([abs(r2 - (x3 + c) ** 2 + inv) for r2, x3 in rows])


def criterion_7() -> CriterionResult:
    tol = 1e-8
    parts = []
    ok = True

    def record(label: str, residual: float, count: int):
        nonlocal ok
        good = residual < tol
        ok = ok and good
        parts.append(f"{label}: {_fmt(residual)} on {count} vertices"
                     + ("" if good else " FAIL"))

    # Round cylinder, hyperbolic cylinder (spacelike axis) and round sphere.
    for label, params, s_range in (
            ("euclidean B=0", CmcParams(Family.EUCLIDEAN, 0.7, 0.0),
             (-1.0, 1.0)),
            ("spacelike-axis B=0",
             CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 0.0), (-1.0, 1.0)),
            ("euclidean B=1", CmcParams(Family.EUCLIDEAN, 0.5, 1.0),
             (-math.pi / 2 + 0.1, 3 * math.pi / 2 - 0.1))):
        verts = profiles._mesh_vertices(params, s_range, 40, 25)[0]
        record(label, max(profiles._quadric_residuals(params, verts)),
               len(verts))
    # Hyperboloid, spacelike axis B=1: the profile domain collapses to a
    # point, so the canonical parametrization supplies the vertices.
    verts = profiles.hyperboloid_vertices(0.5, 40, 25)
    hyperboloid = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 1.0)
    record("spacelike-axis B=1 (canonical)",
           max(profiles._quadric_residuals(hyperboloid, verts)), len(verts))
    # Timelike axis B=1: tested against the actual profile mesh with the
    # most favorable axis translation.
    params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 1.0)
    verts = profiles._mesh_vertices(params, (0.05, 1.2), 40, 25)[0]
    record("timelike-axis B=1 (best shift)",
           _fitted_hyperboloid_residual(verts, 0.5), len(verts))

    return CriterionResult(7, "algebraic special cases", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# 8: wp identities


def criterion_8() -> CriterionResult:
    worst_ode = worst_second = worst_hom = 0.0
    for fam in Family:
        for B in (0.5, 2.0):
            data = reduce(fam, B)
            ev = WpEvaluator(data.g2, data.g3)
            # Defining ODE along the real branch (exercises duplication).
            for i in range(50):
                w = ev.e_max + 10.0 ** (-1.0 + 2.3 * i / 49)
                z = ev.wp_inverse(w)
                worst_ode = max(worst_ode, ev.ode_residual(*ev.wp(z)))
            # Second-derivative identity against the raw series from
            # ev.laurent, not the evaluator's terms: P'' = 6/z^4 plus the
            # sum of (2k-2)(2k-3) c_k z^(2k-4), a polynomial in z^2.
            tail = Poly([(2 * k - 2) * (2 * k - 3) * c
                         for k, c in enumerate(ev.laurent, 2)])
            for i in range(50):
                z = ev.r0 * (0.02 + 0.96 * i / 49)
                p, _ = ev.wp(z)
                lhs = 6.0 / z ** 4 + tail(z * z)
                rhs = 6.0 * p * p - data.g2 / 2.0
                scale = max(1.0, abs(rhs))
                worst_second = max(worst_second, abs(lhs - rhs) / scale)
            # Quartic/sextic rescaling identity, factor 2.
            ev2 = WpEvaluator(16.0 * data.g2, 64.0 * data.g3)
            for i in range(10):
                w = ev.e_max + 10.0 ** (-0.5 + 1.5 * i / 9)
                z = ev.wp_inverse(w)
                p = ev.wp(z)[0]
                p2 = ev2.wp(z / 2.0)[0]
                scale = max(1.0, abs(4.0 * p))
                worst_hom = max(worst_hom, abs(p2 - 4.0 * p) / scale)
    ok = worst_ode < 1e-9 and worst_second < 1e-9 and worst_hom < 1e-9
    return CriterionResult(
        8, "wp identities", ok,
        f"ODE {_fmt(worst_ode)}, second-derivative {_fmt(worst_second)}, "
        f"rescaling {_fmt(worst_hom)} (all < 1e-09 required)")


# ---------------------------------------------------------------------------
# 9: cross-parametrization


def criterion_9() -> CriterionResult:
    t0 = time.perf_counter()
    worst_x = worst_z = 0.0
    for H, B in ((0.5, 2.0), (1.0, 1.5), (0.5, 0.5)):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, H, B)
        cfg = chain_config(reduce(params.family, B), H)
        base = profiles.anchor(params)
        grid = [base + 0.05 + (1.5 - 0.05) * i / 19 for i in range(20)]
        for (x_c, z_c), ref in zip(curve_points_from_wp(cfg, params, grid),
                                   profiles.profile_points(params, grid)):
            worst_x = max(worst_x, abs(x_c - ref.x))
            worst_z = max(worst_z, abs(z_c - ref.second))
    dt = time.perf_counter() - t0
    ok = worst_x < 1e-6 and worst_z < 1e-6 and dt < 10.0
    return CriterionResult(
        9, "cross-parametrization", ok,
        f"max |dx| = {_fmt(worst_x)}, max |dz| = {_fmt(worst_z)} over 60 "
        f"points in {dt:.2f}s (< 1e-06 required)")


# ---------------------------------------------------------------------------
# 10: derivative chain


def _axis_and_slope(cfg, ev, t0, zeta0, t):
    """(z(t), dz/dt = alpha + beta*P(t), zeta(t0)) as ``_path_axis`` gives
    them; P(t) comes from the series that gave zeta(t)."""
    z, zeta0, series = _path_axis(cfg, ev, t0, t, zeta0)
    p = series[0] if series else ev.wp(t)[0]  # t = t0 reads no series
    return z, cfg.alpha + cfg.beta * p, zeta0


def _solve_t(cfg, ev, t0, zeta0, z_target, t_guess):
    """Invert z(t) by Newton; dz/dt = alpha + beta*P(t) must not vanish."""
    t = t_guess
    for _ in range(60):
        z, dg, zeta0 = _axis_and_slope(cfg, ev, t0, zeta0, t)
        step = (z - z_target) / dg
        t -= step
        if abs(step) < 1e-14 * max(1.0, abs(t)):
            return t
    raise RuntimeError("Newton inversion of the axis coordinate stalled")


def fd_chain_reference(cfg, params, ev):
    """(d^k r/dx3^k for k=1,2,3, t) by centered differences on an even
    z-grid around the path parameter t of s = 1; ev is cfg's evaluator.

    r is the rescaled squared radius c1 + c2*P. Fifth-order stencils for
    k=1,2; the k=3 stencil is Richardson-extrapolated from spacings d = 0.01
    and d/2. One zeta(t0) serves every Newton step.
    """
    t0, _ = _path_parameter(cfg, ev, profiles.anchor(params))
    t_c, _ = _path_parameter(cfg, ev, 1.0)
    z_c, slope, zeta0 = _axis_and_slope(cfg, ev, t0, None, t_c)

    def r_at(dz: float) -> float:
        t = _solve_t(cfg, ev, t0, zeta0, z_c + dz, t_c + dz / slope)
        return cfg.c1 + cfg.c2 * ev.wp(t)[0]

    d = 0.01
    f = {i: r_at(i * d / 2.0) for i in (-4, -3, -2, -1, 0, 1, 2, 3, 4)}
    d1 = (-f[4] + 8 * f[2] - 8 * f[-2] + f[-4]) / (12 * d)
    d2 = (-f[4] + 16 * f[2] - 30 * f[0] + 16 * f[-2] - f[-4]) / (12 * d * d)
    d3_h = (f[4] - 2 * f[2] + 2 * f[-2] - f[-4]) / (2 * d ** 3)
    d3_h2 = (f[2] - 2 * f[1] + 2 * f[-1] - f[-2]) / (2 * (d / 2) ** 3)
    d3 = (4.0 * d3_h2 - d3_h) / 3.0
    return d1, d2, d3, t_c


def criterion_10() -> CriterionResult:
    parts = []
    ok = True

    cfg = chain_config(reduce(Family.LORENTZ_TIMELIKE_AXIS, 2.0), 0.5)
    parity_ok = all(t["parity"] == ("odd" if t["k"] % 2 else "even")
                    for t in polynomiality_probe(cfg, 12)["terms"])
    ok = ok and parity_ok
    parts.append(f"parity through k=12: {'ok' if parity_ok else 'FAIL'}")

    params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
    ev = WpEvaluator(cfg.g2, cfg.g3)
    d1, d2, d3, t_c = fd_chain_reference(cfg, params, ev)
    terms = differentiate_chain(cfg, 3)
    tols = (1e-4, 1e-4, 1e-3)
    for k, (fd, tol) in enumerate(zip((d1, d2, d3), tols), start=1):
        val = eval_chain_term(cfg, terms[k - 1], ev, t_c)
        rel = abs(val - fd) / max(abs(val), abs(fd), 1e-30)
        good = rel < tol
        ok = ok and good
        parts.append(f"k={k} FD agreement {_fmt(rel)}"
                     + ("" if good else f" FAIL (tol {tol:g})"))

    probe_cfgs = [
        cfg,
        chain_config(reduce(Family.LORENTZ_TIMELIKE_AXIS, 0.5), 0.5),
        chain_config(reduce(Family.LORENTZ_SPACELIKE_AXIS, 2.0), 0.5),
        chain_config(reduce(Family.EUCLIDEAN, 0.5), 1.0),
    ]
    zero_free = True
    for pc in probe_cfgs:
        report = polynomiality_probe(pc, 8)
        zero_free = zero_free and not any(
            t["identically_zero"] for t in report["terms"])
    ok = ok and zero_free
    parts.append("probe k<=8 on 4 configs: "
                 + ("no collapse" if zero_free else "FAIL (collapse found)"))

    control = cfg._replace(c2=0.0)
    creport = polynomiality_probe(control, 3)
    control_ok = any(t["identically_zero"] and t["k"] == 2
                     for t in creport["terms"])
    ok = ok and control_ok
    parts.append("c2=0 control collapses at k=2: "
                 + ("ok" if control_ok else "FAIL"))

    return CriterionResult(10, "derivative chain", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# 11: mechanism-level substitute


def criterion_11(c9: CriterionResult, c10: CriterionResult) -> CriterionResult:
    ok = c9.passed and c10.passed
    detail = ("headline non-algebraicity is not desk-checkable; criteria 9 "
              "and 10 certify its computational mechanism instead "
              f"(9 {'passed' if c9.passed else 'failed'}, "
              f"10 {'passed' if c10.passed else 'failed'})")
    return CriterionResult(11, "mechanism-level substitute", ok, detail)


def run_all() -> list[CriterionResult]:
    results = [criterion_1(), criterion_2(), criterion_3(), criterion_4(),
               criterion_5(), criterion_6(), criterion_7(), criterion_8(),
               criterion_9(), criterion_10()]
    results.append(criterion_11(results[8], results[9]))
    return results


def format_results(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} criterion {r.num:2d} ({r.name}): {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
