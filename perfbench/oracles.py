"""Output checks for each workload, run after the timed loop.

Every check returns a list of error strings, empty when the op's output is
right. Where an independent route exists the reference is computed here in
mpmath at 20 digits from the closed forms, not by the package: the axis
coordinate of a mesh row, and the P-integral as an integral over P's value
w = P(t), where dt = -dw / sqrt(4w^3 - g2 w - g3).
"""

from __future__ import annotations

import functools
import json
import math

import mpmath as mp

from cmc_elliptic import profiles
from workloads import EXPECTED_PASS, TIMELIKE_ROOTS

mp.mp.dps = 20

MESH_AXIS_TOL = 1e-8      # absolute, or relative beyond 1
MESH_RADIUS_TOL = 1e-10   # relative
CURVE_TOL = 1e-6          # curve_from_wp against profile_point
WP_TOL = 1e-9             # round trip, P-ODE residual and P-integral
ROOT_TOL = 1e-5


def _radicand(family: str, H, B, s):
    if family == "euclidean":
        return 1 + B * B + 2 * B * mp.sin(2 * H * s)
    if family == "spacelike-axis":
        return 1 + B * B - 2 * B * mp.cosh(2 * H * s)
    return B * B + 2 * B * mp.sinh(2 * H * s) - 1


def _axis_rate(family: str, H, B, s):
    """d(axis)/ds of the unit-speed profile, in closed form."""
    if family == "euclidean":
        num = 1 + B * mp.sin(2 * H * s)
    elif family == "spacelike-axis":
        num = B * mp.cosh(2 * H * s) - 1
    else:
        num = B * mp.sinh(2 * H * s) - 1
    return num / mp.sqrt(_radicand(family, H, B, s))


def _euclidean_axis(H, B, a, b):
    # Near B = 1 the rate peaks sharply: integrate over 16 pieces a period.
    pieces = 1 + int(16 * abs(b - a) * H / mp.pi)
    return mp.quad(lambda t: _axis_rate("euclidean", H, B, t),
                   mp.linspace(a, b, pieces + 1), method="gauss-legendre")


@functools.lru_cache(maxsize=64)
def _euclidean_period(H, B):
    return _euclidean_axis(H, B, 0, mp.pi / H)


def axis_reference(family: str, H: float, B: float, s: float):
    """Axis coordinate at s, integrated from the anchor in mpmath."""
    H, B, s = mp.mpf(H), mp.mpf(B), mp.mpf(s)
    if family == "euclidean":
        # The rate has period pi/H: whole periods contribute equal integrals.
        period = mp.pi / H
        k = mp.floor(s / period)
        rest = s - k * period
        return k * _euclidean_period(H, B) + _euclidean_axis(H, B, 0, rest)
    if family == "spacelike-axis":
        return mp.quad(lambda t: _axis_rate(family, H, B, t), [0, s])
    # Timelike axis: t = edge + sigma^2 removes the square-root zero at the
    # domain edge. The anchor is 0, or edge + 1e-6/H when the edge is >= 0.
    edge = mp.asinh((1 - B * B) / (2 * B)) / (2 * H)
    anchor = 0 if edge < 0 else edge + mp.mpf(1e-6) / H
    return mp.quad(
        lambda sig: 2 * sig * _axis_rate(family, H, B, edge + sig * sig),
        [mp.sqrt(anchor - edge), mp.sqrt(s - edge)])


def _row_values(family: str, v0, row):
    """(axis, radius) read off a mesh row, plus its worst orbit residual."""
    if family == "euclidean":
        axis, radius = v0[0], v0[1]
        orbit = max(abs(math.hypot(y, z) - radius) + abs(x - axis)
                    for x, y, z in row)
    elif family == "spacelike-axis":
        axis, radius = v0[0], math.sqrt(v0[2] ** 2 - v0[1] ** 2)
        orbit = max(abs(math.sqrt(z * z - y * y) - radius) + abs(x - axis)
                    for x, y, z in row)
    else:
        axis, radius = v0[2], v0[0]
        orbit = max(abs(math.hypot(x, y) - radius) + abs(z - axis)
                    for x, y, z in row)
    return axis, radius, orbit / max(1.0, radius)


def check_mesh(op, cap) -> list[str]:
    errors = []
    if cap["rc"] != 0:
        return [f"exit {cap['rc']}: {cap['stderr'].strip()}"]
    n_s, n_t = op["n_s"], op["n_t"]
    if cap["n_v"] != n_s * n_t or cap["n_f"] != 2 * (n_s - 1) * (n_t - 1):
        errors.append(f"counts v={cap['n_v']} f={cap['n_f']} for {n_s}x{n_t}")
    family, H, B = op["family"], op["H"], op["B"]
    for i, row in cap["rows"].items():
        if len(row) != n_t:
            errors.append(f"row {i} has {len(row)} vertices")
            continue
        s = op["lo"] + (op["hi"] - op["lo"]) * i / (n_s - 1)
        axis, radius, orbit = _row_values(family, row[0], row)
        ref_r = mp.sqrt(_radicand(family, mp.mpf(H), mp.mpf(B), mp.mpf(s))) \
            / (2 * mp.mpf(H))
        ref_a = axis_reference(family, H, B, s)
        if abs(radius - ref_r) > MESH_RADIUS_TOL * ref_r:
            errors.append(f"row {i} radius {radius!r} vs {float(ref_r)!r}")
        if abs(axis - ref_a) > MESH_AXIS_TOL * max(1, abs(ref_a)):
            errors.append(f"row {i} axis {axis!r} vs {float(ref_a)!r}")
        if orbit > MESH_RADIUS_TOL:
            errors.append(f"row {i} leaves its rotation orbit by {orbit:.2e}")
    return errors


def _cubic(g2, g3, w):
    return 4 * w ** 3 - g2 * w - g3


def check_wp(op, result) -> list[str]:
    if op["kind"] == "curve":
        x, z = result
        ref = profiles.profile_point(op["params"], op["s"])
        err = max(abs(x - ref.x), abs(z - ref.second))
        return [] if err <= CURVE_TOL else [f"curve off profile by {err:.2e}"]
    g2, g3 = op["g2"], op["g3"]
    if op["kind"] == "inverse":
        _, p, pp = result
        errors = []
        trip = abs(p - op["w"]) / max(1.0, abs(op["w"]))
        if trip > WP_TOL:
            errors.append(f"wp(wp_inverse(w)) off by {trip:.2e}")
        scale = max(1.0, abs(4 * p ** 3), abs(g2 * p), abs(g3))
        ode = abs(pp * pp - _cubic(g2, g3, p)) / scale
        if ode > WP_TOL:
            errors.append(f"P-ODE residual {ode:.2e}")
        return errors
    g2m, g3m = mp.mpf(g2), mp.mpf(g3)
    ref = mp.quad(lambda w: w / mp.sqrt(_cubic(g2m, g3m, w)),
                  [op["w1"], op["w0"]])
    err = abs(result - ref) / max(1, abs(ref))
    return [] if err <= WP_TOL else [f"P-integral off by {float(err):.2e}"]


def check_screening(op, result) -> list[str]:
    rc, out, err = result
    if op["command"] == "chain" and op["B"] in TIMELIKE_ROOTS:
        try:
            slug = json.loads(err)["error"]
        except (ValueError, KeyError, TypeError):
            slug = None
        if rc == 1 and slug == "singular" and out == "":
            return []
        return [f"singular root: exit {rc}, stderr {err.strip()!r}"]
    if rc != 0:
        return [f"exit {rc}: {err.strip()}"]
    report = json.loads(out)
    if op["command"] == "roots":
        want = TIMELIKE_ROOTS if op["family"] == "timelike-axis" else ()
        roots = report["roots"]
        if len(roots) != len(want) or any(
                abs(r - t) > ROOT_TOL for r, t in zip(roots, want)):
            return [f"roots {roots} vs {list(want)}"]
        return []
    if op["command"] == "reduce":
        g2, g3, disc = report["g2"], report["g3"], report["disc"]
        errors = []
        expect = g2 ** 3 - 27 * g3 ** 2
        if abs(disc - expect) > 1e-12 * max(1.0, abs(g2) ** 3, 27 * g3 * g3):
            errors.append(f"disc {disc!r} != g2^3 - 27 g3^2 = {expect!r}")
        if report["singular"]:
            errors.append(f"B={op['B']!r} reported singular")
        return errors
    terms = report["terms"]
    if [t["k"] for t in terms] != list(range(1, op["k"] + 1)):
        return [f"chain orders {[t['k'] for t in terms]}"]
    collapsed = [t["k"] for t in terms
                 if t["identically_zero"] or not t["min_abs_value"] > 0
                 or not math.isfinite(t["min_abs_value"])]
    return [f"collapsed chain terms {collapsed}"] if collapsed else []


def check_verify(n, result) -> list[str]:
    if result.num != n or result.passed != EXPECTED_PASS[n]:
        return [f"criterion {n} passed={result.passed}, expected "
                f"{EXPECTED_PASS[n]}: {result.detail}"]
    return []


CHECKS = {"mesh-export": check_mesh, "wp-path": check_wp,
          "screening": check_screening, "verify": check_verify}
