"""Command-line front end: deterministic CSV, OBJ and JSON emission.

Output is byte-reproducible: floats are printed with repr (shortest
round-trip decimal), dictionary key order is fixed by construction, and no
timestamps or environment data are embedded. Library errors exit with
status 1 and a machine-readable JSON object on standard error; invalid
flag combinations exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import acceptance, profiles
from .elliptic_reduction import (discriminant_poly, reduce, reduction_report,
                                 singular_B)
from .errors import AccuracyError, CmcError, RangeError, UsageError
from .profiles import CmcParams, Family
from .weierstrass import WpEvaluator
from .wp_chain import chain_config, polynomiality_probe

_FAMILY_ALIASES = {
    "euclidean": Family.EUCLIDEAN,
    "euclid": Family.EUCLIDEAN,
    "spacelike-axis": Family.LORENTZ_SPACELIKE_AXIS,
    "spacelike": Family.LORENTZ_SPACELIKE_AXIS,
    "timelike-axis": Family.LORENTZ_TIMELIKE_AXIS,
    "timelike": Family.LORENTZ_TIMELIKE_AXIS,
}


def _family(name: str) -> Family:
    try:
        return _FAMILY_ALIASES[name]
    except KeyError:
        raise UsageError(
            f"unknown family {name!r}; choose from euclidean, spacelike-axis, "
            "timelike-axis") from None


def _fmt(x: float) -> str:
    return repr(float(x))


def _json(report: dict) -> str:
    """Indented JSON text; a non-finite float is a RangeError, never NaN."""
    try:
        return json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise RangeError("report holds a non-finite value") from None


def _error_slug(exc: CmcError) -> str:
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[:-5]
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _require_format(args, allowed: str) -> None:
    if args.format is not None and args.format != allowed:
        raise UsageError(
            f"command {args.command!r} only supports --format {allowed}")


# ---------------------------------------------------------------------------
# Command bodies (each returns the full output text)


def _cmd_profile(args) -> str:
    _require_format(args, "csv")
    params = CmcParams(_family(args.family), args.H, args.B)
    if args.samples < 2:
        raise UsageError("--samples must be at least 2")
    grid = [args.s_min + (args.s_max - args.s_min) * i / (args.samples - 1)
            for i in range(args.samples)]
    lines = ["s,x,second,dx,dsecond"]
    for pt in profiles.profile_points(params, grid):
        lines.append(",".join(_fmt(v) for v in
                              (pt.s, pt.x, pt.second, pt.dx, pt.dsecond)))
    return "\n".join(lines) + "\n"


def _cmd_surface(args) -> str:
    _require_format(args, "obj")
    params = CmcParams(_family(args.family), args.H, args.B)
    if args.samples < 2 or args.theta_samples < 2:
        raise UsageError("--samples and --theta-samples must be at least 2")
    m = profiles.mesh(params, (args.s_min, args.s_max), args.samples,
                      args.theta_samples, angle_range=args.angle_range)
    lines = [f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in m.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in m.faces]
    return "\n".join(lines) + "\n"


def _cmd_reduce(args) -> str:
    _require_format(args, "json")
    data = reduce(_family(args.family), args.B)
    return _json(reduction_report(data))


def _cmd_roots(args) -> str:
    _require_format(args, "json")
    fam = _family(args.family)
    roots = singular_B(fam)
    num = discriminant_poly(fam).numerator
    report = {
        "family": fam.value,
        "roots": roots,
        "residuals": [float(num(r)) for r in roots],
    }
    return _json(report)


def _cmd_wp_check(args) -> str:
    _require_format(args, "json")
    fam = _family(args.family)
    data = reduce(fam, args.B)
    ev = WpEvaluator(data.g2, data.g3)
    ode = second = roundtrip = 0.0
    for i in range(25):
        w = ev.e_max + 10.0 ** (-1.0 + 2.0 * i / 24)
        z = ev.wp_inverse(w)
        p, pp = ev.wp(z)
        cubic = 4.0 * p ** 3 - data.g2 * p - data.g3
        scale = max(1.0, abs(4.0 * p ** 3), abs(data.g2 * p), abs(data.g3))
        ode = max(ode, abs(pp * pp - cubic) / scale)
        roundtrip = max(roundtrip, abs(p - w) / max(1.0, abs(w)))
        h = 1e-4
        fd = (ev.wp(z + h)[1] - ev.wp(z - h)[1]) / (2.0 * h)
        ref = ev.wp_second(z)
        second = max(second, abs(fd - ref) / max(1.0, abs(ref)))
    residuals = {
        "ode": ode,
        "second_derivative_fd": second,
        "inverse_roundtrip": roundtrip,
    }
    # The FD probe of P'' carries O(h^2) truncation; gate it separately.
    ok = (ode < args.tol and roundtrip < args.tol
          and second < max(args.tol, 1e-6))
    report = {
        "family": fam.value,
        "B": data.B,
        "g2": data.g2,
        "g3": data.g3,
        "e_max": ev.e_max,
        "residuals": residuals,
        "tol": args.tol,
        "ok": ok,
    }
    return _json(report)


def _cmd_chain(args) -> str:
    _require_format(args, "json")
    fam = _family(args.family)
    cfg = chain_config(reduce(fam, args.B), args.H)
    report = polynomiality_probe(cfg, args.upto_k)
    return _json(report)


def _cmd_verify(args) -> tuple[str, int]:
    if args.format is not None:
        raise UsageError("command 'verify' prints text and takes no --format")
    results = acceptance.run_all()
    text = acceptance.format_results(results) + "\n"
    status = 0 if all(r.passed for r in results) else 1
    return text, status


# ---------------------------------------------------------------------------
# Parser


def _add_common(sp, *, family=True, hb=True, srange=False, tol=False):
    if family:
        sp.add_argument("--family", required=True,
                        help="euclidean | spacelike-axis | timelike-axis")
    if hb:
        sp.add_argument("--H", type=float, default=1.0)
        sp.add_argument("--B", type=float, default=1.0)
    if srange:
        sp.add_argument("--s-min", type=float, default=-1.0, dest="s_min")
        sp.add_argument("--s-max", type=float, default=1.0, dest="s_max")
    if tol:
        sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "obj", "json"), default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmc-elliptic",
        description="CMC rotation surfaces: profiles, meshes, elliptic "
                    "reduction, P-function checks, derivative chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("profile", help="sample one profile curve as CSV")
    _add_common(sp, srange=True)
    sp.add_argument("--samples", type=int, default=21)
    sp.set_defaults(func=_cmd_profile)

    sp = sub.add_parser("surface", help="triangulated rotation surface as OBJ")
    _add_common(sp, srange=True)
    sp.add_argument("--samples", type=int, default=21)
    sp.add_argument("--theta-samples", type=int, default=17,
                    dest="theta_samples")
    sp.add_argument("--angle-range", type=float, default=2.0,
                    dest="angle_range")
    sp.set_defaults(func=_cmd_surface)

    sp = sub.add_parser("reduce", help="cubic reduction report as JSON")
    _add_common(sp)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("roots", help="screening-polynomial roots as JSON")
    _add_common(sp, hb=False)
    sp.set_defaults(func=_cmd_roots)

    sp = sub.add_parser("wp-check", help="P-function identity residuals")
    _add_common(sp, tol=True)
    sp.set_defaults(func=_cmd_wp_check)

    sp = sub.add_parser("chain", help="derivative-chain collapse probe")
    _add_common(sp)
    sp.add_argument("--upto-k", type=int, default=8, dest="upto_k")
    sp.set_defaults(func=_cmd_chain)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "obj", "json"), default=None)
    sp.set_defaults(func=_cmd_verify)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
        text, status = result if isinstance(result, tuple) else (result, 0)
        _emit(text, args.out)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except CmcError as exc:
        payload = {"error": _error_slug(exc), "message": str(exc)}
        if isinstance(exc, AccuracyError) and exc.achieved is not None:
            payload["achieved"] = exc.achieved
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
