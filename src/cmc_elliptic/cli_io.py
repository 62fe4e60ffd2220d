"""Command-line front end: deterministic CSV, OBJ and JSON emission.

Output is byte-reproducible: floats are printed with repr (shortest
round-trip decimal), dictionary key order is fixed by construction, and no
timestamps or environment data are embedded. Library errors exit with
status 1 and a machine-readable JSON object on standard error; invalid
flag combinations exit with status 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import profiles
from .elliptic_reduction import (discriminant_poly, reduce, reduction_report,
                                 singular_B)
from .errors import CmcError, RangeError, UsageError
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
    lo, hi = args.s_min, args.s_max
    if not math.isfinite((hi - lo) * (args.samples - 1)):
        raise RangeError(f"s range ({lo!r}, {hi!r}) over {args.samples} "
                         "samples has no finite float grid")
    grid = [lo + (hi - lo) * i / (args.samples - 1)
            for i in range(args.samples)]
    lines = ["s,x,second,dx,dsecond"]
    lines += [f"{pt.s!r},{pt.x!r},{pt.second!r},{pt.dx!r},{pt.dsecond!r}"
              for pt in profiles.profile_points(params, grid)]
    return "\n".join(lines) + "\n"


def _cmd_surface(args) -> str:
    _require_format(args, "obj")
    params = CmcParams(_family(args.family), args.H, args.B)
    if args.samples < 2 or args.theta_samples < 2:
        raise UsageError("--samples and --theta-samples must be at least 2")
    angle_range = args.angle_range
    if angle_range is None:
        angle_range = 2.0
    elif params.family is not Family.LORENTZ_SPACELIKE_AXIS:
        raise UsageError("--angle-range applies only to the spacelike-axis "
                         f"family, not {params.family.value}")
    m = profiles.mesh(params, (args.s_min, args.s_max), args.samples,
                      args.theta_samples, angle_range=angle_range)
    V, n_t = m.vertices, len(m.grid[1])
    timelike = params.family is Family.LORENTZ_TIMELIKE_AXIS
    lines = []
    # Each row is one orbit, so its axis value (x3 for the timelike family,
    # x1 otherwise) is one float shared by the whole row: repr it once.
    for i in range(0, len(V), n_t):
        row = V[i:i + n_t]
        if timelike:
            zr = repr(row[0][2])
            lines += [f"v {x!r} {y!r} {zr}" for x, y, _ in row]
        else:
            xr = repr(row[0][0])
            lines += [f"v {xr} {y!r} {z!r}" for _, y, z in row]
    idx = [str(i) for i in range(1, len(V) + 1)]
    lines += [f"f {idx[a]} {idx[b]} {idx[c]}" for a, b, c in m.faces]
    return "\n".join(lines) + "\n"


def _cmd_reduce(args) -> str:
    _require_format(args, "json")
    data = reduce(_family(args.family), args.B)
    return _json(reduction_report(data))


def _cmd_roots(args) -> str:
    _require_format(args, "json")
    return _roots_text(_family(args.family))


@functools.cache
def _roots_text(fam: Family) -> str:
    """The roots report of a family, which depends on the family alone."""
    roots = singular_B(fam)
    num = discriminant_poly(fam)
    report = {
        "family": fam.value,
        "roots": roots,
        "residuals": [float(num(r)) for r in roots],
    }
    return _json(report)


def _cmd_wp_check(args) -> str:
    _require_format(args, "json")
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise UsageError(
            f"--tol must be positive and finite, got {args.tol!r}")
    fam = _family(args.family)
    data = reduce(fam, args.B)
    ev = WpEvaluator(data.g2, data.g3)
    ode = second = roundtrip = 0.0
    for i in range(25):
        w = ev.e_max + 10.0 ** (-1.0 + 2.0 * i / 24)
        z = ev.wp_inverse(w)
        p, pp = ev.wp(z)
        ode = max(ode, ev.ode_residual(p, pp))
        roundtrip = max(roundtrip, abs(p - w) / max(1.0, abs(w)))
        # Central differences at h and h/2, h relative (z is tiny where P
        # is huge), and Richardson's extrapolation cancels their h^2 terms.
        d1, d2 = ((ev.wp(z + h)[1] - ev.wp(z - h)[1]) / (2.0 * h)
                  for h in (1e-4 * z, 5e-5 * z))
        fd = (4.0 * d2 - d1) / 3.0
        ref = ev.wp_second(z)
        second = max(second, abs(fd - ref) / max(1.0, abs(ref)))
    residuals = {
        "ode": ode,
        "second_derivative_fd": second,
        "inverse_roundtrip": roundtrip,
    }
    # The FD probe of P'' carries O(h^4) truncation; gate it separately.
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


def _chain_json(report: dict) -> str:
    """_json of a polynomiality_probe report (K >= 3 terms), one f-string
    per term."""
    terms = []
    for t in report["terms"]:
        if not math.isfinite(t["min_abs_value"]):
            raise RangeError("report holds a non-finite value")
        terms.append(
            f'    {{\n      "k": {t["k"]},\n'
            f'      "num_degree": {t["num_degree"]},\n'
            f'      "den_degree": {t["den_degree"]},\n'
            f'      "parity": "{t["parity"]}",\n'
            f'      "min_abs_value": {t["min_abs_value"]!r},\n'
            f'      "identically_zero": '
            f'{("false", "true")[t["identically_zero"]]}\n    }}')
    return (f'{{\n  "family": {json.dumps(report["family"])},\n'
            f'  "H": {report["H"]!r},\n  "B": {report["B"]!r},\n'
            '  "terms": [\n' + ",\n".join(terms) + '\n  ]\n}\n')


def _cmd_chain(args) -> str:
    _require_format(args, "json")
    cfg = chain_config(reduce(_family(args.family), args.B), args.H)
    return _chain_json(polynomiality_probe(cfg, args.upto_k))


def _cmd_verify(args) -> tuple[str, int]:
    if args.format is not None:
        raise UsageError("command 'verify' prints text and takes no --format")
    from . import acceptance  # only verify needs it; other starts skip it
    results = acceptance.run_all()
    text = acceptance.format_results(results) + "\n"
    status = 0 if all(r.passed for r in results) else 1
    return text, status


# ---------------------------------------------------------------------------
# Parser


def _add_common(sp, *, h=True, b=True, srange=False, tol=False):
    sp.add_argument("--family", required=True,
                    help="euclidean | spacelike-axis | timelike-axis")
    if h:
        sp.add_argument("--H", type=float, default=1.0)
    if b:
        sp.add_argument("--B", type=float, default=1.0)
    if srange:
        sp.add_argument("--s-min", type=float, default=-1.0, dest="s_min")
        sp.add_argument("--s-max", type=float, default=1.0, dest="s_max")
    if tol:
        sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "obj", "json"), default=None)


_PROG = "cmc-elliptic"


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The one parser of the process and its subcommand parsers by name;
    parsing leaves them unchanged and returns a fresh namespace each call."""
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="CMC rotation surfaces: profiles, meshes, elliptic "
                    "reduction, P-function checks, derivative chains.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name, func, **kwargs):
        sp = commands[name] = sub.add_parser(name, **kwargs)
        sp.set_defaults(command=name, func=func)
        return sp

    sp = add("profile", _cmd_profile, help="sample one profile curve as CSV")
    _add_common(sp, srange=True)
    sp.add_argument("--samples", type=int, default=21)

    sp = add("surface", _cmd_surface,
             help="triangulated rotation surface as OBJ")
    _add_common(sp, srange=True)
    sp.add_argument("--samples", type=int, default=21)
    sp.add_argument("--theta-samples", type=int, default=17,
                    dest="theta_samples")
    sp.add_argument("--angle-range", type=float, default=None,
                    dest="angle_range")

    sp = add("reduce", _cmd_reduce, help="cubic reduction report as JSON")
    _add_common(sp, h=False)

    sp = add("roots", _cmd_roots, help="screening-polynomial roots as JSON")
    _add_common(sp, h=False, b=False)

    sp = add("wp-check", _cmd_wp_check, help="P-function identity residuals")
    _add_common(sp, h=False, tol=True)

    sp = add("chain", _cmd_chain, help="derivative-chain collapse probe")
    _add_common(sp)
    sp.add_argument("--upto-k", type=int, default=8, dest="upto_k")

    sp = add("verify", _cmd_verify, help="run the acceptance suite")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "obj", "json"), default=None)

    return parser, commands


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out}: {exc.strerror}") from None


def _parse(argv: list[str]) -> argparse.Namespace:
    """parse_args of the top-level parser, with the subcommand's parser run
    directly when argv[0] names one.

    The top-level parser hands its subcommand parser exactly argv[1:], so
    help, usage errors and exit codes are the same either way; only the
    top-level pass over the subcommand's flags is skipped. Anything else
    (no command first, or tokens the subcommand leaves unrecognised) goes
    through the top-level parser unchanged.
    """
    parser, commands = _build_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        result = args.func(args)
        text, status = result if isinstance(result, tuple) else (result, 0)
        _emit(text, args.out)
    except UsageError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 2
    except CmcError as exc:
        payload = {"error": _error_slug(exc), "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
