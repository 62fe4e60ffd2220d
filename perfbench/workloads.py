"""The four workloads: seeded inputs, the op that is timed, and its output.

Each workload draws one *pass*, a fixed list of ops, from a seeded random
generator, and the driver replays that pass in a closed loop: the next op
starts when the previous one returns. Inputs are stratified: every pass has
the same mix of op kinds and sizes, and the seed moves values only inside
each stratum. That keeps the latency percentiles of different seeds
comparable while the inputs themselves differ.

For each op, ``token`` is a small digest compared across passes (the output
must not change), and ``capture`` keeps what the oracles in ``oracles.py``
need. Both run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math

from cmc_elliptic import (acceptance, cli_io, elliptic_reduction, profiles,
                          weierstrass, wp_chain)
from cmc_elliptic.profiles import CmcParams, Family

FAMILIES = ("euclidean", "spacelike-axis", "timelike-axis")
TIMELIKE_ROOTS = (0.620969, 1.610387)

# B strata kept more than 0.02 away from B = 1 and from the timelike
# screening roots, where reductions degenerate or chains are singular.
B_STRATA = ((0.2, 0.55), (0.7, 0.95), (1.1, 1.55), (1.7, 3.0))


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """Run cli_io.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_io.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha1(data).hexdigest()


# ---------------------------------------------------------------------------
# mesh-export


# (shape, rows, angles): tall grids pay per-row quadrature, wide grids pay
# per-vertex OBJ formatting. Sizes move by at most 5% with the seed. Many
# small meshes per pass keep the latency percentiles steady across seeds.
NEAR_SHAPES = (("tall", 64, 12), ("wide", 6, 128), ("square", 28, 28))
# Far windows repeat one quadrature over up to 20 periods per row, so they
# get fewer rows.
FAR_SHAPES = (("tall", 32, 6), ("wide", 4, 64), ("square", 16, 16))
NEAR_PER_FAMILY = 10
FAR_OPS = 30
FAR_PERIODS = (1.0, 20.0)
FAR_B = ((0.3, 0.6), (1.5, 2.5))


def _near_window(rng, family: str, H: float):
    """(B, s_lo, s_hi) of a window around the anchor, inside the domain."""
    if family == "spacelike-axis":  # keep the finite domain wide enough
        B = rng.choice((rng.uniform(0.2, 0.6), rng.uniform(1.7, 3.0)))
        s_max = math.acosh((1 + B * B) / (2 * B)) / (2 * H)
        return B, -rng.uniform(0.5, 0.8) * s_max, rng.uniform(0.5, 0.8) * s_max
    B = rng.uniform(*rng.choice(B_STRATA))
    if family == "euclidean":
        lo = rng.uniform(-0.8, -0.3) / H
        return B, lo, lo + rng.uniform(0.8, 1.2) / H
    edge = math.asinh((1 - B * B) / (2 * B)) / (2 * H)
    lo = edge + rng.uniform(0.05, 0.1) / H
    return B, lo, lo + rng.uniform(0.8, 1.2) / H


class MeshExport:
    name = "mesh-export"
    throughput = "vertices_per_s"  # OBJ vertices per second of op time

    def __init__(self, rng, scratch):
        self.out = str(scratch / "mesh-export.obj")
        ops = []
        for family in FAMILIES:
            for i in range(NEAR_PER_FAMILY):
                H = rng.uniform(0.5, 2.0)
                ops.append(self._op(rng, NEAR_SHAPES[i % 3], family, H,
                                    *_near_window(rng, family, H)))
        # Euclidean windows k periods pi/H out, k stratified over FAR_PERIODS.
        k_lo, k_hi = FAR_PERIODS
        for i in range(FAR_OPS):
            H = rng.uniform(0.5, 2.0)
            B = rng.uniform(*FAR_B[i % 2])
            k = k_lo + (k_hi - k_lo) * (i + rng.random()) / FAR_OPS
            lo = k * math.pi / H
            ops.append(self._op(rng, FAR_SHAPES[i % 3], "euclidean", H, B,
                                lo, lo + rng.uniform(0.5, 1.0) / H))
        rng.shuffle(ops)
        self.ops = ops

    @staticmethod
    def _op(rng, shape, family, H, B, lo, hi) -> dict:
        kind, rows, angles = shape
        n_s = round(rows * rng.uniform(0.95, 1.05))
        n_t = round(angles * rng.uniform(0.95, 1.05))
        return {"shape": kind, "family": family, "H": H, "B": B, "lo": lo,
                "hi": hi, "n_s": n_s, "n_t": n_t,
                "rows": sorted({0, n_s - 1, rng.randrange(1, n_s - 1)}),
                "argv": ["surface", "--family", family, f"--H={H!r}",
                         f"--B={B!r}", f"--s-min={lo!r}", f"--s-max={hi!r}",
                         f"--samples={n_s}", f"--theta-samples={n_t}"]}

    def run(self, op):
        return _cli(op["argv"] + ["--out", self.out])

    def token(self, op, result):
        with open(self.out, "rb") as fh:
            data = fh.read()
        return result[0], len(data), _sha(data)

    def capture(self, op, result) -> dict:
        with open(self.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        verts = [ln for ln in lines if ln.startswith("v ")]
        n_t = op["n_t"]
        rows = {i: [tuple(map(float, v.split()[1:]))
                    for v in verts[i * n_t:(i + 1) * n_t]] for i in op["rows"]}
        return {"rc": result[0], "stderr": result[2], "n_v": len(verts),
                "n_f": sum(ln.startswith("f ") for ln in lines), "rows": rows}

    def work(self, op) -> int:
        return op["n_s"] * op["n_t"]

    def bytes_out(self, token) -> int:
        return token[1]

    def shares(self) -> dict:
        rows = far = 0
        for op in self.ops:
            anchor = profiles.anchor(
                CmcParams(Family(op["family"]), op["H"], op["B"]))
            period = math.pi / op["H"]
            for i in range(op["n_s"]):
                s = op["lo"] + (op["hi"] - op["lo"]) * i / (op["n_s"] - 1)
                far += abs(s - anchor) > period
            rows += op["n_s"]
        shapes = [op["shape"] for op in self.ops]
        return {"rows_beyond_one_period": far / rows,
                "tall_grids": shapes.count("tall") / len(shapes),
                "wide_grids": shapes.count("wide") / len(shapes),
                "base_rows": rows, "base_ops": len(shapes)}


# ---------------------------------------------------------------------------
# wp-path


class WpPath:
    name = "wp-path"
    throughput = "points_per_s"  # points per second of op time

    def __init__(self, rng, scratch):
        ops = []
        # Timelike configurations: half with B <= 1 (edge anchor), half B > 1.
        for lo, hi in ((0.3, 0.58), (0.66, 0.96), (1.04, 1.58), (1.65, 3.0)):
            for _ in range(3):
                H, B = rng.uniform(0.4, 1.5), rng.uniform(lo, hi)
                params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, H, B)
                cfg = wp_chain.chain_config(
                    elliptic_reduction.reduce(params.family, B), H)
                anchor = profiles.anchor(params)
                for _ in range(25):
                    s = anchor + rng.uniform(0.05, 2.0) / (2 * H)
                    ops.append({"kind": "curve", "cfg": cfg, "params": params,
                                "s": s, "edge_anchor": B <= 1.0})
        for family in FAMILIES:
            for stratum in B_STRATA:
                B = rng.uniform(*stratum)
                data = elliptic_reduction.reduce(Family(family), B)
                e_max = weierstrass.WpEvaluator(data.g2, data.g3).e_max
                base = {"family": family, "B": B, "g2": data.g2,
                        "g3": data.g3}
                for _ in range(12):
                    w = e_max + 10.0 ** rng.uniform(-1.0, 1.3)
                    ops.append(dict(base, kind="inverse", w=w))
                for _ in range(12):
                    w1 = e_max + rng.uniform(0.1, 2.0)
                    ops.append(dict(base, kind="integral", w1=w1,
                                    w0=w1 + rng.uniform(0.5, 20.0)))
        rng.shuffle(ops)
        self.ops = ops

    def run(self, op):
        if op["kind"] == "curve":
            return wp_chain.curve_from_wp(op["cfg"], op["params"], op["s"])
        ev = weierstrass.WpEvaluator(op["g2"], op["g3"])
        if op["kind"] == "inverse":
            z = ev.wp_inverse(op["w"])
            return (z,) + ev.wp(z)
        return ev.wp_integral(ev.wp_inverse(op["w0"]), ev.wp_inverse(op["w1"]))

    def token(self, op, result):
        return result

    def capture(self, op, result):
        return result

    def work(self, op) -> int:
        return 1

    def bytes_out(self, token) -> int:
        return 0  # no CLI output

    def shares(self) -> dict:
        curves = [op for op in self.ops if op["kind"] == "curve"]
        return {"curve_points_edge_anchor":
                sum(op["edge_anchor"] for op in curves) / len(curves),
                "base_curve_points": len(curves), "base_ops": len(self.ops)}


# ---------------------------------------------------------------------------
# screening


class Screening:
    name = "screening"
    throughput = "requests_per_s"  # requests per second of op time

    def __init__(self, rng, scratch):
        pool = {f: [rng.uniform(*s) for s in B_STRATA for _ in range(2)]
                for f in FAMILIES}
        h_pool = [rng.uniform(0.25, 2.0) for _ in range(4)]
        ops = []
        for family in FAMILIES:
            for _ in range(4):
                ops.append(self._op("reduce", family,
                                    rng.choice(pool[family])))
            for _ in range(2):
                ops.append(self._op("roots", family, None))
            for k in range(3, 13):
                ops.append(self._op("chain", family, rng.choice(pool[family]),
                                    rng.choice(h_pool), k))
        for root in TIMELIKE_ROOTS:  # the correct answer is exit 1, singular
            ops.append(self._op("chain", "timelike-axis", root,
                                rng.choice(h_pool), rng.randint(3, 12)))
        rng.shuffle(ops)
        self.ops = ops

    @staticmethod
    def _op(command, family, B, H=None, k=None) -> dict:
        argv = [command, "--family", family]
        if B is not None:
            argv.append(f"--B={B!r}")
        if H is not None:
            argv += [f"--H={H!r}", f"--upto-k={k}"]
        return {"command": command, "family": family, "B": B, "H": H, "k": k,
                "argv": argv}

    def run(self, op):
        return _cli(op["argv"])

    def token(self, op, result):
        rc, out, err = result
        return rc, len(out), _sha(out + "\0" + err)

    def capture(self, op, result):
        return result

    def work(self, op) -> int:
        return 1

    def bytes_out(self, token) -> int:
        return token[1]

    def shares(self) -> dict:
        families, keys = set(), set()
        rep_family = rep_key = 0
        for op in self.ops:
            key = (op["family"], op["B"])
            rep_family += op["family"] in families
            rep_key += key in keys
            families.add(op["family"])
            keys.add(key)
        n = len(self.ops)
        return {"repeat_family": rep_family / n,
                "repeat_family_B": rep_key / n, "base_requests": n}


# ---------------------------------------------------------------------------
# verify

# The seed's scorecard: 8/11, criteria 2, 4 and 7 fail by design.
EXPECTED_PASS = {n: n not in (2, 4, 7) for n in range(1, 12)}


class Verify:
    name = "verify"
    throughput = "scorecards_per_s"  # scorecards per second of op time

    def __init__(self, rng, scratch):
        order = list(range(1, 11))
        rng.shuffle(order)
        self.ops = order + [11]  # criterion 11 reads the results of 9 and 10
        self._last = {}

    def run(self, n):
        if n == 11:
            return acceptance.criterion_11(self._last[9], self._last[10])
        result = getattr(acceptance, f"criterion_{n}")()
        self._last[n] = result
        return result

    def token(self, n, result):
        return result.num, result.passed

    def capture(self, n, result):
        return result

    def work(self, n) -> int:
        return 1 if n == 11 else 0  # one scorecard per pass

    def bytes_out(self, token) -> int:
        return 0  # no CLI output

    def shares(self) -> dict:
        return {"criteria_per_scorecard": len(self.ops)}


WORKLOADS = {cls.name: cls for cls in (MeshExport, WpPath, Screening, Verify)}


# ---------------------------------------------------------------------------
# Fixed warm-up ops: the first useful work a fresh process does (set-up).


def _warm_mesh(scratch):
    _cli(["surface", "--family", "euclidean", "--H=1.0", "--B=0.5",
          "--s-min=-0.5", "--s-max=0.5", "--samples=16",
          "--theta-samples=12", "--out", str(scratch / "warm-up.obj")])


def _warm_wp(scratch):
    params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
    cfg = wp_chain.chain_config(elliptic_reduction.reduce(params.family, 2.0),
                                0.5)
    wp_chain.curve_from_wp(cfg, params, 1.0)


def _warm_screening(scratch):
    _cli(["reduce", "--family", "timelike-axis", "--B=2.0"])


def _warm_verify(scratch):
    acceptance.criterion_1()


WARM_UP = {"mesh-export": _warm_mesh, "wp-path": _warm_wp,
           "screening": _warm_screening, "verify": _warm_verify}
