"""End-to-end checks of the command-line front end.

Every command is exercised through main(argv) so exit codes and the split
between stdout (payload) and stderr (diagnostics) are covered too.
"""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from surface_point import surface_point

import cmc_elliptic
from cmc_elliptic import cli_io
from cmc_elliptic.cli_io import (_build_parser, _chain_json, _family, _json,
                                 main)
from cmc_elliptic.elliptic_reduction import (discriminant_poly, reduce,
                                             singular_B)
from cmc_elliptic.errors import RangeError, SingularError
from cmc_elliptic.profiles import CmcParams, Family, domain, mesh
from cmc_elliptic.weierstrass import WpEvaluator
from cmc_elliptic.wp_chain import chain_config, polynomiality_probe


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_family_exits_two(self, capsys):
        rc, out, err = run(capsys, "reduce", "--family", "klein", "--B", "2")
        assert rc == 2
        assert out == ""
        assert "family" in err

    def test_format_mismatch_exits_two(self, capsys):
        rc, _, err = run(capsys, "profile", "--family", "euclid",
                         "--format", "json")
        assert rc == 2 and "format" in err

    def test_too_few_samples_exits_two(self, capsys):
        rc, _, _ = run(capsys, "profile", "--family", "euclid",
                       "--samples", "1")
        assert rc == 2

    def test_library_error_exits_one_with_json(self, capsys):
        # Timelike B=0 has no admissible parameter interval at all.
        rc, out, err = run(capsys, "profile", "--family", "timelike-axis",
                           "--B", "0")
        assert rc == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "empty-domain"
        assert payload["message"]

    def test_reduce_rejects_zero_b(self, capsys):
        rc, _, err = run(capsys, "reduce", "--family", "timelike", "--B", "0")
        assert rc == 1
        assert "domain" in json.loads(err)["error"]

    def test_hyperbolic_overflow_exits_one_with_range_error(self, capsys):
        rc, out, err = run(capsys, "profile", "--family", "timelike-axis",
                           "--H", "1", "--B", "2", "--s-min", "0",
                           "--s-max", "400")
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "range"

    # Past about 8.99e307 the angle grid's span 2*angle_range overflows.
    @pytest.mark.parametrize("angle", ["1000", "inf", "1e308", "-1e308"])
    def test_hyperbolic_angle_overflow_exits_one(self, capsys, angle):
        rc, out, err = run(capsys, "surface", "--family", "spacelike",
                           "--B", "2", "--s-min", "-0.1", "--s-max", "0.1",
                           f"--angle-range={angle}")
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "range"
        # The message names the value passed, not a nan sampled from it.
        assert repr(float(angle)) in payload["message"]
        assert "nan" not in payload["message"]

    # The grid's span s_max - s_min is checked before any sample is formed.
    @pytest.mark.parametrize("flags", [
        ("--s-max=inf",), ("--s-max=-inf",), ("--s-min=inf",),
        ("--s-min=-inf",), ("--s-min=-1e308", "--s-max=1e308")])
    def test_profile_span_overflow_exits_one(self, capsys, flags):
        rc, out, err = run(capsys, "profile", "--family", "euclid",
                           "--B", "0.5", *flags)
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "range"
        for flag in flags:
            assert repr(float(flag.split("=")[1])) in payload["message"]
        assert "nan" not in payload["message"]

    def test_surface_span_overflow_exits_one(self, capsys):
        # Both ends lie in the domain; the mesh grid's span does not fit.
        rc, out, err = run(capsys, "surface", "--family", "euclid", "--B",
                           "0.5", "--H", "1", "--samples", "3",
                           "--theta-samples", "2", "--s-min=-1e308",
                           "--s-max=1e308")
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "range"
        assert "(-1e+308, 1e+308)" in payload["message"]
        assert "nan" not in payload["message"]

    # (1 - B)**2 overflows before any sample's radicand is formed; the
    # error still names the first sample, s = -1.0 on the default grid.
    @pytest.mark.parametrize("command", ["profile", "surface"])
    def test_radicand_constant_overflow_names_the_first_sample(self, capsys,
                                                               command):
        rc, out, err = run(capsys, command, "--family", "spacelike",
                           "--B=1e300")
        assert rc == 1 and out == ""
        assert json.loads(err) == {
            "error": "range",
            "message": "profile of spacelike-axis H=1.0 B=1e+300 overflows "
                       "the float range at s=-1.0"}

    # One ulp either side of B = 1, H*|1-B| underflows to zero in the
    # spacelike axis coordinate; main would let a ZeroDivisionError out.
    @pytest.mark.parametrize("B", ["0.9999999999999999", "1.0000000000000002"])
    def test_spacelike_scale_underflow_exits_one(self, capsys, B):
        rc, out, err = run(capsys, "profile", "--family", "spacelike-axis",
                           "--H", "5e-324", "--B", B, "--s-min", "0",
                           "--s-max", "0.5", "--samples", "3")
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "range"
        assert B in payload["message"]

    # At timelike B = 1 the radicand is 2 sinh(2Hs); its 3/2 power divides
    # the second derivatives and underflows to zero for s this small.
    @pytest.mark.parametrize("command", ["profile", "surface"])
    @pytest.mark.parametrize("s_min", ["1e-300", "5e-324"])
    def test_radicand_power_underflow_exits_one(self, capsys, command, s_min):
        rc, out, err = run(capsys, command, "--family", "timelike",
                           f"--s-min={s_min}")
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "range"
        assert repr(float(s_min)) in payload["message"]

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_exits_two_with_one_line(self, capsys, tol):
        rc, out, err = run(capsys, "wp-check", "--family", "timelike",
                           "--B", "2", f"--tol={tol}")
        assert rc == 2 and out == ""
        assert err.count("\n") == 1
        assert f"--tol must be positive and finite, got {float(tol)!r}" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
    def test_non_finite_angle_range_raises_before_any_warning(self, capsys,
                                                              angle):
        rc, out, err = run(capsys, "surface", "--family", "spacelike",
                           "--B", "2", "--s-min", "-0.1", "--s-max", "0.1",
                           f"--angle-range={angle}")
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "range"

    @pytest.mark.parametrize("argv", [
        ("surface", "--family", "euclid", "--B", "0.5"), ("verify",)])
    def test_unwritable_out_exits_two_with_one_line(self, capsys, tmp_path,
                                                    argv):
        target = tmp_path / "missing" / "out.txt"
        rc, out, err = run(capsys, *argv, "--out", str(target))
        assert rc == 2 and out == ""
        assert err.count("\n") == 1
        assert f"error: cannot write --out {target}: " in err
        assert not target.parent.exists()

    def test_infinite_h_exits_one(self, capsys):
        rc, _, err = run(capsys, "profile", "--family", "euclid",
                         "--H", "inf")
        assert rc == 1
        assert json.loads(err)["error"] == "domain"

    def test_reduce_rejects_nan_b(self, capsys):
        rc, out, err = run(capsys, "reduce", "--family", "timelike",
                           "--B", "nan")
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "domain"

    def test_reduce_overflow_exits_one_with_range_error(self, capsys):
        rc, out, err = run(capsys, "reduce", "--family", "timelike",
                           "--B", "1e-300")
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "range"

    def test_non_finite_report_is_a_range_error(self):
        with pytest.raises(RangeError):
            _json({"g2": float("nan")})

    @pytest.mark.parametrize("fmt", ["csv", "obj", "json"])
    def test_verify_rejects_any_format(self, capsys, fmt):
        rc, out, err = run(capsys, "verify", "--format", fmt)
        assert rc == 2 and out == ""
        assert "format" in err

    # Both depend on (family, B) alone, so an H would be silently ignored.
    @pytest.mark.parametrize("command", ["reduce", "wp-check"])
    def test_h_on_an_h_free_command_exits_two(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "euclid", "--B", "2", "--H", "1"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "unrecognized arguments: --H 1" in err

    def test_success_exits_zero(self, capsys):
        rc, out, _ = run(capsys, "reduce", "--family", "euclid", "--B", "2")
        assert rc == 0 and out

    # The Euclidean and timelike rotations are circular, over [0, 2 pi]; an
    # angle range there would be silently ignored. The usage error comes
    # before any domain check (timelike B = 0.5 has no s = -1).
    @pytest.mark.parametrize("family", ["euclid", "timelike-axis"])
    @pytest.mark.parametrize("angle", ["2", "5", "nan"])
    def test_angle_range_on_a_circular_family_exits_two(self, capsys, family,
                                                        angle):
        rc, out, err = run(capsys, "surface", "--family", family, "--B",
                           "0.5", "--samples", "3", "--theta-samples", "3",
                           f"--angle-range={angle}")
        assert rc == 2 and out == ""
        assert err.count("\n") == 1
        assert "--angle-range applies only to the spacelike-axis" in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("reduce", "--family", "timelike", "--B", "1.7"),
        ("profile", "--family", "spacelike", "--B", "0.5", "--H", "0.8",
         "--s-min", "-0.3", "--s-max", "0.3"),
        ("surface", "--family", "euclid", "--B", "2", "--H", "0.5",
         "--s-min", "-0.4", "--s-max", "0.4", "--samples", "6",
         "--theta-samples", "5"),
        ("roots", "--family", "timelike"),
        ("chain", "--family", "timelike", "--B", "2", "--H", "0.5"),
    ])
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ("reduce", "--family", "euclid", "--B", "0.5"),
        ("surface", "--family", "timelike", "--B", "2", "--H", "0.5",
         "--s-min", "0.1", "--s-max", "1.5", "--samples", "7",
         "--theta-samples", "9"),
        ("profile", "--family", "spacelike", "--B", "0.5", "--H", "0.8",
         "--s-min", "-0.3", "--s-max", "0.3"),
    ])
    def test_out_flag_writes_same_bytes_as_stdout(self, capsys, tmp_path,
                                                  argv):
        target = tmp_path / "out.txt"
        rc, out, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv, "--out", str(target))
        assert rc == rc2 == 0
        assert out2 == ""  # payload went to the file instead
        assert target.read_text(encoding="utf-8") == out


class TestProfileCommand:
    def test_cylinder_csv(self, capsys):
        rc, out, _ = run(capsys, "profile", "--family", "euclid", "--B", "0",
                         "--H", "1", "--s-min", "-0.7", "--s-max", "0.7",
                         "--samples", "9")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,x,second,dx,dsecond"
        assert len(lines) == 10
        for line in lines[1:]:
            s, x, second, dx, dsecond = map(float, line.split(","))
            assert second == 0.5  # constant radius 1/(2H)
            assert (dx, dsecond) == (1.0, 0.0)

    def test_timelike_b_one_next_to_the_domain_edge(self, capsys):
        # The domain is (0, inf) and the radicand 2 sinh(2Hs) stays positive
        # however close s comes to 0.
        rc, out, err = run(capsys, "profile", "--family", "timelike",
                           "--B", "1", "--s-min", "1e-17", "--s-max", "0.5",
                           "--samples", "3")
        assert (rc, err) == (0, "")
        rows = [list(map(float, line.split(",")))
                for line in out.strip().split("\n")[1:]]
        assert [r[0] for r in rows] == [1e-17, 0.25, 0.5]
        assert rows[0][1] == pytest.approx(math.sqrt(1e-17), rel=1e-15)
        assert all(map(math.isfinite, (v for r in rows for v in r)))

    def test_family_aliases_match(self, capsys):
        argv = ["--B", "1.5", "--H", "0.5", "--s-min", "0.1", "--s-max", "0.9"]
        _, short, _ = run(capsys, "profile", "--family", "timelike", *argv)
        _, full, _ = run(capsys, "profile", "--family", "timelike-axis", *argv)
        assert short == full

    @pytest.mark.parametrize("argv,sha1", [
        (("--family", "euclid", "--B", "0.5", "--H", "0.8", "--s-min", "-0.5",
          "--s-max", "0.6", "--samples", "11"),
         "bb0d44ce386bb38c3f6ac1b1c0dbdd9bfcf48c8e"),
        (("--family", "spacelike", "--B", "0.5", "--H", "0.8", "--s-min",
          "-0.3", "--s-max", "0.3"),
         "d34babc33c94c29d704e2adfa28e7ab746c4977f"),
        (("--family", "timelike", "--B", "2", "--H", "0.5", "--s-min", "0.1",
          "--s-max", "1.5", "--samples", "13"),
         "a03d3d558b3858112ea0c8efb0a73cb41276b87b"),
    ])
    def test_csv_bytes_are_pinned(self, capsys, argv, sha1):
        # Frozen bytes: however a row is formatted, every value must print
        # as the repr of the same float.
        rc, out, err = run(capsys, "profile", *argv)
        assert (rc, err) == (0, "")
        assert hashlib.sha1(out.encode()).hexdigest() == sha1


class TestSurfaceCommand:
    def test_obj_counts(self, capsys):
        rc, out, _ = run(capsys, "surface", "--family", "euclid", "--B", "2",
                         "--H", "0.5", "--s-min", "-0.5", "--s-max", "0.5",
                         "--samples", "5", "--theta-samples", "7")
        assert rc == 0
        lines = out.strip().split("\n")
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == 5 * 7
        assert len(f_lines) == 2 * (5 - 1) * (7 - 1)
        assert len(lines) == len(v_lines) + len(f_lines)

    def test_face_indices_are_one_based_and_in_range(self, capsys):
        _, out, _ = run(capsys, "surface", "--family", "spacelike", "--B", "0",
                        "--s-min", "-1", "--s-max", "1", "--samples", "4",
                        "--theta-samples", "4")
        lines = out.strip().split("\n")
        n_v = sum(l.startswith("v ") for l in lines)
        for line in lines:
            if line.startswith("f "):
                idx = [int(tok) for tok in line.split()[1:]]
                assert all(1 <= i <= n_v for i in idx)

    def test_spacelike_cylinder_vertices_on_quadric(self, capsys):
        # B=0, H=1: x3^2 - x2^2 = (1/(2H))^2 on every vertex.
        _, out, _ = run(capsys, "surface", "--family", "spacelike", "--B", "0",
                        "--H", "1", "--s-min", "-1", "--s-max", "1",
                        "--samples", "6", "--theta-samples", "9")
        for line in out.strip().split("\n"):
            if line.startswith("v "):
                _, x1, x2, x3 = line.split()
                val = float(x3) ** 2 - float(x2) ** 2
                assert val == pytest.approx(0.25, abs=1e-12)

    def test_spacelike_angle_range_defaults_to_two(self, capsys):
        argv = ("surface", "--family", "spacelike", "--B", "2", "--s-min",
                "-0.1", "--s-max", "0.1", "--samples", "3",
                "--theta-samples", "4")
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert run(capsys, *argv, "--angle-range", "2") == (rc, out, err)
        assert run(capsys, *argv, "--angle-range", "3")[1] != out

    def test_subnormal_span_samples_like_numpy(self, capsys):
        # The grid step 5e-324/4 underflows to zero; the samples must still
        # be numpy.linspace's i/(n-1) * span, not all 0 but the last. The
        # B = 0 spacelike profile is the line x = -s, so every sample shows.
        rc, out, _ = run(capsys, "surface", "--family", "spacelike",
                         "--B", "0", "--s-min", "0", "--s-max", "5e-324",
                         "--samples", "5")
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 1.0, 0.0)
        expected = [surface_point(params, s, t)
                    for s in np.linspace(0.0, 5e-324, 5).tolist()
                    for t in np.linspace(-2.0, 2.0, 17).tolist()]
        vertices = [tuple(map(float, line.split()[1:]))
                    for line in out.splitlines() if line.startswith("v ")]
        assert rc == 0
        assert vertices == expected

    @pytest.mark.parametrize("argv,sha1", [
        # One window per family.
        (("--family", "euclid", "--B", "0.5", "--H", "0.8", "--s-min", "-0.5",
          "--s-max", "0.6", "--samples", "7", "--theta-samples", "9"),
         "91cdbab9b2101564f8408fd65ef97e3add6adfb6"),
        (("--family", "spacelike", "--B", "2", "--H", "0.7", "--s-min",
          "-0.3", "--s-max", "0.3", "--samples", "6", "--theta-samples", "8"),
         "5e7f2db1b453ef9a0940caafe04da528325fe5b0"),
        (("--family", "timelike", "--B", "2", "--H", "0.5", "--s-min", "0.1",
          "--s-max", "1.5", "--samples", "7", "--theta-samples", "9"),
         "c1f975125a761e247e6ded6fbcdefedf08d23265"),
        # A tall grid and a wide grid.
        (("--family", "euclid", "--B", "1.7", "--H", "1.1", "--s-min", "-0.6",
          "--s-max", "0.5", "--samples", "40", "--theta-samples", "3"),
         "191a4cd830f8b50f08ec90b512371c02a1808e90"),
        (("--family", "timelike", "--B", "1.5", "--H", "0.9", "--s-min",
          "0.2", "--s-max", "1.2", "--samples", "3", "--theta-samples", "60"),
         "0446045735c6755a36c856e06d3a470b7e07bb7e"),
        # A Euclidean window 20 periods pi/H out.
        (("--family", "euclid", "--B", "0.4", "--H", "1.3",
          "--s-min=48.3321946706122", "--s-max=48.87065620907374",
          "--samples", "9", "--theta-samples", "7"),
         "36851b1cb2367d940fa805dd75dbc5b1be077bd8"),
        (("--family", "spacelike", "--B", "2", "--s-min", "-0.1", "--s-max",
          "0.1", "--samples", "4", "--theta-samples", "6", "--angle-range",
          "5"),
         "064c9a22caaa81eec5131e7ac0ad20f821bd4438"),
        # Timelike B <= 1: the axis value vanishes at the edge anchor.
        (("--family", "timelike", "--B", "0.5", "--H", "1", "--s-min", "0.45",
          "--s-max", "1.3", "--samples", "6", "--theta-samples", "7"),
         "e213b16cc6345287665dcce56ac750badf1aeacb"),
        # The subnormal span of test_subnormal_span_samples_like_numpy.
        (("--family", "spacelike", "--B", "0", "--s-min", "0", "--s-max",
          "5e-324", "--samples", "5"),
         "9eac18166427c4b9ef0974643fff61ca82955a21"),
    ])
    def test_obj_bytes_are_pinned(self, capsys, argv, sha1):
        # Frozen bytes: however the lines are built, every vertex must print
        # as the repr of the same floats and every face as the same indices.
        rc, out, err = run(capsys, "surface", *argv)
        assert (rc, err) == (0, "")
        assert hashlib.sha1(out.encode()).hexdigest() == sha1

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(Family)), st.floats(-1, 1), st.floats(-1, 1),
           st.floats(0, 1), st.floats(0, 1), st.integers(2, 12),
           st.integers(2, 12))
    def test_obj_text_is_the_mesh(self, family, log_h, log_b, u, v, n_s, n_t):
        H, B = 10.0 ** log_h, 10.0 ** log_b
        params = CmcParams(family, H, B)
        dom = domain(params)
        assume(not dom.degenerate)
        # Clear of the domain edges, where the radicand rounds to zero.
        lo, hi = max(dom.lo, -3 / H), min(dom.hi, 3 / H)
        lo, hi = lo + (hi - lo) / 100, hi - (hi - lo) / 100
        s_min, s_max = sorted((lo + (hi - lo) * u, lo + (hi - lo) * v))
        assume(s_min < s_max and dom.contains(s_min) and dom.contains(s_max))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["surface", "--family", family.value, f"--H={H!r}",
                       f"--B={B!r}", f"--s-min={s_min!r}",
                       f"--s-max={s_max!r}", f"--samples={n_s}",
                       f"--theta-samples={n_t}"])
        assert rc == 0
        m = mesh(params, (s_min, s_max), n_s, n_t)
        lines = buf.getvalue().splitlines()
        n_v = len(m.vertices)
        assert len(lines) == n_v + len(m.faces)
        v_tokens = [line.split(" ") for line in lines[:n_v]]
        f_tokens = [line.split(" ") for line in lines[n_v:]]
        assert all(t[0] == "v" and len(t) == 4 for t in v_tokens)
        assert all(t[0] == "f" and len(t) == 4 for t in f_tokens)
        assert [tuple(map(float, t[1:])) for t in v_tokens] == m.vertices
        assert [tuple(int(i) - 1 for i in t[1:]) for t in f_tokens] == m.faces


class TestReduceCommand:
    def test_report_fields(self, capsys):
        rc, out, _ = run(capsys, "reduce", "--family", "spacelike", "--B", "2")
        report = json.loads(out)
        assert list(report) == ["family", "B", "c", "l", "m", "n", "lambda",
                                "g2", "g3", "disc", "singular"]
        assert report["family"] == "spacelike-axis"
        assert report["n"] == -4.0
        assert report["singular"] is False


class TestRootsCommand:
    def test_timelike_roots(self, capsys):
        rc, out, _ = run(capsys, "roots", "--family", "timelike")
        assert rc == 0
        report = json.loads(out)
        assert report["family"] == "timelike-axis"
        assert report["roots"] == pytest.approx(
            [0.6209687128607871, 1.6103870924398513], rel=1e-10)
        assert all(abs(r) < 1e-6 for r in report["residuals"])

    def test_other_families_have_no_roots(self, capsys):
        for fam in ("spacelike", "euclid"):
            _, out, _ = run(capsys, "roots", "--family", fam)
            assert json.loads(out)["roots"] == []

    @pytest.mark.parametrize("family,sha1", [
        ("timelike", "0837ca72153abd50b7ad0121cecdd67adb3aec3a"),
        ("spacelike", "984deae80257241d76c31af88edaf9b502a377b8"),
        ("euclid", "f8640cbdf00d87dae0599ef7cf4fc6d4054c6f8c"),
    ])
    def test_report_bytes_are_pinned(self, capsys, family, sha1):
        # Frozen bytes: however the roots are isolated and refined, each
        # root and residual must come out as the same float.
        rc, out, err = run(capsys, "roots", "--family", family)
        assert (rc, err) == (0, "")
        assert hashlib.sha1(out.encode()).hexdigest() == sha1

    def test_second_request_evaluates_no_residual(self, capsys,
                                                  monkeypatch):
        # The report depends on the family alone: it is built once per
        # family, so a repeat evaluates no screening polynomial.
        calls = []

        def counted(family):
            num = discriminant_poly(family)
            return lambda r: calls.append(r) or num(r)

        monkeypatch.setattr(cli_io, "discriminant_poly", counted)
        cli_io._roots_text.cache_clear()
        try:
            first = run(capsys, "roots", "--family", "timelike")
            assert len(calls) == 2
            assert run(capsys, "roots", "--family", "timelike-axis") == first
            assert len(calls) == 2
        finally:
            cli_io._roots_text.cache_clear()


class TestWpCheckCommand:
    def test_residuals_within_tolerance(self, capsys):
        rc, out, _ = run(capsys, "wp-check", "--family", "timelike",
                         "--B", "2")
        report = json.loads(out)
        assert rc == 0 and report["ok"] is True
        assert report["e_max"] == pytest.approx(-0.5, rel=1e-12)
        assert report["residuals"]["ode"] < 1e-9
        assert report["residuals"]["inverse_roundtrip"] < 1e-9
        assert report["residuals"]["second_derivative_fd"] < 1e-6

    @pytest.mark.parametrize("family,B", [
        ("euclid", "1e-8"), ("euclid", "1e-4"), ("euclid", "100"),
        ("euclid", "1e8"), ("spacelike", "1e-4"), ("spacelike", "100"),
        ("timelike", "1e-4"), ("timelike", "10"), ("timelike", "20"),
        ("timelike", "100"), ("timelike", "1e4"), ("spacelike", "1e8"),
        ("spacelike", "1e-8")])
    def test_p_second_probe_steps_relative_to_z(self, capsys, family, B):
        # Where P is huge, z is tiny: a step of 1e-4 absolute measured the
        # probe's own truncation error, not P''. At timelike B = 10 and 20
        # one central difference still read its own h^2 term, 1.7e-6 and
        # 1.8e-6, past the 1e-6 gate. Timelike B = 1e4 and spacelike
        # B = 1e8 and 1e-8 read 2.7e-6, 218 and 4.6e-2 with P from the
        # Laurent series and duplication, 4.2e-12, 2.7e-9 and 9.3e-10 from
        # the AGM descent.
        rc, out, _ = run(capsys, "wp-check", "--family", family, "--B", B)
        report = json.loads(out)
        assert rc == 0 and report["ok"] is True
        assert report["residuals"]["second_derivative_fd"] < 5e-7

    def test_inaccurate_p_still_fails(self, capsys, monkeypatch):
        # P off by 1e-6 relative, P' as computed: the round trip, the ODE
        # and P'' all see it.
        wp = WpEvaluator.wp

        def off(ev, z):
            p, pp = wp(ev, z)
            return p * (1.0 + 1e-6), pp

        monkeypatch.setattr(WpEvaluator, "wp", off)
        rc, out, _ = run(capsys, "wp-check", "--family", "timelike",
                         "--B", "2")
        report = json.loads(out)
        assert rc == 0 and report["ok"] is False
        assert report["residuals"]["inverse_roundtrip"] == pytest.approx(
            1e-6, rel=1e-3)
        assert report["residuals"]["ode"] > 1e-7
        assert report["residuals"]["second_derivative_fd"] > 1e-7


_TERM_KEYS = ("k", "num_degree", "den_degree", "parity", "min_abs_value",
              "identically_zero")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_MIN_ABS = st.one_of(st.sampled_from([0.0, 5e-324, 1.7976931348623157e308]),
                     st.floats(min_value=0.0, allow_infinity=False))
_TERM_FIELDS = st.tuples(st.integers(-1, 80), st.integers(1, 79),
                         st.sampled_from(["odd", "even"]), _MIN_ABS,
                         st.booleans())


@st.composite
def _probe_reports(draw):
    fields = draw(st.lists(_TERM_FIELDS, min_size=1, max_size=40))
    return {"family": draw(st.sampled_from([f.value for f in Family])),
            "H": draw(_FINITE), "B": draw(_FINITE),
            "terms": [dict(zip(_TERM_KEYS, (k, *f)))
                      for k, f in enumerate(fields, 1)]}


def _seeded_chain_pool():
    """48 chain argvs from random.Random(23): 17-digit B in (0.05, 5), about
    one in ten a timelike screening root, log-uniform H in [1e-3, 1e3] and
    K from 3 to 40."""
    rng = random.Random(23)
    roots = [repr(r) for r in singular_B(Family.LORENTZ_TIMELIKE_AXIS)]
    pool = []
    for _ in range(48):
        family = rng.choice(("timelike", "spacelike", "euclid"))
        B = repr(rng.uniform(0.05, 5))
        if rng.random() < 0.1:
            family, B = "timelike", rng.choice(roots)
        pool.append(("chain", "--family", family, "--B", B, "--H",
                     repr(10 ** rng.uniform(-3, 3)), "--upto-k",
                     str(rng.randint(3, 40))))
    return pool


class TestChainReportText:
    def test_probe_reports_are_the_json_encoding(self):
        # Real reports, so a key that polynomiality_probe adds or renames
        # and _chain_json leaves out fails here.
        checked = 0
        for argv in _seeded_chain_pool():
            args = _build_parser()[0].parse_args(argv)
            try:
                cfg = chain_config(reduce(_family(args.family), args.B),
                                   args.H)
            except SingularError:
                continue
            report = polynomiality_probe(cfg, args.upto_k)
            assert _chain_json(report) == _json(report)
            checked += 1
        assert checked > 40

    @settings(max_examples=200, deadline=None)
    @given(_probe_reports())
    def test_text_is_the_json_encoding(self, report):
        assert _chain_json(report) == \
            json.dumps(report, indent=2, allow_nan=False) + "\n"

    @settings(max_examples=50, deadline=None)
    @given(_probe_reports(), st.sampled_from([math.nan, math.inf, -math.inf]),
           st.data())
    def test_non_finite_value_is_a_range_error(self, report, bad, data):
        i = data.draw(st.integers(0, len(report["terms"]) - 1))
        report["terms"][i]["min_abs_value"] = bad
        with pytest.raises(RangeError):
            _chain_json(report)
        with pytest.raises(RangeError):
            _json(report)


class TestChainCommand:
    def test_probe_report(self, capsys):
        rc, out, _ = run(capsys, "chain", "--family", "timelike", "--B", "2",
                         "--H", "0.5", "--upto-k", "8")
        report = json.loads(out)
        assert rc == 0
        assert [t["k"] for t in report["terms"]] == list(range(1, 9))
        assert not any(t["identically_zero"] for t in report["terms"])

    def test_num_degree_is_the_exact_degree(self, capsys):
        # At B = 2.3 the P^2 and P^3 coefficients of N_3 vanish over Q just
        # as at B = 2; a float recursion leaves round-off there.
        degrees = []
        for B in ("2", "2.3"):
            rc, out, _ = run(capsys, "chain", "--family", "timelike", "--B", B,
                             "--H", "0.5", "--upto-k", "6")
            assert rc == 0
            degrees.append([t["num_degree"] for t in json.loads(out)["terms"]])
        assert degrees[0] == degrees[1] == [0, 3, 1, 4, 4, 7]

    @pytest.mark.parametrize("family,sha1", [
        ("timelike", "4875bd04345ab2ece2d502cc1f4b83dc4964fd23"),
        ("spacelike", "21a9fe55ad24f7668f45e8d6a3eb9323efbcf936"),
        ("euclid", "bc5ef3589fe3c68c40ee0d1a148a15d3858cf7c0"),
    ])
    def test_report_bytes_are_pinned(self, capsys, family, sha1):
        # Frozen bytes: however the exact chain is computed, every
        # coefficient must round to the same float. Re-pinned (with the
        # sweep and the pool below) when the probe points became the exact
        # branch points P = e_max + offset: only min_abs_value moved.
        rc, out, err = run(capsys, "chain", "--family", family, "--B", "2.3",
                           "--H", "0.5", "--upto-k", "12")
        assert (rc, err) == (0, "")
        assert hashlib.sha1(out.encode()).hexdigest() == sha1

    def test_h_and_k_sweep_bytes_are_pinned(self, capsys, cold_chains):
        # Frozen bytes over H and K at one non-dyadic B per family. Every H
        # reads the chain of H = 1/2 scaled by (2H)^-(k-1): the first pass
        # starts from an empty memo, the second finds every probe stored.
        for _ in range(2):
            digest = hashlib.sha1()
            for family, B in (("timelike", "2.3"), ("spacelike", "0.7"),
                              ("euclid", "0.3")):
                for H in ("1e-3", "0.3", "0.5", "1.7", "20"):
                    for K in ("12", "5", "9", "3", "15", "40"):
                        rc, out, err = run(capsys, "chain", "--family",
                                           family, "--B", B, "--H", H,
                                           "--upto-k", K)
                        digest.update(f"{rc}\0{out}\0{err}\0".encode())
            assert digest.hexdigest() == \
                "49ae12bde945cb2468e092c6958055339905d421"

    def test_seeded_pool_bytes_are_pinned(self, capsys, cold_chains):
        # Frozen bytes over a seeded pool: 17-digit B, log-uniform
        # non-dyadic H and K up to 40, and both timelike screening roots
        # (a SingularError). The first pass starts from an empty memo, the
        # second finds every probe stored.
        pool = _seeded_chain_pool()
        roots = [repr(r) for r in singular_B(Family.LORENTZ_TIMELIKE_AXIS)]
        assert {argv[4] for argv in pool} >= set(roots)
        digest = hashlib.sha1()
        for argv in pool + pool:
            rc, out, err = run(capsys, *argv)
            digest.update(f"{rc}\0{out}\0{err}\0".encode())
        assert digest.hexdigest() == \
            "75bcdaae0953121daa5c5caf90d5b557696303da"

    def test_huge_k_stores_no_order_past_the_float_range(self, capsys,
                                                         cold_chains):
        rc, out, err = run(capsys, "chain", "--family", "timelike", "--B",
                           "2", "--H", "0.5", "--upto-k", "100000")
        assert (rc, out) == (1, "")
        assert json.loads(err) == {
            "error": "range", "message": "chain step 116: exact coefficient "
            "of P^52 is outside the float range"}
        # K is past _KEPT_ORDERS: the request is probed and stored nowhere.
        assert cold_chains.cache_info().currsize == 0

    def test_one_shot_huge_k_retains_under_4_kb(self, capsys, memo_bytes):
        # Orders past _KEPT_ORDERS are stepped and dropped: after the
        # request the memo holds nothing, not the 115 orders in the float
        # range (about 1.2 MB).
        rc, held = memo_bytes(lambda: run(
            capsys, "chain", "--family", "timelike", "--B", "2", "--H",
            "0.5", "--upto-k", "100000")[0])
        assert rc == 1
        assert held < 2 ** 12

    @pytest.mark.parametrize("H,stored_k,K", [
        ("1e-60", "3", "12"),   # an exact coefficient past 1.8e308
        ("0.5", "40", "100"),   # a term value past the float range
        ("1e5", "12", "40"),    # the same, at a K the memo keeps
    ])
    def test_warm_range_error_is_the_cold_one(self, capsys, cold_chains, H,
                                              stored_k, K):
        # The rows kept for (B, H) at a smaller K leave a failing K as it
        # was: the error comes at the same order with the same text, and
        # the failing request stores nothing.
        argv = ("chain", "--family", "timelike", "--B", "2", "--H", H)
        cold = run(capsys, *argv, "--upto-k", K)
        assert cold[0] == 1 and json.loads(cold[2])["error"] == "range"
        cold_chains.cache_clear()
        run(capsys, *argv, "--upto-k", stored_k)
        assert cold_chains.cache_info().currsize == 1
        assert run(capsys, *argv, "--upto-k", K) == cold
        assert run(capsys, *argv, "--upto-k", K) == cold
        assert cold_chains.cache_info().currsize == 1

    @pytest.mark.parametrize("argv", [
        # An exact coefficient past 1.8e308.
        ("--family", "timelike", "--B", "2", "--H", "1e-100", "--upto-k", "12"),
        ("--family", "timelike", "--B", "2", "--H", "1e-200", "--upto-k", "3"),
        ("--family", "timelike", "--B", "2", "--H", "0.5", "--upto-k", "120"),
        # A term value past the float range while every coefficient has one:
        # a numerator from order 91, a power of alpha + beta*P from 31.
        ("--family", "timelike", "--B", "2", "--H", "0.5", "--upto-k", "100"),
        ("--family", "timelike", "--B", "2", "--H", "1e5", "--upto-k", "40"),
        # An exact coefficient that underflows to zero.
        ("--family", "euclid", "--B", "0.3", "--H", "1e200", "--upto-k", "12"),
        ("--family", "spacelike", "--B", "2", "--H", "1e150", "--upto-k", "8"),
    ])
    def test_chain_past_float_range_is_a_range_error(self, capsys, argv):
        rc, out, err = run(capsys, "chain", *argv)
        assert rc == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "range"


class TestVerifyCommand:
    def test_exits_nonzero_with_one_line_per_criterion(self, capsys):
        # Three criteria fail by design, so the gate reports a red overall.
        rc, out, _ = run(capsys, "verify")
        assert rc == 1
        lines = out.strip().split("\n")
        criterion_lines = [l for l in lines
                           if l.startswith(("PASS", "FAIL"))]
        assert len(criterion_lines) == 11
        assert lines[-1] == "8/11 criteria passed"


def test_commands_run_on_the_standard_library_alone():
    # A fresh interpreter: the test process itself has numpy loaded.
    script = textwrap.dedent("""
        import contextlib, io, sys
        from cmc_elliptic import cli_io
        for argv in (
            ["profile", "--family", "timelike", "--B", "2", "--H", "0.5",
             "--s-min", "0.1", "--s-max", "1.5"],
            ["surface", "--family", "spacelike", "--B", "0.5",
             "--s-min", "-0.3", "--s-max", "0.3"],
            ["reduce", "--family", "spacelike", "--B", "2"],
            ["roots", "--family", "timelike"],
            ["wp-check", "--family", "timelike", "--B", "2"],
            ["chain", "--family", "timelike", "--B", "2", "--H", "0.5"],
            ["verify"],
        ):
            if argv == ["verify"]:
                # Only verify loads the acceptance suite.
                print("cmc_elliptic.acceptance" in sys.modules)
            with contextlib.redirect_stdout(io.StringIO()):
                cli_io.main(argv)
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] in ("numpy", "scipy")))
    """)
    src = os.path.dirname(os.path.dirname(cmc_elliptic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout == "False\n[]\n"


# Each numeric flag of each command, set in turn to edge values at the
# defaults (B = 1 degenerates in most families) and at a point where every
# family succeeds. Integer flags get small values only, so that no run asks
# for a huge grid.
SWEEP_FLOATS = ["0", "1", "-1", "1e300", "-1e300", "1e-300", "5e-324", "nan",
                "inf", "-inf", repr(math.nextafter(1.0, 2.0)),
                repr(math.nextafter(1.0, 0.0)), "abc"]
SWEEP_INTS = ["0", "1", "-1", "2", "1.5", "abc"]
SWEEP_FLAGS = {
    "profile": (["--H", "--B", "--s-min", "--s-max"], ["--samples"]),
    "surface": (["--H", "--B", "--s-min", "--s-max", "--angle-range"],
                ["--samples", "--theta-samples"]),
    "reduce": (["--B"], []),
    "roots": ([], []),
    "wp-check": (["--B", "--tol"], []),
    "chain": (["--H", "--B"], ["--upto-k"]),
}
SWEEP_POINT = {"--H": "0.5", "--B": "2", "--s-min": "0.1", "--s-max": "0.3"}


def _sweep_argv():
    for command, (floats, ints) in SWEEP_FLAGS.items():
        point = [f"{flag}={SWEEP_POINT[flag]}" for flag in floats
                 if flag in SWEEP_POINT]
        for family in ("euclid", "spacelike", "timelike", "klein"):
            for base in ([command, "--family", family],
                         [command, "--family", family, *point]):
                yield base
                yield base + ["--frobnicate", "1"]
                for flag in floats:
                    for value in SWEEP_FLOATS:
                        yield base + [f"{flag}={value}"]
                for flag in ints:
                    for value in SWEEP_INTS:
                        yield base + [f"{flag}={value}"]


def test_no_argv_ends_in_a_traceback(capsys):
    bad = []
    for argv in _sweep_argv():
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            rc = exc.code
        except Exception as exc:
            rc = repr(exc)
        out, err = capsys.readouterr()
        if rc == 1:
            try:
                payload = json.loads(err)
            except ValueError:
                payload = None
            ok = out == "" and isinstance(payload, dict) and "error" in payload
        elif rc == 0:
            ok = not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE)
        else:
            ok = rc == 2
        if not ok:
            bad.append((argv, rc, err[-200:]))
    assert bad == []


# Each flag set away from its default comes before a run that leaves it at
# the default, so state kept by the shared parser would show in the next run.
REUSE_ARGV = [
    ["surface", "--family", "spacelike", "--B", "2", "--s-min", "-0.1",
     "--s-max", "0.1", "--samples", "3", "--theta-samples", "3",
     "--angle-range", "5"],
    ["surface", "--family", "spacelike", "--B", "2", "--s-min", "-0.1",
     "--s-max", "0.1", "--samples", "3", "--theta-samples", "3"],
    ["chain", "--family", "timelike", "--B", "2", "--H", "0.5",
     "--upto-k", "12"],
    ["chain", "--family", "timelike", "--B", "2", "--H", "0.5"],
    ["profile", "--family", "euclid", "--B", "0.5", "--s-min", "-0.3",
     "--s-max", "0.3", "--samples", "4"],
    ["reduce", "--family", "spacelike", "--B", "2"],
    ["roots", "--family", "timelike"],
    ["wp-check", "--family", "timelike", "--B", "2", "--tol", "1e-6"],
    ["wp-check", "--family", "timelike", "--B", "2"],
    ["verify"],
    ["reduce", "--family", "klein", "--B", "2"],
    ["chain", "--help"],
    ["frobnicate"],
]


def _strip_timings(text):
    return re.sub(r" in \d+\.\d+s", " in <t>s", text)


def test_one_parser_serves_every_run_in_a_process(capsys, monkeypatch):
    # Help text wraps at the terminal width; fix it on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(cmc_elliptic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    parser, _ = _build_parser()
    for argv in REUSE_ARGV:
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "cmc_elliptic.cli_io", *argv],
            capture_output=True, text=True, env=env)
        assert (rc, _strip_timings(captured.out), captured.err) == (
            proc.returncode, _strip_timings(proc.stdout), proc.stderr), argv
    assert _build_parser()[0] is parser


# A valid request of every subcommand, answered by its own parser.
VALID_ARGV = {
    "profile": ["profile", "--family", "euclid", "--B", "0.5", "--s-min",
                "-0.3", "--s-max", "0.3", "--samples", "4"],
    "surface": ["surface", "--family", "spacelike", "--B", "2", "--s-min",
                "-0.1", "--s-max", "0.1", "--samples", "3",
                "--theta-samples", "3", "--angle-range=1.5"],
    "reduce": ["reduce", "--family", "spacelike", "--B=2"],
    "roots": ["roots", "--family", "timelike"],
    "wp-check": ["wp-check", "--family", "timelike", "--B", "2", "--tol",
                 "1e-6"],
    "chain": ["chain", "--family", "timelike", "--B", "2", "--H", "0.5",
              "--upto-k", "5"],
    "verify": ["verify"],
}
# Requests that fall back to the top-level parser (nothing, help or an
# option before the command, unknown commands, tokens the subcommand leaves
# over) and ones its own parser answers (help, errors, abbreviations,
# repeats, "--").
DISPATCH_ARGV = [
    *VALID_ARGV.values(),
    [], ["-h"], ["--help"], ["--he"], ["-h", "roots"], ["frobnicate"],
    ["Roots", "--family", "timelike"], ["root", "--family", "timelike"],
    ["--family", "timelike", "roots"], ["--", "roots", "--family", "euclid"],
    ["roots", "-h"], ["chain", "--help"], ["verify", "--he"],
    ["roots", "--family", "timelike", "--help", "--frobnicate"],
    ["roots"], ["roots", "--family"], ["roots", "--family", "timelike", "x"],
    ["roots", "--family", "timelike", "--frobnicate", "1"],
    ["reduce", "--family", "euclid", "--B", "2", "--H", "1"],
    ["roots", "--", "--family", "timelike"],
    ["roots", "--family", "timelike", "--"],
    ["roots", "--family", "timelike", "--", "x"],
    ["chain", "--fam", "timelike", "--B", "2", "--H", "0.5", "--upto", "4"],
    ["chain", "--family", "timelike", "--B", "2", "--H", "0.5", "--u=4"],
    ["reduce", "--family", "euclid", "--fo", "json", "--B", "2"],
    ["reduce", "--family", "euclid", "--B", "2", "--B", "3"],
    ["reduce", "--family", "klein", "--family", "euclid", "--B", "3"],
    ["reduce", "--family", "euclid", "--B", "abc"],
    ["reduce", "--family", "euclid", "--format", "xml"],
    ["surface", "--family", "euclid", "--B", "0.5", "--samples", "3",
     "--theta-samples", "3", "--angle-range", "2"],
]


def _answer(capsys, argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, _strip_timings(captured.out), captured.err


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_main_answers_as_the_top_level_parse(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    answer = _answer(capsys, argv)
    monkeypatch.setattr(cli_io, "_parse",
                        lambda argv: _build_parser()[0].parse_args(argv))
    assert answer == _answer(capsys, argv)


def test_a_well_formed_request_skips_the_top_level_parse(capsys,
                                                         monkeypatch):
    top, _ = _build_parser()
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def counting(self, *args, **kwargs):
        if self is top:
            calls.append(args)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counting)
    for argv in VALID_ARGV.values():
        main(list(argv))
    capsys.readouterr()
    assert calls == []
    # The counter sees a request that the subcommand's parser cannot finish.
    with pytest.raises(SystemExit):
        main(["roots", "--family", "timelike", "x"])
    assert len(calls) == 1


def test_export_list_matches_the_public_bindings():
    names = cmc_elliptic.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(cmc_elliptic, n) for n in names)
    public = {n for n, v in vars(cmc_elliptic).items()
              if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == set(names)
