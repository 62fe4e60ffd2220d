"""End-to-end checks of the command-line front end.

Every command is exercised through main(argv) so exit codes and the split
between stdout (payload) and stderr (diagnostics) are covered too.
"""

import json

import pytest

from cmc_elliptic.cli_io import _json, main
from cmc_elliptic.errors import RangeError


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

    @pytest.mark.parametrize("angle", ["1000", "inf"])
    def test_hyperbolic_angle_overflow_exits_one(self, capsys, angle):
        rc, out, err = run(capsys, "surface", "--family", "spacelike",
                           "--B", "2", "--s-min", "-0.1", "--s-max", "0.1",
                           "--angle-range", angle)
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "range"

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

    def test_success_exits_zero(self, capsys):
        rc, out, _ = run(capsys, "reduce", "--family", "euclid", "--B", "2")
        assert rc == 0 and out


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

    def test_out_flag_writes_same_bytes_as_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run(capsys, "reduce", "--family", "euclid", "--B", "0.5")
        rc2, out2, _ = run(capsys, "reduce", "--family", "euclid",
                           "--B", "0.5", "--out", str(target))
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

    def test_family_aliases_match(self, capsys):
        argv = ["--B", "1.5", "--H", "0.5", "--s-min", "0.1", "--s-max", "0.9"]
        _, short, _ = run(capsys, "profile", "--family", "timelike", *argv)
        _, full, _ = run(capsys, "profile", "--family", "timelike-axis", *argv)
        assert short == full


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
            [0.6209687128607873, 1.6103870924398513], rel=1e-10)
        assert all(abs(r) < 1e-6 for r in report["residuals"])

    def test_other_families_have_no_roots(self, capsys):
        for fam in ("spacelike", "euclid"):
            _, out, _ = run(capsys, "roots", "--family", fam)
            assert json.loads(out)["roots"] == []


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


class TestChainCommand:
    def test_probe_report(self, capsys):
        rc, out, _ = run(capsys, "chain", "--family", "timelike", "--B", "2",
                         "--H", "0.5", "--upto-k", "8")
        report = json.loads(out)
        assert rc == 0
        assert [t["k"] for t in report["terms"]] == list(range(1, 9))
        assert not any(t["identically_zero"] for t in report["terms"])


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
