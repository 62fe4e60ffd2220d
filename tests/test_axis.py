"""The axis coordinate accumulated along a grid, against mpmath quadrature.

Every mesh row's axis value is compared with an independent mpmath integral
of the closed-form axis rate from the anchor, so a step that crosses a split
point, starts near a domain edge or lies many periods out is checked on its
own.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmc_elliptic.cli_io import main
from cmc_elliptic.profiles import (CmcParams, Family, anchor, domain, mesh,
                                   profile_point, profile_points)

TOL = 1e-10  # absolute, or relative beyond 1


def _rate(params, t):
    H, B = mp.mpf(params.H), mp.mpf(params.B)
    u = 2 * H * t
    if params.family is Family.EUCLIDEAN:
        return (1 + B * mp.sin(u)) / mp.sqrt(1 + B * B + 2 * B * mp.sin(u))
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        return (B * mp.cosh(u) - 1) / mp.sqrt(1 + B * B - 2 * B * mp.cosh(u))
    return (B * mp.sinh(u) - 1) / mp.sqrt(B * B + 2 * B * mp.sinh(u) - 1)


@functools.lru_cache(maxsize=None)
@mp.workdps(20)
def _euclidean_period(params):
    return mp.quad(lambda t: _rate(params, t),
                   mp.linspace(0, mp.pi / params.H, 9))


@mp.workdps(20)
def axis_reference(params, s):
    """Axis coordinate at s, integrated from the anchor in mpmath."""
    s = mp.mpf(s)
    if params.family is Family.LORENTZ_TIMELIKE_AXIS:
        # t = edge + sigma^2 removes the square-root zero at the edge.
        edge = mp.asinh((1 - mp.mpf(params.B) ** 2) / (2 * params.B)) \
            / (2 * params.H)
        a = mp.mpf(anchor(params))
        return mp.quad(lambda g: 2 * g * _rate(params, edge + g * g),
                       [mp.sqrt(a - edge), mp.sqrt(s - edge)])
    if params.family is Family.EUCLIDEAN and params.B != 1.0:
        # The rate has period pi/H: reduce by whole periods.
        period = mp.pi / params.H
        k = mp.floor(s / period)
        return k * _euclidean_period(params) + mp.quad(
            lambda t: _rate(params, t), [0, s - k * period])
    return mp.quad(lambda t: _rate(params, t), [0, s])


def axis_of(params, vertex):
    return vertex[2] if params.family is Family.LORENTZ_TIMELIKE_AXIS \
        else vertex[0]


def assert_rows_match_mpmath(params, s_range, n_s=17, n_theta=3):
    m = mesh(params, s_range, n_s, n_theta)
    for i, s in enumerate(m.grid[0]):
        ref = axis_reference(params, float(s))
        got = axis_of(params, m.vertices[i * n_theta])
        assert abs(got - ref) <= TOL * max(1, abs(ref)), (i, float(s))


class TestMeshRowsAgainstMpmath:
    @pytest.mark.parametrize("H,B", [(0.7, 0.4), (1.3, 2.5)])
    def test_spacelike_windows_crossing_zero(self, H, B):
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, H, B)
        s_max = domain(params).hi
        assert_rows_match_mpmath(params, (-0.8 * s_max, 0.7 * s_max))

    @pytest.mark.parametrize("H,lo,hi", [(0.8, 0.2, 1.6), (1.5, -0.6, 2.2)])
    def test_euclidean_b_one_windows_crossing_equator(self, H, lo, hi):
        params = CmcParams(Family.EUCLIDEAN, H, 1.0)
        assert lo / H < math.pi / (4 * H) < hi / H
        assert_rows_match_mpmath(params, (lo / H, hi / H))

    @pytest.mark.parametrize("H,B", [(0.6, 0.5), (1.4, 1.0), (0.9, 1.8)])
    def test_timelike_windows_near_the_edge(self, H, B):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, H, B)
        lo = domain(params).lo + 1e-3 / H
        assert_rows_match_mpmath(params, (lo, lo + 1.0 / H))

    @pytest.mark.parametrize("H,B,periods", [
        (0.6, 0.4, 1), (1.7, 2.0, 7), (1.1, 0.45, 20), (0.8, 1.6, 13)])
    def test_euclidean_windows_periods_out(self, H, B, periods):
        params = CmcParams(Family.EUCLIDEAN, H, B)
        lo = periods * math.pi / H + 0.1
        assert_rows_match_mpmath(params, (lo, lo + 0.9 / H), n_s=9)

    @pytest.mark.parametrize("H", [1e-3, 1e-6])
    def test_small_h_spacelike_window_symmetric_through_zero(self, H):
        # The row at s = 0 returns to axis 0 after steps whose error
        # estimates scale with the 1/H size of the window.
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, H, 2.0)
        s_max = domain(params).hi
        assert_rows_match_mpmath(params, (-0.8 * s_max, 0.8 * s_max),
                                 n_s=21)

    def test_euclidean_window_periods_behind(self):
        params = CmcParams(Family.EUCLIDEAN, 1.2, 0.7)
        lo = -5 * math.pi / 1.2 - 0.3
        assert_rows_match_mpmath(params, (lo, lo + 0.8), n_s=9)


class TestGridOrder:
    @pytest.mark.parametrize("family,H,B,lo,hi", [
        (Family.LORENTZ_SPACELIKE_AXIS, 0.5, 2.0, 0.4, -0.5),
        (Family.EUCLIDEAN, 0.8, 1.0, 2.5, 0.1),
        (Family.LORENTZ_TIMELIKE_AXIS, 1.0, 0.5, 1.6, 0.35),
        (Family.EUCLIDEAN, 1.0, 0.5, 40.0, 37.0),
    ])
    def test_descending_grid_matches_ascending(self, family, H, B, lo, hi):
        params = CmcParams(family, H, B)
        grid = list(np.linspace(lo, hi, 11))
        down = profile_points(params, grid)
        up = profile_points(params, grid[::-1])[::-1]
        for d, u in zip(down, up):
            assert d.s == u.s and d.dx == u.dx and d.dsecond == u.dsecond
            assert d.x == pytest.approx(u.x, rel=1e-12, abs=1e-12)
            assert d.second == pytest.approx(u.second, rel=1e-12, abs=1e-12)

    def test_descending_profile_command(self, capsys):
        argv = ["profile", "--family", "spacelike", "--H", "0.5", "--B", "2",
                "--s-min", "0.5", "--s-max", "-0.5", "--samples", "9"]
        assert main(argv) == 0
        rows = [list(map(float, line.split(",")))
                for line in capsys.readouterr().out.splitlines()[1:]]
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 2.0)
        assert [r[0] for r in rows] == sorted((r[0] for r in rows),
                                              reverse=True)
        for s, x, *_ in rows:
            assert abs(x - axis_reference(params, s)) <= TOL

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(list(Family)), st.floats(0.1, 3.0),
           st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                     st.floats(1e-3, 3.0)),
           st.lists(st.floats(1e-3, 0.999), max_size=8))
    def test_grid_point_equals_single_point(self, family, H, B, fractions):
        """Every sample of a grid is its one-point sample, bit for bit."""
        if family is Family.LORENTZ_TIMELIKE_AXIS:
            assume(B >= 0.05)
        params = CmcParams(family, H, B)
        dom = domain(params)
        assume(not dom.degenerate)
        # Inside the domain: a fraction of a finite width, else of 3/H from
        # a finite edge (timelike) or around 0.
        if math.isfinite(dom.lo) and math.isfinite(dom.hi):
            grid = [dom.lo + f * (dom.hi - dom.lo) for f in fractions]
        elif math.isfinite(dom.lo):
            grid = [dom.lo + f * 3.0 / H for f in fractions]
        else:
            grid = [(f - 0.5) * 6.0 / H for f in fractions]
        grid = [s for s in grid if dom.contains(s)]
        for cs in profile_points(params, grid):
            single = profile_point(params, cs.s)
            assert list(map(float.hex, cs)) == list(map(float.hex, single))


class TestFarEuclideanWindow:
    def test_profile_a_million_out_matches_mpmath(self, capsys):
        argv = ["profile", "--family", "euclidean", "--H", "1", "--B", "0.5",
                "--s-min", "999999", "--s-max", "1000000", "--samples", "5"]
        assert main(argv) == 0
        params = CmcParams(Family.EUCLIDEAN, 1.0, 0.5)
        for line in capsys.readouterr().out.splitlines()[1:]:
            s, x, *_ = map(float, line.split(","))
            ref = axis_reference(params, s)
            assert abs(x - ref) <= 1e-12 * abs(ref)

    def test_surface_a_million_out_exits_zero(self, capsys):
        rc = main(["surface", "--family", "euclidean", "--H", "1", "--B",
                   "0.5", "--s-min", "999999", "--s-max", "1000000"])
        assert rc == 0
        assert capsys.readouterr().out.count("\nv ") == 21 * 17 - 1

    def test_huge_h_profile_matches_mpmath(self, capsys):
        # At H = 1e20 the window [-1, 1] spans 6e19 periods, so x(s) is s
        # times the mean rate, up to a periodic part of size 1/H.
        argv = ["profile", "--family", "euclidean", "--H", "1e20", "--B",
                "0.5"]
        assert main(argv) == 0
        with mp.workdps(30):
            u = mp.linspace(0, mp.pi, 5)
            mean = mp.quad(lambda t: _rate(CmcParams(Family.EUCLIDEAN, 1.0,
                                                     0.5), t), u) / mp.pi
        assert abs(mean - mp.mpf("0.93421545766769411")) < 1e-16
        rows = [list(map(float, line.split(",")))
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows[0][0] == -1.0
        for s, x, *_ in rows:
            assert abs(x - s * mean) <= 1e-15


class TestLargeTimelikeArcLength:
    def test_profile_where_second_derivatives_overflow(self):
        # At s = 200 the second derivatives leave the float range, but the
        # coordinates and first derivatives, about 5e86, do not.
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 1.0, 2.0)
        cs = profile_point(params, 200.0)
        with mp.workdps(30):
            sh, ch = mp.sinh(400), mp.cosh(400)
            sq = mp.sqrt(4 + 4 * sh - 1)
            refs = (sq / 2, axis_reference(params, 200.0), 2 * ch / sq,
                    (2 * sh - 1) / sq)
        for got, ref in zip((cs.x, cs.second, cs.dx, cs.dsecond), refs):
            assert abs(got - ref) <= TOL * abs(ref)

