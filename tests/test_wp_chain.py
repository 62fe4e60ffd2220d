"""Derivative chain over rational functions of P and the curve reconstruction."""

import dataclasses
import math
from fractions import Fraction

import pytest

from cmc_elliptic._ratpoly import CubicField, exact_ring
from cmc_elliptic.acceptance import fd_chain_reference
from cmc_elliptic.elliptic_reduction import _shift_and_depress, reduce
from cmc_elliptic.errors import (
    AccuracyError,
    BranchError,
    DomainError,
    NearPoleError,
    SingularError,
)
from cmc_elliptic.profiles import CmcParams, Family, anchor, profile_point
from cmc_elliptic.weierstrass import WpEvaluator
from cmc_elliptic.wp_chain import (
    ChainConfig,
    _chain_core,
    _exact_chain,
    _family_constants,
    chain_config,
    curve_from_wp,
    differentiate_chain,
    eval_chain_term,
    polynomiality_probe,
)

CBRT2 = 2.0 ** (1 / 3)


def config(family, B, H):
    return chain_config(reduce(family, B), H)


@pytest.fixture(scope="module")
def cfg_t2():
    # Timelike-axis, B=2, H=0.5: lam = 1, so every constant is rational.
    return config(Family.LORENTZ_TIMELIKE_AXIS, 2.0, 0.5)


class TestChainConfig:
    def test_timelike_b_one_constants(self):
        cfg = config(Family.LORENTZ_TIMELIKE_AXIS, 1.0, 0.5)
        assert cfg.c_shift == 0.0
        assert cfg.p == 1.0
        assert cfg.q == 1.0
        assert cfg.lam == pytest.approx(CBRT2, rel=1e-15)
        assert cfg.c1 == pytest.approx(0.0, abs=1e-15)
        assert cfg.c2 == pytest.approx(2 * CBRT2, rel=1e-15)
        # alpha = -p*lam/(2H), beta = B*lam^2/(2H) with 2H = 1 here.
        assert cfg.alpha == pytest.approx(-CBRT2, rel=1e-15)
        assert cfg.beta == pytest.approx(CBRT2 ** 2, rel=1e-15)
        assert cfg.g2 == pytest.approx(-2 * CBRT2, rel=1e-15)
        assert cfg.g3 == 0.0

    def test_rational_case_constants(self, cfg_t2):
        # B=2: n=4 so lam=1, c=1/4, p=3/2, c1=2, c2=4, alpha=-3/2, beta=2.
        assert cfg_t2.lam == 1.0
        assert cfg_t2.c_shift == pytest.approx(0.25, rel=1e-15)
        assert cfg_t2.p == pytest.approx(1.5, rel=1e-15)
        assert cfg_t2.c1 == pytest.approx(2.0, rel=1e-14)
        assert cfg_t2.c2 == pytest.approx(4.0, rel=1e-15)
        assert cfg_t2.alpha == pytest.approx(-1.5, rel=1e-15)
        assert cfg_t2.beta == pytest.approx(2.0, rel=1e-15)

    def test_c1_closed_form(self):
        for B in (0.5, 2.0, 3.0):
            cfg = config(Family.LORENTZ_TIMELIKE_AXIS, B, 1.0)
            assert cfg.c1 == pytest.approx((2 / 3) * (B * B - 1), rel=1e-13)
            for fam in (Family.LORENTZ_SPACELIKE_AXIS, Family.EUCLIDEAN):
                other = config(fam, B, 1.0)
                assert other.c1 == pytest.approx((2 / 3) * (1 + B * B), rel=1e-13)

    def test_squared_radius_correspondence(self, cfg_t2):
        # x(s)^2 (2H)^2 = c1 + c2*P(t) under P(t) = (sinh 2Hs + c)/lam.
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        for s in (0.2, 0.8, 1.6):
            w = (math.sinh(2 * 0.5 * s) + cfg_t2.c_shift) / cfg_t2.lam
            lhs = profile_point(params, s).x ** 2 * (2 * 0.5) ** 2
            assert lhs == pytest.approx(cfg_t2.c1 + cfg_t2.c2 * w, rel=1e-12)

    def test_singular_screening_value_rejected(self):
        with pytest.raises(SingularError):
            config(Family.LORENTZ_TIMELIKE_AXIS, 0.620969, 0.5)
        with pytest.raises(SingularError):
            config(Family.LORENTZ_TIMELIKE_AXIS, 1.6103870924398513, 1.0)

    def test_degenerate_invariants_rejected(self):
        with pytest.raises(SingularError):
            config(Family.LORENTZ_SPACELIKE_AXIS, 1.0, 1.0)

    def test_bad_h_rejected(self, cfg_t2):
        with pytest.raises(DomainError):
            chain_config(reduce(Family.LORENTZ_TIMELIKE_AXIS, 2.0), 0.0)


class TestDifferentiateChain:
    def test_first_term_shape(self, cfg_t2):
        [t1] = differentiate_chain(cfg_t2, 1)
        assert t1.k == 1 and t1.has_wp_prime
        assert t1.rat.num == (cfg_t2.c2,)
        assert t1.rat.den == (cfg_t2.alpha, cfg_t2.beta)

    def test_second_term_is_expanded_bracket(self, cfg_t2):
        # c2*[(12P^2-g2)/(2(a+bP)^2) - b(4P^3-g2 P-g3)/(a+bP)^3] over the
        # common denominator (a+bP)^3.
        a, b = cfg_t2.alpha, cfg_t2.beta
        g2, g3, c2 = cfg_t2.g2, cfg_t2.g3, cfg_t2.c2
        t2 = differentiate_chain(cfg_t2, 2)[1]
        assert t2.k == 2 and not t2.has_wp_prime
        expected_num = (c2 * (g3 * b - g2 * a / 2), c2 * g2 * b / 2, 6 * a * c2, 2 * b * c2)
        assert expected_num == (-26.75, -13.0, -36.0, 16.0)  # frozen for this cfg
        assert t2.rat.num == pytest.approx(expected_num, rel=1e-12)
        den = (a ** 3, 3 * a * a * b, 3 * a * b * b, b ** 3)
        assert t2.rat.den == pytest.approx(den, rel=1e-12)

    def test_parity_alternates(self, cfg_t2):
        terms = differentiate_chain(cfg_t2, 12)
        for term in terms:
            assert term.has_wp_prime == (term.k % 2 == 1)

    def test_denominator_degree_strictly_grows(self, cfg_t2):
        terms = differentiate_chain(cfg_t2, 10)
        degrees = [t.rat.den_degree for t in terms]
        assert all(b >= a + 1 for a, b in zip(degrees, degrees[1:]))

    def test_k_bounds(self, cfg_t2):
        with pytest.raises(DomainError):
            differentiate_chain(cfg_t2, 0)
        with pytest.raises(DomainError):
            differentiate_chain(cfg_t2, 13)
        assert len(differentiate_chain(cfg_t2, 13, max_k=13)) == 13

    def test_exact_crosscheck_catches_tampering(self, cfg_t2):
        bad = dataclasses.replace(cfg_t2, alpha=cfg_t2.alpha * (1 + 1e-6))
        with pytest.raises(AccuracyError):
            differentiate_chain(bad, 2)

    def test_c2_scales_chain_linearly(self, cfg_t2):
        doubled = dataclasses.replace(cfg_t2, c2=2 * cfg_t2.c2)
        base = differentiate_chain(cfg_t2, 4)
        scaled = differentiate_chain(doubled, 4)
        for tb, ts in zip(base, scaled):
            assert ts.rat.num == pytest.approx(
                tuple(2 * c for c in tb.rat.num), rel=1e-14)
            assert ts.rat.den == tb.rat.den


class TestExactChain:
    @pytest.mark.parametrize("family,B,H", [
        (Family.LORENTZ_TIMELIKE_AXIS, 2.0, 0.5),  # lam = 1: collapsed field
        (Family.LORENTZ_TIMELIKE_AXIS, 2.3, 1.0),
        (Family.LORENTZ_SPACELIKE_AXIS, 0.75, 0.5),
        (Family.EUCLIDEAN, 0.5, 1.0),  # lam^3 = -4: a genuine cubic field
    ])
    def test_graded_rational_chain_equals_q_lambda_chain(self, family, B, H):
        # The rational chain in X = lam*P, each X^i coefficient over the
        # denominator power j times lam^(j-1+i), must equal the chain run
        # directly in P over Q(lam), element for element.
        cfg = config(family, B, H)
        rational, lam = _exact_chain(cfg, 12)
        assert lam == cfg.lam
        Bq, H2 = Fraction(B), 2 * Fraction(H)
        c, l, m, n = _shift_and_depress(family, Bq)
        field = CubicField(Fraction(4) / n)
        ring = exact_ring(field)
        p, _, _ = _family_constants(family, c, Bq)
        # (P')^2 = 4P^3 - g2*P - g3 with g2 = -m*lam and g3 = -l.
        cubic = [field.element(l), field.element(0, m, 0), ring.zero,
                 field.element(4)]
        oracle = _chain_core(field.element(0, -p / H2, 0),
                             field.element(0, 0, Bq / H2), cubic, ring.one,
                             12, ring)
        powers = [ring.one]
        for _ in range(64):
            powers.append(powers[-1] * field.lam)
        assert len(rational) == len(oracle) == 12
        for (k, num, j, prime), expected in zip(rational, oracle):
            graded = [powers[j - 1 + i] * cc for i, cc in enumerate(num)]
            assert (k, graded, j, prime) == expected


class TestEvalChainTerm:
    def test_first_term_matches_direct_expression(self, cfg_t2):
        ev = WpEvaluator(cfg_t2.g2, cfg_t2.g3)
        [t1] = differentiate_chain(cfg_t2, 1)
        for off in (0.4, 1.3, 5.0):
            t = ev.wp_inverse(ev.e_max + off)
            p, pp = ev.wp(t)
            direct = cfg_t2.c2 * pp / (cfg_t2.alpha + cfg_t2.beta * p)
            assert eval_chain_term(t1, ev, t) == pytest.approx(direct, rel=1e-14)

    def test_near_pole_rejected(self, cfg_t2):
        # P = -alpha/beta = 0.75 lies on the real branch (e_max = -0.5).
        ev = WpEvaluator(cfg_t2.g2, cfg_t2.g3)
        t_star = ev.wp_inverse(-cfg_t2.alpha / cfg_t2.beta)
        [t1] = differentiate_chain(cfg_t2, 1)
        with pytest.raises(NearPoleError):
            eval_chain_term(t1, ev, t_star)

    @pytest.mark.parametrize("k,tol", [(1, 1e-4), (2, 1e-4), (3, 1e-3)])
    def test_matches_finite_differences(self, cfg_t2, k, tol):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        fd = fd_chain_reference(cfg_t2, params, s_center=1.0, delta=0.01)
        t_c = fd[3]
        ev = WpEvaluator(cfg_t2.g2, cfg_t2.g3)
        term = differentiate_chain(cfg_t2, 3)[k - 1]
        val = eval_chain_term(term, ev, t_c)
        assert val == pytest.approx(fd[k - 1], rel=tol)


class TestCurveFromWp:
    def test_agreement_with_quadrature_profile(self, cfg_t2):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        s0 = anchor(params)
        for i in range(20):
            s = s0 + 0.05 + (1.5 - 0.05) * i / 19
            x, z = curve_from_wp(cfg_t2, params, s)
            cs = profile_point(params, s)
            assert abs(x - cs.x) < 1e-6
            assert abs(z - cs.second) < 1e-6

    def test_agreement_on_anchored_branch(self):
        # B < 1: the domain edge is at s > 0 and the anchor sits just inside.
        cfg = config(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 0.5)
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 0.5)
        s0 = anchor(params)
        for ds in (0.05, 0.4, 1.1):
            x, z = curve_from_wp(cfg, params, s0 + ds)
            cs = profile_point(params, s0 + ds)
            assert abs(x - cs.x) < 1e-6
            assert abs(z - cs.second) < 1e-6

    def test_anchor_maps_to_zero_axis(self, cfg_t2):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        x, z = curve_from_wp(cfg_t2, params, anchor(params))
        assert abs(z) < 1e-12
        assert x == pytest.approx(profile_point(params, anchor(params)).x, rel=1e-12)

    def test_parameter_mismatch_rejected(self, cfg_t2):
        with pytest.raises(DomainError):
            curve_from_wp(cfg_t2, CmcParams(Family.EUCLIDEAN, 0.5, 2.0), 0.5)
        with pytest.raises(DomainError):
            curve_from_wp(cfg_t2, CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.1), 0.5)

    def test_out_of_domain_rejected(self, cfg_t2):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        s_min = math.asinh((1 - 4.0) / 4.0)  # domain edge for B=2, 2H=1
        with pytest.raises(DomainError):
            curve_from_wp(cfg_t2, params, s_min - 0.1)

    def test_bounded_branch_families_propagate_branch_error(self):
        # The spacelike/Euclidean physical interval maps between the two
        # lower branch points, off the real P branch.
        cfg = config(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 0.5)
        params = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 0.5, 0.5)
        with pytest.raises(BranchError):
            curve_from_wp(cfg, params, 0.1)


class TestPolynomialityProbe:
    def test_timelike_all_terms_nonzero(self, cfg_t2):
        report = polynomiality_probe(cfg_t2, 8)
        assert report["family"] == "timelike-axis"
        assert report["H"] == 0.5 and report["B"] == 2.0
        assert len(report["terms"]) == 8
        for i, term in enumerate(report["terms"], start=1):
            assert term["k"] == i
            assert not term["identically_zero"]
            assert term["min_abs_value"] > 0.0
            assert term["parity"] == ("odd" if i % 2 else "even")
            assert term["den_degree"] >= term["num_degree"]

    def test_euclidean_all_terms_nonzero(self):
        # lam^3 = -4 here, a genuine cubic irrationality (graded out of the
        # rational exact pass).
        cfg = config(Family.EUCLIDEAN, 0.5, 1.0)
        report = polynomiality_probe(cfg, 8)
        assert all(not t["identically_zero"] for t in report["terms"])
        assert all(t["min_abs_value"] > 0.0 for t in report["terms"])

    def test_degenerate_constant_radius_collapses(self, cfg_t2):
        # c2 = 0 models a constant r: every derivative is identically zero.
        control = dataclasses.replace(cfg_t2, c2=0.0)
        report = polynomiality_probe(control, 3)
        assert all(t["identically_zero"] for t in report["terms"])
        assert report["terms"][1]["min_abs_value"] == 0.0

    def test_minimum_k(self, cfg_t2):
        with pytest.raises(DomainError):
            polynomiality_probe(cfg_t2, 2)
