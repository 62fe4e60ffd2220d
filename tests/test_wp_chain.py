"""Derivative chain over rational functions of P and the curve reconstruction."""

import json
import math
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest
from cubic_field import CubicField, field_chain
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmc_elliptic import cli_io, weierstrass, wp_chain
from cmc_elliptic._ratpoly import Poly, real_cbrt
from cmc_elliptic.acceptance import fd_chain_reference
from cmc_elliptic.elliptic_reduction import _shift_and_depress, reduce
from cmc_elliptic.errors import (
    BranchError,
    DomainError,
    NearPoleError,
    PoleError,
    RangeError,
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
        assert cfg.B == 1.0
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
        assert t1.num.coeffs == (cfg_t2.c2,)

    def test_second_term_is_expanded_bracket(self, cfg_t2):
        # c2*[(12P^2-g2)/(2(a+bP)^2) - b(4P^3-g2 P-g3)/(a+bP)^3] over the
        # common denominator (a+bP)^3.
        a, b = cfg_t2.alpha, cfg_t2.beta
        g2, g3, c2 = cfg_t2.g2, cfg_t2.g3, cfg_t2.c2
        t2 = differentiate_chain(cfg_t2, 2)[1]
        assert t2.k == 2 and not t2.has_wp_prime
        expected_num = (c2 * (g3 * b - g2 * a / 2), c2 * g2 * b / 2, 6 * a * c2, 2 * b * c2)
        assert expected_num == (-26.75, -13.0, -36.0, 16.0)  # frozen for this cfg
        assert t2.num.coeffs == pytest.approx(expected_num, rel=1e-12)

    def test_parity_alternates(self, cfg_t2):
        terms = differentiate_chain(cfg_t2, 12)
        for term in terms:
            assert term.has_wp_prime == (term.k % 2 == 1)

    def test_denominator_degree_is_2k_minus_1(self, cfg_t2):
        report = polynomiality_probe(cfg_t2, 10)["terms"]
        assert [t["den_degree"] for t in report] == \
            [2 * k - 1 for k in range(1, 11)]

    def test_k_bounds(self, cfg_t2):
        with pytest.raises(DomainError):
            differentiate_chain(cfg_t2, 0)
        # Only the float range bounds K, the same rule as the probe's.
        terms = differentiate_chain(cfg_t2, 13)
        report = polynomiality_probe(cfg_t2, 13)["terms"]
        assert len(terms) == len(report) == 13
        assert [(t.num.degree, 2 * t.k - 1, t.has_wp_prime)
                for t in terms] == [
            (r["num_degree"], r["den_degree"], r["parity"] == "odd")
            for r in report]

    @pytest.mark.parametrize("c2, x, scale", [
        # float(x*scale) overflows; the true coefficient is about 2e300.
        (1e-10, 10 ** 310, Fraction(1)),
        # float(x*scale) underflows to zero; the true coefficient is 2e-320.
        (1e10, 1, Fraction(1, 10 ** 330)),
        (1.0, 0, Fraction(1)),
    ])
    def test_true_coefficient_falls_back_to_the_exact_product(self, c2, x,
                                                              scale):
        assert wp_chain._true_coefficient(
            1, 0, c2, 2.0, 1, x, scale.numerator, scale.denominator) == \
            float(Fraction(c2) * 2 * x * scale)

    @pytest.mark.parametrize("cc", [Fraction(10 ** 400), Fraction(1, 10 ** 400)])
    def test_unrepresentable_true_coefficient_is_a_range_error(self, cc):
        with pytest.raises(RangeError, match="chain step 3"):
            wp_chain._true_coefficient(3, 0, 1.0, 2.0, 1, 1, cc.numerator,
                                       cc.denominator)

    def test_c2_scales_chain_linearly(self, cfg_t2):
        doubled = cfg_t2._replace(c2=2 * cfg_t2.c2)
        base = differentiate_chain(cfg_t2, 4)
        scaled = differentiate_chain(doubled, 4)
        for tb, ts in zip(base, scaled):
            assert ts.num.coeffs == pytest.approx(
                tuple(2 * c for c in tb.num.coeffs), rel=1e-14)

    # Dyadic H (a unit odd part), even integers (a negative exponent) and
    # H whose scale leaves the float range at some order (the exact
    # product); an overridden c2 can take a product out of the range on its
    # own.
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(list(Family)), st.floats(-1.5, 1.5),
           st.integers(1, 40), st.one_of(
               st.sampled_from([0.5, 1.0, 2.0 ** -30, 40.0, 1e20, 1e-150,
                                1e150, 1e-300, 1e300, 5e-324]),
               st.floats(-3, 3).map(lambda x: 10.0 ** x)),
           st.sampled_from([1.0, 1.0, 1.0, 0.0, 1e-300, 1e300]))
    def test_coefficients_are_the_exact_scale_at_h_rounded(self, family,
                                                           log_b, K, H, c2):
        try:
            cfg = config(family, 10.0 ** log_b, H)
        except (SingularError, DomainError):
            assume(False)
        cfg = cfg._replace(c2=c2 * cfg.c2)
        want = []
        try:
            for k, num, scale, _ in _rows_at_h(cfg, K):
                want.append(Poly([0.0] if cfg.c2 == 0.0 else [
                    wp_chain._true_coefficient(
                        k, i, cfg.c2, cfg.lam, 2 * k - 2 + i, x,
                        scale.numerator, scale.denominator)
                    for i, x in enumerate(num.coeffs)]).coeffs)
        except RangeError as exc:
            want = str(exc)
        try:
            got = [t.num.coeffs for t in differentiate_chain(cfg, K)]
        except RangeError as exc:
            got = str(exc)
        assert got == want


def _q_lambda_chain(family, B, H, upto_k):
    """The chain at (family, B, H) run directly in P over Q(lam)."""
    Bq, H2 = Fraction(B), 2 * Fraction(H)
    c, l, m, n = _shift_and_depress(family, Bq)
    field = CubicField(Fraction(4) / n)
    p, _, _ = _family_constants(family, c, Bq)
    # (P')^2 = 4P^3 - g2*P - g3 with g2 = -m*lam and g3 = -l.
    cubic = [field.element(l), field.element(0, m, 0), field.element(0),
             field.element(4)]
    return field, field_chain(field.element(0, -p / H2, 0),
                              field.element(0, 0, Bq / H2), cubic,
                              field.element(1), upto_k)


def _rows_at_h(cfg, upto_k):
    """The orders of _exact_chain at cfg.H: order k's scale at H = 1/2
    times (2H)^-(k-1)."""
    h2 = 2 * Fraction(cfg.H)
    return [(k, num, scale / h2 ** (k - 1), prime)
            for k, num, scale, prime in _exact_chain(cfg, upto_k)]


def _assert_graded_chain_is(cfg, field, oracle):
    # The integer chain in X = lam*P, each X^i coefficient times its order's
    # scale and times lam^(2k-2+i), must equal the chain run directly in P
    # over Q(lam), element for element. The oracle cancels any linear factor
    # it can, so its denominator power 2k-1 checks that none ever cancels.
    # cfg.lam, the float lambda the chain is graded by, is the correctly
    # rounded 4/n of the exact reduction through the same real_cbrt.
    _, _, _, n = _shift_and_depress(cfg.family, Fraction(cfg.B))
    assert cfg.lam == real_cbrt(float(4 / n))
    rows = _rows_at_h(cfg, len(oracle))
    assert len(rows) == len(oracle)
    powers = [field.element(1)]
    for _ in range(64):
        powers.append(powers[-1] * field.lam)
    for (k, num, scale, prime), expected in zip(rows, oracle):
        assert all(type(x) is int for x in num.coeffs)
        assert math.gcd(*num.coeffs) == 1
        assert expected[2] == 2 * k - 1
        graded = Poly([powers[2 * k - 2 + i] * (scale * x)
                       for i, x in enumerate(num.coeffs)])
        assert (k, graded, 2 * k - 1, prime) == expected


class TestExactChain:
    @pytest.mark.parametrize("family,B,H", [
        (Family.LORENTZ_TIMELIKE_AXIS, 2.0, 0.5),  # lam = 1: collapsed field
        (Family.LORENTZ_TIMELIKE_AXIS, 2.3, 1.0),
        (Family.LORENTZ_SPACELIKE_AXIS, 0.75, 0.5),
        (Family.EUCLIDEAN, 0.5, 1.0),  # lam^3 = -4: a genuine cubic field
    ])
    def test_graded_rational_chain_equals_q_lambda_chain(self, family, B, H):
        cfg = config(family, B, H)
        field, oracle = _q_lambda_chain(family, B, H, 12)
        _assert_graded_chain_is(cfg, field, oracle)
        # The shipped float chain is c2 times the oracle, rounded.
        shipped = differentiate_chain(cfg, 12)
        for term, (_, expected, _, _) in zip(shipped, oracle):
            want = [cfg.c2 * float(c) for c in expected.coeffs]
            assert len(term.num.coeffs) == len(want)
            assert all(math.isclose(got, w, rel_tol=1e-14, abs_tol=0.0)
                       for got, w in zip(term.num.coeffs, want))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(Family)), st.floats(-1.5, 1.5),
           st.floats(-1.5, 1.5), st.integers(1, 8))
    def test_graded_chain_equals_q_lambda_chain_everywhere(self, family,
                                                           log_b, log_h, k):
        B, H = 10.0 ** log_b, 10.0 ** log_h
        try:
            cfg = config(family, B, H)
        except SingularError:
            assume(False)
        field, oracle = _q_lambda_chain(family, B, H, k)
        _assert_graded_chain_is(cfg, field, oracle)

    def test_cubic_vanishing_at_the_pole_is_singular(self, cold_chains):
        # C(X) = (2X^3 + 3X/2 + 1)/5 vanishes at X = -1/2 = -alpha/beta, the
        # one case where D = (2/3)(1 + 2X) would divide a numerator.
        alpha, beta = Fraction(2, 3), Fraction(4, 3)
        cubic = [Fraction(1, 5), Fraction(3, 10), 0, Fraction(2, 5)]
        with pytest.raises(SingularError):
            _chain_core(alpha, beta, cubic)
        # Only a hand-built configuration reaches it: B = 1 is a repeated
        # root of the Euclidean cubic, which chain_config rejects.
        # The failing probe is not stored: a second call raises the same.
        singular_cfg = config(Family.EUCLIDEAN, 0.5, 1.0)._replace(B=1.0)
        with pytest.raises(SingularError):
            differentiate_chain(singular_cfg, 4)
        for _ in range(2):
            with pytest.raises(SingularError):
                polynomiality_probe(singular_cfg, 4)
        info = cold_chains.cache_info()
        assert (info.misses, info.currsize) == (2, 0)

    @pytest.mark.parametrize("B", [Fraction(1, 3), Fraction(1), Fraction(5, 2),
                                   Fraction(2.3)])
    def test_cubic_at_the_pole_closed_forms(self, B):
        # C(p/B) in the exact chain's X variable, where p/B zeroes a + b*X.
        want = {Family.LORENTZ_TIMELIKE_AXIS: (B * B + 1) ** 2 / (B * B),
                Family.LORENTZ_SPACELIKE_AXIS: -(B * B - 1) ** 2 / (B * B),
                Family.EUCLIDEAN: (B * B - 1) ** 2 / (B * B)}
        for family, value in want.items():
            c, l, m, n = _shift_and_depress(family, B)
            x0 = _family_constants(family, c, B)[0] / B
            assert n * x0 ** 3 + m * x0 + l == value


def _report_or_error(cfg, K):
    """repr of the probe report, which tells every float apart, or the
    RangeError text."""
    try:
        return repr(polynomiality_probe(cfg, K))
    except RangeError as exc:
        return str(exc)


def _chain_at_own_h(cfg, upto_k):
    """Orders 1..upto_k of the integer chain run at cfg.H itself."""
    B, H2 = Fraction(cfg.B), 2 * Fraction(cfg.H)
    c, l, m, n = _shift_and_depress(cfg.family, B)
    p, _, _ = _family_constants(cfg.family, c, B)
    step = _chain_core(-p / H2, B / H2, [l, m, 0, n])
    rows = [wp_chain._FIRST_ORDER]
    while len(rows) < upto_k:
        rows.append(step(rows[-1]))
    return rows


class TestChainMemo:
    def test_orders_equal_the_chain_at_each_h(self):
        # Order k at H is (2H)^-(k-1) times order k at H = 1/2, over Q: the
        # numerators and scales are the ones a chain run at H gives.
        for H in (1e-3, 0.3, 0.5, 1.7, 20.0):
            cfg = config(Family.LORENTZ_TIMELIKE_AXIS, 2.3, H)
            assert _rows_at_h(cfg, 9) == _chain_at_own_h(cfg, 9)

    def test_least_recently_used_terms_are_evicted(self, cold_chains):
        n = wp_chain._KEPT_PROBES
        data = reduce(Family.EUCLIDEAN, 0.4)
        cfgs = [chain_config(data, 0.25 + i / 64) for i in range(n + 1)]

        def misses(i):
            before = cold_chains.cache_info().misses
            report = polynomiality_probe(cfgs[i], 3)
            assert [t["k"] for t in report["terms"]] == [1, 2, 3]
            return cold_chains.cache_info().misses - before

        assert [misses(i) for i in range(n)] == [1] * n
        assert misses(0) == 0  # a use: 1 is now the oldest
        assert misses(n) == 1  # and is evicted
        assert cold_chains.cache_info().currsize == n
        assert (misses(0), misses(2)) == (0, 0)
        assert misses(1) == 1  # probed again from nothing, evicting 3
        assert misses(3) == 1

    def test_kept_rows_stay_under_1_mb(self, memo_bytes):
        # _KEPT_ORDERS rows hold the same ints, bools and floats whatever
        # their (family, B, H), so one entry sizes a full memo: it stays
        # under 1 MB.
        K = wp_chain._KEPT_ORDERS
        cfg = config(Family.LORENTZ_TIMELIKE_AXIS, 2.3, 0.5 + 1 / 7)
        k, held = memo_bytes(lambda: len(polynomiality_probe(cfg, K)["terms"]))
        assert k == K
        assert 0 < held
        assert wp_chain._KEPT_PROBES * held < 2 ** 20

    def test_threads_sharing_the_memo_get_identical_terms(self, cold_chains):
        cfgs = [config(family, B, H) for family in Family
                for B, H in ((2.3, 0.7), (0.4, 1.3))]
        requests = [(cfg, K) for cfg in cfgs for K in (3, 8, 5)]
        want = [_report_or_error(cfg, K) for cfg, K in requests]
        # Every thread makes the same requests in the same order from an
        # empty memo, switching often, so that several probe one at once.
        cold_chains.cache_clear()
        errors = []

        def work():
            try:
                for (cfg, K), report in zip(requests, want):
                    assert _report_or_error(cfg, K) == report
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert cold_chains.cache_info().currsize == len(requests)

    # Requests at interleaved H, with K drawn, ascending or descending and
    # across _KEPT_ORDERS.
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(list(Family)), st.floats(0.1, 6.0),
           st.lists(st.floats(0.2, 5.0), min_size=1, max_size=6,
                    unique=True),
           st.lists(st.tuples(st.integers(0, 5), st.integers(3, 45)),
                    min_size=1, max_size=12),
           st.sampled_from([None, False, True]))
    def test_warm_terms_are_the_cold_terms(self, family, B, hs, requests,
                                           descending):
        try:
            cfgs = [config(family, B, H) for H in hs]
        except SingularError:
            assume(False)
        if descending is not None:
            requests = sorted(requests, key=lambda r: r[1],
                              reverse=descending)
        requests = [(cfgs[i % len(cfgs)], K) for i, K in requests]
        memo = wp_chain._probe_rows
        memo.cache_clear()
        try:
            warm = [_report_or_error(cfg, K) for cfg, K in requests]
            # Kept: each request within _KEPT_ORDERS that returned, once.
            kept = {(cfg, K) for (cfg, K), report in zip(requests, warm)
                    if K <= wp_chain._KEPT_ORDERS and report.startswith("{")}
            assert memo.cache_info().currsize == len(kept)
            cold = []
            for cfg, K in requests:
                memo.cache_clear()
                cold.append(_report_or_error(cfg, K))
            assert warm == cold
        finally:
            memo.cache_clear()

    def test_controls_are_not_served_the_terms_of_the_real_c2(
            self, cold_chains):
        # The c2 = 0 control of criterion 10, another lam and an opposite
        # c2 share (family, B, H) but never its rows.
        cfg = config(Family.LORENTZ_TIMELIKE_AXIS, 2.3, 0.7)
        cfgs = [cfg, cfg._replace(c2=0.0), cfg._replace(lam=2 * cfg.lam),
                cfg._replace(c2=-2 * cfg.c2)]
        cold = []
        for c in cfgs:
            cold_chains.cache_clear()
            cold.append(_report_or_error(c, 8))
        control = polynomiality_probe(cfgs[1], 8)["terms"]
        assert all(t["identically_zero"] for t in control)
        assert len(set(cold)) == len(cold)
        for order in (cfgs, cfgs[::-1]):
            cold_chains.cache_clear()
            for c in order:
                polynomiality_probe(c, 8)
            assert [_report_or_error(c, 8) for c in cfgs] == cold
            assert cold_chains.cache_info().currsize == len(cfgs)

    def test_requests_are_kept_per_k_up_to_the_kept_orders(self,
                                                           cold_chains):
        # One entry per (cfg, K) with K <= _KEPT_ORDERS, served whole to a
        # repeat; a larger K is probed on every call and stores nothing.
        n = wp_chain._KEPT_ORDERS
        cfg = config(Family.EUCLIDEAN, 0.4, 0.7)
        for K in (12, 8, n, n + 1):
            assert len(polynomiality_probe(cfg, K)["terms"]) == K
        info = cold_chains.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 3)
        # A caller may change its report: the kept rows stay as they were.
        report = polynomiality_probe(cfg, 8)
        report["terms"][0]["k"] = 0
        report["terms"].clear()
        assert [len(polynomiality_probe(cfg, K)["terms"])
                for K in (12, 8, n)] == [12, 8, n]
        assert polynomiality_probe(cfg, 8)["terms"][0]["k"] == 1
        longer = polynomiality_probe(cfg, n + 1)["terms"][:n]
        assert longer == polynomiality_probe(cfg, n)["terms"]
        info = cold_chains.cache_info()
        assert (info.hits, info.misses, info.currsize) == (6, 3, 3)


def _mp_chain_values(cfg, upto_k, p, pp):
    """d^k r/dx3^k for k = 1..upto_k at the float (P, P'): the exact integer
    chain evaluated in 50-digit mpmath, every constant rebuilt from
    (family, B, H) with lambda in mpmath."""
    B, H2 = Fraction(cfg.B), 2 * Fraction(cfg.H)
    c, _, _, n = _shift_and_depress(cfg.family, B)
    p_fam, _, sign = _family_constants(cfg.family, c, B)
    chain = _rows_at_h(cfg, upto_k)
    with mp.workdps(50):
        def mpq(x):
            return mp.mpf(x.numerator) / x.denominator
        lam = mp.sign(mpq(4 / n)) * mp.cbrt(abs(mpq(4 / n)))
        d = -lam * mpq(p_fam / H2) + lam * lam * mpq(B / H2) * mp.mpf(p)
        c2 = sign * 2 * mpq(B) * lam
        values = []
        for k, num, scale, prime in chain:
            v = sum(mpq(scale * x) * lam ** (2 * k - 2 + i) * mp.mpf(p) ** i
                    for i, x in enumerate(num.coeffs))
            values.append(c2 * v / d ** (2 * k - 1) * (pp if prime else 1))
    return values


class TestEvalChainTerm:
    def test_first_term_matches_direct_expression(self, cfg_t2):
        ev = WpEvaluator(cfg_t2.g2, cfg_t2.g3)
        [t1] = differentiate_chain(cfg_t2, 1)
        for off in (0.4, 1.3, 5.0):
            t = ev.wp_inverse(ev.e_max + off)
            p, pp = ev.wp(t)
            direct = cfg_t2.c2 * pp / (cfg_t2.alpha + cfg_t2.beta * p)
            assert eval_chain_term(cfg_t2, t1, ev, t) == \
                pytest.approx(direct, rel=1e-14)

    def test_near_pole_rejected(self, cfg_t2):
        # P = -alpha/beta = 0.75 lies on the real branch (e_max = -0.5).
        ev = WpEvaluator(cfg_t2.g2, cfg_t2.g3)
        t_star = ev.wp_inverse(-cfg_t2.alpha / cfg_t2.beta)
        [t1] = differentiate_chain(cfg_t2, 1)
        with pytest.raises(NearPoleError):
            eval_chain_term(cfg_t2, t1, ev, t_star)

    @pytest.mark.parametrize("k,tol", [(1, 1e-4), (2, 1e-4), (3, 1e-3)])
    def test_matches_finite_differences(self, cfg_t2, k, tol):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        ev = WpEvaluator(cfg_t2.g2, cfg_t2.g3)
        fd = fd_chain_reference(cfg_t2, params, ev)
        t_c = fd[3]
        term = differentiate_chain(cfg_t2, 3)[k - 1]
        val = eval_chain_term(cfg_t2, term, ev, t_c)
        assert val == pytest.approx(fd[k - 1], rel=tol)

    @pytest.mark.parametrize("off", [0.37, 0.83])
    def test_points_off_the_pole_are_kept_at_every_order(self, off):
        # |alpha + beta*P| is 0.065 and 0.22 here: far from the pole, though
        # (alpha + beta*P)^(2k-1) drops below 1e-12 by k = 6 and 10.
        cfg = config(Family.EUCLIDEAN, 0.5, 1.0)
        ev = WpEvaluator(cfg.g2, cfg.g3)
        t = ev.wp_inverse(ev.e_max + off)
        ref = _mp_chain_values(cfg, 12, *ev.wp(t))
        for term in differentiate_chain(cfg, 12)[5:]:
            val = eval_chain_term(cfg, term, ev, t)
            assert abs(val - ref[term.k - 1]) <= 1e-9 * abs(ref[term.k - 1])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(Family)), st.floats(0.05, 4.0),
           st.floats(0.25, 2.0), st.integers(1, 12))
    def test_values_match_the_exact_chain_in_mpmath(self, family, B, H, K):
        try:
            cfg = config(family, B, H)
        except SingularError:
            assume(False)
        ev = WpEvaluator(cfg.g2, cfg.g3)
        terms = differentiate_chain(cfg, K)
        for off in wp_chain._PROBE_OFFSETS:
            t = ev.wp_inverse(ev.e_max + off)
            ref = _mp_chain_values(cfg, K, *ev.wp(t))
            for term, want in zip(terms, ref):
                val = eval_chain_term(cfg, term, ev, t)
                assert abs(val - want) <= 1e-9 * abs(want)


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

    # Timelike (H, B) on both sides of B = 1, the edge anchor below it.
    @pytest.mark.parametrize("H, B", [(0.5, 2.0), (1.0, 1.5), (0.5, 0.5),
                                      (1.3, 0.8), (0.4, 2.9)])
    def test_radius_reads_p_equals_w(self, monkeypatch, H, B):
        """P(t) = w on the path: the radius is within 1e-14 relative of the
        closed form, with no P evaluation and one R_F per inverse (the pole
        check of the axis integral reads the AGM half-period)."""
        cfg = config(Family.LORENTZ_TIMELIKE_AXIS, B, H)
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, H, B)
        s0 = anchor(params)
        rf, wp = weierstrass.rf, WpEvaluator.wp
        rf_calls, wp_calls = [], []
        monkeypatch.setattr(weierstrass, "rf",
                            lambda *a: rf_calls.append(a) or rf(*a))
        monkeypatch.setattr(WpEvaluator, "wp",
                            lambda ev, z: wp_calls.append(z) or wp(ev, z))
        for i in range(20):
            s = s0 + (0.05 + 1.95 * i / 19) / (2 * H)
            x, _ = curve_from_wp(cfg, params, s)
            ref = profile_point(params, s).x
            assert abs(x - ref) <= 1e-14 * ref
        assert wp_calls == [] and len(rf_calls) == 2 * 20

    def test_grid_builds_one_evaluator_and_one_anchor_inverse(
            self, monkeypatch, cfg_t2):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        grid = [0.05 + (1.5 - 0.05) * i / 19 for i in range(20)]
        rf, init = weierstrass.rf, WpEvaluator.__init__
        rf_calls, evaluators = [], []
        monkeypatch.setattr(weierstrass, "rf",
                            lambda *a: rf_calls.append(a) or rf(*a))
        monkeypatch.setattr(WpEvaluator, "__init__",
                            lambda ev, *a: evaluators.append(a) or init(ev, *a))
        wp_chain.curve_points_from_wp(cfg_t2, params, grid)
        assert len(evaluators) == 1 and len(rf_calls) == 20 + 1

    # Timelike B on both sides of 1; below it the anchor sits at the edge.
    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.25, 2.0),
           st.one_of(st.sampled_from([0.5, 0.8, 2.0]), st.floats(0.1, 3.0)),
           st.lists(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                    max_size=8))
    def test_grid_equals_its_one_point_form(self, H, B, offsets):
        try:
            cfg = config(Family.LORENTZ_TIMELIKE_AXIS, B, H)
        except SingularError:
            assume(False)
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, H, B)
        grid = [anchor(params) + off / H for off in offsets]  # 0: the anchor
        got = wp_chain.curve_points_from_wp(cfg, params, grid)
        want = [curve_from_wp(cfg, params, s) for s in grid]
        assert [(x.hex(), z.hex()) for x, z in got] == \
            [(x.hex(), z.hex()) for x, z in want]

    def test_grid_sums_zeta_once_per_sample_and_once_for_the_anchor(
            self, monkeypatch, cfg_t2):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        grid = [0.05 + (1.5 - 0.05) * i / 19 for i in range(20)]
        series, zeta_sums = WpEvaluator._series, []
        monkeypatch.setattr(
            WpEvaluator, "_series",
            lambda ev, u, with_zeta=True:
                zeta_sums.append(with_zeta) or series(ev, u, with_zeta))
        wp_chain.curve_points_from_wp(cfg_t2, params, grid)
        assert zeta_sums == [True] * (20 + 1)

    # zeta(t0) is held across the grid, yet every sample's stretch [t0, t]
    # is still checked against the real period: here the path parameter of
    # s = 1 is moved one period on, past the pole at -2 omega.
    def test_later_sample_across_a_pole_fails_as_its_one_point_form(
            self, monkeypatch, cfg_t2):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        path = wp_chain._path_parameter

        def shifted(cfg, ev, s):
            t, p = path(cfg, ev, s)
            return (t - 2.0 * ev.omega if s == 1.0 else t), p

        monkeypatch.setattr(wp_chain, "_path_parameter", shifted)
        with pytest.raises(PoleError) as one:
            curve_from_wp(cfg_t2, params, 1.0)
        with pytest.raises(PoleError) as grid:
            wp_chain.curve_points_from_wp(cfg_t2, params, [0.5, 1.0])
        assert "contains a pole" in str(one.value)
        assert str(grid.value) == str(one.value)

    def test_anchor_maps_to_zero_axis(self, cfg_t2):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        x, z = curve_from_wp(cfg_t2, params, anchor(params))
        assert abs(z) < 1e-12
        assert x == pytest.approx(profile_point(params, anchor(params)).x, rel=1e-12)

    def test_parameter_mismatch_rejected(self, cfg_t2):
        assert_one_point_raises(
            cfg_t2, CmcParams(Family.EUCLIDEAN, 0.5, 2.0), 0.5, DomainError,
            "params family 'euclidean' does not match the configuration "
            "family 'timelike-axis'")
        assert_one_point_raises(
            cfg_t2, CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.1), 0.5,
            DomainError, "params (H, B) do not match the configuration")

    def test_out_of_domain_rejected(self, cfg_t2):
        params = CmcParams(Family.LORENTZ_TIMELIKE_AXIS, 0.5, 2.0)
        s_min = math.asinh((1 - 4.0) / 4.0)  # domain edge for B=2, 2H=1
        assert_one_point_raises(cfg_t2, params, s_min - 0.1, DomainError,
                                f"s={s_min - 0.1!r} outside the profile domain")

    def test_bounded_branch_families_propagate_branch_error(self):
        # The spacelike/Euclidean physical interval maps between the two
        # lower branch points, off the real P branch.
        for family, B, H, s, message in [
            (Family.LORENTZ_SPACELIKE_AXIS, 0.5, 0.5, 0.1,
             "w=-0.37062940122136384 below the real branch "
             "(e_max=0.8924440770088684)"),
            (Family.EUCLIDEAN, 0.5, 1.0, 0.3,
             "w=-0.6181860210089875 below the real branch "
             "(e_max=0.5249671041228636)")]:
            assert_one_point_raises(config(family, B, H),
                                    CmcParams(family, H, B), s, BranchError,
                                    message)


def assert_one_point_raises(cfg, params, s, error, message):
    """curve_from_wp at s and the one-sample grid [s] raise the same error,
    with the same message."""
    for call in (lambda: curve_from_wp(cfg, params, s),
                 lambda: wp_chain.curve_points_from_wp(cfg, params, [s])):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


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

    @pytest.mark.parametrize("family,B,H", [
        (Family.LORENTZ_TIMELIKE_AXIS, 2.3, 0.5),
        (Family.LORENTZ_TIMELIKE_AXIS, 2.0, 0.5),
        (Family.LORENTZ_SPACELIKE_AXIS, 0.75, 1.0),
        (Family.EUCLIDEAN, 0.5, 1.0),
    ])
    def test_one_wp_evaluation_per_probe_point(self, monkeypatch, cold_chains,
                                               family, B, H):
        cfg = config(family, B, H)
        wp = WpEvaluator.wp
        calls = []

        def counted(ev, z):
            calls.append(z)
            return wp(ev, z)

        monkeypatch.setattr(WpEvaluator, "wp", counted)
        # A cold memo: the probe points of cfg are computed here.
        report = polynomiality_probe(cfg, 12)
        assert len(calls) == len(wp_chain._PROBE_OFFSETS)
        # Warm: the memo keeps the rows, and the report is the same; no
        # coefficient is rounded and no term evaluated again.
        for name in ("_term_value", "_true_coefficient"):
            fn = getattr(wp_chain, name)
            monkeypatch.setattr(wp_chain, name, lambda *a, fn=fn:
                                calls.append(a) or fn(*a))
        del calls[:]
        assert polynomiality_probe(cfg, 12) == report
        assert len(calls) == 0
        monkeypatch.undo()
        # The values are those of eval_chain_term at each probe parameter,
        # all five of them at every order.
        ev = WpEvaluator(cfg.g2, cfg.g3)
        ts = [ev.wp_inverse(ev.e_max + off) for off in wp_chain._PROBE_OFFSETS]
        for term, row in zip(differentiate_chain(cfg, 12), report["terms"]):
            values = [abs(eval_chain_term(cfg, term, ev, t)) for t in ts]
            assert row["min_abs_value"].hex() == min(values).hex()

    def test_large_h_report_matches_mpmath(self, capsys):
        # |alpha + beta*P| is about 1e-5 at every probe point: no cancellation,
        # though its powers fall far below an absolute 1e-12 from k = 2 on.
        rc = cli_io.main(["chain", "--family", "timelike", "--B", "2",
                          "--H", "1e5", "--upto-k", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        cfg = config(Family.LORENTZ_TIMELIKE_AXIS, 2.0, 1e5)
        ev = WpEvaluator(cfg.g2, cfg.g3)
        refs = [_mp_chain_values(cfg, 12, *ev.wp(ev.wp_inverse(ev.e_max + off)))
                for off in wp_chain._PROBE_OFFSETS]
        for row, values in zip(json.loads(out)["terms"], zip(*refs)):
            want = min(abs(v) for v in values)
            assert abs(row["min_abs_value"] - want) <= 1e-13 * want

    def test_degenerate_constant_radius_collapses(self, cfg_t2):
        # c2 = 0 models a constant r: every derivative is identically zero.
        control = cfg_t2._replace(c2=0.0)
        report = polynomiality_probe(control, 3)
        assert all(t["identically_zero"] for t in report["terms"])
        assert report["terms"][1]["min_abs_value"] == 0.0

    def test_minimum_k(self, cfg_t2):
        with pytest.raises(DomainError):
            polynomiality_probe(cfg_t2, 2)
