"""Carlson's R_F and R_D, and the closed forms built on them.

The duplication core is checked against mpmath's elliprf/elliprd at 30
digits. The closed forms of the axis coordinate, the P-inverse and the
P-integral are checked, property-based, against mpmath quadrature of the
defining integrals: none of these references uses R_F or R_D.
"""

import math
import sys

import mpmath as mp
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from radicand import _radicand

from cmc_elliptic import _carlson
from cmc_elliptic._carlson import rd, rf, rf_rd
from cmc_elliptic.errors import CmcError, DomainError, PoleError, RangeError
from cmc_elliptic.profiles import (CmcParams, Family, anchor, domain,
                                   profile_points)
from cmc_elliptic.weierstrass import WpEvaluator

REL = 4e-15  # the duplication core, relative


def _close(got, ref, rel):
    assert abs(got - ref) <= rel * abs(ref), (got, ref)


class TestCore:
    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 2.0), (1.0, 0.0, 1e-3), (2.0, 3.0, 0.0),
        (1e-200, 1.0, 1e200), (1e-150, 2e-150, 3e-150), (3e150, 1e150, 7e149),
        (0.5, 0.5, 0.5), (1.0, 1.0, 1.0 + 1e-12),
    ])
    def test_rf_and_rd_match_mpmath(self, args):
        with mp.workdps(30):
            _close(rf(*args), mp.elliprf(*args), REL)
            if args[2] > 0:
                _close(rd(*args), mp.elliprd(*args), REL)

    def test_complete_integrals(self):
        # R_F(0, 1, 1) = pi/2 and R_D(0, 1, 1) = 3 pi/4.
        _close(rf(0.0, 1.0, 1.0), math.pi / 2, REL)
        _close(rd(0.0, 1.0, 1.0), 3 * math.pi / 4, REL)

    @pytest.mark.parametrize("args", [
        (0.0, 0.0, 1.0), (1.0, math.inf, 1.0), (math.nan, 1.0, 1.0),
        (-1e308, 1e308, 1e308),
    ])
    def test_outside_the_domain_raises(self, args):
        with pytest.raises(DomainError):
            rf(*args)
        with pytest.raises(DomainError):
            rd(*args)

    @pytest.mark.parametrize("args", [
        (1.0, 1.0, 8e305), (1e308, 1e308, 1e308), (0.0, 1.0, 1.7e308),
        (1.7976931348623157e308, 2.0, 1e-300),
    ])
    def test_top_of_the_float_range_matches_mpmath(self, args):
        # The error scale overflows here; the arguments, scaled by 4^-8,
        # give the value by homogeneity.
        with mp.workdps(30):
            _close(rf(*args), mp.elliprf(*args), REL)
            ref = mp.elliprd(*args)
            if ref > 1e-280:
                _close(rd(*args), ref, REL)

    # Log-uniform arguments up to the largest float, half the draws with one
    # above 2^1008; R_D is compared where its value is a normal float far
    # from both ends of the range, and may be a RangeError where its
    # arguments span more than 2^1700 (the module docstring's contract).
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-300.0, 308.25), min_size=3, max_size=3),
           st.one_of(st.none(), st.tuples(st.integers(0, 2),
                                          st.floats(303.4, 308.25))))
    def test_rf_and_rd_match_mpmath_up_to_the_largest_float(self, logs, top):
        if top is not None:
            logs[top[0]] = top[1]
        args = [min(10.0 ** x, 1.7976931348623157e308) for x in logs]
        with mp.workdps(30):
            _close(rf(*args), mp.elliprf(*args), REL)
            ref = mp.elliprd(*args)
            if 1e-280 < ref < 1e280:
                try:
                    got = rd(*args)
                except RangeError:
                    assert min(args) < math.ldexp(max(args), -1700), args
                    return
                _close(got, ref, REL)

    def test_rd_at_the_bottom_of_the_float_range(self):
        # R_D(t, t, t) = t^-3/2, past the largest float below t ~ 3.2e-206:
        # a RangeError exactly there, and the value above.
        top = mp.mpf(sys.float_info.max)
        lo, hi = math.log(5e-324), math.log(1e-150)
        for i in range(201):
            t = max(math.exp(lo + (hi - lo) * i / 200), 5e-324)
            with mp.workdps(30):
                ref = mp.mpf(t) ** -1.5
            if ref > top:
                with pytest.raises(RangeError):
                    rd(t, t, t)
            else:
                _close(rd(t, t, t), ref, 1e-14)

    @pytest.mark.parametrize("args", [
        (5e-324, 5e-324, 1e-323), (5e-324, 1e-323, 5e-324),
        (1e-300, 1e-310, 1e-320),
    ])
    def test_rd_past_the_largest_float_raises(self, args):
        # Duplication steps run here, and one of their powers underflows.
        with mp.workdps(30):
            assert mp.elliprd(*args) > sys.float_info.max
        with pytest.raises(RangeError):
            rd(*args)

    def test_rd_needs_positive_z(self):
        with pytest.raises(DomainError):
            rd(1.0, 2.0, 0.0)

    @pytest.mark.parametrize("fn,args", [
        (rf, (-1.0, 2.0, 2.0)), (rd, (-1.0, 2.0, 1.0)),
        (rf_rd, (-1.0, 2.0, 2.0)), (rf_rd, (-1.0, 2.0, 1.0)),
        (rd, (2.0, -5e-324, 1.0)),
    ])
    def test_a_negative_argument_raises_domain_error(self, fn, args):
        # Every sum the domain tests read is positive here; the duplication
        # would take the square root of the negative argument.
        with pytest.raises(DomainError, match=r"\(-|, -"):
            fn(*args)

    @pytest.mark.parametrize("fn,args,message", [
        (rf, (1.0735328020057738e52, 1.7976931348623157e308, math.nan),
         "R_F(1.0735328020057738e+52, 1.7976931348623157e+308, nan)"),
        (rd, (math.nan, 1.7976931348623157e308, 1.0),
         "R_D(nan, 1.7976931348623157e+308, 1.0)"),
    ])
    def test_a_domain_error_names_the_callers_arguments(self, fn, args,
                                                        message):
        # A nan beside an argument above 2^1008: the error names the
        # arguments as passed, not as scaled by 4^-8.
        with pytest.raises(DomainError) as exc:
            fn(*args)
        assert str(exc.value) == message + " is outside its domain"


class TestBottomOfRange:
    """R_F where the mean of its arguments is below 2^-969, where the
    duplication's own mean can underflow to 0 and its loop would not end;
    every call runs under the watchdog."""

    @pytest.mark.parametrize("args", [
        (0.0, 5e-324, 5e-324), (1e-300, 0.0, 5e-324), (5e-324, 1e-323, 0.0),
        (1e-310, 2e-310, 3e-310), (1.5e-323, 0.0, 1e-323),
    ])
    def test_rf_matches_mpmath(self, watchdog, args):
        value = watchdog(rf, *args)
        with mp.workdps(30):
            _close(value, mp.elliprf(*args), REL)

    # Log-uniform triples with their largest argument below 2^-969.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(-1074.0, -969.0), min_size=3, max_size=3),
           st.integers(0, 3))
    def test_rf_matches_mpmath_everywhere(self, watchdog, logs, zero):
        args = [math.ldexp(1.0, round(e)) for e in logs]
        if zero < 3:
            args[zero] = 0.0
        value = watchdog(rf, *args)
        with mp.workdps(30):
            _close(value, mp.elliprf(*args), REL)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except CmcError as exc:
        return type(exc), str(exc)


# Log-uniform over the whole float range, moderate sizes, and the ends.
ARGUMENTS = st.one_of(
    st.floats(-323, 308.25).map(lambda e: min(10.0 ** e, sys.float_info.max)),
    st.floats(-3, 3).map(lambda e: 10.0 ** e),
    st.sampled_from([0.0, 5e-324, 1.0, sys.float_info.max, math.inf,
                     math.nan]),
)


class TestSharedLoop:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ARGUMENTS, ARGUMENTS, ARGUMENTS)
    # The 4^-8 rescale; R_F's domain without R_D's; R_D past the largest
    # float; R_D below 2^-969, where it is rescaled.
    @example(1e300, 1.7e308, 1.0)
    @example(1.0, 1.0, 1.7976931348623157e308)
    @example(1.0, 1.0, 0.0)
    @example(1e-300, 1e-310, 1e-320)
    @example(8.950284134331344e-90, 1.355894701451932e-147,
             5.465413864078468e206)
    @example(0.0, 5e-324, 5e-324)
    @example(-1.0, 2.0, 1.0)
    def test_the_pair_is_rf_and_rd(self, watchdog, x, y, z):
        f, d = watchdog(_outcome, rf, x, y, z), watchdog(_outcome, rd, x, y, z)
        if isinstance(f, tuple):
            want = f
        else:
            want = d if isinstance(d, tuple) else (f, d)
        assert watchdog(_outcome, rf_rd, x, y, z) == want

    def test_the_legendre_triples_take_one_loop(self, monkeypatch):
        # On (cos^2, 1 - m sin^2, 1) and (0, 1 - m, 1) R_F's series stops
        # no later than R_D's, so the pair never falls back to rf and rd.
        triples = []
        for i in range(200):
            c2, m1 = (i + 0.5) / 200, (i * 0.618) % 1 * 0.999 + 1e-3
            triples += [(c2, c2 + m1 * (1 - c2), 1.0), (0.0, m1, 1.0)]
        want = [(rf(*t), rd(*t)) for t in triples]

        def fall_back(*args):
            raise AssertionError(f"two loops at {args}")

        monkeypatch.setattr(_carlson, "rf", fall_back)
        monkeypatch.setattr(_carlson, "rd", fall_back)
        assert [rf_rd(*t) for t in triples] == want

    @pytest.mark.parametrize("args", [
        (8.950284134331344e-90, 1.355894701451932e-147, 5.465413864078468e206),
        (4.039980398582997e299, 8.223829520605984e303, 3.828944350941564e-17),
        (1.0, 1.0, 1e200), (1e200, 1e200, 1e200), (0.0, 1e100, 1e200),
        (4.623e-320, 0.0, 8.67893556590257e202),
    ])
    def test_rd_near_underflow_matches_mpmath(self, args):
        # Normal values below 2^-969, where the unscaled duplication's terms
        # can go subnormal or overflow their divisors (the first triple read
        # 7.840e-308 that way). The last has its largest argument below
        # 2^680: no term is lost, and it is not rescaled.
        with mp.workdps(30):
            ref = mp.elliprd(*args)
        assert 2.2250738585072014e-308 < ref < 2.0 ** -969
        _close(rd(*args), ref, REL)
        _close(rf_rd(*args)[1], ref, REL)

    # A triple with largest 1, scaled so that its R_D lands between 2^-1000
    # and 2^-969 (homogeneity); compared where a scaled argument is normal.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-200.0, 0.0), min_size=3, max_size=3),
           st.integers(0, 2), st.floats(-1000.0, -969.0))
    def test_rd_near_underflow_matches_mpmath_everywhere(self, logs, top,
                                                         log2_value):
        logs[top] = 0.0
        with mp.workdps(30):
            unit = mp.elliprd(*[mp.mpf(10) ** e for e in logs])
            scale = (unit / mp.mpf(2) ** log2_value) ** (mp.mpf(2) / 3)
            assume(scale < sys.float_info.max)
            args = [float(scale * mp.mpf(10) ** e) for e in logs]
            assume(min(args) > 2.2250738585072014e-308)
            ref = mp.elliprd(*args)
        _close(rd(*args), ref, REL)


# ---------------------------------------------------------------------------
# The contract of the rescale (the _carlson module docstring)

MAX = sys.float_info.max


def _reference(fn, args, dps):
    """mpmath's value of fn at args."""
    with mp.workdps(dps):
        return (mp.elliprd if fn is rd else mp.elliprf)(*args)


def _assert_near(got, fn, args):
    """got within REL of mpmath where the value is a normal float, within
    2^-1074 of it where it is subnormal. mpmath at 30 digits, and at 400
    before a miss is reported."""
    for dps in (30, 400):
        ref = _reference(fn, args, dps)
        bound = REL * ref if ref >= 2.0 ** -1022 else 2.0 ** -1074
        if abs(got - ref) <= bound:
            return
    raise AssertionError((fn.__name__, args, got, ref))


# A quarter of the arguments above 1e303.5, a quarter from the smallest
# subnormal to 1e-292, a tenth zeros, the rest log-uniform over the range.
STRESS = st.integers(0, 19).flatmap(lambda u: (
    st.floats(303.5, 308.25) if u < 5 else st.floats(-323.3, -292) if u < 10
    else st.just(None) if u < 12 else st.floats(-323.3, 308.25)
).map(lambda e: 0.0 if e is None else min(10.0 ** e, MAX)))


@st.composite
def span_triples(draw, span):
    """(x, y, z) with the largest anywhere in the range, near its ends a
    third of the time each, and every nonzero one within 2^span of it."""
    top = draw(st.sampled_from([(-1074, -940), (990, 1023.9),
                                (-1074, 1023.9)]))
    logs = [draw(st.floats(*top))]
    logs += [logs[0] - draw(st.floats(0, span)) for _ in range(2)]
    args = [math.ldexp(2.0 ** (e % 1), math.floor(e)) for e in logs]
    zero = draw(st.integers(0, 5))
    if zero < 3:
        args[zero] = 0.0
    big = max(args)
    assume(big < math.inf and all(v == 0 or v >= math.ldexp(big, -span)
                                  for v in args))
    return draw(st.permutations(args))


class TestContract:
    @pytest.mark.parametrize("fn,args", [
        (rd, (1.496377478177457, MAX, 5e-324)),
        (rf, (MAX, 1e-323, 0.0)),
        (rd, (2.1628924926455157e306, 1.0501827955506985e80, 5e-324)),
        # The worst of a stress fuzz of the single 4^-8 rescale, which read
        # them 3.4e-4 and 0.28 off.
        (rf, (1.371981027382976e307, 1.9881e-319, 0.0)),
        (rd, (1.064444277488982e306, 2.86223614861e-312, 1.66115e-319)),
        # Its two small arguments lose about 24 and 14 bits, which move R_F
        # by 1.7e-15 of itself: the parent's whole error there.
        (rf, (1.6038521359434e-310, 1.1116538694220973e308,
              1.411386256325285e-307)),
        # Rounded arguments whose move cannot show in the value: the smallest
        # loses 12 bits, about 4e-21 of R_F; with z = 0, about 2e-19; x is
        # flushed to 0; and an R_D. Past the span, they raise all the same.
        (rf, (8.936087880749001e-307, 8.205395942718691e306,
              3.941678400598359e-301)),
        (rf, (2.3249850726605646e-305, 9.300493372527252e306, 0.0)),
        (rf, (5e-324, 1.0, 1.7e308)),
        (rd, (8.55e-322, 2.665528437099023e304, 4.4160380176267866e150)),
    ])
    def test_a_rescale_that_rounds_an_argument_is_a_range_error(self, fn,
                                                                args):
        # The power of four that brings the largest argument to 2^1008 rounds
        # a small one: inside the domain, past the span.
        x, y, z = args
        label = f"{'R_D' if fn is rd else 'R_F'}({x!r}, {y!r}, {z!r})"
        with pytest.raises(RangeError) as info:
            fn(*args)
        assert str(info.value).startswith(label + " ")

    @pytest.mark.parametrize("fn,args", [
        (rf, (5.798929036090812e307, 5.775427969041561e307,
              5.775427969041561e307)),
        (rf_rd, (5.798929036090812e307, 5.775427969041561e307,
                 5.775427969041561e307)),
    ])
    def test_close_arguments_past_2_to_the_1020(self, fn, args):
        # Their error scale is finite, but the loop's sums overflowed: 0.0.
        got = fn(*args)
        if fn is rf_rd:
            _assert_near(got[1], rd, args)
            got = got[0]
        _assert_near(got, rf, args)

    # Inside the domain, no DomainError: a value where mpmath's is normal, or
    # a RangeError past the contract.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([rf, rd]), STRESS, STRESS, STRESS)
    def test_stress_arguments(self, watchdog, fn, x, y, z):
        assume(x + y > 0 and (z > 0 if fn is rd else x + z > 0 < y + z))
        try:
            got = watchdog(fn, x, y, z)
        except RangeError:
            return
        _assert_near(got, fn, (x, y, z))

    # Nonzero arguments within 2^2028 of the largest (2^1700 for R_D): one
    # power of four holds them between 2^-1022 and 2^1008, and the value is
    # there.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([rf, rd]), st.data())
    def test_the_contract_span(self, watchdog, fn, data):
        args = data.draw(span_triples(1700 if fn is rd else 2028))
        x, y, z = args
        assume(x + y > 0 and (z > 0 if fn is rd else x + z > 0 < y + z))
        if fn is rd and _reference(rd, args, 30) > MAX:
            with pytest.raises(RangeError):
                watchdog(fn, *args)
            return
        _assert_near(watchdog(fn, *args), fn, args)


# ---------------------------------------------------------------------------
# The axis coordinate against mpmath quadrature of its rate

AXIS_TOL = 1e-10  # absolute, or relative beyond 1


def _rate(params, t):
    H, B = mp.mpf(params.H), mp.mpf(params.B)
    u = 2 * H * t
    if params.family is Family.EUCLIDEAN:
        return (1 + B * mp.sin(u)) / mp.sqrt(1 + B * B + 2 * B * mp.sin(u))
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        # B cosh(u) - 1 and 1 + B^2 - 2B cosh(u), written with
        # cosh(u) - 1 = 2 sinh^2(u/2) so that neither cancels as B -> 1.
        sh2 = 2 * mp.sinh(u / 2) ** 2
        return (B - 1 + B * sh2) / mp.sqrt((1 - B) ** 2 - 2 * B * sh2)
    return (B * mp.sinh(u) - 1) / mp.sqrt(B * B + 2 * B * mp.sinh(u) - 1)


@mp.workdps(25)
def _axis_quadrature(params, s):
    """Axis coordinate at s from the anchor, by mpmath quadrature.

    Square-root zeros at a domain edge are removed by t = edge -/+ g^2;
    the Euclidean rate is integrated over whole periods with breakpoints at
    its extremes, where it is sharply peaked as B approaches 1.
    """
    H, B, s = mp.mpf(params.H), mp.mpf(params.B), mp.mpf(s)
    rate = lambda t: _rate(params, t)  # noqa: E731
    if params.family is Family.LORENTZ_TIMELIKE_AXIS:
        edge = mp.asinh((1 - B * B) / (2 * B)) / (2 * H)
        a = mp.mpf(anchor(params))
        return mp.quad(lambda g: 2 * g * rate(edge + g * g),
                       [mp.sqrt(a - edge), mp.sqrt(s - edge)])
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        if B == 0:
            return -s
        # acosh((1 + B^2)/(2B))/(2H) in a form that does not cancel as
        # B -> 1, where the acosh argument rounds to 1.
        edge = mp.asinh(abs(1 - B) / (2 * mp.sqrt(B))) / H
        val = mp.quad(lambda g: 2 * g * rate(edge - g * g),
                      [mp.sqrt(edge - abs(s)), mp.sqrt(edge)])
        return val if s >= 0 else -val
    period = mp.pi / H
    if B == 1:
        return mp.quad(rate, [0, s])
    k = mp.floor(s / period)
    rest = s - k * period
    whole = mp.quad(rate, [0, period / 4, 3 * period / 4, period]) if k else 0
    cuts = [0] + [c for c in (period / 4, 3 * period / 4) if c < rest]
    return k * whole + mp.quad(rate, cuts + [rest])


# B away from 1, or within 1e-6..1e-1 of it on either side.
B_VALUES = st.one_of(
    st.floats(-2, 1).map(lambda e: 10.0 ** e),
    st.tuples(st.floats(-6, -1), st.sampled_from([-1, 1])).map(
        lambda t: 1.0 + t[1] * 10.0 ** t[0]),
    st.just(0.0),
)
H_VALUES = st.floats(-2, 1).map(lambda e: 10.0 ** e)
# Position inside a finite domain: a fraction of its width, or a distance
# 10^-9..10^-1 of the width from either edge.
FRACTION = st.one_of(
    st.floats(0.02, 0.98),
    st.floats(-9, -1).map(lambda e: 10.0 ** e),
    st.floats(-9, -1).map(lambda e: 1.0 - 10.0 ** e),
)


@st.composite
def profile_samples(draw):
    family = draw(st.sampled_from(list(Family)))
    H, B = draw(H_VALUES), draw(B_VALUES)
    if family is Family.LORENTZ_SPACELIKE_AXIS:
        assume(B != 1.0)
    if family is Family.LORENTZ_TIMELIKE_AXIS:
        assume(B > 0.0)
    params = CmcParams(family, H, B)
    dom = domain(params)
    if family is Family.EUCLIDEAN and B != 1.0:
        periods = draw(st.integers(-25, 25))
        s = (periods * math.pi + draw(st.floats(0, math.pi))) / H
    elif family is Family.LORENTZ_TIMELIKE_AXIS:
        # 10^-9 .. 5 in units of 1/H past the edge.
        s = dom.lo + 10.0 ** draw(st.floats(-9, math.log10(5))) / H
    else:
        lo = max(dom.lo, -50 / H)  # the spacelike B = 0 line is unbounded
        hi = min(dom.hi, 50 / H)
        s = lo + (hi - lo) * draw(FRACTION)
    assume(dom.contains(s))
    return params, s


@settings(max_examples=150, deadline=None)
@given(profile_samples())
# The spacelike edge is 2.2e-16 here; its acosh form rounded it to 0.
@example((CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 1.0, 1.0000000000000004),
          -2.08e-16))
def test_closed_form_axis_matches_quadrature(sample):
    params, s = sample
    # Within rounding of an edge the radius formula's radicand comes out
    # <= 0 and the sample is a domain error before any axis value.
    assume(_radicand(params, s) > 0)
    cs = profile_points(params, [s])[0]
    got = cs.second if params.family is Family.LORENTZ_TIMELIKE_AXIS else cs.x
    ref = _axis_quadrature(params, s)
    assert abs(got - ref) <= AXIS_TOL * max(1, abs(ref)), (params, s)


# ---------------------------------------------------------------------------
# P-inverse and P-integral

# The invariants of 4(x - e1)(x - e2)(x - e3) from e1 + e2 + e3 = 0: three
# real roots (positive discriminant) or e1 and a complex pair (negative).
@st.composite
def invariants(draw):
    a = draw(st.floats(-2, 2))
    gap = draw(st.floats(0.05, 2))
    if draw(st.booleans()):
        e1, e2 = a, a - gap
        e3 = -e1 - e2
        assume(min(abs(e1 - e3), abs(e2 - e3)) >= 0.05)
        g2 = -4 * (e1 * e2 + e1 * e3 + e2 * e3)
        g3 = 4 * e1 * e2 * e3
    else:
        g2, g3 = 3 * a * a - 4 * gap * gap, a * (a * a + 4 * gap * gap)
    return WpEvaluator(g2, g3)


def _cubic(ev, w):
    return 4 * w ** 3 - ev.g2 * w - ev.g3


def _breakpoints(ev, lo, hi):
    """lo, hi and the real parts of the cubic's roots between them.

    A complex pair close to the real axis makes the integrands sharply
    peaked there.
    """
    roots = mp.polyroots([4, 0, -ev.g2, -ev.g3], maxsteps=100, extraprec=40)
    inside = sorted(mp.re(r) for r in roots if lo < mp.re(r) < hi)
    return [lo] + inside + [hi]


@settings(max_examples=100, deadline=None)
@given(invariants(), st.floats(-6, 3))
def test_wp_of_wp_inverse_is_identity(ev, log_offset):
    w = ev.e_max + 10.0 ** log_offset
    z = ev.wp_inverse(w)
    p, _ = ev.wp(z)
    # Measured 1.7e-15 over 6,000 draws (1e-9 with the Laurent series and
    # duplication).
    assert abs(p - w) <= 1e-14 * max(1.0, abs(w))
    with mp.workdps(25):
        cuts = _breakpoints(ev, w, w + 10)
        ref = mp.quad(lambda t: 1 / mp.sqrt(_cubic(ev, t)), cuts + [mp.inf])
    # Near the branch point z inherits the rounding of e_max, amplified by
    # 1/sqrt(w - e_max).
    assert abs(z - ref) <= 1e-10 * ref


@settings(max_examples=100, deadline=None)
@given(invariants(), st.floats(-5, 2), st.floats(-5, 2), st.booleans())
def test_wp_integral_matches_the_integral_in_w(ev, log0, log1, negative):
    w0, w1 = ev.e_max + 10.0 ** log0, ev.e_max + 10.0 ** log1
    assume(abs(log0 - log1) > 1e-3)
    sign = -1 if negative else 1
    t0, t1 = sign * ev.wp_inverse(w0), sign * ev.wp_inverse(w1)
    # Under w = P(t), dt = -dw / sqrt(cubic) on (0, omega); P is even.
    with mp.workdps(25):
        cuts = _breakpoints(ev, min(w0, w1), max(w0, w1))
        ref = mp.quad(lambda w: w / mp.sqrt(_cubic(ev, w)), cuts)
        ref = sign * (ref if w0 > w1 else -ref)
    got = ev.wp_integral(t0, t1)
    # zeta is within a few ulps of the integral over the float t0, t1; what
    # is left is the inverse's: near the branch point t inherits the
    # rounding of e_max, amplified by 1/sqrt(w - e_max). Measured 1.2e-12
    # at w0 = e_max + 1e-5 over 6,000 draws (1e-10 was allowed for the
    # Laurent series' duplication through P'' near 0).
    assert abs(got - ref) <= 5e-12 * max(1, abs(ref))


@pytest.mark.parametrize("g2,g3", [(4.0, 0.0), (1.0, 1.0)])
def test_wp_integral_across_a_lattice_pole_raises(g2, g3):
    # The real-axis poles sit at the multiples of the real period 2 omega.
    ev = WpEvaluator(g2, g3)
    omega = ev.wp_inverse(ev.e_max)
    for t0, t1 in [(omega, 2.5 * omega), (-2.5 * omega, -omega),
                   (1.9 * omega, 2.0 * omega)]:
        with pytest.raises(PoleError):
            ev.wp_integral(t0, t1)
    assert math.isfinite(ev.wp_integral(1.5 * omega, 1.9 * omega))


# ---------------------------------------------------------------------------
# The package's own calls stay inside the contract span

RESCALE_ROUNDS = "the power of four that rescales it rounds an argument"


@st.composite
def near_an_edge(draw, params, edge_only):
    """s 1 to 10^6 ulps inside a finite edge of the domain, or, unless
    edge_only, a fraction of it (cut at +-1e300 where it is unbounded)."""
    lo, hi, _ = domain(params)
    edges = [(e, d) for e, d in ((lo, 1.0), (hi, -1.0)) if math.isfinite(e)]
    if edges and (edge_only or draw(st.booleans())):
        edge, direction = draw(st.sampled_from(edges))
        ulps = round(10.0 ** draw(st.floats(0, 6)))
        return edge + direction * ulps * math.ulp(edge)
    return max(lo, -1e300) + (min(hi, 1e300) - max(lo, -1e300)) * draw(
        st.floats(0.0, 1.0))


@st.composite
def package_calls(draw):
    """(fn, args) as the package calls the forms: a spacelike profile at
    B = 10^U(-323.5, -300) near an edge, a profile of any family at
    B = 10^U(-300, 300), each at H = U(0.1, 5) or 10^U(-300, 300), or
    wp_inverse at w up to the largest float."""
    kind = draw(st.integers(0, 2))
    if kind < 2:
        family = (Family.LORENTZ_SPACELIKE_AXIS if kind == 0
                  else draw(st.sampled_from(list(Family))))
        H = draw(st.floats(0.1, 5)
                 | st.floats(-300, 300).map(lambda e: 10.0 ** e))
        B = 10.0 ** draw(st.floats(-323.5, -300) if kind == 0
                         else st.floats(-300, 300))
        params = CmcParams(family, H, B)
        s = draw(near_an_edge(params, kind == 0))
        return (lambda s: profile_points(params, [s])), (s,)
    ev = draw(invariants())
    w = min(ev.e_max + 10.0 ** draw(st.floats(-3, 308.25)), sys.float_info.max)
    return ev.wp_inverse, (w,)


# The spacelike profile one ulp inside its edge at B = 1e-307, which rescales
# R_F(1.0, 9.07e-14, 2.5e306) and R_D(9.07e-14, 2.5e306, 1.0), and the
# inverse at the largest float.
_EDGE = CmcParams(Family.LORENTZ_SPACELIKE_AXIS, 1.0, 1e-307)


@settings(max_examples=300, deadline=None)
@given(package_calls())
@example((lambda s: profile_points(_EDGE, [s]),
          (math.nextafter(domain(_EDGE).hi, 0.0),)))
@example((WpEvaluator(4.0, 1.0).wp_inverse, (sys.float_info.max,)))
def test_package_calls_never_round_an_argument(call):
    # A caller that needs arguments past the span fails here, before its
    # RangeError reaches a user; any other outcome is the caller's own.
    fn, args = call
    try:
        fn(*args)
    except RangeError as exc:
        assert RESCALE_ROUNDS not in str(exc), args
    except CmcError:
        pass
