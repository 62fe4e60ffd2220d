"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criteria 2, 4 and 7 state targets the implemented formulas do not reach
(no positive spacelike screening roots; spacelike positive-root count 0,
not 2; the timelike B=1 surface is not a quadric). Those tests fail and
are meant to: the point of the gate is an honest scorecard, so nothing
here is loosened to force green. Run with -s to see every line.
"""

import hashlib
import re
import time

import pytest

from cmc_elliptic import acceptance, elliptic_reduction


@pytest.fixture(scope="session")
def results():
    return acceptance.run_all()


def _line(r):
    status = "PASS" if r.passed else "FAIL"
    return f"{status} criterion {r.num:2d} ({r.name}): {r.detail}"


@pytest.mark.parametrize("num", range(1, 12))
def test_criterion(results, num):
    r = results[num - 1]
    assert r.num == num
    print(_line(r))
    assert r.passed, _line(r)


def test_scorecard_structure(results, capsys):
    text = acceptance.format_results(results)
    print(text)
    lines = text.split("\n")
    assert len(lines) == 12
    assert all(l.startswith(("PASS", "FAIL")) for l in lines[:11])
    assert lines[11].endswith("criteria passed")


def test_scorecard_text_is_pinned(results):
    # Every detail line, with the timings masked; re-pinned when P, P' and
    # zeta came from the AGM descent, which moved criterion 8's ODE
    # residual and second-derivative identity and criterion 9's max |dz|.
    text = re.sub(r"in \d+\.\d+s", "in #s", acceptance.format_results(results))
    assert hashlib.sha1(text.encode()).hexdigest() == \
        "b67a6e6697b8f333506bb4568d7b03a41cdea6ed"


def test_evaluators_per_criterion(call_counts):
    # 16 per scorecard, one per lattice: criterion 8 checks two per
    # configuration, criterion 9 one per grid, criterion 10 one, once the
    # memo of probe rows holds those of its six probes.
    init = "weierstrass.WpEvaluator.__init__"
    counts = {n: len(calls[init]) for n, calls in call_counts(init).items()}
    assert counts == {**dict.fromkeys(range(1, 8), 0), 8: 12, 9: 3, 10: 1}


def test_series_work_per_criterion(call_counts):
    # Descents of the AGM sequence, each one (P, P', zeta): criterion 8
    # reads P and P' at 720 points; criterion 9 needs zeta once per sample
    # and once per grid for zeta(t0), 3 * (20 + 1); criterion 10 is one
    # descent per Newton step and per P read, 45 here.
    descent = "weierstrass.WpEvaluator._wp_zeta"
    calls = {n: c[descent] for n, c in call_counts(descent).items()}
    assert len(calls[8]) == 720
    assert len(calls[9]) <= 63
    assert len(calls[10]) <= 50
    assert all(not calls[n] for n in range(1, 8))


def test_root_time_gate_keeps_the_first_isolation_time(monkeypatch):
    # Criteria 1 and 2 gate the screening-root computation, which runs once
    # per family; a later call is a cache hit and must report the first
    # run's time. The timelike roots bisect their cubic with refine_root.
    refine = elliptic_reduction.refine_root

    def slow_refine(p, lo, hi):
        time.sleep(1.05)
        return refine(p, lo, hi)

    monkeypatch.setattr(elliptic_reduction, "refine_root", slow_refine)
    elliptic_reduction._screening_roots.cache_clear()
    try:
        first = acceptance.criterion_1()
        second = acceptance.criterion_1()
    finally:
        elliptic_reduction._screening_roots.cache_clear()
    assert not first.passed, first.detail
    assert not second.passed, second.detail
    assert second.detail == first.detail
