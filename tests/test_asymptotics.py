"""Closed forms, two-point fits, tau/gamma estimates, residual bounds.

Expected values here are frozen from exact rational evaluation of the two
published closed forms; the series data are the exact integer sequences
those forms produce, so nothing in this file depends on the Groebner
engine.
"""

from fractions import Fraction

import pytest

from hilbertkunz import (ClosedForm, ParseError, fit_two_point,
                         gamma_estimate, parse_closed_form, residual_bound,
                         tau_from_delta, tau_from_recurrence,
                         verify_closed_form)

QUARTIC_FORM = "168/61 * 125^n - 107/61 * 3^n"
QUARTIC_SERIES = [(0, 1, 1), (1, 5, 339), (2, 25, 43017)]

DET_FORM = "13/8 * 81^n - 2/8 * 27^n - 1/8 * 9^n - 2/8 * 3^n"
DET_SERIES = [(0, 1, 1), (1, 3, 123), (2, 9, 10467), (3, 27, 858573)]


# -- closed forms --------------------------------------------------------------

def test_parse_quartic_form():
    cf = parse_closed_form(QUARTIC_FORM)
    assert cf.terms == ((Fraction(168, 61), 125), (Fraction(-107, 61), 3))
    assert cf.value(0) == 1
    assert cf.value(1) == 339
    assert cf.value(2) == 43017


def test_parse_round_trip():
    for text in (QUARTIC_FORM, DET_FORM, "2 * 4^n", "1/2 * 2^n + 1/2 * 1^n"):
        cf = parse_closed_form(text)
        assert parse_closed_form(str(cf)) == cf


def test_parse_unicode_minus():
    cf = parse_closed_form("168/61 * 125^n − 107/61 * 3^n")
    assert cf == parse_closed_form(QUARTIC_FORM)


def test_parse_errors():
    for bad in ("", "x + 1", "1/0 * 2^n", "2^n", "1 * 2^n 3 * 4^n"):
        with pytest.raises(ParseError):
            parse_closed_form(bad)


def test_duplicate_bases_rejected():
    with pytest.raises(ValueError):
        ClosedForm(((Fraction(1), 2), (Fraction(1), 2)))


def test_verify_quartic_all_pass():
    report = verify_closed_form(QUARTIC_SERIES,
                                parse_closed_form(QUARTIC_FORM))
    assert report.all_pass
    assert [c.passed for c in report.checks] == [True, True, True]


def test_verify_determinantal_all_pass():
    report = verify_closed_form(DET_SERIES, parse_closed_form(DET_FORM))
    assert report.all_pass


def test_verify_perturbation_fails_at_the_right_entry():
    series = [(0, 1, 1), (1, 5, 340), (2, 25, 43017)]
    report = verify_closed_form(series, parse_closed_form(QUARTIC_FORM))
    assert not report.all_pass
    assert [c.passed for c in report.checks] == [True, False, True]
    assert report.checks[1].predicted == 339


# -- two-point fits ---------------------------------------------------------------

def test_fit_exact_two_term_model():
    # e = 2 q^3 + 5 q^2 exactly, d = 3, p = 2
    series = [(n, 2 ** n, 2 * 8 ** n + 5 * 4 ** n) for n in range(4)]
    fit = fit_two_point(series, 3)
    assert fit.alpha == 2 and fit.beta == 5
    assert fit.alpha_hat == 2.0 and fit.beta_hat == 5.0
    assert all(r == 0 for _, r in fit.residuals)
    assert fit.c_min == 0


def test_fit_determinantal_window_9_27():
    fit = fit_two_point(DET_SERIES, 4, n_lo=2, n_hi=3)
    assert fit.alpha == Fraction(10666, 6561)
    assert fit.beta == Fraction(-199, 729)
    assert abs(fit.alpha_hat - 1.62567) < 1e-5
    assert abs(fit.beta_hat - (-0.27298)) < 1e-5
    # default window is the two largest n
    assert fit_two_point(DET_SERIES, 4).window == (2, 3)
    # the per-window trail exposes convergence toward 13/8, -1/4
    windows = [(a, b) for a, b, _, _ in fit.per_window]
    assert windows == [(0, 1), (1, 2), (2, 3)]
    alpha_err = [abs(wa - Fraction(13, 8)) for _, _, wa, _ in fit.per_window]
    assert alpha_err == sorted(alpha_err, reverse=True)


def test_fit_quartic_window_5_25():
    fit = fit_two_point(QUARTIC_SERIES, 3, n_lo=1, n_hi=2)
    assert fit.alpha == Fraction(17271, 6250)
    assert abs(fit.alpha_hat - 2.76336) < 1e-5
    assert abs(fit.alpha_hat - 168 / 61) < 0.01    # already near the limit


def test_fit_window_is_keyword_only():
    # the removed p parameter stood third: an old positional call fails
    # instead of reading p as n_lo
    with pytest.raises(TypeError):
        fit_two_point(QUARTIC_SERIES, 3, 5)
    with pytest.raises(TypeError):
        fit_two_point(QUARTIC_SERIES, 3, 1, 2)


def test_fit_window_validation():
    with pytest.raises(ValueError):
        fit_two_point(QUARTIC_SERIES, 3, n_lo=2, n_hi=1)
    with pytest.raises(ValueError):
        fit_two_point(QUARTIC_SERIES, 3, n_lo=0, n_hi=7)
    with pytest.raises(ValueError):
        fit_two_point([(0, 1, 1)], 3)


# -- tau from the Frobenius recurrence -----------------------------------------------

def test_tau_regular_ring_is_zero():
    series = [(n, 3 ** n, 9 ** n) for n in range(4)]
    est = tau_from_recurrence(series, 2, 3)
    assert est.tau == 0 and est.beta_implied == 0
    assert all(v == 0 for _, v in est.sequence)


def test_tau_determinantal_sequence():
    est = tau_from_recurrence(DET_SERIES, 4, 3, n=2)
    assert est.tau == Fraction(10746, 729) == Fraction(398, 27)
    assert abs(est.tau_hat - 14.7407407) < 1e-6
    assert [v for _, v in est.sequence] == \
        [Fraction(42), Fraction(56, 3), Fraction(398, 27)]
    # the sequence approaches tau = 13.5 monotonically
    target = Fraction(27, 2)
    dists = [abs(v - target) for _, v in est.sequence]
    assert dists == sorted(dists, reverse=True)


def test_tau_n1_value():
    est = tau_from_recurrence(DET_SERIES, 4, 3, n=1)
    assert est.tau == Fraction(504, 27)


def test_tau_beta_consistency_with_fit():
    # a consecutive fit window makes the two beta estimates algebraically
    # identical; verify on both published series
    for series, d, p in ((DET_SERIES, 4, 3), (QUARTIC_SERIES, 3, 5)):
        fit = fit_two_point(series, d)
        est = tau_from_recurrence(series, d, p)
        assert fit.beta == est.beta_implied
    # non-consecutive window: the estimates differ only by error-term
    # contributions, bounded by a small multiple of the residual constants
    fit = fit_two_point(DET_SERIES, 4, n_lo=1, n_hi=3)
    est = tau_from_recurrence(DET_SERIES, 4, 3, n=2)
    q_lo = 3
    bound = 8 * max(fit.c_min, Fraction(5, 24)) / q_lo
    assert abs(fit.beta - est.beta_implied) <= bound


# -- tau from delta series --------------------------------------------------------------

def test_delta_trend_zero_for_ring():
    deltas = [(n, 2 ** n, 0) for n in range(4)]
    trend = tau_from_delta(deltas, 2)
    assert trend.v_last == 0
    assert all(v == 0 for _, v in trend.sequence)


def test_delta_trend_exact_leading_term():
    # delta = 7 q^{d-1} exactly: v_n constant, differences zero
    d = 3
    deltas = [(n, 5 ** n, 7 * 25 ** n) for n in range(4)]
    trend = tau_from_delta(deltas, d)
    assert trend.v_last == 7
    assert all(v == 7 for _, v in trend.sequence)
    assert all(dv == 0 for _, dv in trend.differences)


def test_delta_trend_doubles_under_direct_sum():
    d = 2
    base = [(n, 2 ** n, 2 ** n + 1) for n in range(4)]
    doubled = [(n, q, 2 * v) for n, q, v in base]
    t1 = tau_from_delta(base, d)
    t2 = tau_from_delta(doubled, d)
    assert t2.v_last == 2 * t1.v_last
    assert [v for _, v in t2.sequence] == [2 * v for _, v in t1.sequence]


def test_delta_trend_differences_are_O_one_over_q():
    # delta = 4 q^{d-1} + 9 q^{d-2}: v_n = 4 + 9/q, so the successive
    # differences scaled by q stay bounded (by 9(p-1) for the stored
    # index, which labels the later entry)
    d, p = 3, 3
    deltas = [(n, p ** n, 4 * p ** (2 * n) + 9 * p ** n) for n in range(6)]
    trend = tau_from_delta(deltas, d)
    scaled = [abs(dv) * p ** n for n, dv in trend.differences]
    assert max(scaled) <= 9 * (p - 1)


# -- gamma ----------------------------------------------------------------------------------

def test_gamma_zero_module():
    tor = [(n, 2 ** n, 0) for n in range(4)]
    est = gamma_estimate(tor, 2)
    assert est.gamma_last == 0


def test_gamma_hyperplane_is_one():
    tor = [(n, 2 ** n, 2 ** n) for n in range(1, 5)]
    est = gamma_estimate(tor, 2)
    assert est.gamma_last == 1
    assert all(v == 1 for _, v in est.sequence)


# -- dimension 0 ---------------------------------------------------------------------------

# F_3[x,y]/(x^2, y^3) with I = m: e_0 = 1, then the whole length 6
DIM0_SERIES = [(0, 1, 1), (1, 3, 6), (2, 9, 6)]


def test_dimension_zero_stays_exact():
    # at d = 0 the powers q^(d-1) and p^(d-1) have negative exponents,
    # taken over Fraction
    fit = fit_two_point(DIM0_SERIES, 0)
    assert (fit.alpha, fit.beta, fit.c_min) == (6, 0, 0)
    assert fit.residuals == ((0, -5), (1, 0), (2, 0))
    assert fit.per_window[0][2:] == (Fraction(17, 2), Fraction(-15, 2))
    est = tau_from_recurrence(DIM0_SERIES, 0, 3)
    assert est.sequence == ((0, 5), (1, 0))
    assert est.tau == 0 and est.beta_implied == 0
    assert tau_from_delta(DIM0_SERIES, 0).sequence == ((0, 1), (1, 18),
                                                       (2, 54))
    assert gamma_estimate([(n, 3 ** n, 0) for n in range(3)], 0) \
        .gamma_last == 0
    for value in [v for _, v in fit.residuals] + [est.beta_implied]:
        assert isinstance(value, Fraction)


# -- residual bounds ---------------------------------------------------------------------------

def test_residual_bound_exact_model():
    series = [(n, 2 ** n, 2 * 8 ** n + 5 * 4 ** n) for n in range(4)]
    assert residual_bound(series, Fraction(2), Fraction(5), 3) == 0


def test_residual_bound_determinantal():
    got = residual_bound(DET_SERIES, Fraction(13, 8), Fraction(-1, 4), 4)
    assert got == Fraction(5, 24)


def test_residual_bound_quartic_beta_zero():
    got = residual_bound(QUARTIC_SERIES, Fraction(168, 61), Fraction(0), 3)
    assert got == Fraction(321, 305)


def test_residual_bound_is_the_fit_constant():
    for series, d in ((DET_SERIES, 4), (QUARTIC_SERIES, 3)):
        fit = fit_two_point(series, d)
        assert residual_bound(series, fit.alpha, fit.beta, d) == fit.c_min


def test_fit_recovers_exact_data_to_full_precision():
    # exact alpha q^d + beta q^{d-1} inputs give exact rational recovery
    for alpha, beta, d, p in ((Fraction(7, 3), Fraction(-2, 9), 3, 3),
                              (Fraction(1), Fraction(0), 2, 2)):
        series = []
        for n in range(4):
            q = p ** n
            v = alpha * q ** d + beta * q ** (d - 1)
            if v.denominator == 1:
                series.append((n, q, int(v)))
        fit = fit_two_point(series, d)
        assert fit.alpha == alpha and fit.beta == beta
        assert fit.c_min == 0
