import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaimex import coeffs
from betaimex.certificates import verify_certificate
from betaimex.integrate import ProblemSpec, initialize
from betaimex.stability import scan_region
from oracles import closed_form, vandermonde_record

BETA_GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def test_second_order_table():
    assert np.allclose(coeffs.scheme_coefficients(2, 1.0).a, [0.5, -2.0, 1.5])
    for beta in BETA_GRID:
        rec = coeffs.scheme_coefficients(2, beta)
        assert np.allclose(rec.b, [-(beta - 1), beta])
        assert np.allclose(rec.c, [-beta, beta + 1])


def test_printed_high_order_entries():
    assert coeffs.scheme_coefficients(4, 2.0).a[-1] == pytest.approx(77 / 12, rel=1e-14)
    assert np.allclose(coeffs.scheme_coefficients(3, 2.0).b, [1.0, -3.0, 3.0])
    assert np.allclose(coeffs.scheme_coefficients(4, 1.0).c, [-1.0, 4.0, -6.0, 4.0])


def test_classical_bdf3_at_beta_one():
    rec = closed_form(3, 1.0)
    assert np.allclose(rec.a, [-1 / 3, 3 / 2, -3.0, 11 / 6])


def test_closed_form_k2_beta5():
    rec = closed_form(2, 5.0)
    assert np.allclose(rec.a, [4.5, -10.0, 5.5])


def test_eta_values():
    def eta(k, beta):
        return coeffs._build(k, beta).eta

    assert eta(2, 2.0) == eta(3, 3.0) == eta(4, 5.0) == 0.5
    for k in coeffs.ORDERS:
        assert eta(k, 1.0) == 0.0
    assert eta(5, 6.5) == pytest.approx(5.5 / 21.5, rel=1e-15)


def test_split_examples():
    for beta in BETA_GRID:
        d = coeffs.scheme_coefficients(2, beta).d
        assert d[0] == pytest.approx(0.0, abs=1e-14)
        assert d[1] == pytest.approx(1.0 / beta, rel=1e-13)
    assert coeffs.scheme_coefficients(4, 2.0).d[0] == pytest.approx(-0.2, rel=1e-13)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("beta", BETA_GRID)
def test_vandermonde_matches_closed_form(k, beta):
    # the float record against the printed closed forms
    vd = coeffs.scheme_coefficients(k, beta)
    cf = closed_form(k, beta)
    for name in ("a", "b", "c", "d"):
        got = np.asarray(getattr(vd, name), dtype=float)
        want = np.asarray(getattr(cf, name), dtype=float)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_closed_form_exactly_matches_rational_vandermonde(k):
    # the two routes agree as rational numbers, not merely to tolerance
    for beta in (1, Fraction(3, 2), 2, 3, 5, 10):
        cf = closed_form(k, Fraction(beta))
        for vd in (coeffs.scheme_coefficients(k, Fraction(beta)),
                   vandermonde_record(k, Fraction(beta))):
            assert cf.a == vd.a and cf.b == vd.b and cf.c == vd.c
            assert cf.d == vd.d and cf.eta == vd.eta


@pytest.mark.parametrize("k", coeffs.ORDERS)
@pytest.mark.parametrize("beta", BETA_GRID)
def test_row_sums_and_splitting(k, beta):
    rec = coeffs.scheme_coefficients(k, beta)
    a, b, c = rec.arrays()
    d = np.asarray(rec.d, dtype=float)
    assert abs(a.sum()) <= 1e-13 * np.abs(a).max()
    assert b.sum() == pytest.approx(1.0, abs=1e-13 * max(1, np.abs(b).max()))
    assert c.sum() == pytest.approx(1.0, abs=1e-13 * max(1, np.abs(c).max()))
    assert np.abs(b - rec.eta * c - d).max() <= 1e-13 * max(1.0, np.abs(b).max())


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from(coeffs.ORDERS),
       beta=st.floats(min_value=1.0, max_value=20.0, allow_nan=False))
def test_difference_formulas_exact_on_monomials(k, beta):
    # a reproduces the derivative of t^m (m <= k) at the shifted point,
    # b and c reproduce the value of t^m (m <= k-1); all on unit-step nodes
    a, b, c = coeffs.scheme_coefficients(k, beta).arrays()
    target = beta + k - 1
    for m in range(k + 1):
        lhs = sum(a[q] * q ** m for q in range(k + 1))
        rhs = m * target ** (m - 1) if m else 0.0
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs), np.abs(a).max())
    for m in range(k):
        val = target ** m
        lb = sum(b[q] * (q + 1) ** m for q in range(k))
        lc = sum(c[q] * q ** m for q in range(k))
        assert abs(lb - val) <= 1e-10 * max(1.0, val, np.abs(b).max())
        assert abs(lc - val) <= 1e-10 * max(1.0, val, np.abs(c).max())


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from(coeffs.ORDERS),
       num=st.integers(min_value=1, max_value=400),
       den=st.integers(min_value=1, max_value=40))
def test_float_path_tracks_exact_path(k, num, den):
    beta = 1 + Fraction(num, den)
    rec = coeffs.scheme_coefficients(k, float(beta))
    ex = coeffs.scheme_coefficients(k, beta)
    for name in ("a", "b", "c"):
        got = np.asarray(getattr(rec, name), dtype=float)
        want = np.array([float(x) for x in getattr(ex, name)])
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("k", coeffs.ORDERS)
def test_float_entries_are_the_correctly_rounded_rationals(k):
    # d = b - eta*c included, which cancels to about 12 digits if formed in floats
    for beta in (1.0, 2.5, 7.0, 50.3, 85.0, 95.0, 100.0):
        rec = coeffs.scheme_coefficients(k, beta)
        exact = vandermonde_record(k, Fraction(beta))
        for name in ("a", "b", "c", "d"):
            assert getattr(rec, name) == tuple(float(x) for x in getattr(exact, name))


def test_rejects_bad_orders_and_shifts():
    with pytest.raises(coeffs.OrderError):
        coeffs.scheme_coefficients(6, 2.0)
    with pytest.raises(coeffs.OrderError):
        coeffs.scheme_coefficients(1, 2.0)
    with pytest.raises(ValueError):
        coeffs.scheme_coefficients(2, float("nan"))
    with pytest.raises(ValueError):
        coeffs.scheme_coefficients(2, 0.5)
    with pytest.raises(coeffs.OrderError):
        closed_form(5, 7.0)


@pytest.mark.parametrize("k,beta", [(5, 1e78), (3, 1e160), (2, 1.7e308)])
def test_a_float_record_past_the_float_range_names_its_scheme(k, beta):
    # the rational record exists; only its rounding to floats overflows
    with pytest.raises(ValueError, match=re.escape(
            f"order k={k} at shift beta={beta!r} has a weight beyond the float range")):
        coeffs.scheme_coefficients(k, beta)
    exact = coeffs.scheme_coefficients(k, Fraction(beta))
    assert max(abs(w) for w in exact.a) > sys.float_info.max


@pytest.mark.parametrize("k", [2.0, 3.0, 1.0, True])
def test_an_order_that_is_not_an_integer_is_refused(k):
    # 2.0 == 2, but an order is an integer; the entry points that check the
    # order refuse it before any arithmetic
    with pytest.raises(coeffs.OrderError, match=f"order k={k} is not supported"):
        coeffs.scheme_coefficients(k, 3.0)


def test_a_numpy_integer_order_is_an_order():
    assert coeffs.scheme_coefficients(np.int64(3), 3.0) == coeffs.scheme_coefficients(3, 3.0)


def test_first_order_integer_record_is_backward_euler():
    # the solver's k = 1 baseline is read off the same integer record; the
    # public entry points still refuse k = 1
    assert coeffs._integer_record(1, Fraction(1)) == (([-1, 1], 1), ([1], 1), ([1], 1), ([1], 1))
    rec = coeffs._build(1, 1.0)
    assert (rec.a, rec.b, rec.c, rec.d) == ((-1.0, 1.0), (1.0,), (1.0,), (1.0,))
    assert type(rec.eta) is float and rec.eta == 0.0
    assert 1 not in coeffs.ORDERS
    with pytest.raises(coeffs.OrderError):
        coeffs.scheme_coefficients(1, 1.0)


def test_admissibility_warning_is_emitted_not_enforced():
    with pytest.warns(UserWarning, match="beta >= 2"):
        rec = coeffs.scheme_coefficients(4, 1.5)
    assert rec.k == 4
    with pytest.warns(UserWarning, match="6.5"):
        coeffs.scheme_coefficients(5, 2.0)


def test_admissibility_warning_names_the_caller():
    # however deep inside the package the check runs, the warning points at
    # the caller's line, not at library internals
    spec = ProblemSpec(linear_symbol=np.zeros(1), u0=np.zeros(1))
    calls = (lambda: coeffs.scheme_coefficients(4, 1.0),
             lambda: scan_region(4, 1.0, resolution=(8, 8)),
             lambda: verify_certificate(4, 1.0),
             lambda: initialize(spec, 4, 1.0, 0.1))
    for call in calls:
        with pytest.warns(UserWarning, match="beta >= 2") as record:
            call()
        assert [w.filename for w in record] == [__file__]
