import math
import random
import warnings
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaimex import certificates as cert
from betaimex import coeffs
from betaimex.polynomials import horner, sylvester_resultant
from betaimex.cli import GRID_BLOCK, _beta_grid
from oracles import (ETA_TILDE, F_SCALE, _f_coeffs, _h_coeffs, certificate_polynomials,
                     circle_pairing_f, circle_pairing_h, classical_condition,
                     fraction_report, g4_polynomial, printed_resultants,
                     sylvester_determinant, vandermonde_record)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

BETA_GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0)


def test_printed_anchor_values():
    f4, h4 = certificate_polynomials(4, 1.0)
    f3, _ = certificate_polynomials(3, 1.0)
    assert f4(1.0) == 18.0
    assert f3(1.0) == 6.0
    assert g4_polynomial(1.0)(1.0) == 51.0
    assert h4(0.2) == pytest.approx(-0.312, abs=1e-15)


def test_f4_at_one_is_shift_independent():
    for beta in BETA_GRID:
        fr = [Fraction(c) for c in _f_coeffs(4, Fraction(beta))]
        assert sum(fr) == 18


def test_h4_at_one_closed_form():
    for beta in BETA_GRID:
        fr = [Fraction(c) for c in _h_coeffs(4, Fraction(beta))]
        assert sum(fr) == Fraction(4) / (Fraction(beta) + 3)


def test_g4_positive_with_negative_discriminant():
    for beta in BETA_GRID:
        w0, w1, w2, _ = _f_coeffs(4, beta)
        disc = 4 * w1 ** 2 - 12 * w2 * w0
        assert disc < 0.0
        g = g4_polynomial(beta)
        ys = np.linspace(-1, 1, 201)
        assert (g(ys) > 0).all()


def test_certificate_passes_and_failures():
    assert cert.verify_certificate(4, 2.0).passed
    assert cert.verify_certificate(2, 1.0).passed
    rep = cert.verify_certificate(4, 1.0)
    assert not rep.passed
    y, value = rep.failure_witness
    assert y == pytest.approx(0.2257081148, rel=1e-6)
    assert value == pytest.approx(-0.3155651547, rel=1e-8)


def test_report_fields_second_order():
    rep = cert.verify_certificate(2, 1.0)
    assert rep.resultant_AC == pytest.approx(-0.5, rel=1e-12)
    assert rep.resultant_DC == pytest.approx(-1.0, rel=1e-12)
    assert rep.max_root_modulus_C == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_resultants_match_printed_closed_forms(k):
    for beta in BETA_GRID:
        B = Fraction(beta)
        rec = coeffs.scheme_coefficients(k, B)
        ac = sylvester_resultant(list(rec.a), list(rec.c))
        dc = sylvester_resultant(list(rec.d), list(rec.c))
        ac_ref, dc_ref = printed_resultants(k, B)
        assert ac == ac_ref and dc == dc_ref
        # the float reports stay within 1e-10 relative of the same values
        rep = cert.verify_certificate(k, beta)
        assert rep.resultant_AC == pytest.approx(float(ac_ref), rel=1e-10)
        assert rep.resultant_DC == pytest.approx(float(dc_ref), rel=1e-10)


# Fraction shifts on [1, 100]; k = 5 also below 1, which its certificate covers
RESULTANT_BETAS = ([Fraction(n, 4) for n in range(4, 41)]
                   + [Fraction(n, 10) for n in (123, 255, 499, 731, 1000)])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_resultants_equal_the_sylvester_determinant(k):
    betas = RESULTANT_BETAS + ([Fraction(n, 10) for n in range(10)] if k == 5 else [])
    for B in betas:
        rec = coeffs._build(k, B)
        for p in (rec.a, rec.d):
            assert sylvester_resultant(p, rec.c) == sylvester_determinant(p, rec.c)


RECORD_BETAS = (0.1, 0.30000000000000004, 1.0, 6.5, 100.0)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_integer_record_equals_the_fraction_record(k):
    rng = random.Random(k)
    betas = RECORD_BETAS + ((0.0,) if k == 5 else ()) + tuple(
        rng.uniform(0.0, 100.0) for _ in range(20))
    for beta in betas:
        B = Fraction(beta)
        rec = vandermonde_record(k, B)
        assert coeffs._build(k, B) == rec
        integer = coeffs._integer_record(k, B)
        for ref, (nums, den) in zip((rec.a, rec.b, rec.c, rec.d), integer):
            assert den > 0 and all(type(x) is int for x in nums)
            assert [Fraction(x, den) for x in nums] == list(ref)


# shifts where the roots of C~ crowd the unit circle: the float eigensolve
# puts the largest on or outside it, the exact root condition holds
CROWDED_SHIFTS = {2: [1e16], 3: [1e9], 4: [1e6], 5: []}


# every 37th report of `verify --k 5 --grid 0:100:0.1`, every 53rd of
# `verify --k 2|3|4 --grid 1:100:0.1`, and the crowded shifts
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_reports_equal_the_fraction_oracle(k):
    crowded = CROWDED_SHIFTS[k]
    betas = _beta_grid("0:100:0.1")[::37] if k == 5 else _beta_grid("1:100:0.1")[::53]
    reports = [cert.verify_certificate(k, b) for b in betas + crowded]
    assert reports == [fraction_report(k, b) for b in betas + crowded]
    assert all(r.passed for r in reports[len(betas):])


def _non_dyadic_shifts(rng, count):
    shifts = []
    while len(shifts) < count:
        B = Fraction(rng.randrange(1, 10 ** rng.randrange(1, 25)), rng.randrange(3, 10 ** 6))
        if B.denominator & (B.denominator - 1):
            shifts.append(B)
    return shifts


# every shift of `verify --k 5 --grid 0:100:0.1`, every 10th of
# `verify --k 2|3|4 --grid 1:100:0.1`, shifts n/D with D not a power of two,
# the crowded shifts and 1e30
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_report_forms_equal_the_route_integer_for_integer(k):
    grid = _beta_grid("0:100:0.1") if k == 5 else _beta_grid("1:100:0.1")[::10]
    crowded = [b for shifts in CROWDED_SHIFTS.values() for b in shifts] + [1e30]
    shifts = ([Fraction(b) for b in grid + crowded]
              + _non_dyadic_shifts(random.Random(k), 25))
    for B, values in zip(shifts, cert._evaluate(cert._forms(k), shifts)):
        assert all(type(x) is int for group in values for x in group)
        assert values == cert._route(k, B), (k, B)


def test_horner_at_an_integer_q_is_the_homogeneous_form():
    # the report forms are evaluated by `horner(F, n, D)`, which must equal
    # D^deg F times the value at n / D
    for B in (Fraction(3602879701896397, 1 << 55), Fraction(7, 3), Fraction(638, 100),
              Fraction(10 ** 30)):
        n, D = B.numerator, B.denominator
        for group in cert._forms(5):
            for F in group:
                got = horner(F, n, D)
                assert type(got) is int
                assert got == horner(F, Fraction(n, D)) * D ** (len(F) - 1)


def test_report_forms_have_the_stated_degrees():
    for k in (2, 3, 4, 5):
        degrees = [{len(F) - 1 for F in group} for group in cert._forms(k)]
        assert degrees == [{k - 1}, {k - 1}, {k}, {2 * k - 2}, {2 * k - 1},
                           {(k - 1) * (2 * k - 1)}]


def test_leading_coefficient_forms_are_positive_at_every_nonnegative_shift():
    # nonnegative coefficients and a positive D^e term: each of a's, C~'s and
    # d's leading coefficients is positive at every beta = n/D >= 0, so the
    # report's guard cannot fire on any order's domain
    for k in (2, 3, 4, 5):
        c, a, d = (group[i] for group, i in zip(cert._forms(k), (-2, 0, 0)))
        assert all(min(F) >= 0 and F[0] > 0 for F in (a, c, d)), k


@pytest.mark.parametrize("k, beta", [(5, Fraction(-1)), (5, Fraction(-1, 3)),
                                     (2, Fraction(-1, 2)), (3, Fraction(-1)),
                                     (4, Fraction(-3, 2))])
def test_report_forms_refuse_a_vanishing_leading_coefficient(k, beta):
    # c's, d's and a's leading coefficient vanish here, outside every order's
    # domain: the resultants' denominators assume the full degrees, and the
    # forms' formal Sylvester determinants differ from the route's trimmed
    # resultants, so a block from either source refuses the shift, alone or
    # between shifts it would report
    route, values = cert._route(k, beta), cert._evaluate(cert._forms(k), [beta])[0]
    assert not (route[0][-2] and route[1][0] and route[2][0])
    assert values[:5] == route[:5] and values[5] != route[5]
    for forms in (None, cert._forms(k)):
        for block in ([beta], [Fraction(7), beta, Fraction(8)]):
            with pytest.raises(ArithmeticError, match=f"vanishes at beta = {beta},"):
                cert._build_reports(k, block, forms)


# beta = 0 has Res(D, C) = 0; 1e30 is far past every grid; the last two open
# the second block of `verify --k 5 --grid 0:100:0.1` and of
# `verify --k 3 --grid 1:100:0.1`
@pytest.mark.parametrize("k, beta", [(5, 0.0), (5, 6.38), (5, 100.0), (4, 1e30),
                                     (5, _beta_grid("0:100:0.1")[GRID_BLOCK]),
                                     (3, _beta_grid("1:100:0.1")[GRID_BLOCK])])
def test_route_and_forms_give_one_report(k, beta):
    report = cert._build_reports(k, [beta])[0]
    assert report == cert._build_reports(k, [beta], cert._forms(k))[0]
    assert (report.resultant_DC == 0.0) == (beta == 0.0)
    # a grid's blocks, the boundary before beta, equal the per-shift reports
    grid = _beta_grid("0:100:0.1" if k == 5 else "1:100:0.1")
    if beta in grid:
        i = grid.index(beta)
        below, above = grid[max(0, i - 3):i], grid[i:i + 3]
        blocks = [cert._build_reports(k, block, cert._forms(k))
                  for block in (below, above) if block]
        assert sum(blocks, []) == [cert._build_reports(k, [b])[0] for b in below + above]


def test_one_shift_runs_the_route_and_builds_no_forms(monkeypatch):
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return sylvester_resultant(p, q)

    monkeypatch.setattr(cert, "sylvester_resultant", counted)
    cert._forms.cache_clear()
    report = cert.verify_certificate(5, 7.0)
    assert len(calls) == 2 and cert._forms.cache_info().currsize == 0
    calls.clear()
    assert cert._build_reports(5, [7.0], cert._forms(5)) == [report]
    built = len(calls)
    cert._build_reports(5, [8.0, 9.0], cert._forms(5))
    assert built > 0 and len(calls) == built


def test_report_forms_raise_where_they_disagree_with_the_route(monkeypatch):
    # a form taken one degree too high is D times the true one: it agrees at
    # every node, where D = 1, and differs at the check shifts, where D > 1
    real = cert._interpolate
    monkeypatch.setattr(cert, "_interpolate", lambda xs, ys: (*real(xs, ys), 0))
    cert._forms.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="order-5 report forms differ"):
            cert._forms(5)
    finally:
        cert._forms.cache_clear()


def test_report_verdict_survives_a_minimum_that_rounds_to_zero(monkeypatch):
    # an exactly negative minimum below the float range prints as -0.0, which
    # compares >= 0.0; the verdict must still come out negative
    monkeypatch.setattr(cert, "_certified_min", lambda nums, den: (0.5, (-1, 10 ** 400)))
    report = cert.verify_certificate(2, 3.0)
    assert report.min_f == report.min_h == 0.0 and math.copysign(1.0, report.min_f) < 0
    assert not report.passed and report.failure_witness == (0.5, -0.0)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_certificate_polynomials_equal_the_printed_forms(k):
    # every shift of the CLI grids, exactly as the reports take them
    grid = _beta_grid("0:100:0.1" if k == 5 else "1:100:0.1")
    for B in [Fraction(b) for b in grid] + [Fraction(5, 2), Fraction(10 ** 6)]:
        a, _, c, d = coeffs._integer_record(k, B)
        f, h = cert._certificate_polynomials(k, a, c, d)
        for (nums, den), printed in ((f, _f_coeffs(k, B)), (h, _h_coeffs(k, B))):
            assert den > 0 and all(type(x) is int for x in nums)
            assert [Fraction(x, den) for x in nums] == [Fraction(p) for p in printed], (k, B)


def test_k5_minima_take_their_critical_points_from_rounded_coefficients():
    # recorded with critical points from the correctly rounded coefficients; the
    # float evaluation of the printed forms moved each by an ulp or more
    betas = [20.3, 21.200000000000003, 15.100000000000001, 17.2, 0.9, 1.1]
    assert set(betas) <= set(_beta_grid("0:100:0.1"))
    by_beta = {b: cert.verify_certificate(5, b) for b in betas}
    assert by_beta[20.3].min_f.hex() == "0x1.a715b40b4de88p+7"
    assert by_beta[21.200000000000003].min_f.hex() == "0x1.a6e4415d28c19p+7"
    assert by_beta[15.100000000000001].min_h.hex() == "0x1.43e30571d005bp-4"
    assert by_beta[17.2].min_h.hex() == "0x1.452f6928006e1p-4"
    assert by_beta[0.9].failure_witness[0].hex() == "-0x1.953c4befa3159p-2"
    assert by_beta[1.1].failure_witness[0].hex() == "0x1.cbaab482a01b0p-6"


def _exact_min(poly):
    # minimum over [-1, 1] of a Fraction polynomial: the real critical points
    # of its float copy, refined by three Newton steps in Fractions
    d1 = [i * x for i, x in enumerate(poly)][1:]
    d2 = [i * x for i, x in enumerate(d1)][1:]
    values = [horner(poly, Fraction(-1)), horner(poly, Fraction(1))]
    for z in Polynomial([float(x) for x in poly]).deriv().roots():
        if abs(z.imag) < 1e-9 and -1.0 < z.real < 1.0:
            y = Fraction(z.real)
            for _ in range(3):
                y -= horner(d1, y) / horner(d2, y)
            values.append(horner(poly, y))
    return min(values)


def test_k5_min_h_is_accurate_at_large_shifts():
    # near beta = 100 the coefficients of h_5 cancel heavily, so they must be
    # rounded once from their exact values: evaluated in floats from the
    # printed forms they put min_h 7e-8 away from the exact minimum
    grid = _beta_grid("0:100:0.1")
    for target in (97.4, 97.8):
        beta = min(grid, key=lambda b: abs(b - target))
        exact = _exact_min([Fraction(x) for x in _h_coeffs(5, Fraction(beta))])
        assert abs(cert.verify_certificate(5, beta).min_h - exact) <= 2e-8 * abs(exact)


def test_k5_printed_resultant_example():
    rec = coeffs.scheme_coefficients(5, Fraction(1))
    assert sylvester_resultant(list(rec.d), list(rec.c)) == 1


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from((2, 3, 4, 5)),
       beta=st.floats(min_value=1.0, max_value=10.0),
       theta=st.floats(min_value=0.0, max_value=2 * math.pi))
def test_circle_pairings_match_certificate_polynomials(k, beta, theta):
    # the closed-form f/h against the coefficient-built circle quantities
    f, h = certificate_polynomials(k, beta)
    y = math.cos(theta)
    ref_f = circle_pairing_f(k, beta, theta)
    ref_h = circle_pairing_h(k, beta, theta)
    scale_f = max(1.0, max(abs(c) for c in f.coef))
    scale_h = max(1.0, max(abs(c) for c in h.coef))
    assert abs((1 - y) * f(y) / F_SCALE[k] - ref_f) <= 1e-9 * scale_f
    assert abs(h(y) - ref_h) <= 1e-9 * scale_h


def test_k5_range_sampled():
    betas = [0.0, 0.5, 1.0, 5.0, 6.5, 50.0, 100.0]
    reports = [cert.verify_certificate(5, b) for b in betas]
    assert [r.beta for r in reports] == betas
    assert all(r.max_root_modulus_C < 1.0 for r in reports)
    by_beta = {r.beta: r for r in reports}
    assert by_beta[1.0].min_h < 0.0 and by_beta[5.0].min_h < 0.0
    assert by_beta[6.5].min_h >= 0.0 and by_beta[100.0].min_h >= 0.0
    assert all(r.min_f >= -1e-9 for r in reports if r.beta >= 1.0)


def test_k5_range_rejects_out_of_range():
    # one domain for k = 5, beta in [0, 100], whoever asks
    for beta in (150.0, -0.5, 100.5, float("nan")):
        with pytest.raises(ValueError, match=r"within \[0, 100\]"):
            cert.verify_certificate(5, beta)


def test_k5_reports_take_no_admissibility_warning():
    # the report itself says whether beta is admissible; below 1 it is still
    # within the range of the root-modulus claim
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = cert.verify_certificate(5, 0.5)
    assert rep.beta == 0.5 and not rep.passed and rep.max_root_modulus_C < 1.0


def test_stability_condition_examples():
    margin, ok = cert.stability_condition(4, 5.0, 0.25)
    assert margin == 0.0 and not ok
    margin, ok = cert.stability_condition(2, 2.0, 0.0)
    assert margin == 0.5 and ok
    margin, ok = cert.stability_condition(3, 3.0, 0.04)
    assert margin == pytest.approx(0.3, abs=1e-15) and ok


def test_classical_condition_constants():
    assert ETA_TILDE == {2: 0.0, 3: 0.0836, 4: 0.2878}
    sums = {k: float(np.abs(coeffs.scheme_coefficients(k, 1.0).c).sum()) for k in (2, 3, 4)}
    assert sums == {2: 3.0, 3: 7.0, 4: 15.0}
    lhs, rhs, ok = classical_condition(2, 0.0)
    assert (lhs, rhs, ok) == (1.0, 0.0, True)
    lhs, rhs, ok = classical_condition(4, 0.01)
    assert lhs == pytest.approx(1 - 0.2878)
    assert rhs == pytest.approx(math.sqrt(15 * 0.01 * (1 + 0.2878 ** 2)), rel=1e-12)
