import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from betaimex import coeffs
from betaimex.polynomials import (_roots_inside_unit_disk, real_critical_points, roots,
                                  sylvester_resultant)
from oracles import (certificate_polynomials, min_on_interval, sylvester_determinant,
                     sylvester_matrix)


def test_trimming_and_degree():
    # trailing coefficients below 1e-14 of the largest do not count: degree 1
    assert np.allclose(roots([1.0, 2.0, 0.0, 1e-17]), [-0.5])
    assert real_critical_points([1.0, 2.0, 0.0, 1e-17]) == []
    with pytest.raises(ValueError):
        roots([0.0, 0.0])  # degree 0


def test_critical_points_stop_at_cubic_derivatives():
    with pytest.raises(ValueError, match="at most cubic"):
        real_critical_points([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])


def test_critical_points_of_a_nearly_triple_root():
    # p' = y^2 (4 y + 1.3e-129): the depressed cubic's p * m underflows to 0
    crit = real_critical_points([0.0, 0.0, 0.0, 4.470489606421552e-130, 1.0])
    assert len(crit) == 3 and max(abs(x) for x in crit) < 1e-100


def test_critical_points_of_widely_spread_roots():
    # p' = 2y + 3y^2 + 2.4e-7 y^3 has roots 0, -2/3 and about -1.26e7: the
    # trigonometric closed form alone put the root at 0 near -6.5e-4, so the
    # minimum of p on [-1, 1], 0 at y = 0, was missed
    crit = sorted(real_critical_points([0.0, 0.0, 1.0, 1.0, 5.960464477539063e-08]))
    assert crit[0] == pytest.approx(-12582911.33, rel=1e-9)
    assert crit[1] == pytest.approx(-2 / 3, rel=1e-6) and abs(crit[2]) < 1e-15


def test_roots_difference_of_squares():
    r = sorted(roots([-1.0, 0.0, 1.0]).real)
    assert np.allclose(r, [-1.0, 1.0])


def test_explicit_polynomial_root_examples():
    # single root of the k=2 explicit polynomial at beta/(beta+1)
    c = coeffs.scheme_coefficients(2, 3.0).c
    r = roots(c)
    assert len(r) == 1 and r[0].real == pytest.approx(0.75, rel=1e-12)
    # k=3: complex pair with squared modulus beta/(beta+2)
    c = coeffs.scheme_coefficients(3, 2.0).c
    r = roots(c)
    assert np.allclose(np.abs(r) ** 2, 0.5, rtol=1e-10)


def test_stacked_roots_equal_each_rows_own_call():
    # two cubics, one with complex roots and one with real roots, share an
    # eigensolve; the second row trims to a quadratic, the fourth to degree 1
    rows = [[0.5, -0.3, 0.2, 1.0], [2.0, -1.0, 1.0, 1e-17], [-6.0, 11.0, -6.0, 1.0],
            [1.0, 2.0, 0.0, 0.0], [-1.0, 0.0, 1.0, 0.0]]
    stacked = roots(rows)
    assert len(stacked) == len(rows)
    for row, got in zip(rows, stacked):
        want = roots(row)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the huge root of this row misses the residual guard, alone or stacked
    bad = [-1e-3, 1.0, 1e-11, 0.0]
    with pytest.raises(ArithmeticError, match="root residual") as alone:
        roots(bad)
    with pytest.raises(ArithmeticError) as among:
        roots(rows[:3] + [bad])
    assert str(among.value) == str(alone.value)


def test_roots_rejects_constant():
    with pytest.raises(ValueError):
        roots([3.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=5,
                unique_by=lambda r: round(r, 1)))
def test_roots_round_trip(real_roots):
    # separated roots only: clustered roots are ill-conditioned by nature
    assume(min([1.0] + [abs(a - b) for i, a in enumerate(real_roots)
                        for b in real_roots[i + 1:]]) > 0.05)
    got = sorted(roots(np.poly(real_roots)[::-1]).real)
    assert np.allclose(sorted(real_roots), got, atol=1e-7 * max(1, np.abs(real_roots).max()))


def test_sylvester_common_root_gives_zero():
    assert sylvester_resultant([-1, 1], [-1, 1]) == 0


def test_sylvester_matches_printed_second_order_value():
    for beta in (1, 2, 5, Fraction(7, 2)):
        rec = coeffs.scheme_coefficients(2, Fraction(beta))
        assert sylvester_resultant(list(rec.a), list(rec.c)) == Fraction(-1, 2)
        assert sylvester_resultant(list(rec.d), list(rec.c)) == Fraction(-1)


def test_sylvester_printed_fourth_order_example():
    rec = coeffs.scheme_coefficients(4, Fraction(2))
    assert sylvester_resultant(list(rec.d), list(rec.c)) == Fraction(-16)


def test_unit_disk_check_on_and_outside_the_circle():
    assert _roots_inside_unit_disk([1, -2])  # 1/2
    assert _roots_inside_unit_disk([1, 0, 4])  # +-i/2
    assert _roots_inside_unit_disk([0, 0, 3])  # double root at 0
    assert _roots_inside_unit_disk([7])  # no roots
    assert not _roots_inside_unit_disk([-1, 0, 1])  # +-1
    assert not _roots_inside_unit_disk([1, 1])  # -1
    assert not _roots_inside_unit_disk([1, 0, 1])  # +-i
    assert not _roots_inside_unit_disk([2, -3, 1])  # 1 and 2
    assert not _roots_inside_unit_disk([-2, 1])  # 2
    # (4z - 1)(z - 1): one root inside, one on the circle
    assert not _roots_inside_unit_disk([1, -5, 4])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=6))
def test_unit_disk_check_matches_the_root_moduli(p):
    assume(p[-1] != 0)
    mods = np.abs(roots(p))
    assume(np.abs(mods - 1.0).min() > 1e-3)
    assert _roots_inside_unit_disk(p) == bool(mods.max() < 1.0)


# Miller's closed-disk rule: every root in |w| <= 1, those on the circle
# simple.  A Gaussian integer is an (re, im) pair.
@pytest.mark.parametrize("p,holds", [
    ([1, -2, 1], False),  # (w - 1)^2
    ([1, 0, 1], True),  # w^2 + 1
    ([1, -2, -1, 2], True),  # (2w - 1)(w^2 - 1)
    ([-1, 4, -5, 2], False),  # (2w - 1)(w - 1)^2
    ([2, -5, 2], False),  # 2w^2 - 5w + 2: self-inversive, roots 2 and 1/2
    ([(0, -1), 1], True),  # w - i
    ([-1, (0, 2), 1], False),  # (w + i)^2
    ([(-1, -1), 2], True),  # 2w - (1 + i)
    ([-(10**9 + 1), 10**9], False),  # a root 1e-9 outside the circle
    ([0, 1, 0], False),  # vanishing leading coefficient: a root at infinity
])
def test_root_condition_on_planted_polynomials(p, holds):
    assert _roots_inside_unit_disk(p, closed=True) is holds


# planted roots p / q as ((re, im), q): inside, on and outside the unit circle
PLANTED_ROOTS = [((0, 0), 1), ((1, 1), 2), ((-1, 2), 3), ((1, 0), 1), ((-1, 0), 1),
                 ((0, 1), 1), ((3, 4), 5), ((4, -3), 5), ((2, 1), 2), ((-3, 0), 2)]


def _times(p, root):
    # p(w) * (q w - r) on (re, im) pairs
    (rr, ri), q = root
    out = [(0, 0)] * (len(p) + 1)
    for i, (x, y) in enumerate(p):
        a, b = out[i]
        out[i] = (a - (rr * x - ri * y), b - (rr * y + ri * x))
        a, b = out[i + 1]
        out[i + 1] = (a + q * x, b + q * y)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(PLANTED_ROOTS), min_size=1, max_size=5))
def test_unit_disk_checks_match_planted_roots(planted):
    p = [(1, 0)]
    for root in planted:
        p = _times(p, root)
    moduli = [(r * r + i * i) - q * q for (r, i), q in planted]  # sign of |root| - 1
    on_circle = [root for root, m in zip(planted, moduli) if m == 0]
    assert _roots_inside_unit_disk(p) is (max(moduli) < 0)
    assert _roots_inside_unit_disk(p, closed=True) is (
        max(moduli) <= 0 and len(set(on_circle)) == len(on_circle))


def test_sylvester_matrix_shape():
    # the oracle's matrix: deg 2 and deg 1 give 3 x 3
    rows = sylvester_matrix([1, 2, 3], [4, 5])
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _gcd_degree(p, q):
    # Euclidean remainder sequence over the rationals
    a, b = [Fraction(x) for x in p], [Fraction(x) for x in q]

    def trim(u):
        while len(u) > 1 and u[-1] == 0:
            u.pop()
        return u

    a, b = trim(a), trim(b)
    while len(b) > 1 or b[0] != 0:
        while len(a) >= len(b) and (len(a) > 1 or a[0] != 0):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[i + shift] -= factor * bi
            a = trim(a)
            if len(a) == 1 and a[0] == 0:
                break
        a, b = b, a
        b = trim(b)
    return len(a) - 1


small_coeff = st.integers(min_value=-4, max_value=4)


@settings(max_examples=50, deadline=None)
@given(p=st.lists(small_coeff, min_size=2, max_size=4),
       q=st.lists(small_coeff, min_size=2, max_size=4),
       shared=st.booleans(), root=st.integers(min_value=-3, max_value=3),
       cast=st.sampled_from((int, float)), pad_p=st.integers(0, 2),
       pad_q=st.integers(0, 2))
def test_resultant_zero_iff_common_factor(p, q, shared, root, cast, pad_p, pad_q):
    pf = [Fraction(x) for x in p]
    qf = [Fraction(x) for x in q]
    if pf[-1] == 0 or qf[-1] == 0:
        return
    if shared:
        lin = [Fraction(-root), Fraction(1)]
        pf, qf = _poly_mul(pf, lin), _poly_mul(qf, lin)
    res = sylvester_resultant(pf, qf)
    assert (res == 0) == (_gcd_degree(pf, qf) >= 1)
    assert res == sylvester_determinant(pf, qf)
    # the same integer pair as ints or floats, padded with trailing zeros
    pc = [cast(x) for x in pf] + [cast(0)] * pad_p
    qc = [cast(x) for x in qf] + [cast(0)] * pad_q
    assert sylvester_resultant(pc, qc) == res == sylvester_determinant(pc, qc)


# pairs whose remainder sequence has a degree gap delta >= 2, in its first or
# a later step, so the subresultant PRS divides by g * h^delta with delta >= 2;
# the fifth pair shares the factor x - 1 and carries trailing zeros
GAP_PAIRS = [
    ([1, 2, 0, 0, 0, 1], [0, 1, 0, 1]),               # x^5+2x+1, x^3+x -> 3x+1
    ([3, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 1]),         # x^7+3, x^3+1 -> x+3
    ([5, 0, 0, 0, 1], [2, 0, 0, 0, 0, 0, 0, 0, 1]),   # degree 4 against 8
    ([1, 0, -1, 0, 0, 0, 0, 1], [0, -1, 0, 0, 1, 1]),  # degrees 7, 5, 4, 2: gap in step 2
    ([-2, 2, 0, -1, 1, 0, 0], [-3, 2, 0, 1]),          # common factor x-1, trailing zeros
    ([7, -3], [2, 0, 0, 0, 5]),                        # degree 1 against 4
]


@pytest.mark.parametrize("p, q", GAP_PAIRS)
@pytest.mark.parametrize("cast", [int, float, lambda x: Fraction(x, 3)])
def test_subresultant_prs_equals_the_determinant(p, q, cast):
    pc, qc = [cast(x) for x in p], [cast(x) for x in q]
    for a, b in ((pc, qc), (qc, pc)):
        assert sylvester_resultant(a, b) == sylvester_determinant(a, b)


sparse_coeff = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))


@settings(max_examples=150, deadline=None)
@given(p=st.lists(sparse_coeff, min_size=2, max_size=7),
       q=st.lists(sparse_coeff, min_size=2, max_size=7),
       den_p=st.integers(1, 6), den_q=st.integers(1, 6))
def test_subresultant_prs_matches_determinant_on_random_pairs(p, q, den_p, den_q):
    # sparse coefficients make degree gaps common; denominators exercise the
    # scaling by L_p^deg(q) * L_q^deg(p)
    pf = [Fraction(x, den_p) for x in p]
    qf = [Fraction(x, den_q) for x in q]
    assume(any(pf[1:]) and any(qf[1:]))
    assert sylvester_resultant(pf, qf) == sylvester_determinant(pf, qf)
    assert sylvester_resultant(qf, pf) == sylvester_determinant(qf, pf)


def test_min_on_interval_examples():
    f2, _ = certificate_polynomials(2, 2.0)
    x, v = min_on_interval(f2, -1.0, 1.0)
    assert x == 1.0 and v == pytest.approx(2.0, abs=1e-12)
    # the fourth-order cubic at beta = 1: value 18 at the endpoint, interior
    # minimum slightly below it
    f4, _ = certificate_polynomials(4, 1.0)
    assert f4(1.0) == pytest.approx(18.0, abs=1e-12)
    x, v = min_on_interval(f4, -1.0, 1.0)
    assert x == pytest.approx(0.95982716681319716, rel=1e-10)
    assert v == pytest.approx(17.937406755415196, rel=1e-12)


def test_min_on_interval_constant_poly():
    p = Polynomial([5.0])
    assert min_on_interval(p, -2.0, 3.0) == (-2.0, 5.0)


def test_min_on_interval_requires_ordering():
    with pytest.raises(ValueError):
        min_on_interval(Polynomial([1.0, 1.0]), 2.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=6),
       st.floats(min_value=-2, max_value=0.5), st.floats(min_value=0.6, max_value=2.5))
def test_min_on_interval_beats_dense_sampling(cs, lo, hi):
    p = Polynomial(cs)
    x, v = min_on_interval(p, lo, hi)
    ys = p(np.linspace(lo, hi, 10_000))
    assert v <= ys.min() + 1e-9 * max(1.0, np.abs(ys).max())
    assert lo <= x <= hi
