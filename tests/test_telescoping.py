import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betaimex import coeffs
from betaimex.certificates import telescoping, verify_certificate
from betaimex.cli import _beta_grid
from oracles import (RadicandError, circle_pairing_f, circle_pairing_h,
                     rounded_pairings, telescoping_coefficients,
                     telescoping_identity_check)

# shifts where the certificate holds, per order, and the bound on the
# identity's residual along a sequence, relative to max|sym(p q^T)| max|x|^2
CERTIFIED = {2: (1.0, 100.0), 3: (1.0, 100.0), 4: (2.0, 10.0), 5: (6.5, 10.0)}
SEQUENCE_TOL = {2: 1e-13, 3: 1e-13, 4: 1e-12, 5: 1e-10}


def _certified_grid(k, step=0.5):
    lo, hi = CERTIFIED[k]
    return np.arange(lo, hi + 1e-9, step)


def test_leading_coefficient_second_order_at_one():
    c = telescoping_coefficients(2, 1.0)
    assert c.leading_a == pytest.approx((4 - 2 * math.sqrt(3)) / 8, rel=1e-14)


def test_positivity_over_verified_range():
    for beta in np.arange(1.0, 100.001, 0.5):
        c2 = telescoping_coefficients(2, float(beta))
        c3 = telescoping_coefficients(3, float(beta))
        assert c2.leading_a > 0.0
        assert c3.leading_a > 0.0 and c3.leading_a_hat > 0.0


def test_all_values_real_and_finite():
    for beta in (1.0, 2.0, 10.0, 100.0):
        c = telescoping_coefficients(3, beta)
        for group in (c.a_form, c.d_form, c.intermediates):
            for name, value in group.items():
                assert math.isfinite(value), (beta, name)


def test_zero_sequence_residual_is_zero():
    assert telescoping_identity_check(2, 3.0, [0.0] * 8) == 0.0
    assert telescoping_identity_check(3, 3.0, [0.0] * 8) == 0.0


def test_short_sequences_rejected():
    with pytest.raises(ValueError):
        telescoping_identity_check(2, 2.0, [1.0, 2.0, 3.0])
    with pytest.raises(coeffs.OrderError):
        telescoping_identity_check(4, 2.0, [0.0] * 10)
    with pytest.raises(coeffs.OrderError):
        telescoping_coefficients(4, 2.0)


seq_strategy = st.lists(st.floats(min_value=-50, max_value=50,
                                  allow_nan=False, allow_infinity=False),
                        min_size=6, max_size=120)


@settings(max_examples=100, deadline=None)
@given(k=st.sampled_from((2, 3)), beta=st.sampled_from((1.0, 2.0, 5.0, 10.0)),
       seq=seq_strategy)
def test_identities_hold_on_random_sequences(k, beta, seq):
    residual = telescoping_identity_check(k, beta, seq)
    scale = max(1.0, max(abs(s) for s in seq)) ** 2
    assert residual <= 1e-10 * scale


def test_second_order_pairing_telescopes_double_product():
    # spot check of the normalisation: the expansion equals twice the
    # (A_2, C_2) pairing, while the (D_2, C_2) form matches it directly
    beta = 2.0
    rec = coeffs.scheme_coefficients(2, beta)
    a, _, c = rec.arrays()
    t = telescoping_coefficients(2, beta).a_form
    u, v, w = 0.3, -1.2, 0.7
    lhs = (a[2] * u + a[1] * v + a[0] * w) * (c[1] * u + c[0] * v)
    rhs = (t["a"] * (u * u - v * v)
           + (t["b"] * u + t["c"] * v) ** 2 - (t["b"] * v + t["c"] * w) ** 2
           + (t["d"] * u + t["e"] * v + t["f"] * w) ** 2)
    assert rhs == pytest.approx(2.0 * lhs, rel=1e-12)


def test_radicand_guard_fires_outside_verified_range():
    # the closed forms lose realness long past the verified window; the guard
    # must turn that into an explicit error instead of a NaN
    with pytest.raises(RadicandError):
        telescoping_coefficients(3, 1e6)
    with pytest.raises(ValueError):
        telescoping_coefficients(3, 0.5)


@settings(max_examples=100, deadline=None)
@given(k=st.sampled_from((2, 3, 4, 5)), where=st.floats(min_value=0.0, max_value=1.0),
       seq=st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                    min_size=6, max_size=60))
def test_energy_identities_hold_along_random_sequences(k, where, seq):
    lo, hi = CERTIFIED[k]
    beta = lo + where * (hi - lo)
    x = np.asarray(seq)
    assume(np.abs(x).max() > 0.0)
    x = x / np.abs(x).max()  # both sides are quadratic in x
    for (G, r), (p, q) in zip(telescoping(k, beta), rounded_pairings(k, beta)):
        m = len(r) - 1
        scale = np.abs(np.outer(p, q) + np.outer(q, p)).max() / 2
        for n in range(m, len(x)):
            levels = x[n - m:n + 1]
            lhs = (p @ levels) * (q @ levels)
            rhs = (levels[1:] @ G @ levels[1:] - levels[:-1] @ G @ levels[:-1]
                   + (r @ levels) ** 2)
            assert abs(lhs - rhs) <= SEQUENCE_TOL[k] * scale, (k, beta, n)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_factor_squares_to_the_circle_pairings(k):
    theta = np.linspace(0.0, 2 * np.pi, 181)
    z = np.exp(1j * theta)
    for beta in _certified_grid(k, 2.5):
        (_, r_a), (_, r_d) = telescoping(k, beta)
        for r, ref in ((r_a, circle_pairing_f(k, beta, theta)),
                       (r_d, circle_pairing_h(k, beta, theta))):
            squared = np.abs(np.polyval(r[::-1], z)) ** 2
            assert np.abs(squared - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0, 5.0, 10.0])
def test_third_order_G_is_the_printed_form(beta):
    # the printed (A_3, C_3) expansion has G-norm a u^2 + (b u + c v)^2
    # + (d u + e v + f w)^2 on (w, v, u), and its last square is the factor
    t = telescoping_coefficients(3, beta).a_form
    rows = np.array([[0.0, 0.0, math.sqrt(t["a"])], [0.0, t["c"], t["b"]],
                     [t["f"], t["e"], t["d"]]])
    (G, r), _ = telescoping(3, beta)
    assert np.abs(G - rows.T @ rows).max() <= 1e-13 * np.abs(G).max()
    printed_r = np.array([t["j"], t["i"], t["h"], t["g"]])
    assert np.allclose(r * np.sign(r @ printed_r), printed_r, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_G_is_positive_definite_where_certified(k):
    for beta in _certified_grid(k):
        for G, _ in telescoping(k, beta):
            assert np.linalg.eigvalsh(G).min() > 0.0, (k, beta)


@pytest.mark.parametrize("k, grid", [(4, "1:2.5:0.1"), (5, "5:7:0.1")])
def test_identity_fails_exactly_where_the_certificate_fails(k, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        failed = [b for b in _beta_grid(grid) if not verify_certificate(k, b).passed]
    raised = []
    for beta in _beta_grid(grid):
        try:
            telescoping(k, beta)
        except ValueError:
            raised.append(beta)
    assert raised == failed and 0 < len(failed) < len(_beta_grid(grid))


def test_telescoping_validates_order_and_shift():
    with pytest.raises(coeffs.OrderError):
        telescoping(6, 7.0)
    with pytest.raises(ValueError):
        telescoping(2, 0.5)
