"""Machine checks for the energy-multiplier certificates of the shifted schemes.

For each order k the explicit combination C_k acts as a uniform multiplier.
The certificate has four ingredients, all checked numerically here:

  * the Sylvester resultants of (A~, C~) and (D~, C~) are nonzero, so the
    characteristic polynomials share no factor;
  * every root of C~ lies strictly inside the unit disk (decided exactly by
    the Schur-Cohn reduction; the reported modulus is a float estimate);
  * the real part of A~(z) / (z C~(z)) on the unit circle reduces, with
    y = cos(theta), to (1 - y) f_k(y) / s_k with a cubic/quartic f_k that must
    be nonnegative on [-1, 1]  (scale s_k = 1, 3, 9, 180 for k = 2..5);
  * likewise Re[D~(z)/C~(z)] reduces to h_k(y) >= 0 on [-1, 1].

f_k and h_k are evaluated from their rational closed forms.  The interval
minima take their candidates from the float critical points and their values
exactly, because the raw double-precision values of these polynomials lose
several digits to cancellation once beta is large.  All exact work runs on
Python integers: with beta = n/D and a candidate y = p/q, each value is a
homogeneous integer form in (n, D) and (p, q) over a positive denominator, and
the resultants come from the integer coefficient record of `coeffs`.

`telescoping` turns each pairing into the energy identity behind the paper's
stability and error estimates, for every order: with x the levels the pairing
touches, oldest first, and E1 x / E0 x its newest / oldest all but one,

    (p . x)(q . x) = |E1 x|_G^2 - |E0 x|_G^2 + (r . x)^2,

where r is a spectral (Fejer-Riesz) factor of the pairing's symbol on the unit
circle and G follows from the shift recursion of G-stability theory
(Dahlquist 1978).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import coeffs
from .polynomials import (_exact_trim, _roots_inside_unit_disk, horner,
                          real_critical_points, roots, sylvester_resultant)

# h_k = (integer polynomial in beta) / den_k(beta); den_k ascending in beta
_H_DENOMINATORS = {2: (0, 1), 3: (1, 1), 4: (27, 9), 5: (270, 18)}
# beta at which the integer tables are read off as signed base-2^64 digits;
# every table entry is far below 2^63 in magnitude
_KRONECKER_BETA = 2 ** 64


def _f_coeffs(k, B):
    if k == 2:
        return [2 * B ** 2 + B + 1, -2 * B ** 2 - B + 1]
    if k == 3:
        return [3 * B ** 4 + 9 * B ** 3 + 8 * B ** 2 + 2 * B + 4,
                -6 * B ** 4 - 18 * B ** 3 - 13 * B ** 2 + B + 4,
                3 * B ** 4 + 9 * B ** 3 + 5 * B ** 2 - 3 * B - 2]
    if k == 4:
        return [2 * B ** 6 + 15 * B ** 5 + 39 * B ** 4 + 39 * B ** 3 + 10 * B ** 2 + 15,
                -6 * B ** 6 - 45 * B ** 5 - 117 * B ** 4 - 116 * B ** 3 - 21 * B ** 2 + 17 * B + 9,
                6 * B ** 6 + 45 * B ** 5 + 117 * B ** 4 + 115 * B ** 3 + 12 * B ** 2 - 34 * B - 12,
                -2 * B ** 6 - 15 * B ** 5 - 39 * B ** 4 - 38 * B ** 3 - B ** 2 + 17 * B + 6]
    if k == 5:
        return [5 * B ** 8 + 70 * B ** 7 + 380 * B ** 6 + 990 * B ** 5 + 1189 * B ** 4 + 344 * B ** 3 - 410 * B ** 2 - 168 * B + 336,
                -20 * B ** 8 - 280 * B ** 7 - 1530 * B ** 6 - 4060 * B ** 5 - 5136 * B ** 4 - 2072 * B ** 3 + 1070 * B ** 2 + 652 * B + 36,
                30 * B ** 8 + 420 * B ** 7 + 2310 * B ** 6 + 6240 * B ** 5 + 8244 * B ** 4 + 3932 * B ** 3 - 1260 * B ** 2 - 1340 * B - 204,
                -20 * B ** 8 - 280 * B ** 7 - 1550 * B ** 6 - 4260 * B ** 5 - 5836 * B ** 4 - 3024 * B ** 3 + 950 * B ** 2 + 1396 * B + 336,
                5 * B ** 8 + 70 * B ** 7 + 390 * B ** 6 + 1090 * B ** 5 + 1539 * B ** 4 + 820 * B ** 3 - 350 * B ** 2 - 540 * B - 144]
    raise coeffs.OrderError(f"no certificate polynomial for k={k}")


def _h_coeffs(k, B):
    if k == 2:
        return [1 + 1 / B, -(B ** 0)]
    if k == 3:
        return [(B ** 3 + 2 * B ** 2 + 1) / (B + 1),
                -2 * B ** 2 - 2 * B + 1,
                B ** 2 + B]
    if k == 4:
        return [(2 * B ** 6 + 15 * B ** 5 + 35 * B ** 4 + 15 * B ** 3 - 37 * B ** 2 - 39 * B + 9) / (9 * (B + 3)),
                (-6 * B ** 5 - 27 * B ** 4 - 30 * B ** 3 + 9 * B ** 2 + 18 * B + 9) / 9,
                (2 * B ** 5 + 9 * B ** 4 + 12 * B ** 3 + 3 * B ** 2 - 2 * B) / 3,
                -(B * (B + 1) ** 2 * (2 * B ** 2 + 5 * B + 2)) / 9]
    if k == 5:
        den = 18 * (B + 15)
        return [(6 * B ** 8 + 73 * B ** 7 + 322 * B ** 6 + 571 * B ** 5 + 91 * B ** 4 - 926 * B ** 3 - 995 * B ** 2 - 312 * B + 18) / den,
                -(24 * B ** 8 + 292 * B ** 7 + 1314 * B ** 6 + 2527 * B ** 5 + 1203 * B ** 4 - 2405 * B ** 3 - 3117 * B ** 2 - 1008 * B - 270) / den,
                (B * (12 * B ** 7 + 146 * B ** 6 + 670 * B ** 5 + 1385 * B ** 4 + 1021 * B ** 3 - 553 * B ** 2 - 1127 * B - 402)) * 3 / den,
                -(B * (24 * B ** 7 + 292 * B ** 6 + 1366 * B ** 5 + 3013 * B ** 4 + 2881 * B ** 3 + 193 * B ** 2 - 1391 * B - 618)) / den,
                (B * (B ** 2 + 3 * B + 2) ** 2 * (6 * B ** 3 + 37 * B ** 2 + 48 * B - 27)) / den]
    raise coeffs.OrderError(f"no certificate polynomial for k={k}")


@functools.cache
def _exact_table(coeff_fn, k):
    """coeff_fn(k, beta) as (rows, den): integer polynomials in beta over den(beta).

    rows[j] holds the coefficients of y^j, ascending in beta and padded to
    one length.  Read off from one exact evaluation at beta = 2^64 (Kronecker
    substitution), on first use.
    """
    den = (1,) if coeff_fn is _f_coeffs else _H_DENOMINATORS[k]
    beta = Fraction(_KRONECKER_BETA)
    scale = horner(den, beta)
    half = _KRONECKER_BETA // 2
    rows = []
    for value in coeff_fn(k, beta):
        v = (value * scale).numerator  # den(beta) clears every denominator
        row = []
        while v:
            digit = (v + half) % _KRONECKER_BETA - half
            row.append(digit)
            v = (v - digit) // _KRONECKER_BETA
        rows.append(row)
    width = max(len(r) for r in rows)
    return tuple(tuple(r + [0] * (width - len(r))) for r in rows), den


def _homogeneous(poly, p, q):
    # sum_i poly[i] * p^i * q^(e - i) with e = len(poly) - 1 (Horner)
    acc, q_pow = poly[-1], 1
    for c in reversed(poly[:-1]):
        q_pow *= q
        acc = acc * p + c * q_pow
    return acc


def _certified_min(coeff_fn, k, beta):
    """Minimum over [-1, 1]: float critical points, exact values in integers.

    With beta = n/D and y = p/q the value is S(p, q) / q^d times the positive
    factor D^deg(den) / (D^e * den(n, D)) shared by every candidate, so the
    candidates compare by cross-multiplication and the minimum is one
    correctly rounded integer division, as float(Fraction) would give.
    """
    critical = real_critical_points(coeff_fn(k, float(beta)))
    candidates = [-1.0, 1.0] + [x for x in critical if -1.0 < x < 1.0]
    rows, den = _exact_table(coeff_fn, k)
    n, D = beta.numerator, beta.denominator
    form = [_homogeneous(r, n, D) for r in rows]
    d = len(form) - 1
    best_x, best_s, best_w = None, None, None
    for x in sorted(candidates):
        p, q = x.as_integer_ratio()
        s, w = _homogeneous(form, p, q), q ** d
        if best_x is None or s * best_w < best_s * w:
            best_x, best_s, best_w = x, s, w
    scale = best_w * D ** (len(rows[0]) - len(den)) * _homogeneous(den, n, D)
    return best_x, best_s / scale


def _resultant(p, q):
    # Res(P / L_P, Q / L_Q) as a float from (numerators, denominator) pairs
    (P, lp), (Q, lq) = p, q
    res = sylvester_resultant(P, Q)
    deg_p, deg_q = len(_exact_trim(P)) - 1, len(_exact_trim(Q)) - 1
    return res.numerator / (lp ** deg_q * lq ** deg_p)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one multiplier check; `passed` follows the four-part criterion."""

    k: int
    beta: float
    resultant_AC: float
    resultant_DC: float
    max_root_modulus_C: float
    min_f: float
    min_h: float
    passed: bool
    failure_witness: Optional[tuple] = None

    def as_dict(self):
        return {
            "k": self.k, "beta": self.beta,
            "resultant_AC": self.resultant_AC,
            "resultant_DC": self.resultant_DC,
            "max_root_modulus_C": self.max_root_modulus_C,
            "min_f": self.min_f, "min_h": self.min_h,
            "pass": self.passed,
            "failure_witness": list(self.failure_witness) if self.failure_witness else None,
        }


def _build_report(k, beta):
    beta_exact = beta if isinstance(beta, Fraction) else Fraction(float(beta))
    a, _, c, d = coeffs._integer_record(k, beta_exact)
    # exact resultants: float arithmetic loses too many digits to the massive
    # cancellation in them once beta is large
    res_ac = _resultant(a, c)
    res_dc = _resultant(d, c)
    c_nums, c_den = c
    # the eigensolve's modulus is the printed estimate; the verdict is exact,
    # since the roots of C~ cluster at 1 once beta is large
    rmax = float(np.abs(roots([x / c_den for x in c_nums])).max())
    xf, min_f = _certified_min(_f_coeffs, k, beta_exact)
    xh, min_h = _certified_min(_h_coeffs, k, beta_exact)
    passed = (res_ac != 0.0 and res_dc != 0.0 and _roots_inside_unit_disk(c_nums)
              and min_f >= 0.0 and min_h >= 0.0)
    witness = None
    if min_f < 0.0 or min_h < 0.0:
        witness = (xf, min_f) if min_f <= min_h else (xh, min_h)
    return CertificateReport(k=k, beta=float(beta), resultant_AC=res_ac,
                             resultant_DC=res_dc, max_root_modulus_C=rmax,
                             min_f=min_f, min_h=min_h, passed=passed,
                             failure_witness=witness)


def verify_certificate(k, beta) -> CertificateReport:
    """Run the full multiplier check for one (k, beta).

    Orders 2-4 take beta >= 1 and warn below the admissible shift; order 5
    takes any beta in [0, 100], the range of the root-modulus claim.
    """
    coeffs._check_order(k)
    if k == 5:
        if not 0 <= beta <= 100:
            raise ValueError(f"k=5 verification shift beta={beta} must lie within [0, 100]")
    else:
        coeffs._admissibility_warning(k, coeffs._check_beta(beta))
    return _build_report(k, beta)


# a symbol root this close to |z| = 1 counts as on the circle
_CIRCLE_TOL = 1e-8


def _energy_identity(p, q, deflate):
    """(G, r) with sym(p q^T) = E1^T G E1 - E0^T G E0 + r r^T.

    p and q are (integer numerators, denominator) on the same m + 1 levels,
    oldest first.  The symbol sum_ij sym(p q^T)_ij z^(i-j) is z^-m T(z) / 2
    over the two denominators, with T integer and palindromic; `deflate`
    divides out its double root at z = 1 exactly and puts (z - 1) back into
    r.  r keeps the roots outside the unit disk, scaled to the exact symbol
    at z = -1, and G[a, b] = G[a-1, b-1] - (S - r r^T)[a, b].
    """
    (P, lp), (Q, lq) = p, q
    m = len(P) - 1
    T = [0] * (2 * m + 1)
    for i, j in itertools.product(range(m + 1), repeat=2):
        T[m + i - j] += P[i] * Q[j] + Q[i] * P[j]
    symbol_at_minus_one = Fraction((-1) ** m * horner(T, -1), 2 * lp * lq)
    factor = [1.0]
    if deflate:  # T(1) = T'(1) = 0: each quotient is minus the running sums
        for _ in range(2):
            T = [-s for s in itertools.accumulate(T[:-1])]
        factor = [-1.0, 1.0]
    top = max(abs(t) for t in T)
    T = [t / top for t in T]
    zs = roots(T)
    gap = np.abs(zs) - 1.0
    if (np.abs(gap).min() <= _CIRCLE_TOL or 2 * np.count_nonzero(gap > 0) != len(zs)
            or symbol_at_minus_one <= 0):
        raise ValueError("the pairing's symbol is not positive on the unit circle")
    outside, dT = zs[gap > 0], [i * t for i, t in enumerate(T)][1:]
    for _ in range(2):  # Newton steps: the eigenvalues lose digits near the circle
        outside = outside - horner(T, outside) / horner(dT, outside)
    r = np.convolve(factor, np.poly(outside).real[::-1])
    r *= math.sqrt(symbol_at_minus_one) / abs(horner(r, -1.0))
    pf = np.array([x / lp for x in P])
    qf = np.array([x / lq for x in Q])
    R = (np.outer(pf, qf) + np.outer(qf, pf)) / 2 - np.outer(r, r)
    G = np.zeros((m, m))
    for a in range(m):
        G[a] = -R[a, :m]
        if a:
            G[a, 1:] += G[a - 1, :-1]
    return G, r


def telescoping(k, beta):
    """Energy identities of the (A_k, C_k) and (D_k, C_k) pairings at one shift.

    Returns ((G_A, r_A), (G_D, r_D)).  (A, C) pairs a with (0, c) on the
    k + 1 levels u^(n+1-k), ..., u^(n+1): G_A is k x k and r_A has k + 1
    entries.  (D, C) pairs d with c on the newest k levels: G_D is
    (k-1) x (k-1) and r_D has k entries.  Raises ValueError where a symbol
    has a root on (within 1e-8 of) the unit circle or is negative there, so
    no such identity with a real r exists; that is where the certificate fails.
    """
    coeffs._check_order(k)
    a, _, c, d = coeffs._integer_record(k, Fraction(coeffs._check_beta(beta)))
    return (_energy_identity(a, ([0] + c[0], c[1]), deflate=True),
            _energy_identity(d, c, deflate=False))


def stability_condition(k, beta, gamma):
    """Margin eta_k(beta) - sqrt(gamma) of the semi-implicit stability condition."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    margin = coeffs.eta(k, beta) - math.sqrt(gamma)
    return margin, margin > 0.0
