"""Machine checks for the energy-multiplier certificates of the shifted schemes.

For each order k the explicit combination C_k acts as a uniform multiplier.
The certificate has four ingredients, all checked numerically here:

  * the Sylvester resultants of (A~, C~) and (D~, C~) are nonzero, so the
    characteristic polynomials share no factor;
  * every root of C~ lies strictly inside the unit disk (decided exactly by
    the Schur-Cohn reduction; the reported modulus is a float estimate, or,
    where that reads 1 or more for roots proved inside, the least dyadic
    m / 2^53 that the reduction proves above every root);
  * the real part of A~(z) / (z C~(z)) on the unit circle reduces, with
    y = cos(theta), to (1 - y) f_k(y) / s_k with f_k of degree k - 1 that must
    be nonnegative on [-1, 1]  (scale s_k = 1, 3, 9, 180 for k = 2..5);
  * likewise Re[D~(z) C~(1/z)] reduces to h_k(y) >= 0 on [-1, 1].

All exact work runs on Python integers, from the integer coefficient record
of `coeffs`: the resultants, the root condition, and f_k and h_k, which are
the pairings that `telescoping` factors (a with (0, c), and d with c) written
in y.  Each is the pairing's palindromic symbol expanded in Chebyshev
polynomials, with 1 - y divided out exactly for f_k: integer coefficients
over one positive denominator.  The interval minima take their candidates
from the float critical points of the correctly rounded coefficients and
their values exactly, as homogeneous integer forms in y = p/q, because the
raw double-precision values of these polynomials lose several digits to
cancellation once beta is large.  Every verdict is taken on these exact
values; the report's float fields are correctly rounded from them and
saturate to +-inf beyond the float range.

The integers a report reads come in one layout, six groups: C~'s numerators
and denominator, a's leading coefficient and denominator, d's, f_k's
numerators and denominator, h_k's, and the numerators of Res(A, C) and
Res(D, C).  At beta = n/D each is a homogeneous integer form in (n, D), of
degree k - 1 in the first two groups, then k, 2k - 2, 2k - 1 and
(k - 1)(2k - 1), 36 at k = 5.  `_forms(k)` interpolates them exactly, once per
order and process, from the per-shift route (`_route`: record, pairings,
subresultant PRS) at the integer shifts 1, 2, ..., and checks them against the
route at two shifts with D > 1.  `_build_reports` builds the reports of a
block of shifts; `verify --grid` hands it `cli.GRID_BLOCK` shifts at a time.
It evaluates every form at all of the block's (n, D) in one pass, with
`polynomials.horner`, the one Horner scheme, on numpy object arrays of Python
integers and D as the homogenising argument, and one stacked eigensolve
(`polynomials.roots`) gives every C~ root modulus.  One shift
(`verify_certificate`, `verify --beta`) is a block of one on the route, which
costs far less than the build.  The resultants' denominators are formed
from a's, c's and d's at full degree, so a block refuses a shift where one of
their leading coefficients vanishes; that happens only at negative shifts
(C~'s at beta = -1, ..., 1 - k), outside every order's domain.

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
from .polynomials import (_roots_inside_unit_disk, horner, real_critical_points, roots,
                          sylvester_resultant)

# s_k: the (A, C) pairing is (1 - y) f_k(y) / s_k on the unit circle
_F_SCALE = {2: 1, 3: 3, 4: 9, 5: 180}
# Chebyshev polynomials T_s, ascending: cos(s theta) = T_s(cos theta)
_CHEBYSHEV = ((1,), (0, 1), (-1, 0, 2), (0, -3, 0, 4), (1, 0, -8, 0, 8),
              (0, 5, 0, -20, 0, 16))


def _pairing_symbol(P, Q):
    """T[m], ..., T[2m]: the upper half of the pairing's integer symbol T.

    P and Q are integer weights on the same m + 1 levels, oldest first, and
    sum_ij (P_i Q_j + Q_i P_j) z^(i-j) = z^-m T(z); T is palindromic,
    T[m - s] = T[m + s].
    """
    m = len(P) - 1
    return [sum(P[i] * Q[i - s] + Q[i] * P[i - s] for i in range(s, m + 1))
            for s in range(m + 1)]


def _on_circle(half):
    # z^-m T(z) at z = e^(i theta) in y = cos(theta): T[m] + sum_s 2 T[m+s] T_s(y)
    out = [half[0]] + [0] * (len(half) - 1)
    for s, t in enumerate(half[1:], 1):
        t *= 2
        for j, x in enumerate(_CHEBYSHEV[s]):
            out[j] += t * x
    return out


def _certificate_polynomials(k, a, c, d):
    """(f_k, h_k) at one shift from the integer record's a, c and d.

    Each is (integer coefficients in y, ascending; positive denominator).  The
    (A, C) pairing of a with (0, c) is (1 - y) f_k(y) / s_k on the unit circle,
    the (D, C) pairing of d with c is h_k(y).
    """
    (a_nums, la), (c_nums, lc), (d_nums, ld) = a, c, d
    # the (A, C) pairing vanishes at y = 1: its quotient by 1 - y is the
    # running sums of all coefficients but the last
    pairing = _on_circle(_pairing_symbol(a_nums, [0] + c_nums))
    f = [_F_SCALE[k] * x for x in itertools.accumulate(pairing[:-1])]
    return (f, 2 * la * lc), (_on_circle(_pairing_symbol(d_nums, c_nums)), 2 * ld * lc)


def _rounded(nums, den):
    """The coefficients nums / den correctly rounded, scaled into the float range.

    Where the largest would exceed about 2^1000 they are first divided by a
    power of two, which moves no root or critical point and keeps them, their
    multiples in a derivative and the closed forms' squares finite.
    """
    excess = max(max(nums), -min(nums)).bit_length() - den.bit_length() - 1000
    if excess > 0:
        den <<= excess
    return [x / den for x in nums]


def _certified_min(nums, den):
    """Minimum of nums / den over [-1, 1]: float critical points, exact values.

    The critical points come from the correctly rounded coefficients x / den.
    With d = len(nums) - 1 a candidate y = p/q has the value S(p, q) / (q^d den),
    S the homogeneous integer form (`horner` at (p, q)), so the candidates
    compare by cross-multiplication.  Returns the minimiser's candidate and the exact
    minimum as (integer numerator, positive integer denominator).
    """
    critical = real_critical_points(_rounded(nums, den))
    candidates = [-1.0, 1.0] + [x for x in critical if -1.0 < x < 1.0]
    d = len(nums) - 1
    best_x, best_s, best_w = None, None, None
    for x in sorted(candidates):
        p, q = x.as_integer_ratio()
        s, w = horner(nums, p, q), q ** d
        if best_x is None or s * best_w < best_s * w:
            best_x, best_s, best_w = x, s, w
    return best_x, (best_s, best_w * den)


def _modulus_bound(nums):
    """The least rho = m / 2^53 (0 < m <= 2^53) with every root of nums in |w| < rho.

    nums are integer coefficients whose roots lie inside the unit disk, so
    rho = 1 qualifies.  Each candidate is decided exactly by the Schur-Cohn
    reduction of 2^(53 n) nums(rho w), with integer coefficients
    nums[i] m^i 2^(53 (n - i)); rho is a double, rounded up from the largest
    modulus on the 2^-53 grid.
    """
    n = len(nums) - 1
    lo, hi = 0, 1 << 53
    while hi - lo > 1:
        m = (lo + hi) // 2
        if _roots_inside_unit_disk([x * m ** i << 53 * (n - i) for i, x in enumerate(nums)]):
            hi = m
        else:
            lo = m
    return hi / (1 << 53)


def _float(num, den):
    """num / den (den > 0) correctly rounded, saturating to +-inf beyond the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


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


def _route(k, beta):
    """The integers a report of order k reads at one exact shift, by the per-shift route.

    The module docstring's six groups, from the integer record, the pairings
    and the subresultant PRS.
    """
    a, _, c, d = coeffs._integer_record(k, beta)
    (f, lf), (h, lh) = _certificate_polynomials(k, a, c, d)
    return ([*c[0], c[1]], [a[0][-1], a[1]], [d[0][-1], d[1]], [*f, lf], [*h, lh],
            [sylvester_resultant(a[0], c[0]).numerator,
             sylvester_resultant(d[0], c[0]).numerator])


def _interpolate(xs, ys):
    """Ascending integer coefficients of the polynomial of degree < len(xs) through (xs, ys).

    xs are distinct integers and ys the values of an integer polynomial, so
    every divided difference is an integer and each division is exact
    (Newton's form, expanded by Horner's rule).
    """
    c = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) // (xs[i] - xs[i - j])
    poly = [c[-1]]
    for x, cj in zip(xs[-2::-1], c[-2::-1]):  # poly * (t - x) + cj
        poly = [cj - x * poly[0]] + [p - x * q for p, q in zip(poly, poly[1:])] + [poly[-1]]
    return tuple(poly)


def _evaluate(forms, shifts):
    """`_route` at each exact shift, from the forms evaluated at every (n, D) at once.

    n and D are the shifts' numerators and denominators, as numpy object
    arrays of Python integers, so `horner` runs each group's forms, stacked
    as coefficient columns, over all of them in exact integer arithmetic.
    """
    n = np.array([b.numerator for b in shifts], dtype=object)
    D = np.array([b.denominator for b in shifts], dtype=object)
    values = [horner(np.array(group, dtype=object).T[:, :, None], n, D).tolist()
              for group in forms]
    return [tuple([v[j] for v in group] for group in values) for j in range(len(shifts))]


# the forms' check shifts with D > 1: 0.1 as a double (dyadic), and 7/3
_CHECK_SHIFTS = (Fraction(3602879701896397, 1 << 55), Fraction(7, 3))


@functools.cache
def _forms(k):
    """The integers a report of order k reads, as homogeneous integer forms in (n, D).

    The six groups of `_route`, each a tuple of ascending coefficient tuples
    of one degree (the module docstring lists them).  Interpolated from the
    per-shift route at D = 1 and the integer shifts n = 1, 2, ..., then
    checked against the route at `_CHECK_SHIFTS`, where D > 1:
    ArithmeticError if any integer differs.
    """
    degrees = (k - 1, k - 1, k, 2 * k - 2, 2 * k - 1, (k - 1) * (2 * k - 1))
    nodes = range(1, degrees[-1] + 2)
    samples = [_route(k, Fraction(n)) for n in nodes]
    forms = tuple(tuple(_interpolate(nodes[:e + 1], [s[g][i] for s in samples[:e + 1]])
                        for i in range(len(samples[0][g])))
                  for g, e in enumerate(degrees))
    for beta, values in zip(_CHECK_SHIFTS, _evaluate(forms, _CHECK_SHIFTS)):
        if values != _route(k, beta):
            raise ArithmeticError(f"the order-{k} report forms differ from the "
                                  f"per-shift route at beta = {beta}")
    return forms


def _build_reports(k, betas, forms=None):
    """The reports at the shifts `betas`, in order.

    The integers come from `forms` (`_forms(k)`), evaluated at every shift at
    once, or else by the per-shift route; one stacked eigensolve gives every
    C~ root modulus, and the rest of each report is taken shift by shift.
    """
    exact = [b if isinstance(b, Fraction) else Fraction(float(b)) for b in betas]
    # every integer the reports read, exactly: the resultants in floats would
    # lose too many digits to the massive cancellation in them once beta is large
    values = [_route(k, b) for b in exact] if forms is None else _evaluate(forms, exact)
    for beta, ((*c_nums, _), (a_lead, _), (d_lead, _), *_) in zip(exact, values):
        # Res(P / L_P, Q / L_Q) = Res(P, Q) / (L_P^deg Q L_Q^deg P), with deg A = k
        # and deg C = deg D = k - 1 unless a leading coefficient vanishes
        if not (a_lead and c_nums[-1] and d_lead):
            raise ArithmeticError(f"a leading coefficient vanishes at beta = {beta}, where "
                                  f"the order-{k} report's resultant denominators do not hold")
    # the eigensolve's modulus is the printed estimate; the verdict is exact,
    # since the roots of C~ cluster at 1 once beta is large, and where the
    # estimate contradicts it the printed modulus is a certified bound instead
    moduli = roots([_rounded(c[:-1], c[-1]) for c, *_ in values])
    return [_report(k, beta, v, float(np.abs(r).max()))
            for beta, v, r in zip(betas, values, moduli)]


def _report(k, beta, values, rmax):
    """The report at shift beta from its integers (`_route`'s groups) and C~'s float modulus."""
    (*c_nums, lc), (_, la), (_, ld), (*f, lf), (*h, lh), (r_ac, r_dc) = values
    den_ac, den_dc = la ** (k - 1) * lc ** k, (ld * lc) ** (k - 1)
    inside = _roots_inside_unit_disk(c_nums)
    if inside and rmax >= 1.0:
        rmax = _modulus_bound(c_nums)
    xf, (sf, wf) = _certified_min(f, lf)
    xh, (sh, wh) = _certified_min(h, lh)
    # every verdict is taken on the exact values, so a float that overflows or
    # underflows cannot flip it; only the printed fields saturate
    passed = r_ac != 0 and r_dc != 0 and inside and sf >= 0 and sh >= 0
    witness = None
    if sf < 0 or sh < 0:
        witness = (xf, _float(sf, wf)) if sf * wh <= sh * wf else (xh, _float(sh, wh))
    return CertificateReport(k=k, beta=float(beta), resultant_AC=_float(r_ac, den_ac),
                             resultant_DC=_float(r_dc, den_dc), max_root_modulus_C=rmax,
                             min_f=_float(sf, wf), min_h=_float(sh, wh), passed=passed,
                             failure_witness=witness)


def _check_shift(k, beta):
    """`verify_certificate` without the report: its domain check and warning."""
    coeffs._check_order(k)
    if k == 5:
        if not 0 <= beta <= 100:
            raise ValueError(f"k=5 verification shift beta={beta} must lie within [0, 100]")
    else:
        coeffs._admissibility_warning(k, coeffs._check_beta(beta))


def verify_certificate(k, beta) -> CertificateReport:
    """Run the full multiplier check for one (k, beta).

    Orders 2-4 take beta >= 1 and warn below the admissible shift; order 5
    takes any beta in [0, 100], the range of the root-modulus claim.
    """
    _check_shift(k, beta)
    return _build_reports(k, [beta])[0]


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
    half = _pairing_symbol(P, Q)
    T = half[:0:-1] + half
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
