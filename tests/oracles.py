"""Second routes the tests compare against; `betaimex` never calls them.

Each function recomputes a quantity the library produces another way: the
printed rational closed forms of the coefficients and of the resultants, the
coefficient record by Bjorck-Pereyra Vandermonde solves in the arithmetic of
the shift (`vandermonde_record`), the resultant as a Sylvester determinant by
Gaussian elimination in Fractions, the paper's printed certificate
polynomials f_k/h_k (`_f_coeffs`, `_h_coeffs`; the library derives them from
the coefficient record), the certificate report from the Fraction
Vandermonde record and the printed polynomials, with its minima evaluated,
its root condition decided (Schur's reduction) and, where the float root
modulus contradicts that, the least double bounding the roots found, all in
Fractions, f_k/h_k as float numpy Polynomials, the same quantities rebuilt
from complex exponentials on the unit circle, the closed-form (radical)
telescoping expansions of the second- and third-order pairings with their
check along a scalar sequence, the residual of the G-matrix identities
against the Vandermonde record, a plain interval minimiser (companion-matrix
critical points once the derivative is above cubic), the characteristic
polynomial's float coefficients and the stability scan by batched
companion-matrix eigensolves with their own root tolerances, the boundary
locus of the stability region, the history sums as a loop of scaled adds,
the stepper's arithmetic rebuilt from the raw coefficients on every call,
the default start as its own loop of backward-Euler substeps, the
interface radius by a row loop, the half-spectrum nonlinearity by
two-dimensional transforms into fresh arrays, the free energy from
physical-space derivatives and the manufactured source evaluated on the grid.  It also
keeps the classical same-gamma condition, which only the tests use.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial

from betaimex import coeffs
from betaimex.integrate import BLOWUP_LIMIT, STARTER_SUBSTEPS, BlowUpError, _check_finite
from betaimex.spectral import MANUFACTURED_PARAMS
from betaimex.certificates import CertificateReport, telescoping
from betaimex.polynomials import (_exact_trim, horner, real_critical_points, roots,
                                  sylvester_resultant)

F_SCALE = {2: 1.0, 3: 3.0, 4: 9.0, 5: 180.0}
_EIG_CHUNK = 65536
# the eigensolve route's root condition: a modulus within ROOT_TOL of 1 counts
# as on the circle, and two such roots within SEPARATION_TOL as one double root
ROOT_TOL = 1e-9
SEPARATION_TOL = 1e-6

# smallest admissible multiplier shifts of the classical schemes
ETA_TILDE = {2: 0.0, 3: 0.0836, 4: 0.2878}


def closed_form(k, beta):
    """Printed rational closed forms for k = 2, 3, 4 (no closed form at k = 5)."""
    if k not in (2, 3, 4):
        raise coeffs.OrderError(f"closed forms are tabulated for k in (2, 3, 4), not k={k}")
    beta = coeffs._check_beta(beta)
    coeffs._admissibility_warning(k, beta)
    B = beta
    if k == 2:
        a = ((2 * B - 1) / 2, -2 * B, (2 * B + 1) / 2)
        b = (-(B - 1), B)
        c = (-B, B + 1)
        d = (b[0] * 0, 1 / B)
    elif k == 3:
        a = (-(3 * B ** 2 - 1) / 6,
             (9 * B ** 2 + 6 * B - 6) / 6,
             -(9 * B ** 2 + 12 * B - 3) / 6,
             (3 * B ** 2 + 6 * B + 2) / 6)
        b = ((B ** 2 - B) / 2, -(B ** 2 - 1), (B ** 2 + B) / 2)
        c = ((B ** 2 + B) / 2, -(B ** 2 + 2 * B), (B ** 2 + 3 * B + 2) / 2)
        d = (b[0] * 0, (1 - B) / (1 + B), b[0] * 0 + 1)
    else:
        a = ((2 * B ** 3 + 3 * B ** 2 - B - 1) / 12,
             (-8 * B ** 3 - 18 * B ** 2 + 4 * B + 6) / 12,
             (12 * B ** 3 + 36 * B ** 2 + 6 * B - 18) / 12,
             (-8 * B ** 3 - 30 * B ** 2 - 20 * B + 10) / 12,
             (2 * B ** 3 + 9 * B ** 2 + 11 * B + 3) / 12)
        b = ((-B ** 3 + B) / 6,
             (B ** 3 + B ** 2 - 2 * B) / 2,
             (-B ** 3 - 2 * B ** 2 + B + 2) / 2,
             (B ** 3 + 3 * B ** 2 + 2 * B) / 6)
        c = ((-B ** 3 - 3 * B ** 2 - 2 * B) / 6,
             (B ** 3 + 4 * B ** 2 + 3 * B) / 2,
             (-B ** 3 - 5 * B ** 2 - 6 * B) / 2,
             (B ** 3 + 6 * B ** 2 + 11 * B + 6) / 6)
        d = (-B * (B ** 2 - 1) / (6 * (B + 3)),
             B * (B - 1) / 2,
             -(B ** 2 + B - 2) / 2,
             (B ** 2 + 3 * B + 2) / 6)
    e = (B - 1) / (B + coeffs.ETA_DENOMINATOR_OFFSET[k])
    return coeffs.SchemeCoefficients(k=k, beta=beta, a=a, b=b, c=c, d=d, eta=e)


def vandermonde_dual_solve(nodes, rhs):
    """Solve sum_j x_j * nodes[j]**m = rhs[m], m = 0..n (Bjorck-Pereyra dual).

    Works elementwise in whatever arithmetic the inputs carry (float or
    Fraction); the divisions are by node differences only, which are integers
    for the equispaced node sets used here.
    """
    n = len(nodes) - 1
    if len(rhs) != n + 1:
        raise ValueError("rhs length must match node count")
    x = list(rhs)
    for step in range(n):
        for i in range(n, step, -1):
            x[i] = x[i] - nodes[step] * x[i - 1]
    for step in range(n - 1, -1, -1):
        for i in range(step + 1, n + 1):
            x[i] = x[i] / (nodes[i] - nodes[i - step - 1])
        for i in range(step, n):
            x[i] = x[i] - x[i + 1]
    return x


def _weights(nodes, row, value):
    # weights w with sum_j w[j] * nodes[j]**m = value at m = row and 0 at the
    # other m, listed from the last node to the first (ascending level index)
    rhs = [0] * len(nodes)
    rhs[row] = value
    return vandermonde_dual_solve(nodes, rhs)[::-1]


def vandermonde_record(k, beta):
    """`coeffs._build(k, beta)` by Bjorck-Pereyra Vandermonde solves (Math. Comp. 1970).

    Each weight set solves its Vandermonde system on the equispaced nodes in
    the arithmetic of beta (float or Fraction), dividing only by integer node
    differences.  No beta >= 1 guard, like `_build`.
    """
    # a: unit derivative (row 1, sign -1) on beta-1, ..., beta+k-1; b and c:
    # unit value (row 0) on beta-1, ..., beta+k-2 and beta, ..., beta+k-1
    e = (beta - 1) / (beta + coeffs.ETA_DENOMINATOR_OFFSET[k])
    a = _weights([beta - 1 + j for j in range(k + 1)], 1, -1)
    b = _weights([beta - 1 + j for j in range(k)], 0, 1)
    c = _weights([beta + j for j in range(k)], 0, 1)
    d = [bq - e * cq for bq, cq in zip(b, c)]
    return coeffs.SchemeCoefficients(k=k, beta=beta, a=tuple(a), b=tuple(b), c=tuple(c),
                                     d=tuple(d), eta=e)


def printed_resultants(k, B):
    """Printed closed forms of Res(A~, C~) and Res(D~, C~) at a Fraction B."""
    if k == 2:
        return Fraction(-1, 2), Fraction(-1)
    if k == 3:
        return (B ** 2 / Fraction(8) + 5 * B / Fraction(24) + Fraction(1, 36),
                B * (B + 1) / Fraction(2))
    if k == 4:
        return (Fraction(-1, 5184) * (18 * B ** 6 + 144 * B ** 5 + 426 * B ** 4
                                      + 566 * B ** 3 + 321 * B ** 2 + 55 * B + 3),
                -B ** 2 * (B ** 2 + 3 * B + 2) ** 2 / Fraction(36))
    ac = (B ** 12 / Fraction(221184) + 11 * B ** 11 / Fraction(110592)
          + 635 * B ** 10 / Fraction(663552) + 78937 * B ** 9 / Fraction(14929920)
          + 552809 * B ** 8 / Fraction(29859840) + 638383 * B ** 7 / Fraction(14929920)
          + 9801769 * B ** 6 / Fraction(149299200) + 4912619 * B ** 5 / Fraction(74649600)
          + 765683 * B ** 4 / Fraction(18662400) + 225157 * B ** 3 / Fraction(15552000)
          + 6143 * B ** 2 / Fraction(2488320) + 2071 * B / Fraction(10368000)
          + Fraction(1, 160000))
    dc = B ** 3 * (B ** 3 + 6 * B ** 2 + 11 * B + 6) ** 3 / Fraction(13824)
    return ac, dc


def sylvester_matrix(p, q):
    """Sylvester matrix of p (degree m) and q (degree n): n rows of p, then m rows of q,
    coefficients in descending order, each row shifted one column right."""
    pc = _exact_trim(list(p))
    qc = _exact_trim(list(q))
    m, n = len(pc) - 1, len(qc) - 1
    if m < 1 or n < 1:
        raise ValueError("both polynomials must have degree >= 1")
    size = m + n
    zero = pc[0] * 0
    rows = [[zero] * size for _ in range(size)]
    pdesc, qdesc = pc[::-1], qc[::-1]
    for i in range(n):
        rows[i][i : i + m + 1] = pdesc
    for j in range(m):
        rows[n + j][j : j + n + 1] = qdesc
    return rows


def _exact_det(rows):
    n = len(rows)
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pivot = Fraction(rows[col][col])
        det *= pivot
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = Fraction(rows[r][col]) / pivot
                rows[r] = [Fraction(rows[r][j]) - factor * Fraction(rows[col][j])
                           for j in range(n)]
    return det


def sylvester_determinant(p, q):
    """`polynomials.sylvester_resultant` as the determinant of the Sylvester matrix,
    by Gaussian elimination in Fractions."""
    return _exact_det(sylvester_matrix(p, q))


# the printed certificate polynomials at the shift B, ascending in y:
# Re[A~(z) / (z C~(z))] = (1 - y) f_k(y) / F_SCALE[k] and Re[D~(z) C~(1/z)] = h_k(y)
# on |z| = 1, y = cos(theta)

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


def _fraction_min(coeff_fn, k, beta):
    """Minimum over [-1, 1]: exact rational values at the float critical points
    of the exact coefficients rounded once."""
    exact_coeffs = [Fraction(c) for c in coeff_fn(k, Fraction(beta))]
    critical = real_critical_points([float(c) for c in exact_coeffs])
    candidates = [-1.0, 1.0] + [x for x in critical if -1.0 < x < 1.0]
    best_x, best_v = None, None
    for x in sorted(candidates):
        v = horner(exact_coeffs, Fraction(x))
        if best_v is None or v < best_v:
            best_x, best_v = x, v
    return best_x, float(best_v)


def schur_cohn_inside(p):
    """Whether every root of p (Fraction coefficients, ascending) has modulus
    below 1: Schur's transform p <- (p - (p_0 / p_n) z^n p(1/z)) / z in Fractions."""
    p = [Fraction(x) for x in p]
    while len(p) > 1:
        g = p[0] / p[-1]
        if abs(g) >= 1:
            return False
        p = [x - g * y for x, y in zip(p, reversed(p))][1:]
    return True


def least_double_bound(p):
    """The least double rho in (0, 1] with every root of p (roots inside the unit
    disk) below rho in modulus: bisection on the bit patterns of the doubles,
    each decided by Schur's reduction of p(rho z) in Fractions."""
    bits = lambda x: struct.unpack("<q", struct.pack("<d", x))[0]
    double = lambda i: struct.unpack("<d", struct.pack("<q", i))[0]
    lo, hi = bits(0.0), bits(1.0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        rho = Fraction(double(mid))
        if schur_cohn_inside([Fraction(x) * rho ** i for i, x in enumerate(p)]):
            hi = mid
        else:
            lo = mid
    return double(hi)


def fraction_report(k, beta):
    """`certificates._build_report` from the `Fraction` Vandermonde record, in `Fraction`s."""
    beta_exact = beta if isinstance(beta, Fraction) else Fraction(float(beta))
    rec = vandermonde_record(k, beta_exact)
    # exact resultants: float arithmetic loses too many digits to the massive
    # cancellation in them once beta is large
    res_ac = float(sylvester_resultant(rec.a, rec.c))
    res_dc = float(sylvester_resultant(rec.d, rec.c))
    rmax = float(np.abs(roots(rec.c)).max())
    inside = schur_cohn_inside(rec.c)
    if inside and rmax >= 1.0:  # the estimate contradicts the exact verdict
        rmax = least_double_bound(rec.c)
    xf, min_f = _fraction_min(_f_coeffs, k, beta_exact)
    xh, min_h = _fraction_min(_h_coeffs, k, beta_exact)
    passed = res_ac != 0.0 and res_dc != 0.0 and inside and min_f >= 0.0 and min_h >= 0.0
    witness = None
    if min_f < 0.0 or min_h < 0.0:
        witness = (xf, min_f) if min_f <= min_h else (xh, min_h)
    return CertificateReport(k=k, beta=float(beta), resultant_AC=res_ac,
                             resultant_DC=res_dc, max_root_modulus_C=rmax,
                             min_f=min_f, min_h=min_h, passed=passed,
                             failure_witness=witness)


def classical_condition(k, gamma):
    """Same-gamma condition for the classical (beta = 1) schemes.

    lhs = 1 - eta~_k must exceed rhs = sqrt(c~_k * gamma * (1 + eta~_k^2)),
    where c~_k is the absolute sum of the explicit weights at beta = 1.
    """
    if k not in ETA_TILDE:
        raise coeffs.OrderError(f"classical condition tabulated for k in (2, 3, 4), not k={k}")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    eta_t = ETA_TILDE[k]
    c_t = float(np.abs(coeffs._build(k, 1.0).c).sum())
    lhs = 1.0 - eta_t
    rhs = math.sqrt(c_t * gamma * (1.0 + eta_t ** 2))
    return lhs, rhs, lhs > rhs


# the closed-form (radical) telescoping expansions of the second- and
# third-order pairings.  The printed second-order coefficient set telescopes
# twice the pairing, i.e. 2*(A_2, C_2) equals its expansion; the other three
# expansions match their pairings one-to-one.  Every square root receives its
# radicand through `_sqrt_checked`, so leaving the verified shift range
# surfaces as an explicit error rather than a complex coefficient.

class RadicandError(ArithmeticError):
    """A telescoping radicand went negative: shift outside the verified range."""


def _sqrt_checked(value, name):
    if value < 0:
        raise RadicandError(f"radicand {name} = {value:.6g} is negative")
    return math.sqrt(value)


@dataclass(frozen=True)
class TelescopingCertificate:
    """Closed-form telescoping coefficients for one (k, beta).

    `a_form` holds the expansion of the (A_k, C_k) pairing, `d_form` the
    (D_k, C_k) one, `intermediates` every named intermediate quantity.
    Key names follow the closed-form derivation (a..j, hatted twins for the
    d_form at k=3).
    """

    k: int
    beta: float
    a_form: dict
    d_form: dict
    intermediates: dict

    @property
    def leading_a(self) -> float:
        return self.a_form["a"]

    @property
    def leading_a_hat(self) -> float:
        if self.k == 2:
            raise KeyError("second-order d_form has no free leading coefficient")
        return self.d_form["a"]


def _second_order(beta):
    B = beta
    delta2 = 2 * B * (2 * B + 1)
    e2 = -_sqrt_checked(delta2, "Delta_2")
    c2 = (-math.sqrt(2.0) + _sqrt_checked(delta2, "Delta_2")) / 2.0
    f2 = c2
    d2 = math.sqrt(2.0) + f2
    E2 = -B * (2 * B - 1)
    b2 = (E2 - 2 * e2 * f2) / (-2 * c2)
    a2 = (3 * B + 1 - 2 * _sqrt_checked(B * (2 * B + 1), "beta(2beta+1)")) / (2 * (B + 1) ** 2)
    a_form = {"a": a2, "b": b2, "c": c2, "d": d2, "e": e2, "f": f2}
    # (D_2, C_2) telescopes with fixed weights: (1/beta)|u|^2 + (|u|^2 - |v|^2)/2
    # + |u - v|^2 / 2
    d_form = {"mass": 1.0 / B, "jump": 0.5}
    inter = {"Delta_2": delta2, "E_2": E2}
    return a_form, d_form, inter


def _third_order_hat(beta):
    B = beta
    M = (2 * B ** 3 + 4 * B ** 2 + B + 1) / (B + 1)
    N = (2 * B ** 2 + 2 * B - 1) ** 2 / 4.0
    delta3 = M ** 2 - 4 * N
    e3 = -_sqrt_checked((M - _sqrt_checked(delta3, "Delta_hat_3")) / 2.0, "(M_hat - sqrt Delta_hat_3)/2")
    P = (B ** 3 + 2 * B ** 2 + 1) / (B + 1) - e3 ** 2
    Q = (2 * B ** 3 + 4 * B ** 2 + B + 1) / (B + 1) - e3 ** 2
    f3 = (-_sqrt_checked(P, "P_hat") + _sqrt_checked(Q, "Q_hat")) / 2.0
    c3 = f3
    d3 = _sqrt_checked(P, "P_hat") + f3
    b3 = (B * (B - 1) + 4 * e3 * f3) / (4 * c3)
    a3 = B ** 2 / 2.0 + 3 * B / 2.0 + 1 - b3 ** 2 - d3 ** 2
    form = {"a": a3, "b": b3, "c": c3, "d": d3, "e": e3, "f": f3}
    inter = {"M_hat": M, "N_hat": N, "Delta_hat_3": delta3, "P_hat": P, "Q_hat": Q}
    return form, inter


def _third_order(beta):
    B = beta
    M = 2 * B ** 4 + 6 * B ** 3 + 13 * B ** 2 / 3.0 - B / 3.0 - 1 / 3.0
    N = -(B ** 2 / 2.0 - 1 / 6.0) * (B ** 2 / 2.0 + 3 * B / 2.0 + 1)
    P = (_sqrt_checked(M, "M") + 1) / 2.0
    Q = -0.5 * (B * (B ** 2 / 2.0 - 1 / 6.0) * (B + 1))
    R = B ** 4 + 7 * B ** 3 / 2.0 + 19 * B ** 2 / 6.0 - B / 3.0 - 1
    S = 7 * B ** 4 / 4.0 + 25 * B ** 3 / 4.0 + 17 * B ** 2 / 3.0 + B / 2.0 + 1 / 3.0
    W = (B ** 2 / 2.0 + 3 * B / 2.0 + 1) * (B ** 2 / 2.0 + B + 1 / 3.0)
    U = 0.5 - 79 * B ** 2 / 12.0 - 21 * B ** 3 / 4.0 - 5 * B ** 4 / 4.0 - 23 * B / 12.0
    f3 = (_sqrt_checked(P ** 2 + 2 * N, "P^2 + 2N") + P) / 2.0
    j3 = f3
    g3 = f3 - P
    i3 = -_sqrt_checked(M, "M") - g3
    h3 = _sqrt_checked(M, "M") - f3
    e3 = (2 * i3 * j3 - Q) / (2 * f3)
    d3 = (R - 2 * g3 * i3) / (2 * f3)
    c3 = _sqrt_checked(S - e3 ** 2 - g3 ** 2 - h3 ** 2, "S - e^2 - g^2 - h^2")
    b3 = (U - 2 * d3 * e3 - 2 * g3 * h3) / (2 * c3)
    a3 = W - g3 ** 2 - d3 ** 2 - b3 ** 2
    form = {"a": a3, "b": b3, "c": c3, "d": d3, "e": e3, "f": f3,
            "g": g3, "h": h3, "i": i3, "j": j3}
    inter = {"M": M, "N": N, "P": P, "Q": Q, "R": R, "S": S, "W": W, "U": U}
    return form, inter


def telescoping_coefficients(k, beta) -> TelescopingCertificate:
    """Evaluate the closed-form telescoping coefficients; k in (2, 3)."""
    if k not in (2, 3):
        raise coeffs.OrderError(f"telescoping closed forms exist for k in (2, 3), not k={k}")
    beta = float(beta)
    if beta < 1.0:
        raise ValueError("shift beta must be >= 1")
    if k == 2:
        a_form, d_form, inter = _second_order(beta)
        return TelescopingCertificate(k=2, beta=beta, a_form=a_form,
                                      d_form=d_form, intermediates=inter)
    d_form, hat_inter = _third_order_hat(beta)
    a_form, inter = _third_order(beta)
    inter.update({f"{key}_hat" if not key.endswith("_hat") else key: val
                  for key, val in hat_inter.items()})
    return TelescopingCertificate(k=3, beta=beta, a_form=a_form,
                                  d_form=d_form, intermediates=inter)


def telescoping_identity_check(k, beta, seq) -> float:
    """Max |lhs - rhs| of both telescoping identities along a scalar sequence.

    The sequence must have length >= k + 2; the residual scales with the
    square of the sequence magnitude.
    """
    if k not in (2, 3):
        raise coeffs.OrderError(f"telescoping identities exist for k in (2, 3), not k={k}")
    seq = [float(s) for s in seq]
    if len(seq) < k + 2:
        raise ValueError(f"need at least {k + 2} entries, got {len(seq)}")
    rec = coeffs.scheme_coefficients(k, beta)
    a, b, c, d = ([float(x) for x in t] for t in (rec.a, rec.b, rec.c, rec.d))
    cert = telescoping_coefficients(k, beta)
    worst = 0.0

    if k == 2:
        t = cert.a_form
        for i in range(2, len(seq)):
            u, v, w = seq[i], seq[i - 1], seq[i - 2]
            A = a[2] * u + a[1] * v + a[0] * w
            C = c[1] * u + c[0] * v
            D = d[1] * u + d[0] * v
            rhs_a = (t["a"] * (u * u - v * v)
                     + (t["b"] * u + t["c"] * v) ** 2 - (t["b"] * v + t["c"] * w) ** 2
                     + (t["d"] * u + t["e"] * v + t["f"] * w) ** 2)
            rhs_d = (u * u / beta + 0.5 * (u * u - v * v) + 0.5 * (u - v) ** 2)
            worst = max(worst, abs(2.0 * A * C - rhs_a), abs(D * C - rhs_d))
        return worst

    t, s = cert.a_form, cert.d_form
    for i in range(3, len(seq)):
        u, v, w, x = seq[i], seq[i - 1], seq[i - 2], seq[i - 3]
        A = a[3] * u + a[2] * v + a[1] * w + a[0] * x
        C = c[2] * u + c[1] * v + c[0] * w
        D = d[2] * u + d[1] * v + d[0] * w
        rhs_a = (t["a"] * (u * u - v * v)
                 + (t["b"] * u + t["c"] * v) ** 2 - (t["b"] * v + t["c"] * w) ** 2
                 + (t["d"] * u + t["e"] * v + t["f"] * w) ** 2
                 - (t["d"] * v + t["e"] * w + t["f"] * x) ** 2
                 + (t["g"] * u + t["h"] * v + t["i"] * w + t["j"] * x) ** 2)
        rhs_d = (s["a"] * (u * u - v * v)
                 + (s["b"] * u + s["c"] * v) ** 2 - (s["b"] * v + s["c"] * w) ** 2
                 + (s["d"] * u + s["e"] * v + s["f"] * w) ** 2)
        worst = max(worst, abs(A * C - rhs_a), abs(D * C - rhs_d))
    return worst


def rounded_pairings(k, beta):
    """((a, (0, c)), (d, c)): the weights of both pairings, exact and rounded once.

    They come from the `Fraction` Vandermonde record, not from the integer
    record that `certificates.telescoping` builds its identities from.
    """
    rec = vandermonde_record(k, Fraction(beta))
    a, c, d = (np.array([float(x) for x in w]) for w in (rec.a, rec.c, rec.d))
    return (a, np.r_[0.0, c]), (d, c)


def energy_identity_residual(k, beta):
    """max |sym(p q^T) - (E1^T G E1 - E0^T G E0 + r r^T)| / max |sym(p q^T)|.

    The worse of the two pairings of `certificates.telescoping(k, beta)`.
    """
    worst = 0.0
    for (G, r), (p, q) in zip(telescoping(k, beta), rounded_pairings(k, beta)):
        S = (np.outer(p, q) + np.outer(q, p)) / 2
        E = S - np.outer(r, r)
        E[1:, 1:] -= G
        E[:-1, :-1] += G
        worst = max(worst, float(np.abs(E).max() / np.abs(S).max()))
    return worst


def certificate_polynomials(k, beta):
    """The pair (f_k, h_k) evaluated at beta, as float numpy Polynomials."""
    b = float(beta)
    f = Polynomial([float(c) for c in _f_coeffs(k, b)])
    h = Polynomial([float(c) for c in _h_coeffs(k, b)])
    return f, h


def g4_polynomial(beta):
    """Auxiliary quadratic bounding the interior critical values of f_4."""
    w0, w1, w2, _ = _f_coeffs(4, float(beta))
    return Polynomial([3 * w0, 2 * w1, w2])


def circle_pairing_f(k, beta, theta):
    """Re[A~(e^{i t}) e^{-i t} C~(e^{-i t})], rebuilt from raw coefficients.

    Equals (1 - cos t) * f_k(cos t) / F_SCALE[k].
    """
    rec = coeffs.scheme_coefficients(k, beta)
    a, _, c = rec.arrays()
    z = np.exp(1j * np.asarray(theta))
    A = sum(a[q] * z ** q for q in range(k + 1))
    C = sum(c[q] * z ** (-q) for q in range(k))
    return (A * C / z).real


def circle_pairing_h(k, beta, theta):
    """Re[D~(e^{i t}) C~(e^{-i t})]; equals h_k(cos t)."""
    rec = coeffs.scheme_coefficients(k, beta)
    c = np.asarray(rec.c, dtype=float)
    d = np.asarray(rec.d, dtype=float)
    z = np.exp(1j * np.asarray(theta))
    D = sum(d[q] * z ** q for q in range(k))
    C = sum(c[q] * z ** (-q) for q in range(k))
    return (D * C).real


def min_on_interval(p: Polynomial, lo: float, hi: float):
    """Global minimum of p over [lo, hi]: endpoints plus interior critical points.

    Returns (argmin, minimum).
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    try:
        critical = real_critical_points(p.coef)
    except ValueError:  # p' above cubic: its real companion-matrix eigenvalues
        critical = [r.real for r in roots(p.deriv().coef)
                    if abs(r.imag) < 1e-9 * max(1.0, abs(r))]
    candidates = [lo, hi] + [x for x in critical if lo < x < hi]
    best_x, best_v = lo, p(lo)
    for x in sorted(candidates):
        v = p(x)
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def _batched_max_root_modulus(coef_cols, lead):
    """Max root modulus per point for stacked polynomials.

    coef_cols: (npts, k) lower coefficients, lead: (npts,) leading ones.
    Returns (rmax, roots) with roots shaped (npts, k).
    """
    npts, k = coef_cols.shape
    comp = np.zeros((npts, k, k), dtype=complex)
    idx = np.arange(1, k)
    comp[:, idx, idx - 1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        comp[:, :, -1] = -coef_cols / lead[:, None]
    roots = np.linalg.eigvals(comp)
    rmax = np.abs(roots).max(axis=1)
    return rmax, roots


def characteristic_coeffs(k, beta, z):
    """Ascending float coefficients of pi(w) at z; an array z gives one row per point."""
    a, b, _ = coeffs.scheme_coefficients(k, beta).arrays()
    zb = np.multiply.outer(np.asarray(z, dtype=complex), np.concatenate(([0.0], b)))
    return a - zb


def _root_condition(roots):
    mods = np.abs(roots)
    if mods.max() > 1.0 + ROOT_TOL:
        return False
    near = roots[mods > 1.0 - ROOT_TOL]
    for i in range(len(near)):
        for j in range(i + 1, len(near)):
            if abs(near[i] - near[j]) <= SEPARATION_TOL:
                return False
    return True


def eig_scan_mask(k, beta, window, resolution):
    """`scan_region`'s mask from the eigenvalues of each point's companion matrix."""
    re_lo, re_hi, im_lo, im_hi = (float(v) for v in window)
    nx, ny = (int(v) for v in resolution)
    dre = (re_hi - re_lo) / nx
    dim = (im_hi - im_lo) / ny
    re = re_lo + (np.arange(nx) + 0.5) * dre
    im = im_lo + (np.arange(ny) + 0.5) * dim
    z = (re[:, None] + 1j * im[None, :]).ravel()

    mask = np.zeros(z.size, dtype=bool)
    for start in range(0, z.size, _EIG_CHUNK):
        coef = characteristic_coeffs(k, beta, z[start:start + _EIG_CHUNK])
        cols, lead = coef[:, :k], coef[:, k]

        scale = np.abs(cols).max(axis=1)
        degenerate = np.abs(lead) <= 1e-14 * np.maximum(scale, 1.0)
        rmax, roots = _batched_max_root_modulus(cols, lead)
        rmax[degenerate] = np.inf

        stable = rmax <= 1.0 - ROOT_TOL
        borderline = ~stable & (rmax <= 1.0 + ROOT_TOL)
        for i in np.nonzero(borderline)[0]:
            stable[i] = _root_condition(roots[i])
        mask[start:start + _EIG_CHUNK] = stable
    return mask.reshape(nx, ny)


def boundary_locus(k, beta, theta):
    """z(w) = a(w) / (w b(w)) at w = exp(i theta): where pi has a root on the circle."""
    a, b, _ = coeffs.scheme_coefficients(k, beta).arrays()
    w = np.exp(1j * np.asarray(theta))
    return np.polyval(a[::-1], w) / (w * np.polyval(b[::-1], w))


def combine(weights, levels):
    """sum_q weights[q] * levels[q], accumulated in place."""
    acc = levels[0] * weights[0]
    if len(weights) > 1:
        term = np.empty_like(acc)
        for w, u in zip(weights[1:], levels[1:]):
            np.multiply(u, w, out=term)
            acc += term
    return acc


def reference_step(state):
    """The new level of one `integrate.step` of `state.spec`, from the raw coefficients.

    Rebuilds the weights, L * u for every history level and the denominator
    on every call, and checks the level with `isfinite` and max |u|.
    """
    rec = state.coefficients
    k = rec.k
    a = rec.a
    b = rec.b
    c = rec.c
    dt = state.dt
    hist = state.history
    spec = state.spec

    rhs = np.zeros_like(hist[-1] + 0.0)
    for q in range(k):
        rhs -= (float(a[q]) / dt) * hist[q]
    L = spec.linear_symbol
    for q in range(k - 1):
        rhs -= float(b[q]) * (L * hist[q + 1])
    if spec.nonlinear is not None:
        mix = sum(float(c[q]) * hist[q] for q in range(k))
        rhs -= spec.nonlinear(mix)
    if spec.source is not None:
        rhs += spec.source((state.n + float(rec.beta)) * dt)

    denom = float(a[k]) / dt + float(b[k - 1]) * L
    new = rhs / denom
    if not np.all(np.isfinite(new)) or np.max(np.abs(new)) > BLOWUP_LIMIT:
        raise BlowUpError(state.n + 1, (state.n + 1) * dt, hist[-1])
    return new


def imex1_history(spec, k, dt):
    """The k levels of `integrate.initialize`'s default start, by a loop of its own.

    Backward-Euler IMEX substeps at h = dt / STARTER_SUBSTEPS from u0,
    forming u / h and 1 / (1/h + L) itself, with the source at i*dt + (j+1)*h.
    """
    levels = [np.array(spec.u0, copy=True)]
    u = levels[0]
    h = dt / STARTER_SUBSTEPS
    inverse = 1.0 / (1.0 / h + spec.linear_symbol)
    for i in range(k - 1):
        t = i * dt
        for j in range(STARTER_SUBSTEPS):
            rhs = u / h
            if spec.nonlinear is not None:
                g = spec.nonlinear(u)  # in place unless g promotes a real u0
                rhs = np.subtract(rhs, g, out=rhs if np.result_type(rhs, g) == rhs.dtype else None)
            if spec.source is not None:
                rhs = rhs + spec.source(t + (j + 1) * h)
            rhs *= inverse
            u = rhs
            _check_finite(u, i + 1, t + (j + 1) * h)  # level i + 1 is being built
        levels.append(u)
    return levels


def radius_of_circle(grid, values):
    """`spectral.radius_of_circle` by a loop over the x-lines and their sign changes."""
    pos = values > 0.0
    frac_pos = pos.mean()
    if frac_pos == 0.0:
        raise ValueError("level set is empty: no interface to measure")
    if frac_pos > 0.95:
        raise ValueError("level set covers more than 95% of the domain")
    area = 0.0
    dx = grid.dx
    for j in range(grid.ny):
        row = values[:, j]
        nxt = np.roll(row, -1)
        length = dx * float(np.count_nonzero(row > 0.0))
        # linear-interpolation correction at each sign change
        change = (row > 0.0) != (nxt > 0.0)
        for i in np.nonzero(change)[0]:
            a, b = row[i], nxt[i]
            frac = a / (a - b)  # crossing offset from sample i, in cells
            if a > 0.0:
                length += dx * (frac - 1.0)  # interval shorter than full cell
            else:
                length += dx * (1.0 - frac)
        area += length * grid.dy
    return math.sqrt(area / math.pi)


def nonlinear_fourier(params, grid):
    """`spectral.nonlinear_fourier` by `irfft2` and `rfft2`, each call into fresh arrays."""
    mult = -params.mobility * (grid.K2 if params.alpha == 1 else 1.0)

    def gee(u_hat):
        u = np.fft.irfft2(u_hat, s=grid.shape)
        w = u * u
        np.subtract(1.0, w, out=w)
        w *= u
        w /= params.eps ** 2
        hat = np.fft.rfft2(w)
        hat *= mult
        return hat

    return gee


def free_energy(params, grid, values):
    """`spectral.free_energy` with the gradient taken by full-spectrum FFTs in physical space."""
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy)
    KX, KY = np.meshgrid(kx, ky, indexing="ij")
    hat = np.fft.fft2(values)
    ux = np.fft.ifft2(1j * KX * hat).real
    uy = np.fft.ifft2(1j * KY * hat).real
    grad = 0.5 * (ux ** 2 + uy ** 2)
    well = (1.0 - values ** 2) ** 2 / (4.0 * params.eps ** 2)
    return float((grad + well).sum() * grid.cell_area)


def manufactured_source(grid, t):
    """f = u_t + L u + G[u] for the manufactured profile, analytically on the grid."""
    pi = np.pi
    s = np.sin(pi * grid.X) * np.sin(pi * grid.Y)
    sx = pi * np.cos(pi * grid.X) * np.sin(pi * grid.Y)
    sy = pi * np.sin(pi * grid.X) * np.cos(pi * grid.Y)
    es = np.exp(s)
    u = es * math.sin(t)
    lap = es * math.sin(t) * (-2.0 * pi ** 2 * s + sx ** 2 + sy ** 2)
    m, eps2 = MANUFACTURED_PARAMS.mobility, MANUFACTURED_PARAMS.eps ** 2
    return es * math.cos(t) - m * lap - (m / eps2) * u * (1.0 - u * u)
