"""Dense univariate real polynomials: evaluation, roots, resultants, critical points.

Coefficients are stored in ascending degree order.  Root finding goes through
the companion matrix (balanced eigensolve); resultants are Sylvester-matrix
determinants, always computed exactly in rational arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

TRIM_TOL = 1e-14
ROOT_RESIDUAL_TOL = 1e-8


def _trim(coeffs):
    c = [float(x) for x in coeffs]
    if not c:
        return [0.0]
    scale = max(abs(x) for x in c)
    if scale == 0.0:
        return [0.0]
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= TRIM_TOL * scale:
        n -= 1
    return c[:n]


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial sum(coeffs[i] * x**i); trailing near-zeros trimmed."""

    coeffs: tuple

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[float]) -> "RealPolynomial":
        return cls(tuple(_trim(coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0.0 * x + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RealPolynomial":
        if self.degree == 0:
            return RealPolynomial((0.0,))
        return RealPolynomial.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )


def roots(p: RealPolynomial) -> np.ndarray:
    """All complex roots via companion-matrix eigenvalues, with a residual guard."""
    c = _trim(p.coeffs if isinstance(p, RealPolynomial) else p)
    n = len(c) - 1
    if n < 1:
        raise ValueError("polynomial is constant; no roots to compute")
    lead = c[n]
    comp = np.zeros((n, n))
    comp[np.arange(1, n), np.arange(n - 1)] = 1.0
    comp[:, -1] = [-ci / lead for ci in c[:n]]
    rts = np.linalg.eigvals(comp)
    scale = max(abs(ci) for ci in c)
    poly = RealPolynomial(tuple(c))
    for r in rts:
        resid = abs(poly(r)) / (scale * max(1.0, abs(r)) ** n)
        if not resid < ROOT_RESIDUAL_TOL:
            raise ArithmeticError(f"root residual {resid:.3e} exceeds tolerance")
    return rts


def _coeff_list(p):
    if isinstance(p, RealPolynomial):
        return list(p.coeffs)
    return list(p)


def _exact_trim(c):
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def sylvester_matrix(p, q):
    """Sylvester matrix of p (degree m) and q (degree n): n rows of p, then m rows of q,
    coefficients in descending order, each row shifted one column right."""
    pc = _exact_trim(_coeff_list(p))
    qc = _exact_trim(_coeff_list(q))
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


def sylvester_resultant(p, q):
    """Determinant of the Sylvester matrix, as an exact Fraction."""
    return _exact_det(sylvester_matrix(p, q))


def _real_roots_quadratic(c0, c1, c2):
    scale = max(abs(c0), abs(c1), abs(c2))
    c0, c1, c2 = c0 / scale, c1 / scale, c2 / scale
    if abs(c2) < 1e-12:
        # numerically linear: the second root lies beyond ~1e12
        return [-c0 / c1] if abs(c1) >= 1e-12 else []
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    if c1 >= 0.0:
        qq = -(c1 + s) / 2.0
    else:
        qq = -(c1 - s) / 2.0
    out = [qq / c2]
    if qq != 0.0:
        out.append(c0 / qq)
    else:
        out.append(0.0)
    return out


def _real_roots_cubic(c0, c1, c2, c3):
    scale = max(abs(c0), abs(c1), abs(c2), abs(c3))
    c0, c1, c2, c3 = c0 / scale, c1 / scale, c2 / scale, c3 / scale
    if abs(c3) < 1e-12:
        # numerically quadratic: the far root is outside any finite interval
        return _real_roots_quadratic(c0, c1, c2)
    # depressed form t^3 + p t + q with x = t - c2/(3 c3)
    a, b, c, d = c3, c2, c1, c0
    shift = -b / (3.0 * a)
    p = (3.0 * a * c - b * b) / (3.0 * a * a)
    q = (2.0 * b ** 3 - 9.0 * a * b * c + 27.0 * a * a * d) / (27.0 * a ** 3)
    disc = -(4.0 * p ** 3 + 27.0 * q * q)
    if disc >= 0.0 and p < 0.0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg)
        return [shift + m * math.cos((theta - 2.0 * math.pi * kk) / 3.0)
                for kk in range(3)]
    # single real root (Cardano)
    half_q = -q / 2.0
    rad = math.sqrt(max(0.0, q * q / 4.0 + p ** 3 / 27.0))
    u = math.copysign(abs(half_q + rad) ** (1.0 / 3.0), half_q + rad)
    v = math.copysign(abs(half_q - rad) ** (1.0 / 3.0), half_q - rad)
    return [shift + u + v]


def real_critical_points(p: RealPolynomial):
    """Real roots of p', in closed form up to cubic derivatives, else via companion."""
    dp = p.derivative()
    if dp.degree == 0:
        return []
    c = list(dp.coeffs)
    if dp.degree == 1:
        return [-c[0] / c[1]]
    if dp.degree == 2:
        return _real_roots_quadratic(*c)
    if dp.degree == 3:
        return _real_roots_cubic(*c)
    rts = roots(dp)
    return [r.real for r in rts if abs(r.imag) < 1e-9 * max(1.0, abs(r))]
