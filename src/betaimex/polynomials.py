"""Dense univariate polynomials: evaluation, roots, resultants, critical points.

A polynomial is a plain sequence of coefficients in ascending degree order,
exact (int/Fraction) or float.  Root finding goes through the companion matrix
(balanced eigensolve); resultants are computed exactly by the subresultant
remainder sequence in integers, and by the one exact root test, the Schur-Cohn
reduction on Gaussian-integer coefficients, whether every root lies in the open
unit disk or meets the root condition of the closed one.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TRIM_TOL = 1e-14
ROOT_RESIDUAL_TOL = 1e-8


def _trim(coeffs):
    c = [float(x) for x in coeffs]
    scale = max((abs(x) for x in c), default=0.0)
    if scale == 0.0:
        return [0.0]
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= TRIM_TOL * scale:
        n -= 1
    return c[:n]


def horner(coeffs, x, q=1):
    """sum(coeffs[i] * x**i * q**(e - i)), e = len(coeffs) - 1, in the inputs' arithmetic:
    the value at x for q = 1, the homogeneous form at (x, q) for an integer q."""
    acc, q_pow = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        q_pow *= q
        acc = acc * x + c * q_pow
    return acc


def roots(coeffs) -> np.ndarray:
    """All complex roots via companion-matrix eigenvalues, with a residual guard."""
    c = _trim(coeffs)
    n = len(c) - 1
    if n < 1:
        raise ValueError("polynomial is constant; no roots to compute")
    lead = c[n]
    comp = np.zeros((n, n))
    comp[np.arange(1, n), np.arange(n - 1)] = 1.0
    comp[:, -1] = [-ci / lead for ci in c[:n]]
    rts = np.linalg.eigvals(comp)
    scale = max(abs(ci) for ci in c)
    for r in rts:
        resid = abs(horner(c, r)) / (scale * max(1.0, abs(r)) ** n)
        if not resid < ROOT_RESIDUAL_TOL:
            raise ArithmeticError(f"root residual {resid:.3e} exceeds tolerance")
    return rts


def _exact_trim(c):
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _integer_multiple(p):
    # (P, L): integer coefficients P and L > 0 with p = P / L
    if all(type(x) is int for x in p):
        return list(p), 1
    fr = [Fraction(x) for x in p]
    den = math.lcm(*(x.denominator for x in fr))
    return [x.numerator * (den // x.denominator) for x in fr], den


def _prem(a, b):
    # pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, on a copy of a
    r = list(a)
    n, lb = len(b) - 1, b[-1]
    for i in range(len(a) - 1, n - 1, -1):
        f = r[i]
        for j in range(i - n):
            r[j] *= lb
        for j in range(n):
            r[i - n + j] = r[i - n + j] * lb - f * b[j]
    return _exact_trim(r[:n])


def _roots_inside_unit_disk(p, closed=False):
    """Whether every root of p lies in |w| < 1 or, closed, meets the root condition.

    p has Gaussian-integer coefficients, ints or (re, im) pairs of ints.
    Schur-Cohn reduction: all n roots lie inside iff |p_0| < |p_n| and all
    n - 1 roots of (conj(p_n) p(w) - p_0 p*(w)) / w do, p* the reversed
    conjugate of p; each step divides out the content.  The root condition
    (every root in |w| <= 1, those on the circle simple) adds Miller's branch
    (Miller 1971): where that combination vanishes identically, p is
    self-inversive and meets it iff every root of p' lies in |w| < 1.
    """
    p = [(x, 0) if isinstance(x, int) else x for x in p]
    while len(p) > 1:
        (a, b), (c, d) = p[0], p[-1]  # p_0 = a + bi, p_n = c + di
        lo, hi = a * a + b * b, c * c + d * d
        if lo > hi or (lo == hi and not closed):
            return False
        q = [(c * x + d * y - a * u - b * v, c * y - d * x - b * u + a * v)
             for (x, y), (u, v) in zip(p[1:], reversed(p[:-1]))]
        g = math.gcd(*[t for pair in q for t in pair])
        if lo < hi:
            p = [(x // g, y // g) for x, y in q]
        elif g == 0 and hi:  # closed, and p is self-inversive
            p, closed = [(i * x, i * y) for i, (x, y) in enumerate(p)][1:], False
        else:
            return False
    return True


def sylvester_resultant(p, q):
    """Resultant (Sylvester determinant) of p and q as an exact Fraction.

    The inputs (int, Fraction or float) are scaled to integer polynomials
    P = L_p p and Q = L_q q; their resultant comes from the subresultant PRS
    (Brown & Traub 1971; Cohen, Alg. 3.3.7), which stays in integers, and
    Res(p, q) = Res(P, Q) / (L_p^deg q * L_q^deg p).
    """
    (a, la), (b, lb) = _integer_multiple(p), _integer_multiple(q)
    a, b = _exact_trim(a), _exact_trim(b)
    m, n = len(a) - 1, len(b) - 1
    if m < 1 or n < 1:
        raise ValueError("both polynomials must have degree >= 1")
    scale = la ** n * lb ** m
    # t collects the contents and the sign (-1)^(deg a * deg b) of each swap;
    # g and h are the scalars the subresultant PRS divides out
    ca, cb = math.gcd(*a), math.gcd(*b)
    a, b = [x // ca for x in a], [x // cb for x in b]
    t = ca ** n * cb ** m
    if m < n:
        a, b = b, a
        if m % 2 and n % 2:
            t = -t
    g = h = 1
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        if m % 2 and n % 2:
            t = -t
        r = _prem(a, b)
        if r[-1] == 0:
            return Fraction(0)
        delta = m - n
        div = g * h ** delta
        a, b = b, [x // div for x in r]
        g = a[-1]
        h = g ** delta // h ** (delta - 1) if delta else h
    m = len(a) - 1
    h = b[0] ** m // h ** (m - 1)
    return Fraction(t * h, scale)


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
        # p * m underflows to 0 only where |p| < 1e-200: the three roots then
        # lie within m < 1e-100 of the shift, whatever angle they take
        arg = 3.0 * q / (p * m) if p * m else 0.0
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


def real_critical_points(coeffs):
    """Real roots of p' in closed form; p' may be at most cubic."""
    c = _trim(coeffs)
    dc = _trim([i * x for i, x in enumerate(c)][1:])
    deg = len(dc) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-dc[0] / dc[1]]
    if deg == 2:
        return _real_roots_quadratic(*dc)
    if deg == 3:
        return _real_roots_cubic(*dc)
    raise ValueError(f"p' has degree {deg}; closed forms cover at most cubic p'")
