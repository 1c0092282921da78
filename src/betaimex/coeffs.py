"""Coefficients of the shifted BDF/IMEX multistep family.

For order k and shift beta >= 1 the scheme advances u_t + L u + G[u] = f by

    (1/dt) * sum_q a[q] * u^{n+1-k+q}
        + L(sum_q b[q] * u^{n+2-k+q})
        + G(sum_q c[q] * u^{n+1-k+q}) = f(t^{n+beta}),

where the a-formula differentiates at t^{n+beta}, and the b- (implicit) and
c- (explicit) formulas interpolate the value there.  The weights are those
of Lagrange differentiation and interpolation at beta on the equispaced
nodes beta-1, ..., beta+k-1; `_integer_record` builds them in integers, and
every record is read off it.  beta = 1 recovers the classical schemes.

The implicit combination splits as b = eta * c + d, with the record's `eta`
hard-wired to (beta-1)/beta, (beta-1)/(beta+1), (beta-1)/(beta+3),
(beta-1)/(beta+15) for k = 2..5; this splitting is what the energy estimates
and identities in `certificates` are built on.  Offset 0 for k = 1 serves the
solver's backward-Euler baseline `_build(1, 1.0)`, read off the integer record
like every other; eta vanishes there, at beta = 1.

`scheme_coefficients(k, beta)` is the one entry point: it returns the whole
record (a, b, c, d, eta).  beta may be a float (each entry the correctly
rounded rational) or a Fraction (exact rational entries).  The certificate
reports and identities take the integer record itself.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
import numbers
import operator
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ORDERS = (2, 3, 4, 5)

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep

# eta_k(beta) = (beta - 1) / (beta + offset)
ETA_DENOMINATOR_OFFSET = {1: 0, 2: 0, 3: 1, 4: 3, 5: 15}


class OrderError(ValueError):
    pass


def _is_integer(k):
    """Whether k is an int or a numpy integer; a bool is not an order."""
    return isinstance(k, numbers.Integral) and not isinstance(k, bool)


def _check_order(k):
    if not _is_integer(k) or k not in ORDERS:
        raise OrderError(
            f"order k={k} is not supported; valid orders are {ORDERS} "
            "(no admissible multiplier exists at sixth order)"
        )


def _check_beta(beta):
    if isinstance(beta, Fraction):
        if beta < 1:
            raise ValueError(f"shift beta={beta} must be >= 1")
        return beta
    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError("shift beta must be finite")
    if beta < 1.0:
        raise ValueError(f"shift beta={beta} must be >= 1")
    return beta


@dataclass(frozen=True)
class SchemeCoefficients:
    """Full coefficient record for one (k, beta) scheme.

    Tuples are ascending in the level index q; `a` has k+1 entries, the rest
    k entries.  Immutable, so instances can be shared freely across threads.
    """

    k: int
    beta: object
    a: tuple
    b: tuple
    c: tuple
    d: tuple
    eta: object

    def arrays(self):
        return (np.asarray(self.a, dtype=float),
                np.asarray(self.b, dtype=float),
                np.asarray(self.c, dtype=float))


# true within `_admissibility_warnings_off`; a flag, not a warnings filter,
# since changing the filters resets every module's once-only warning registry
_admissibility_quiet = contextvars.ContextVar("_admissibility_quiet", default=False)


def _admissibility_warning(k, beta):
    if _admissibility_quiet.get():
        return
    b = float(beta)
    if k == 4 and b < 2.0:
        message = f"k=4 with beta={b:g}: multiplier certificate requires beta >= 2"
    elif k == 5 and b < 6.5:
        message = f"k=5 with beta={b:g}: multiplier certificate verified only for beta >= 6.5"
    else:
        return
    # attribute the warning to the first caller outside this package, however
    # deep inside it the check ran (stacklevel 1 is this frame)
    frame, level = sys._getframe(), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


@contextlib.contextmanager
def _admissibility_warnings_off():
    """Drop the admissibility warnings within the block, and no other warning.

    For runs whose shift is fixed by design or was already reported once.
    """
    token = _admissibility_quiet.set(True)
    try:
        yield
    finally:
        _admissibility_quiet.reset(token)


def _lagrange_numerators(Y, derivative):
    # l_j(0) (derivative: l_j'(0)) for the nodes Y_j / D, where Y_j = Y_0 + j D,
    # times (N-1)! D^(N-1-derivative): the integer +-C(N-1, j) times coefficient
    # 0 (or 1) of prod_{i != j} (x - Y_i); listed from the last node to the first
    N = len(Y)
    out = []
    for j in range(N - 1, -1, -1):
        c0, c1 = 1, 0
        for i, y in enumerate(Y):
            if i != j:
                c0, c1 = -y * c0, c0 - y * c1
        w = math.comb(N - 1, j) * (c1 if derivative else c0)
        out.append(-w if (N - 1 - j) % 2 else w)
    return out


def _integer_record(k, beta):
    """The weights (a, b, c, d) at shift beta, each as (integer numerators, denominator).

    beta = n/D is a Fraction; each denominator is positive.  The weights are
    the Lagrange closed forms on the scaled nodes n + s*D, whose differences
    are integer multiples of D, so no rational arithmetic is needed.  Every
    coefficient record is read off this one.
    """
    n, D = beta.numerator, beta.denominator
    back = [n - D + j * D for j in range(k + 1)]  # D * (beta - 1 + j)
    den = math.factorial(k - 1) * D ** (k - 1)
    a = [-x for x in _lagrange_numerators(back, True)]
    b = _lagrange_numerators(back[:k], False)
    c = _lagrange_numerators(back[1:], False)
    # d = b - eta * c with eta = (n - D) / (n + offset * D)
    e_num, e_den = n - D, n + ETA_DENOMINATOR_OFFSET[k] * D
    d = [bq * e_den - e_num * cq for bq, cq in zip(b, c)]
    return (a, k * den), (b, den), (c, den), (d, den * e_den)


def _build(k, beta) -> SchemeCoefficients:
    # no beta >= 1 guard: only the tests call this below 1 (`verify` reads
    # `_integer_record` itself).  A float shift gets each rational rounded
    # once: int / int is correctly rounded
    entry = Fraction if isinstance(beta, Fraction) else operator.truediv
    a, b, c, d = (tuple(entry(x, den) for x in nums)
                  for nums, den in _integer_record(k, Fraction(beta)))
    return SchemeCoefficients(k=k, beta=beta, a=a, b=b, c=c, d=d,
                              eta=(beta - 1) / (beta + ETA_DENOMINATOR_OFFSET[k]))


def scheme_coefficients(k, beta):
    """The (a, b, c, d, eta) record of the order-k scheme at shift beta; k in 2..5."""
    _check_order(k)
    beta = _check_beta(beta)
    _admissibility_warning(k, beta)
    try:
        return _build(k, beta)
    except OverflowError:  # a float weight past the float range; a Fraction never overflows
        raise ValueError(f"order k={k} at shift beta={beta!r} has a weight beyond "
                         "the float range") from None


def exact_scheme_coefficients(k, beta):
    """`scheme_coefficients(k, Fraction(beta))`.

    Not exported; perfbench's `coeffs.exact_ms` probe times it.
    """
    return scheme_coefficients(k, Fraction(beta))
