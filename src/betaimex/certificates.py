"""Machine checks for the energy-multiplier certificates of the shifted schemes.

For each order k the explicit combination C_k acts as a uniform multiplier.
The certificate has four ingredients, all checked numerically here:

  * the Sylvester resultants of (A~, C~) and (D~, C~) are nonzero, so the
    characteristic polynomials share no factor;
  * every root of C~ lies strictly inside the unit disk;
  * the real part of A~(z) / (z C~(z)) on the unit circle reduces, with
    y = cos(theta), to (1 - y) f_k(y) / s_k with a cubic/quartic f_k that must
    be nonnegative on [-1, 1]  (scale s_k = 1, 3, 9, 180 for k = 2..5);
  * likewise Re[D~(z)/C~(z)] reduces to h_k(y) >= 0 on [-1, 1].

f_k and h_k are evaluated from their rational closed forms; the interval
minima are taken over exact rational re-evaluations at the (float) critical
points, because the raw double-precision values of these polynomials lose
several digits to cancellation once beta is large.  Resultants are exact too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import coeffs
from .polynomials import horner, real_critical_points, roots, sylvester_resultant

# smallest admissible multiplier shifts of the classical schemes
ETA_TILDE = {2: 0.0, 3: 0.0836, 4: 0.2878}


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


def _certified_min(coeff_fn, k, beta):
    """Minimum over [-1, 1]: float critical points, exact rational values."""
    critical = real_critical_points(coeff_fn(k, float(beta)))
    candidates = [-1.0, 1.0] + [x for x in critical if -1.0 < x < 1.0]
    exact_coeffs = [Fraction(c) for c in coeff_fn(k, Fraction(beta))]
    best_x, best_v = None, None
    for x in sorted(candidates):
        v = horner(exact_coeffs, Fraction(x))
        if best_v is None or v < best_v:
            best_x, best_v = x, v
    return best_x, float(best_v)


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
    rec = coeffs._build(k, beta_exact)
    # exact resultants: float arithmetic loses too many digits to the massive
    # cancellation in them once beta is large
    res_ac = float(sylvester_resultant(rec.a, rec.c))
    res_dc = float(sylvester_resultant(rec.d, rec.c))
    rmax = float(np.abs(roots(rec.c)).max())
    xf, min_f = _certified_min(_f_coeffs, k, beta_exact)
    xh, min_h = _certified_min(_h_coeffs, k, beta_exact)
    passed = (res_ac != 0.0 and res_dc != 0.0 and rmax < 1.0
              and min_f >= 0.0 and min_h >= 0.0)
    witness = None
    if min_f < 0.0 or min_h < 0.0:
        witness = (xf, min_f) if min_f <= min_h else (xh, min_h)
    return CertificateReport(k=k, beta=float(beta), resultant_AC=res_ac,
                             resultant_DC=res_dc, max_root_modulus_C=rmax,
                             min_f=min_f, min_h=min_h, passed=passed,
                             failure_witness=witness)


def verify_certificate(k, beta) -> CertificateReport:
    """Run the full multiplier check for one (k, beta >= 1)."""
    coeffs.scheme_coefficients(k, beta)  # validates k and beta, warns on admissibility
    return _build_report(k, beta)


def verify_k5_range(betas):
    """Fifth-order sweep over the given betas, each within [0, 100].

    Values below 1 are allowed here (the root-modulus claim covers [0, 100]),
    so the coefficient systems are solved directly without the beta >= 1
    guard used by the public generator.
    """
    reports = []
    for beta in betas:
        if not 0 <= beta <= 100:
            raise ValueError("k=5 verification grid must stay within [0, 100]")
        b = beta if isinstance(beta, Fraction) else Fraction(float(beta))
        reports.append(_build_report(5, b))
    return reports


def stability_condition(k, beta, gamma):
    """Margin eta_k(beta) - sqrt(gamma) of the semi-implicit stability condition."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    margin = coeffs.eta(k, beta) - math.sqrt(gamma)
    return margin, margin > 0.0


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
