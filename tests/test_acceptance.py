"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines stream; the whole suite finishes in a few minutes on a laptop.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from betaimex import certificates as cert
from betaimex import coeffs
from betaimex.cli import _ordered_map
from betaimex.experiments import (ExperimentConfig, run_allen_cahn_radius,
                                  run_cahn_hilliard, run_convergence)
from betaimex.stability import scan_region
from oracles import (certificate_polynomials, closed_form, energy_identity_residual,
                     g4_polynomial, printed_resultants, telescoping_coefficients,
                     telescoping_identity_check)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

BETA_GRID = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0)


def _verdict(num, name, ok, elapsed, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    if detail:
        line += f"  {detail}"
    print(line)
    return ok


def test_criterion_01_coefficient_agreement():
    t0 = time.time()
    worst = 0.0
    for k in (2, 3, 4):
        for beta in BETA_GRID:
            vd = coeffs.scheme_coefficients(k, beta)
            cf = closed_form(k, beta)
            for name in ("a", "b", "c", "d"):
                got = np.asarray(getattr(vd, name), dtype=float)
                ref = np.asarray(getattr(cf, name), dtype=float)
                worst = max(worst, np.abs(got - ref).max() / max(np.abs(ref).max(), 1.0))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _verdict(1, "coefficient agreement", ok, elapsed, f"worst rel dev {worst:.2e}")


def test_criterion_02_formula_exactness_and_truncation_orders():
    t0 = time.time()
    worst = 0.0
    for k in coeffs.ORDERS:
        for beta in BETA_GRID:
            a, b, c = coeffs.scheme_coefficients(k, beta).arrays()
            target = beta + k - 1
            for m in range(k + 1):
                rhs = m * target ** (m - 1) if m else 0.0
                lhs = sum(a[q] * q ** m for q in range(k + 1))
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs), np.abs(a).max()))
            for m in range(k):
                val = target ** m
                lb = sum(b[q] * (q + 1) ** m for q in range(k))
                lc = sum(c[q] * q ** m for q in range(k))
                worst = max(worst, abs(lb - val) / max(1.0, val, np.abs(b).max()))
                worst = max(worst, abs(lc - val) / max(1.0, val, np.abs(c).max()))
    slopes_ok = True
    detail = []
    for k, beta in ((2, 3.0), (3, 2.0), (4, 2.0)):
        rec = coeffs.scheme_coefficients(k, beta)
        a, b, c = rec.arrays()
        for which, weights, offset, nominal in (("a", a, 1 - k, k + 1),
                                                ("b", b, 2 - k, k),
                                                ("c", c, 1 - k, k)):
            errs, dts = [], []
            for p in range(4, 9):
                dt = 2.0 ** -p
                ts = 0.3 + (np.arange(len(weights)) + offset) * dt
                approx = float(weights @ np.sin(ts))
                shift = 0.3 + beta * dt
                ref = dt * math.cos(shift) if which == "a" else math.sin(shift)
                errs.append(abs(approx - ref))
                dts.append(dt)
            slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
            slopes_ok &= abs(slope - nominal) < 0.15
            detail.append(f"{which}{k}:{slope:.2f}")
    elapsed = time.time() - t0
    ok = worst < 1e-10 and slopes_ok and elapsed < 5.0
    assert _verdict(2, "formula exactness + truncation orders", ok, elapsed,
                    f"monomial dev {worst:.2e}; slopes " + " ".join(detail))


def test_criterion_03_certificate_suite():
    t0 = time.time()
    ok = True
    for k, lo in ((2, 1.0), (3, 1.0), (4, 2.0)):
        for beta in np.arange(lo, 100.0001, 0.5):
            ok &= cert.verify_certificate(k, float(beta)).passed
    rep = cert.verify_certificate(4, 1.0)
    ok &= not rep.passed
    _, h4 = certificate_polynomials(4, 1.0)
    ok &= abs(h4(0.2) - (-0.312)) <= 1e-3
    f4, _ = certificate_polynomials(4, 1.0)
    f3, _ = certificate_polynomials(3, 1.0)
    ok &= f4(1.0) == 18.0 and f3(1.0) == 6.0 and g4_polynomial(1.0)(1.0) == 51.0
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    assert _verdict(3, "multiplier certificate suite", ok, elapsed,
                    f"h4(0.2)={h4(0.2):.4f}")


def test_criterion_04_resultant_closed_forms():
    t0 = time.time()
    worst = 0.0
    for k in (2, 3, 4, 5):
        for beta in BETA_GRID + (25.0, 100.0):
            ac, dc = printed_resultants(k, Fraction(beta))
            rep = cert.verify_certificate(k, beta)
            worst = max(worst,
                        abs(rep.resultant_AC - float(ac)) / abs(float(ac)),
                        abs(rep.resultant_DC - float(dc)) / abs(float(dc)))
    elapsed = time.time() - t0
    ok = worst <= 1e-10
    assert _verdict(4, "resultant closed forms", ok, elapsed, f"worst rel dev {worst:.2e}")


def test_criterion_05_fifth_order_verification():
    t0 = time.time()
    betas = [Fraction(i, 10) for i in range(1001)]  # beta = 0.0(0.1)100.0
    reports = [cert.verify_certificate(5, b) for b in betas]
    by_beta = {round(r.beta, 10): r for r in reports}
    f_ok = all(r.min_f >= -1e-9 for r in reports if r.beta >= 1.0)
    h_hi_ok = all(r.min_h >= -1e-9 for r in reports if r.beta >= 6.5)
    h_lo_neg = any(r.min_h < 0.0 for r in reports if 1.0 <= r.beta < 6.0)
    rmax_ok = all(r.max_root_modulus_C < 1.0 for r in reports)
    elapsed = time.time() - t0
    ok = f_ok and h_hi_ok and h_lo_neg and rmax_ok and elapsed < 120.0
    assert _verdict(5, "fifth-order range verification", ok, elapsed,
                    f"min_h(6.5)={by_beta[6.5].min_h:.2e} "
                    f"rmax_max={max(r.max_root_modulus_C for r in reports):.6f}")


def test_criterion_06_telescoping_identities():
    t0 = time.time()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for k in (2, 3):
        for beta in (1.0, 2.0, 5.0, 10.0):
            for _ in range(100):
                seq = rng.normal(size=rng.integers(k + 2, 60))
                residual = telescoping_identity_check(k, beta, seq)
                worst = max(worst, residual / max(1.0, np.abs(seq).max()) ** 2)
    positive = True
    for beta in np.arange(1.0, 100.001, 0.5):
        c2 = telescoping_coefficients(2, float(beta))
        c3 = telescoping_coefficients(3, float(beta))
        positive &= c2.leading_a > 0 and c3.leading_a > 0 and c3.leading_a_hat > 0
    # the G-matrix identity of every order, relative to its bound
    route = max(energy_identity_residual(k, float(beta)) / bound
                for k, lo, hi, bound in ((2, 1.0, 100.0, 1e-12), (3, 1.0, 100.0, 1e-12),
                                         (4, 2.0, 10.0, 1e-12), (5, 6.5, 10.0, 1e-10))
                for beta in np.arange(lo, hi + 1e-9, 0.5))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and positive and route <= 1.0
    assert _verdict(6, "telescoping identities", ok, elapsed,
                    f"worst residual {worst:.2e}, G-route {route:.2e} of its bound")


def test_criterion_07_stability_regions():
    t0 = time.time()
    areas = {}
    scan_times = []
    for k, betas in ((2, (1.0, 3.0, 5.0)), (3, (1.0, 3.0, 5.0)), (4, (1.0, 3.0, 5.0))):
        for beta in betas:
            ts = time.time()
            grid = scan_region(k, beta)
            scan_times.append(time.time() - ts)
            areas[(k, beta)] = grid.area
            if k == 2:
                re = grid.re_lo + (np.arange(grid.nx) + 0.5) * (grid.re_hi - grid.re_lo) / grid.nx
                assert grid.mask[re <= 0.0, :].all(), f"left half-plane not stable at beta={beta}"
    mono = all(areas[(k, 5.0)] > areas[(k, 3.0)] > areas[(k, 1.0)] for k in (3, 4))
    table_claim = areas[(4, 3.0)] > areas[(2, 1.0)]
    elapsed = time.time() - t0
    ok = mono and table_claim and max(scan_times) < 30.0
    assert _verdict(7, "stability regions", ok, elapsed,
                    f"max scan {max(scan_times):.1f}s; area(4,3)={areas[(4,3.0)]:.1f} "
                    f"vs area(2,1)={areas[(2,1.0)]:.1f}")


def test_criterion_08_convergence_study():
    t0 = time.time()
    slopes_ok = mono_ok = True
    details = []
    errors = {}
    for k, betas in ((2, (1.0, 3.0, 5.0)), (3, (1.0, 3.0, 5.0)), (4, (2.0, 3.0, 5.0))):
        for beta in betas:
            rep = run_convergence(ExperimentConfig(name="converge", k=k, beta=beta))
            errors[(k, beta)] = rep.errors
            slopes_ok &= abs(rep.slope - k) <= 0.25
            details.append(f"{k}/{beta:g}:{rep.slope:.2f}")
        for i in range(len(rep.dts)):
            col = [errors[(k, b)][i] for b in betas]
            mono_ok &= all(x <= y * (1 + 1e-9) for x, y in zip(col, col[1:]))
    elapsed = time.time() - t0
    ok = slopes_ok and mono_ok and elapsed < 300.0
    assert _verdict(8, "manufactured-solution convergence", ok, elapsed, " ".join(details))


def test_criterion_09_interface_benchmark():
    t0 = time.time()
    devs = {}
    complete = True
    # the four independent runs go through the pool that `allen-cahn` uses
    configs = [ExperimentConfig(name="allen-cahn", k=k, beta=beta, small=True)
               for k, beta in ((1, 1.0), (2, 1.0), (3, 3.0), (4, 3.0))]
    with _ordered_map(run_allen_cahn_radius, configs) as reports:
        for rep in reports:
            complete &= not rep.diverged
            devs[(rep.k, rep.beta)] = (rep.max_relative_deviation if not rep.diverged
                                       else float("inf"))
    elapsed = time.time() - t0
    ordering = devs[(4, 3.0)] < devs[(1, 1.0)]
    ok = complete and ordering and elapsed < 900.0
    assert _verdict(9, "interface radius benchmark", ok, elapsed,
                    f"dev(4,3)={devs[(4,3.0)]:.2e} < dev(1,1)={devs[(1,1.0)]:.2e}")


def test_criterion_10_conserved_flow_stability_ordering():
    t0 = time.time()
    config = ExperimentConfig(name="cahn-hilliard", small=True,
                              schemes=((3, 1.0), (4, 1.0), (3, 3.0), (4, 2.5)))
    report = run_cahn_hilliard(config, with_reference=False)
    verdict = {(v.k, v.beta): v for v in report.verdicts}
    diverged_ok = (not verdict[(3, 1.0)].stable) and (not verdict[(4, 1.0)].stable)
    stable_ok = verdict[(3, 3.0)].stable and verdict[(4, 2.5)].stable
    bounded_ok = True
    for key in ((3, 3.0), (4, 2.5)):
        energy = np.asarray(verdict[key].energy)
        bounded_ok &= np.all(np.isfinite(energy)) and energy.max() <= 10.0 * energy[0]
    elapsed = time.time() - t0
    ok = diverged_ok and stable_ok and bounded_ok and elapsed < 600.0
    assert _verdict(10, "conserved-flow stability ordering", ok, elapsed,
                    f"blowups at steps {verdict[(3,1.0)].blowup_step}/"
                    f"{verdict[(4,1.0)].blowup_step}")
