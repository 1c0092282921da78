"""Absolute-stability regions of the shifted BDF schemes.

For the test equation u' = lambda*u the scheme reduces to the recurrence
sum_q a[q] w^{n+1-k+q} = z * sum_q b[q] w^{n+2-k+q} with z = lambda*dt, whose
characteristic polynomial in the amplification factor w is

    pi(w) = sum_{q=0}^{k} (a[q] - z*b[q-1]) w^q        (b[-1] := 0).

z belongs to the stability region iff pi satisfies the root condition: all
roots in the closed unit disk, roots on the boundary simple.

`scan_region` applies the Schur-Cohn reduction (Miller 1971; Hairer-Wanner II,
sec. V.1) to whole chunks of z at once, with no eigensolve.  A chunk holds its
coefficients column-major, one row per power of w and one contiguous column
per point, so each step of the reduction works on whole rows.  The pass at
radius 1 - `_BAND` proves most stable points; the pass at 1 + `_BAND` then runs
only on the points it left open, and those with a root within `_BAND` of the
unit circle go to the single-point check `is_stable`.

Chunks are sized for the cache: a row of `_CHUNK` = 8192 complex points is
128 KiB, so the two (k + 1)-row arrays the reduction alternates between take
at most 1.5 MiB (k = 5) and stay in a 2 MiB L2.  Every chunk reuses one
workspace allocated per scan, so the chunk loop allocates only single rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import scheme_coefficients

ROOT_TOL = 1e-9
SEPARATION_TOL = 1e-6

DEFAULT_WINDOW = (-12.0, 4.0, -8.0, 8.0)
DEFAULT_RESOLUTION = (600, 600)

_CHUNK = 8192  # points per chunk; see the module docstring
_BAND = 1e-6  # far above ROOT_TOL; the Schur-Cohn verdicts hold outside it


def characteristic_coeffs(k, beta, z):
    """Ascending coefficients of pi(w) at z; an array z gives one row per point."""
    a, b, _ = scheme_coefficients(k, beta).arrays()
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


def is_stable(k, beta, z):
    """Root-condition check at one point z."""
    coef = characteristic_coeffs(k, beta, z)
    scale = np.abs(coef).max()
    if abs(coef[-1]) <= 1e-14 * scale:
        # leading coefficient vanished: one amplification factor escaped to
        # infinity, so the root condition fails in any neighbourhood
        return False
    return _root_condition(np.roots(coef[::-1]))


@dataclass
class StabilityGrid:
    """Boolean stability mask over a rectangle of the z-plane.

    mask[i, j] is the verdict at re[i] = re_lo + (i+0.5)*dre,
    im[j] = im_lo + (j+0.5)*dim (cell centres).
    """

    k: int
    beta: float
    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float
    nx: int
    ny: int
    mask: np.ndarray
    area: float

    @property
    def window(self):
        return (self.re_lo, self.re_hi, self.im_lo, self.im_hi)


def _schur_inside(p, spare):
    """True per column of ascending coefficients where every root lies in |w| < 1.

    p holds one row per power of w and one column per point.  The reduction
    overwrites p and spare, an array of p's shape.
    """
    inside = np.ones(p.shape[1], dtype=bool)
    with np.errstate(all="ignore"):  # columns already outside may overflow to nan
        for _ in range(len(p) - 1):
            c0, cn = p[0], p[-1]
            inside &= np.abs(c0) < np.abs(cn)
            g = c0 / cn.conj()
            # p - g p*, where p* reverses and conjugates p, loses its constant
            # term, so only the surviving entries are formed, in spare; g * p*
            # keeps that operand order, since numpy's complex product rounds
            # differently with its operands swapped
            t = np.conjugate(p[-2::-1], out=spare[:len(p) - 1])
            p, spare = np.subtract(p[1:], np.multiply(g, t, out=t), out=t), p
    return inside


def scan_region(k, beta, window=DEFAULT_WINDOW, resolution=DEFAULT_RESOLUTION):
    """Evaluate the root condition on a cell-centred grid and sum the stable area."""
    re_lo, re_hi, im_lo, im_hi = (float(v) for v in window)
    nx, ny = (int(v) for v in resolution)
    if not (re_lo < re_hi and im_lo < im_hi and nx > 0 and ny > 0):
        raise ValueError("window must be nonempty and resolution positive")

    # a finite area needs finite bounds and cell sizes, and keeps the summed
    # stable area finite too
    if not math.isfinite((re_hi - re_lo) * (im_hi - im_lo)):
        raise ValueError("window must be finite, with a finite area")

    dre = (re_hi - re_lo) / nx
    dim = (im_hi - im_lo) / ny
    re = re_lo + (np.arange(nx) + 0.5) * dre
    im = im_lo + (np.arange(ny) + 0.5) * dim
    z = (re[:, None] + 1j * im[None, :]).ravel()

    a, b, _ = scheme_coefficients(k, beta).arrays()
    b_ext = np.concatenate(([0.0], b))[:, None]
    # r^q turns pi(w) into pi(r w), whose roots lie in |w| < 1 iff pi's lie in |w| < r
    powers = np.arange(k + 1)[:, None]
    inner, outer = (1.0 - _BAND) ** powers, (1.0 + _BAND) ** powers
    mask = np.zeros(z.size, dtype=bool)
    work = np.empty((3, k + 1, min(_CHUNK, z.size)), dtype=complex)
    for start in range(0, z.size, _CHUNK):
        zc = z[start:start + _CHUNK]
        coef, p, spare = work[:, :, :zc.size]
        # characteristic_coeffs(k, beta, zc) transposed: one row per power
        np.subtract(a[:, None], np.multiply(b_ext, zc, out=coef), out=coef)
        scale = np.abs(coef[:k]).max(axis=0)
        regular = np.abs(coef[k]) > 1e-14 * np.maximum(scale, 1.0)
        stable = regular & _schur_inside(np.multiply(coef, inner, out=p), spare)
        rest = np.nonzero(regular & ~stable)[0]
        p, spare = p[:, :rest.size], spare[:, :rest.size]
        for i in rest[_schur_inside(np.multiply(coef[:, rest], outer, out=p), spare)]:
            stable[i] = is_stable(k, beta, zc[i])
        mask[start:start + _CHUNK] = stable

    mask = mask.reshape(nx, ny)
    area = float(mask.sum()) * dre * dim
    return StabilityGrid(k=k, beta=float(beta), re_lo=re_lo, re_hi=re_hi,
                         im_lo=im_lo, im_hi=im_hi, nx=nx, ny=ny,
                         mask=mask, area=area)
