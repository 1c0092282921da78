"""Absolute-stability regions of the shifted BDF schemes.

For the test equation u' = lambda*u the scheme reduces to the recurrence
sum_q a[q] w^{n+1-k+q} = z * sum_q b[q] w^{n+2-k+q} with z = lambda*dt, whose
characteristic polynomial in the amplification factor w is

    pi(w) = sum_{q=0}^{k} (a[q] - z*b[q-1]) w^q        (b[-1] := 0).

z belongs to the stability region iff pi satisfies the root condition: all
roots in the closed unit disk, roots on the boundary simple.

`scan_region` applies the Schur-Cohn reduction (Miller 1971; Hairer-Wanner II,
sec. V.1) to whole chunks of z at once, in floats and with no eigensolve.  A
chunk holds its coefficients column-major, one row per power of w and one
contiguous column per point, so each step of the reduction works on whole
rows.  The pass at radius 1 - `_BAND` proves most stable points; the pass at
1 + `_BAND` then runs only on the points it left open, and those with a root
within `_BAND` of the unit circle go to `is_stable`.  That decides the root
condition exactly, by Miller's closed-disk rule, on pi of the exact scheme at
the exact (dyadic) value of z: a simple root on the circle, such as w = 1 at
z = 0, passes, and a double one fails, with no tolerance.

The weights a and b are real, so pi at conj(z) has the conjugate
coefficients of pi at z and the same root moduli: the region is symmetric
about the real axis.  The float Schur-Cohn steps use only +, -, *, /, conj and
abs, which IEEE arithmetic carries through conjugation exactly, and the exact
test sees the same root moduli, so the scan reaches the same verdict at z and
at conj(z).  A window with im_lo == -im_hi is therefore scanned on its first
ceil(ny/2) imaginary columns only, and column ny-1-j is a copy of column j;
any other window is scanned whole.

Chunks are sized for the cache: a row of `_CHUNK` = 8192 complex points is
128 KiB, so the two (k + 1)-row arrays the reduction alternates between take
at most 1.5 MiB (k = 5) and stay in a 2 MiB L2.  Every chunk reuses one
workspace allocated per scan, so the chunk loop allocates only single rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coeffs
from .polynomials import _roots_inside_unit_disk

DEFAULT_WINDOW = (-12.0, 4.0, -8.0, 8.0)
DEFAULT_RESOLUTION = (600, 600)

_CHUNK = 8192  # points per chunk; see the module docstring
_BAND = 1e-6  # the float Schur-Cohn verdicts hold outside it


def is_stable(k, beta, z):
    """Root condition at one point z, decided exactly.

    pi is taken on the scheme's exact weights at the exact (dyadic) value of
    z, scaled to Gaussian-integer coefficients.
    """
    coeffs._check_order(k)
    coeffs._admissibility_warning(k, coeffs._check_beta(beta))
    (a, la), (b, lb), _, _ = coeffs._integer_record(k, Fraction(beta))
    (zr, dr), (zi, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    # la lb dr di pi(w): a[q] lb dr di - (zr di + i zi dr) b[q-1] la
    return _roots_inside_unit_disk([(x * lb * dr * di - zr * di * y * la, -zi * dr * y * la)
                                    for x, y in zip(a, [0] + b)], closed=True)


@dataclass
class StabilityGrid:
    """Boolean stability mask over a rectangle of the z-plane.

    mask[i, j] is the verdict at re[i] = re_lo + (i+0.5)*dre,
    im[j] = im_lo + (j+0.5)*dim (cell centres).  On a window symmetric about
    the real axis (im_lo == -im_hi), a cell of the upper half, j >= ceil(ny/2),
    holds the verdict at re[i] - 1j*im[ny-1-j], the conjugate of its mirror
    cell's centre; that equals the nominal centre up to rounding of im.
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
    # a window symmetric about the real axis is scanned once per conjugate pair
    # of columns; the module docstring says why the mirror copy is exact
    half = (ny + 1) // 2 if im_lo == -im_hi else ny
    z = (re[:, None] + 1j * im[None, :half]).ravel()

    a, b, _ = coeffs.scheme_coefficients(k, beta).arrays()
    b_ext = np.concatenate(([0.0], b))[:, None]
    # r^q turns pi(w) into pi(r w), whose roots lie in |w| < 1 iff pi's lie in |w| < r
    powers = np.arange(k + 1)[:, None]
    inner, outer = (1.0 - _BAND) ** powers, (1.0 + _BAND) ** powers
    mask = np.zeros(z.size, dtype=bool)
    work = np.empty((3, k + 1, min(_CHUNK, z.size)), dtype=complex)
    for start in range(0, z.size, _CHUNK):
        zc = z[start:start + _CHUNK]
        coef, p, spare = work[:, :, :zc.size]
        # the coefficients of pi at each point, one row per power of w; a
        # vanishing leading coefficient fails both passes
        np.subtract(a[:, None], np.multiply(b_ext, zc, out=coef), out=coef)
        stable = _schur_inside(np.multiply(coef, inner, out=p), spare)
        rest = np.nonzero(~stable)[0]
        p, spare = p[:, :rest.size], spare[:, :rest.size]
        for i in rest[_schur_inside(np.multiply(coef[:, rest], outer, out=p), spare)]:
            stable[i] = is_stable(k, beta, zc[i])
        mask[start:start + _CHUNK] = stable

    mask = mask.reshape(nx, half)
    mask = np.concatenate((mask, mask[:, :ny - half][:, ::-1]), axis=1)
    area = float(mask.sum()) * dre * dim
    return StabilityGrid(k=k, beta=float(beta), re_lo=re_lo, re_hi=re_hi,
                         im_lo=im_lo, im_hi=im_hi, nx=nx, ny=ny,
                         mask=mask, area=area)
