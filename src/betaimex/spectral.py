"""2D periodic Fourier pseudo-spectral discretisation of the phase-field flows.

The gradient flow of E[u] = int 1/2|grad u|^2 + (1 - u^2)^2/(4 eps^2) reads

    u_t = -m (-lap)^alpha ( -lap u - u(1 - u^2)/eps^2 ),   alpha = 0 or 1,

(alpha = 0: nonconserved/L2 flow, alpha = 1: conserved/H^-1 flow).  In the
splitting u_t + L u + G[u] = f used by the stepper,

    L      = m (-lap)^(alpha+1)            (diagonal symbol m |xi|^(2alpha+2)),
    G[u]   = -m (-lap)^alpha [ u(1-u^2)/eps^2 ].

Fields are nx-by-ny real arrays on a uniform grid, without dealiasing.  The
stepper's states are their `np.fft.rfft2` half-spectra, nx-by-(ny//2 + 1)
complex arrays over the nonnegative y wavenumbers; `np.fft.irfft2(u_hat,
s=grid.shape)` brings one back.  `Grid2D.KX`, `KY` and `K2`, and with them the
linear symbol, use the same half-spectrum layout.

The stepper's closure `nonlinear_fourier` makes no new array per call: it
returns its own half-spectrum buffer, overwritten by the next call, so one
closure serves one caller at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhaseFieldParams:
    mobility: float
    eps: float
    alpha: int

    def __post_init__(self):
        if self.mobility <= 0 or self.eps <= 0:
            raise ValueError("mobility and eps must be positive")
        if self.alpha not in (0, 1):
            raise ValueError("alpha must be 0 (nonconserved) or 1 (conserved)")


class Grid2D:
    """Uniform periodic grid on [x0, x0+Lx) x [y0, y0+Ly); nx, ny even.

    X, Y are the (nx, ny) sample points; KX, KY, K2 the wavenumbers of the
    (nx, ny//2 + 1) rfft2 half-spectrum.
    """

    def __init__(self, nx, ny, Lx, Ly, x0=0.0, y0=0.0):
        if nx % 2 or ny % 2:
            raise ValueError("grid sizes must be even")
        self.nx, self.ny = nx, ny
        self.Lx, self.Ly = float(Lx), float(Ly)
        self.x0, self.y0 = float(x0), float(y0)
        self.dx = self.Lx / nx
        self.dy = self.Ly / ny
        x = self.x0 + self.dx * np.arange(nx)
        y = self.y0 + self.dy * np.arange(ny)
        self.shape = (nx, ny)
        self.X, self.Y = np.meshgrid(x, y, indexing="ij")
        kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=self.dx)
        ky = 2.0 * np.pi * np.fft.rfftfreq(ny, d=self.dy)
        self.KX, self.KY = np.meshgrid(kx, ky, indexing="ij")
        self.K2 = self.KX ** 2 + self.KY ** 2

    @property
    def cell_area(self):
        return self.dx * self.dy


def linear_symbol(params: PhaseFieldParams, grid: Grid2D) -> np.ndarray:
    return params.mobility * grid.K2 ** (params.alpha + 1)


def _double_well_slope(params, u, out):
    """u(1 - u^2)/eps^2, written into `out`."""
    np.multiply(u, u, out=out)
    np.subtract(1.0, out, out=out)
    out *= u
    out /= params.eps ** 2
    return out


def nonlinear_fourier(params: PhaseFieldParams, grid: Grid2D):
    """Half-spectrum closure for the stepper: u_hat -> G[u]_hat.

    The closure owns its work arrays: one half-spectrum and two real fields,
    made on the first call for an input shape and again only when the shape
    changes.  It runs `irfft2` and `rfft2` as numpy does, one axis at a time,
    into them, and returns its own half-spectrum, which the next call
    overwrites; so it serves one caller at a time, and the caller consumes
    (or copies) each result before the next call.  Batches of half-spectra,
    (..., nx, ny//2 + 1), transform over the last two axes.
    """
    mult = -params.mobility * (grid.K2 if params.alpha == 1 else 1.0)
    nx, ny = grid.shape
    hat = u = w = None

    def gee(u_hat):
        nonlocal hat, u, w
        if hat is None or hat.shape != u_hat.shape:
            hat = np.empty(u_hat.shape, np.complex128)
            u = np.empty(u_hat.shape[:-1] + (ny,))
            w = np.empty_like(u)
        np.fft.ifft(u_hat, nx, axis=-2, out=hat)
        np.fft.irfft(hat, ny, axis=-1, out=u)
        np.fft.rfft(_double_well_slope(params, u, w), axis=-1, out=hat)
        np.fft.fft(hat, axis=-2, out=hat)
        hat *= mult
        return hat

    return gee


def free_energy(params: PhaseFieldParams, grid: Grid2D, values: np.ndarray) -> float:
    """Spectral gradient energy plus grid quadrature of the double well.

    The gradient term comes from the half-spectrum by Parseval: columns
    0 < ky < ny/2 stand for themselves and their conjugate partners (weight
    2), columns 0 and ny/2 only for themselves (weight 1).  The derivative of
    a Nyquist mode has no real-valued counterpart, so the Nyquist wavenumbers
    of each direction count as zero.
    """
    nx, ny = grid.shape
    hat = np.fft.rfft2(values)
    kx2 = grid.KX[:, :1] ** 2
    ky2 = grid.KY[:1, :] ** 2
    kx2[nx // 2] = 0.0
    ky2[:, ny // 2] = 0.0
    weight = np.full(ky2.shape, 2.0)
    weight[:, [0, ny // 2]] = 1.0
    grad = 0.5 * float(((kx2 + ky2) * weight * np.abs(hat) ** 2).sum()) / (nx * ny)
    well = float(((1.0 - values ** 2) ** 2).sum()) / (4.0 * params.eps ** 2)
    return (grad + well) * grid.cell_area


def radius_of_circle(grid: Grid2D, values: np.ndarray) -> float:
    """Radius sqrt(area / pi) of the super-level set {values > 0}.

    The area counts the positive samples along each line in x and moves
    each sign change between neighbours (periodic in x) to the crossing of
    the linear interpolant.
    """
    pos = values > 0.0
    count = np.count_nonzero(pos)
    if count == 0:
        raise ValueError("level set is empty: no interface to measure")
    if count / pos.size > 0.95:
        raise ValueError("level set covers more than 95% of the domain")
    nxt = np.roll(values, -1, axis=0)
    change = pos != (nxt > 0.0)
    a, b = values[change], nxt[change]
    frac = a / (a - b)  # crossing offset from sample i, in cells
    # a positive sample loses the part of its cell beyond the crossing,
    # a negative one gains the part up to it
    shift = np.where(a > 0.0, frac - 1.0, 1.0 - frac).sum()
    area = grid.dx * (count + shift) * grid.dy
    return math.sqrt(area / math.pi)


# Manufactured solution u = exp(sin(pi x) sin(pi y)) sin(t) on (0, 2)^2 for
# the nonconserved flow with m = eps = 0.2: source picked so it solves the PDE.

MANUFACTURED_PARAMS = PhaseFieldParams(mobility=0.2, eps=0.2, alpha=0)
MANUFACTURED_DOMAIN = (2.0, 2.0)


def manufactured_solution(grid: Grid2D, t: float) -> np.ndarray:
    s = np.sin(np.pi * grid.X) * np.sin(np.pi * grid.Y)
    return np.exp(s) * math.sin(t)


def manufactured_source_fourier(grid: Grid2D):
    """Half-spectrum closure t -> f_hat(t) of f = u_t + L u + G[u] for the manufactured profile.

    With s = sin(pi x) sin(pi y) and u = exp(s) sin t,

        f = cos t * e^s + sin t * e^s (m (2 pi^2 s - |grad s|^2) - m/eps^2)
            + sin^3 t * (m/eps^2) e^(3s),

    so the transforms of the three profiles, taken once, give f_hat at every t.
    """
    pi = np.pi
    s = np.sin(pi * grid.X) * np.sin(pi * grid.Y)
    sx = pi * np.cos(pi * grid.X) * np.sin(pi * grid.Y)
    sy = pi * np.sin(pi * grid.X) * np.cos(pi * grid.Y)
    es = np.exp(s)
    m, eps2 = MANUFACTURED_PARAMS.mobility, MANUFACTURED_PARAMS.eps ** 2
    profiles = (es,
                es * (m * (2.0 * pi ** 2 * s - sx ** 2 - sy ** 2) - m / eps2),
                (m / eps2) * es ** 3)
    f1, f2, f3 = (np.fft.rfft2(p) for p in profiles)

    def source(t):
        return math.cos(t) * f1 + math.sin(t) * f2 + math.sin(t) ** 3 * f3

    return source
