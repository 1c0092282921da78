"""2D periodic Fourier pseudo-spectral discretisation of the phase-field flows.

The gradient flow of E[u] = int 1/2|grad u|^2 + (1 - u^2)^2/(4 eps^2) reads

    u_t = -m (-lap)^alpha ( -lap u - u(1 - u^2)/eps^2 ),   alpha = 0 or 1,

(alpha = 0: nonconserved/L2 flow, alpha = 1: conserved/H^-1 flow).  In the
splitting u_t + L u + G[u] = f used by the stepper,

    L      = m (-lap)^(alpha+1)            (diagonal symbol m |xi|^(2alpha+2)),
    G[u]   = -m (-lap)^alpha [ u(1-u^2)/eps^2 ].

Fields are nx-by-ny real arrays on a uniform grid, without dealiasing.
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
    """Uniform periodic grid on [x0, x0+Lx) x [y0, y0+Ly); nx, ny even."""

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
        self.X, self.Y = np.meshgrid(x, y, indexing="ij")
        kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=self.dx)
        ky = 2.0 * np.pi * np.fft.fftfreq(ny, d=self.dy)
        self.KX, self.KY = np.meshgrid(kx, ky, indexing="ij")
        self.K2 = self.KX ** 2 + self.KY ** 2

    @property
    def cell_area(self):
        return self.dx * self.dy


def linear_symbol(params: PhaseFieldParams, grid: Grid2D) -> np.ndarray:
    return params.mobility * grid.K2 ** (params.alpha + 1)


def _double_well_slope(params, u):
    return (u * (1.0 - u * u)) / params.eps ** 2


def nonlinear_fourier(params: PhaseFieldParams, grid: Grid2D):
    """Fourier-space closure for the stepper: u_hat -> G[u]_hat."""
    mult = -params.mobility * (grid.K2 if params.alpha == 1 else 1.0)

    def gee(u_hat):
        u = np.fft.ifft2(u_hat).real
        hat = np.fft.fft2(_double_well_slope(params, u))
        return mult * hat

    return gee


def free_energy(params: PhaseFieldParams, grid: Grid2D, values: np.ndarray) -> float:
    """Spectral gradient energy plus grid quadrature of the double well."""
    hat = np.fft.fft2(values)
    ux = np.fft.ifft2(1j * grid.KX * hat).real
    uy = np.fft.ifft2(1j * grid.KY * hat).real
    grad = 0.5 * (ux ** 2 + uy ** 2)
    well = (1.0 - values ** 2) ** 2 / (4.0 * params.eps ** 2)
    return float((grad + well).sum() * grid.cell_area)


def radius_of_circle(grid: Grid2D, values: np.ndarray) -> float:
    """Radius sqrt(area / pi) of the super-level set {values > 0}.

    The area comes from row-wise scans with linear interpolation of the
    crossing positions between adjacent samples (periodic in x).
    """
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


# Manufactured solution u = exp(sin(pi x) sin(pi y)) sin(t) on (0, 2)^2 for
# the nonconserved flow with m = eps = 0.2: source picked so it solves the PDE.

MANUFACTURED_PARAMS = PhaseFieldParams(mobility=0.2, eps=0.2, alpha=0)
MANUFACTURED_DOMAIN = (2.0, 2.0)


def manufactured_solution(grid: Grid2D, t: float) -> np.ndarray:
    s = np.sin(np.pi * grid.X) * np.sin(np.pi * grid.Y)
    return np.exp(s) * math.sin(t)


def manufactured_source(grid: Grid2D, t: float) -> np.ndarray:
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
