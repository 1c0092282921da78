"""Experiment drivers: convergence study, interface benchmark, conserved-flow stress test.

Each driver takes an ExperimentConfig and runs deterministically (the only
randomness is the seeded perturbation of the conserved-flow start).  Every
scheme run yields one report with the same small protocol, which the single
writer in `cli` serialises byte-identically:

    rows()        CSV rows of the scheme's time series
    as_dict()     the scheme's entry in the summary JSON
    final_values  last physical field for the snapshot (None: no snapshot)
    diverged      whether the scheme blew up

plus `k` and `beta`, which name the files, and, where there is a snapshot,
the `grid` and `final_time` that place it.

Every run goes through `_field_run`, which hands each observer the physical
field of the observed level (one inverse FFT, shared by all it measures) and
returns the fields every report holds.  Each driver builds its `ProblemSpec`
once; the Cahn-Hilliard reference and schemes share one.

Desk-scale presets (``small=True``) shrink the grids so the full suite runs
in minutes; full-scale defaults are kept for offline reproduction runs.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import coeffs
from . import integrate as itg
from . import spectral as sp

CONVERGENCE_DT_SWEEP = (1 / 80, 1 / 160, 1 / 320, 1 / 640, 1 / 1280)

# interface benchmark: domain (-128,128)^2 mapped to (-1,1)^2
AC_PARAMS = sp.PhaseFieldParams(mobility=6.10351e-5, eps=0.0078, alpha=0)
AC_RADIUS0 = 100.0
AC_MAP_SCALE = 128.0

# conserved flow: desk preset found empirically so that the classical
# second-order scheme sits at its largest stable step (it fails at 3e-6)
CH_FULL = dict(n=128, eps=0.02, dt=7.5e-8, T=2e-3, ref_dt_ratio=15)
CH_DESK = dict(n=64, eps=0.04, dt=2e-6, T=3e-3, ref_dt_ratio=30)
CH_SCHEMES = ((2, 1.0), (3, 1.0), (4, 1.0), (3, 3.0), (4, 2.5))  # without config.schemes
DEFAULT_SEED = 1234


@dataclass
class ExperimentConfig:
    """Shared knob set for all experiment drivers; `name` is the CLI subcommand."""

    name: str
    k: int = 2
    beta: float = 1.0
    dt: Optional[float] = None
    dt_sweep: Optional[tuple] = None
    resolution: Optional[int] = None
    T: Optional[float] = None
    seed: int = DEFAULT_SEED
    small: bool = False
    schemes: Optional[tuple] = None  # [(k, beta), ...] for multi-scheme runs

    def __post_init__(self):
        for name in ("dt", "T", "resolution"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.dt_sweep is not None:
            sweep = tuple(float(d) for d in self.dt_sweep)
            if any(d <= 0 for d in sweep):
                raise ValueError("dt sweep entries must be positive")
            if any(a <= b for a, b in zip(sweep, sweep[1:])):
                raise ValueError("dt sweep must be strictly decreasing")
            self.dt_sweep = sweep


def _field_run(spec, grid, k, beta, dt, T, observe=None, stride=1, starter=None):
    """`integrate.run` on a half-spectrum problem, seen in physical space.

    `observe(u, t)` gets the physical field u of each observed level.
    Returns the `TrajectorySummary` and a dict of the fields every report
    holds: times, diverged, blowup_step, grid, final_values (the physical
    field of the last finite level, None if the start blew up), final_time.
    """
    def physical(u_hat):
        return np.fft.irfft2(u_hat, s=grid.shape)

    summary = itg.run(spec, k, beta, dt, T, stride=stride, starter=starter,
                      observe=None if observe is None
                      else lambda u_hat, t: observe(physical(u_hat), t))
    final = None if summary.final_state is None else physical(summary.final_state)
    return summary, dict(times=tuple(summary.times), diverged=summary.diverged,
                         blowup_step=summary.blowup_step, grid=grid,
                         final_values=final, final_time=summary.final_time)


@dataclass
class ConvergenceReport:
    k: int
    beta: float
    dts: tuple
    errors: tuple
    slope: float
    # a diverged step size shows as an infinite error; the study still completes
    diverged = False
    final_values = None

    def rows(self):
        return list(zip(self.dts, self.errors))

    def as_dict(self):
        return {"k": self.k, "beta": self.beta, "dts": list(self.dts),
                "errors": list(self.errors), "slope": self.slope}


def run_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """Manufactured-solution L2 errors at T=1 over the dt sweep, with lsq slope."""
    n = 40 if config.resolution is None else config.resolution
    grid = sp.Grid2D(n, n, *sp.MANUFACTURED_DOMAIN)
    params = sp.MANUFACTURED_PARAMS
    T = 1.0 if config.T is None else config.T
    dts = CONVERGENCE_DT_SWEEP if config.dt_sweep is None else config.dt_sweep
    if len(dts) < 4:
        raise ValueError("slope fit needs at least 4 dt values")

    def exact_state(t):
        return np.fft.rfft2(sp.manufactured_solution(grid, t))

    spec = itg.ProblemSpec(linear_symbol=sp.linear_symbol(params, grid),
                           nonlinear=sp.nonlinear_fourier(params, grid),
                           source=sp.manufactured_source_fourier(grid),
                           u0=exact_state(0.0))
    exact = sp.manufactured_solution(grid, T)
    errors = []
    for dt in dts:
        _, fields = _field_run(spec, grid, config.k, config.beta, dt, T,
                               starter=exact_state)
        if fields["diverged"]:
            errors.append(float("inf"))
            continue
        diff = fields["final_values"] - exact
        errors.append(math.sqrt(float((diff ** 2).sum()) * grid.cell_area))
    finite = [(d, e) for d, e in zip(dts, errors) if math.isfinite(e)]
    if len(finite) >= 2:
        slope = float(np.polyfit(np.log([d for d, _ in finite]),
                                 np.log([e for _, e in finite]), 1)[0])
    else:
        slope = float("nan")
    return ConvergenceReport(k=config.k, beta=config.beta, dts=tuple(dts),
                             errors=tuple(errors), slope=slope)


def ac_initial_profile(grid: sp.Grid2D) -> np.ndarray:
    """Equilibrium interface profile of the initial circle (radius 100 of 128).

    The sharp +-1 indicator is not representable in a Fourier basis; its
    Gibbs oscillations feed the cubic term and destroy every scheme at
    dt = 0.75, so the circle enters through the tanh profile of equilibrium
    width sqrt(2)*eps instead.
    """
    rho = np.sqrt(grid.X ** 2 + grid.Y ** 2)
    return np.tanh((AC_RADIUS0 / AC_MAP_SCALE - rho) / (math.sqrt(2.0) * AC_PARAMS.eps))


def theory_radius(t: float) -> float:
    return math.sqrt(AC_RADIUS0 ** 2 - 2.0 * t)


@dataclass
class RadiusReport:
    k: int
    beta: float
    times: tuple
    radius: tuple
    radius_theory: tuple
    diverged: bool = False
    blowup_step: Optional[int] = None
    grid: Optional[sp.Grid2D] = None
    final_values: Optional[np.ndarray] = None
    final_time: Optional[float] = None

    @property
    def max_relative_deviation(self) -> float:
        return max(abs(r - rt) / rt for r, rt in zip(self.radius, self.radius_theory))

    def rows(self):
        return list(zip(self.times, self.radius, self.radius_theory))

    def as_dict(self):
        return {"k": self.k, "beta": self.beta, "diverged": self.diverged,
                "max_relative_deviation": (None if self.diverged
                                           else self.max_relative_deviation)}


def run_allen_cahn_radius(config: ExperimentConfig) -> RadiusReport:
    """Shrinking-circle benchmark; radius extracted from the zero level set."""
    n = (256 if config.small else 512) if config.resolution is None else config.resolution
    T = (500.0 if config.small else 2000.0) if config.T is None else config.T
    dt = 0.75 if config.dt is None else config.dt
    grid = sp.Grid2D(n, n, 2.0, 2.0, x0=-1.0, y0=-1.0)
    spec = itg.ProblemSpec(linear_symbol=sp.linear_symbol(AC_PARAMS, grid),
                           nonlinear=sp.nonlinear_fourier(AC_PARAMS, grid),
                           u0=np.fft.rfft2(ac_initial_profile(grid)))

    def radius_obs(u, t):
        return sp.radius_of_circle(grid, u) * AC_MAP_SCALE

    stride = max(1, int(round(T / dt)) // 100)
    summary, fields = _field_run(spec, grid, config.k, config.beta, dt, T,
                                 observe=radius_obs, stride=stride)
    return RadiusReport(k=config.k, beta=config.beta, radius=tuple(summary.values),
                        radius_theory=tuple(theory_radius(t) for t in summary.times),
                        **fields)


def ch_preset(small: bool) -> dict:
    return dict(CH_DESK if small else CH_FULL)


def ch_initial_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.2 + rng.uniform(-0.02, 0.02, (n, n))


@dataclass
class SchemeVerdict:
    k: int
    beta: float
    times: tuple
    energy: tuple
    ref_distance: tuple
    diverged: bool = False
    blowup_step: Optional[int] = None
    grid: Optional[sp.Grid2D] = None
    final_values: Optional[np.ndarray] = None
    final_time: Optional[float] = None

    @property
    def stable(self) -> bool:
        return not self.diverged

    def rows(self):
        return list(zip(self.times, self.energy, self.ref_distance))

    def as_dict(self):
        return {"k": self.k, "beta": self.beta, "stable": self.stable,
                "blowup_step": self.blowup_step}


@dataclass
class CahnHilliardReport:
    preset: dict
    seed: int
    verdicts: list = field(default_factory=list)
    reference_checksum: Optional[str] = None


def ch_reference_trajectory(spec, grid, preset, stride):
    """Fine-step classical fourth-order trajectory at every `stride`-th preset step.

    Runs `spec`, the problem the schemes share, at the fine step dt /
    ref_dt_ratio.  Returns (physical snapshots keyed by the preset step
    number, sha256 checksum).  The run emits no admissibility warning: its
    classical k = 4, beta = 1 is fixed, not requested.  A blow-up of the
    reference run raises a RuntimeError that names the reference run and its
    step in fine steps, chained from the run's `BlowUpError`.
    """
    ratio = preset["ref_dt_ratio"]
    dt = preset["dt"] / ratio
    with coeffs._admissibility_warnings_off():
        summary, _ = _field_run(spec, grid, 4, 1.0, dt, preset["T"],
                                observe=lambda u, t: u, stride=ratio * stride)
    err = summary.blowup
    if err is not None:
        raise RuntimeError(f"reference run (k=4, beta=1, dt = {dt:g}) blew up at "
                           f"reference step {err.step} (t = {err.time:g})") from err
    snapshots = {}
    for t, u in zip(summary.times, summary.values):
        n = round(t / dt)
        if n % ratio == 0:  # a whole preset step; the last may fall off the stride
            snapshots[n // ratio] = u
    digest = hashlib.sha256()
    for key in sorted(snapshots):
        digest.update(snapshots[key].tobytes())
    return snapshots, digest.hexdigest()


def run_cahn_hilliard(config: ExperimentConfig,
                      with_reference: bool = True) -> CahnHilliardReport:
    """Run each requested scheme at the preset step; blow-up is a verdict, not an error."""
    preset = ch_preset(config.small)
    for key, value in (("n", config.resolution), ("dt", config.dt), ("T", config.T)):
        if value is not None:
            preset[key] = value
    schemes = config.schemes or CH_SCHEMES
    n = preset["n"]
    grid = sp.Grid2D(n, n, 1.0, 1.0)
    params = sp.PhaseFieldParams(mobility=1.0, eps=preset["eps"], alpha=1)
    spec = itg.ProblemSpec(linear_symbol=sp.linear_symbol(params, grid),
                           nonlinear=sp.nonlinear_fourier(params, grid),
                           u0=np.fft.rfft2(ch_initial_state(n, config.seed)))
    dt = preset["dt"]
    nsteps = int(round(preset["T"] / dt))
    stride = max(1, nsteps // 60)

    reference, checksum = (ch_reference_trajectory(spec, grid, preset, stride)
                           if with_reference else ({}, None))

    def observe(u, t):
        # energy and distance to the reference snapshot of the same preset step
        ref = reference.get(round(t / dt))
        dist = (float("nan") if ref is None
                else math.sqrt(float(((u - ref) ** 2).sum()) * grid.cell_area))
        return sp.free_energy(params, grid, u), dist

    report = CahnHilliardReport(preset=preset, seed=config.seed,
                                reference_checksum=checksum)
    for k, beta in schemes:
        summary, fields = _field_run(spec, grid, k, beta, dt, preset["T"],
                                     observe=observe, stride=stride)
        report.verdicts.append(SchemeVerdict(
            k=k, beta=beta, energy=tuple(e for e, _ in summary.values),
            ref_distance=tuple(d for _, d in summary.values), **fields))
    return report
