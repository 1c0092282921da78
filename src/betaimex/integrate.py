"""Shifted-IMEX time stepper for u_t + L u + G[u] = f with diagonal L.

The state is any numpy array living in a basis where L is diagonal (Fourier
coefficients for the spectral problems, plain vectors for scalar tests).
One step solves

    (a[k]/dt + b[k-1] * L) u^{n+1} = f(t^{n+beta})
        - (1/dt) sum_{q<k} a[q] u^{n+1-k+q}
        - L sum_{q<k-1} b[q] u^{n+2-k+q}
        - G(sum_{q<k-1+1} c[q] u^{n+1-k+q})

which is a per-mode solve.  k = 1 (classical backward-Euler IMEX) is
supported as the baseline scheme; orders 2..5 come from `coeffs`.

`initialize` builds a `StepPlan` once per run: the float weights -a[q]/dt,
-b[q] and c[q] and the inverse 1/(a[k]/dt + b[k-1] L).  `step` then sums each
weighted history combination in place, multiplies by L once (on the b-sum)
and by the inverse once, and checks the new level with one max |u| pass.

The zero mode of a periodic Laplacian gives L = 0 for the mean; the solve
divides by a[k]/dt > 0 there, so semidefinite symbols are accepted.

`initialize` and `step` raise `BlowUpError` on leaving the finite range; `run`
returns a `TrajectorySummary` either way, with a blow-up in `summary.blowup`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coeffs import SchemeCoefficients, scheme_coefficients

BLOWUP_LIMIT = 1e10
STARTER_SUBSTEPS = 20

# classical backward-Euler IMEX baseline (implicit L, explicit G)
_FIRST_ORDER = SchemeCoefficients(k=1, beta=1.0, a=(-1.0, 1.0), b=(1.0,),
                                  c=(1.0,), d=(1.0,), eta=0.0)


class BlowUpError(RuntimeError):
    """Raised when the state leaves the finite range; `last_state` is the last finite level."""

    def __init__(self, step, time, last_state):
        super().__init__(f"solution blew up at step {step} (t = {time:g})")
        self.step = step
        self.time = time
        self.last_state = last_state


@dataclass
class ProblemSpec:
    """Right-hand-side description: diagonal linear symbol, explicit G, source."""

    linear_symbol: np.ndarray
    nonlinear: Optional[Callable[[np.ndarray], np.ndarray]] = None
    source: Optional[Callable[[float], np.ndarray]] = None
    u0: Optional[np.ndarray] = None

    def __post_init__(self):
        self.linear_symbol = np.asarray(self.linear_symbol)
        if np.any(self.linear_symbol < 0):
            raise ValueError("linear symbol must be nonnegative (L positive semidefinite)")


@dataclass(frozen=True)
class StepPlan:
    """What `step` needs of one scheme at one dt and symbol, computed once.

    The weights carry the sign with which they enter the right-hand side:
    a = -a[q]/dt and b = -b[q]; `inverse` is 1/(a[k]/dt + b[k-1] L).
    """

    a: tuple
    b: tuple
    c: tuple
    inverse: np.ndarray


def _step_plan(rec: SchemeCoefficients, dt, symbol) -> StepPlan:
    k = rec.k
    return StepPlan(a=tuple(-float(w) / dt for w in rec.a[:k]),
                    b=tuple(-float(w) for w in rec.b[:k - 1]),
                    c=tuple(float(w) for w in rec.c[:k]),
                    inverse=1.0 / (float(rec.a[k]) / dt + float(rec.b[k - 1]) * symbol))


@dataclass
class IntegratorState:
    """Ring buffer of the k most recent levels (oldest first) plus step metadata."""

    history: tuple
    n: int
    dt: float
    coefficients: SchemeCoefficients
    plan: StepPlan

    @property
    def newest(self):
        return self.history[-1]

    @property
    def time(self):
        return self.n * self.dt


def _resolve_coefficients(k, beta) -> SchemeCoefficients:
    if k == 1:
        if float(beta) != 1.0:
            raise ValueError("the first-order baseline only exists at beta = 1")
        return _FIRST_ORDER
    return scheme_coefficients(k, beta)


def _check_finite(u, step, t):
    # a NaN maximum fails the comparison too
    if not np.max(np.abs(u)) <= BLOWUP_LIMIT:
        raise BlowUpError(step, t, None)


def _imex1_history(spec, k, dt):
    # backward-Euler IMEX substeps: implicit in L, explicit in G; the
    # unconditional linear stability is what makes this usable on the stiff
    # fourth-order (conserved-flow) symbol
    levels = [np.array(spec.u0, copy=True)]
    u = levels[0]
    h = dt / STARTER_SUBSTEPS
    inverse = 1.0 / (1.0 / h + spec.linear_symbol)
    for i in range(k - 1):
        t = i * dt
        for j in range(STARTER_SUBSTEPS):
            rhs = u / h
            if spec.nonlinear is not None:
                rhs -= spec.nonlinear(u)
            if spec.source is not None:
                rhs += spec.source(t + (j + 1) * h)
            rhs *= inverse
            u = rhs
            _check_finite(u, i + 1, t + (j + 1) * h)  # level i + 1 is being built
        levels.append(u)
    return levels


def initialize(spec: ProblemSpec, k, beta, dt, starter=None) -> IntegratorState:
    """Fill the k-level history and build the step plan.

    starter: None for the default start, `STARTER_SUBSTEPS` backward-Euler
    IMEX substeps per dt from `spec.u0` (implicit in L, so any nonnegative
    symbol is accepted); or a callable t -> state for exact starts, called at
    t = 0, dt, ..., (k-1)*dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rec = _resolve_coefficients(k, beta)
    if spec.u0 is None or not np.all(np.isfinite(spec.u0)):
        raise ValueError("initial state must be finite")
    if starter is None:
        levels = _imex1_history(spec, k, dt)
    elif callable(starter):
        levels = [np.asarray(starter(i * dt)) for i in range(k)]
    else:
        raise ValueError(f"starter must be None or a callable, not {starter!r}")
    for lv in levels:
        if not np.all(np.isfinite(lv)):
            raise ValueError("starter produced non-finite history")
    a_lead = float(rec.a[-1])
    b_lead = float(rec.b[-1])
    denom_min = a_lead / dt + b_lead * float(np.min(spec.linear_symbol))
    if denom_min <= 0:
        raise ValueError("implicit solve is not positive definite "
                         f"(a_k/dt + b_(k-1)*lambda_min = {denom_min:g})")
    return IntegratorState(history=tuple(levels), n=k - 1, dt=dt, coefficients=rec,
                           plan=_step_plan(rec, dt, spec.linear_symbol))


def _combine(weights, levels):
    """sum_q weights[q] * levels[q], accumulated in place."""
    acc = levels[0] * weights[0]
    if len(weights) > 1:
        term = np.empty_like(acc)
        for w, u in zip(weights[1:], levels[1:]):
            np.multiply(u, w, out=term)
            acc += term
    return acc


def step(state: IntegratorState, spec: ProblemSpec) -> IntegratorState:
    """Advance one level; returns a new state (history rotated).

    `spec` must be the problem the state was initialised with: the plan's
    inverse holds its linear symbol.
    """
    plan = state.plan
    hist = state.history
    dt = state.dt

    rhs = _combine(plan.a, hist)
    if plan.b:
        lin = _combine(plan.b, hist[1:])
        lin *= spec.linear_symbol
        rhs += lin
    if spec.nonlinear is not None:
        rhs -= spec.nonlinear(_combine(plan.c, hist))
    if spec.source is not None:
        rhs += spec.source((state.n + float(state.coefficients.beta)) * dt)
    rhs *= plan.inverse
    try:
        _check_finite(rhs, state.n + 1, (state.n + 1) * dt)
    except BlowUpError as exc:
        exc.last_state = hist[-1]
        raise
    return IntegratorState(history=hist[1:] + (rhs,), n=state.n + 1, dt=dt,
                           coefficients=state.coefficients, plan=plan)


@dataclass
class TrajectorySummary:
    """Observed values at `times`, the final finite level and its time, and the blow-up."""

    times: list = field(default_factory=list)
    values: list = field(default_factory=list)
    final_state: Optional[np.ndarray] = None
    final_time: Optional[float] = None
    blowup: Optional[BlowUpError] = None

    @property
    def diverged(self) -> bool:
        return self.blowup is not None

    @property
    def blowup_step(self) -> Optional[int]:
        return None if self.blowup is None else self.blowup.step


def run(spec: ProblemSpec, k, beta, dt, T, observe=None, stride=1,
        starter=None) -> TrajectorySummary:
    """Integrate to time T, observing the levels 0, stride, 2*stride, ... and the last.

    `times` lists the observed times; with `observe`, the values of
    `observe(u, t)` go to `values`, one per entry of `times`.  A blow-up ends
    the run: the returned summary holds the `BlowUpError` in `blowup`, the
    last finite level in `final_state` (None if the start blew up) and its
    time, (step - 1) * dt, in `final_time`.
    """
    nsteps = int(round(T / dt))
    if nsteps < k:
        raise ValueError("T must cover at least k steps")
    summary = TrajectorySummary()

    def record(u, t):
        summary.times.append(t)
        if observe is not None:
            summary.values.append(observe(u, t))

    try:
        state = initialize(spec, k, beta, dt, starter=starter)
        for i, lv in enumerate(state.history):
            if i % stride == 0:
                record(lv, i * dt)
        while state.n < nsteps:
            state = step(state, spec)
            if state.n % stride == 0 or state.n == nsteps:
                record(state.newest, state.time)
    except BlowUpError as exc:
        # without its traceback the error does not keep the run's frames alive
        summary.blowup = exc.with_traceback(None)
        summary.final_state, summary.final_time = exc.last_state, (exc.step - 1) * dt
        return summary
    summary.final_state, summary.final_time = state.newest, state.time
    return summary
