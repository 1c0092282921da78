"""Shifted-IMEX time stepper for u_t + L u + G[u] = f with diagonal L.

The state is any numpy array living in a basis where L is diagonal (Fourier
coefficients for the spectral problems, plain vectors for scalar tests).
One step solves

    (a[k]/dt + b[k-1] * L) u^{n+1} = f(t^{n+beta})
        - (1/dt) sum_{q<k} a[q] u^{n+1-k+q}
        - L sum_{q<k-1} b[q] u^{n+2-k+q}
        - G(sum_{q<k-1+1} c[q] u^{n+1-k+q})

which is a per-mode solve.  k = 1 (classical backward-Euler IMEX) is
supported as the baseline scheme, read off the integer record of `coeffs`
like orders 2..5.  The default start of a k-step run is that k = 1 scheme
too: `initialize` builds levels 1..k-1 from u0 with `STARTER_SUBSTEPS` steps
of it per dt, made by the same update as every later step.  `initialize`
decides once per run, for either start, whether the ring is complex: it is if
a starting level is, or G of the first level or f at the first step is.

`initialize` returns an `IntegratorState` that owns its problem: the
`ProblemSpec`, the a-, b- and c-weights as one (3, k) matrix per ring offset,
and the inverse 1/(a[k]/dt + b[k-1] L) of that problem's symbol, all computed
once per run.  The k levels live in one (k, ...) array used as a ring.
`step(state)` forms the three weighted sums with one matmul on the real view
of that ring, multiplies the b-sum by L and the result by the inverse once,
and checks the new level in two stages: a level whose real and imaginary
parts all lie within +-`_PART_BOUND` passes on their max and min alone, and
any other level (NaN and inf among them) takes the exact max |u| test.

Ring contract: `step` advances the state in place and returns the same
object; the new level overwrites the slot of the oldest one.  `state.newest`
and the entries of `state.history` are views of the ring: a level keeps its
value through the next k - 1 steps and is overwritten by the k-th, so copy
what must outlive that.  `run` hands `observe(u, t)` such a view, valid for
the duration of the call.  What `run` returns is a copy: `final_state` and
`BlowUpError.last_state` never change when the state is stepped further.

The zero mode of a periodic Laplacian gives L = 0 for the mean; the solve
divides by a[k]/dt > 0 there, so semidefinite symbols are accepted.

`initialize` and `step` raise `BlowUpError` on leaving the finite range; `run`
returns a `TrajectorySummary` either way, with a blow-up in `summary.blowup`.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coeffs import SchemeCoefficients, _build, _is_integer, scheme_coefficients

BLOWUP_LIMIT = 1e10
STARTER_SUBSTEPS = 20
# parts within +-7e9 give |u| <= 7e9 * sqrt(2) < BLOWUP_LIMIT
_PART_BOUND = 7e9

# classical backward-Euler IMEX baseline (implicit L, explicit G)
_FIRST_ORDER = _build(1, 1.0)


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


@dataclass
class IntegratorState:
    """A run's problem, its k most recent levels in a ring and the step count.

    `ring[(head + q) % k]` holds level n - k + 1 + q, so `head` is the slot
    of the oldest level.  `weights[h]` is the (3, k) matrix of the a-, b- and
    c-sums when the oldest level sits in slot h: the weight of level q (oldest
    first) is in the column of its slot, (h + q) % k.  The rows carry the
    sign with which they enter the right-hand side: -a[q]/dt, -b[q - 1] (0
    for the oldest level) and c[q].  `inverse` is 1/(a[k]/dt + b[k-1] L) for
    the symbol of `spec`.  `sums` is the scratch for the three weighted sums.
    """

    spec: ProblemSpec
    ring: np.ndarray
    head: int
    n: int
    dt: float
    coefficients: SchemeCoefficients
    weights: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)
    sums: np.ndarray = field(repr=False)

    @property
    def history(self):
        """The k levels, oldest first, as views of the ring."""
        k = len(self.ring)
        return tuple(self.ring[(self.head + q) % k] for q in range(k))

    @property
    def newest(self):
        return self.ring[self.head - 1]

    @property
    def time(self):
        return self.n * self.dt


def _resolve_coefficients(k, beta) -> SchemeCoefficients:
    if _is_integer(k) and k == 1:
        if float(beta) != 1.0:
            raise ValueError("the first-order baseline only exists at beta = 1")
        return _FIRST_ORDER
    return scheme_coefficients(k, beta)


def _check_finite(u, step, t):
    """Raise `BlowUpError` unless max |u| <= BLOWUP_LIMIT; NaN fails both stages."""
    parts = u.reshape(-1).view(u.real.dtype) if u.dtype.kind == "c" else u
    if parts.max() <= _PART_BOUND and parts.min() >= -_PART_BOUND:
        return
    if not np.max(np.abs(u)) <= BLOWUP_LIMIT:
        raise BlowUpError(step, t, None)


def _imex1_history(spec, k, dt, dtype):
    """Levels 0..k-1, in the dtype `initialize` decided, by `coeffs`' k = 1 record.

    At dt / STARTER_SUBSTEPS, implicit in L, explicit in G: the unconditional
    linear stability makes it usable on the stiff conserved-flow symbol.
    """
    state = _state(spec, _FIRST_ORDER, dt / STARTER_SUBSTEPS, [spec.u0], dtype)
    levels = [state.newest.copy()]
    for i in range(1, k):
        try:
            while state.n < i * STARTER_SUBSTEPS:
                _advance(state)
        except BlowUpError as exc:
            raise BlowUpError(i, exc.time, None) from None  # level i was being built
        levels.append(state.newest.copy())
    return levels


def initialize(spec: ProblemSpec, k, beta, dt, starter=None) -> IntegratorState:
    """Fill the k-level history of `spec` and the weights and inverse that `step` uses.

    starter: None for the default start, the stepper's own k = 1 scheme
    (backward-Euler IMEX: implicit in L, so any nonnegative symbol is
    accepted) at dt / `STARTER_SUBSTEPS` from `spec.u0`; or a callable
    t -> state for exact starts, called at t = 0, dt, ..., (k-1)*dt.
    """
    if not 0 < dt < math.inf:  # false for a nan too
        raise ValueError(f"dt must be positive and finite, got {dt}")
    rec = _resolve_coefficients(k, beta)
    if spec.u0 is None or not np.all(np.isfinite(spec.u0)):
        raise ValueError("initial state must be finite")
    if starter is None:
        levels = [spec.u0]
    elif callable(starter):
        levels = [np.asarray(starter(i * dt)) for i in range(k)]
        if not all(np.all(np.isfinite(lv)) for lv in levels):
            raise ValueError("starter produced non-finite history")
    else:
        raise ValueError(f"starter must be None or a callable, not {starter!r}")
    # a complex G or f makes every later level complex
    complex_ring = any(np.iscomplexobj(lv) for lv in levels) or any(
        np.iscomplexobj(fn(x)) for fn, x in ((spec.nonlinear, levels[0]),
                                             (spec.source, (rec.k - 1 + float(rec.beta)) * dt))
        if fn is not None)
    dtype = np.complex128 if complex_ring else np.float64
    if starter is None:
        levels = _imex1_history(spec, rec.k, dt, dtype)
    return _state(spec, rec, dt, levels, dtype)


def _state(spec, rec, dt, levels, dtype) -> IntegratorState:
    """A state of `spec` holding `levels`, in `dtype`, as levels 0..k-1 of `rec` at step dt."""
    a_lead = float(rec.a[-1])
    b_lead = float(rec.b[-1])
    denom_min = a_lead / dt + b_lead * float(np.min(spec.linear_symbol))
    if denom_min <= 0:
        raise ValueError("implicit solve is not positive definite "
                         f"(a_k/dt + b_(k-1)*lambda_min = {denom_min:g})")
    k = rec.k
    w = np.zeros((3, k))
    w[0] = [-float(v) / dt for v in rec.a[:k]]
    w[1, 1:] = [-float(v) for v in rec.b[:k - 1]]
    w[2] = [float(v) for v in rec.c[:k]]
    ring = np.array(levels, dtype=dtype)
    return IntegratorState(spec=spec, ring=ring, head=0, n=k - 1, dt=dt, coefficients=rec,
                           weights=np.stack([np.roll(w, h, axis=1) for h in range(k)]),
                           inverse=1.0 / (a_lead / dt + b_lead * spec.linear_symbol),
                           sums=np.empty((3,) + ring.shape[1:], dtype))


def _real_rows(a):
    # (m, ...) float or complex array -> (m, -1) float64 view of the same memory
    return a.reshape(len(a), -1).view(np.float64)


def _weighted_sums(state: IntegratorState) -> np.ndarray:
    """The a-, b- and c-sums of the history as the rows of `state.sums`, by one matmul."""
    np.matmul(state.weights[state.head], _real_rows(state.ring),
              out=_real_rows(state.sums))
    return state.sums


def _advance(state: IntegratorState) -> IntegratorState:
    # the update itself: `step` without the copy of the newest level on a blow-up
    spec, dt = state.spec, state.dt
    rhs, lin, mix = _weighted_sums(state)
    if len(state.ring) > 1:
        lin *= spec.linear_symbol
        rhs += lin
    if spec.nonlinear is not None:
        rhs -= spec.nonlinear(mix)
    if spec.source is not None:
        rhs += spec.source((state.n + float(state.coefficients.beta)) * dt)
    rhs *= state.inverse
    _check_finite(rhs, state.n + 1, (state.n + 1) * dt)
    state.ring[state.head] = rhs
    state.head = (state.head + 1) % len(state.ring)
    state.n += 1
    return state


def step(state: IntegratorState) -> IntegratorState:
    """Advance `state.spec` one level in place and return the same state.

    The new level takes the oldest level's slot (see the ring contract).  On
    a blow-up the state is left as it was, and the error carries a copy of the
    newest level.
    """
    try:
        return _advance(state)
    except BlowUpError as exc:
        exc.last_state = state.newest.copy()
        raise


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
    time, (step - 1) * dt, in `final_time`.  A non-finite `T`, a `dt` that is
    not positive and finite, or a `stride` that is not an integer >= 1 raises
    `ValueError` before the start.
    """
    if not (isinstance(stride, numbers.Integral) and stride >= 1):
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    if not 0 < dt < math.inf:  # here too, since T / dt comes before `initialize`
        raise ValueError(f"dt must be positive and finite, got {dt}")
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
            state = step(state)
            if state.n % stride == 0 or state.n == nsteps:
                record(state.newest, state.time)
    except BlowUpError as exc:
        # without its traceback the error does not keep the run's frames alive
        summary.blowup = exc.with_traceback(None)
        summary.final_state, summary.final_time = exc.last_state, (exc.step - 1) * dt
        return summary
    summary.final_state, summary.final_time = state.newest.copy(), state.time
    return summary
