import math

import numpy as np
import pytest

from betaimex import coeffs
from betaimex import experiments as ex
from betaimex import integrate as itg
from betaimex import spectral as sp
from betaimex.coeffs import scheme_coefficients
from oracles import combine, imex1_history, reference_step

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _poly_problem(coefficients):
    p = np.polynomial.Polynomial(coefficients)
    dp = p.deriv()
    spec = itg.ProblemSpec(linear_symbol=np.zeros(1),
                           source=lambda t: np.array([dp(t)]),
                           u0=np.array([p(0.0)]))
    return p, spec


@pytest.mark.parametrize("k,beta", [(1, 1.0), (2, 2.0), (3, 1.5), (4, 3.0), (5, 7.0)])
def test_exact_on_polynomials_up_to_degree_k(k, beta):
    cs = [0.3, -1.2, 0.7, 0.25, -0.1, 0.05][: k + 1]
    p, spec = _poly_problem(cs)
    s = itg.run(spec, k, beta, 0.1, 1.0, starter=lambda t: np.array([p(t)]))
    assert s.final_state[0] == pytest.approx(p(1.0), rel=1e-11)


def test_zero_problem_stays_zero():
    spec = itg.ProblemSpec(linear_symbol=np.zeros(4), u0=np.zeros(4))
    s = itg.run(spec, 2, 3.0, 0.25, 2.0)
    assert np.all(s.final_state == 0.0)


@pytest.mark.parametrize("k,beta", [(2, 3.0), (3, 3.0), (4, 2.5), (5, 7.0)])
def test_default_starter_is_backward_euler_imex_substepping(k, beta):
    # independently coded recurrence: n counts substeps from t = 0, and
    # (1 + h*lam) u_{n+1} = u_n + h*(f(t_{n+1}) - g(u_n))
    lam, dt = 2.5, 0.08
    g = lambda u: 0.4 * u ** 3
    f = lambda t: math.cos(3.0 * t)
    spec = itg.ProblemSpec(linear_symbol=np.array([lam]), nonlinear=g,
                           source=lambda t: np.array([f(t)]), u0=np.array([0.7]))
    state = itg.initialize(spec, k, beta, dt)
    m = itg.STARTER_SUBSTEPS
    assert m == 20
    h = dt / m
    u, want = 0.7, [0.7]
    for n in range((k - 1) * m):
        u = (u + h * (f((n + 1) * h) - g(u))) / (1.0 + h * lam)
        if (n + 1) % m == 0:
            want.append(u)
    assert state.n == k - 1 and len(state.history) == k
    for got, ref in zip(state.history, want):
        assert got[0] == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_second_order_decay_error_and_order():
    spec = itg.ProblemSpec(linear_symbol=np.array([1.0]), u0=np.array([1.0]))
    exact = lambda t: np.array([math.exp(-t)])
    errs = []
    for dt in (0.1, 0.05):
        s = itg.run(spec, 2, 3.0, dt, 1.0, starter=exact)
        errs.append(abs(s.final_state[0] - math.exp(-1.0)))
    assert errs[0] < 5e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def _classical_imex_oracle(k, lam, g, u0_levels, dt, nsteps):
    # independently coded classical schemes (beta = 1): hard-wired weights
    hist = list(u0_levels)
    if k == 2:
        for _ in range(nsteps - 1):
            new = (2.0 * hist[-1] - 0.5 * hist[-2]
                   - dt * g(2.0 * hist[-1] - hist[-2])) / (1.5 + dt * lam)
            hist = [hist[-1], new]
    else:
        for _ in range(nsteps - 2):
            new = (3.0 * hist[-1] - 1.5 * hist[-2] + hist[-3] / 3.0
                   - dt * g(3.0 * hist[-1] - 3.0 * hist[-2] + hist[-3])) / (11.0 / 6.0 + dt * lam)
            hist = [hist[-2], hist[-1], new]
    return hist[-1]


@pytest.mark.parametrize("k", [2, 3])
def test_beta_one_reduces_to_classical_imex(k):
    lam, dt, T = 1.3, 0.02, 1.0
    g = lambda u: 0.7 * np.sin(u)
    spec = itg.ProblemSpec(linear_symbol=np.array([lam]),
                           nonlinear=lambda u: 0.7 * np.sin(u),
                           u0=np.array([0.9]))
    start = itg.initialize(spec, k, 1.0, dt)
    levels = [h[0] for h in start.history]
    s = itg.run(spec, k, 1.0, dt, T,
                starter=lambda t: np.array([levels[int(round(t / dt))]]))
    ref = _classical_imex_oracle(k, lam, lambda v: 0.7 * math.sin(v),
                                 levels, dt, int(T / dt))
    assert abs(s.final_state[0] - ref) < 1e-13


def test_truncation_error_orders_on_sine():
    # the three difference formulas applied to sin(t): defect orders k+1, k, k
    for k, beta in ((2, 3.0), (3, 2.0), (4, 2.0)):
        rec = scheme_coefficients(k, beta)
        a, b, c = rec.arrays()
        slopes = []
        for which, weights, offset, target in (
                ("a", a, 1 - k, None), ("b", b, 2 - k, None), ("c", c, 1 - k, None)):
            errs, dts = [], []
            for p in range(4, 9):
                dt = 2.0 ** -p
                t0 = 0.3
                ts = t0 + (np.arange(len(weights)) + offset) * dt
                approx = float(weights @ np.sin(ts))
                t_shift = t0 + beta * dt
                if which == "a":
                    defect = abs(approx - dt * math.cos(t_shift))
                else:
                    defect = abs(approx - math.sin(t_shift))
                errs.append(defect)
                dts.append(dt)
            slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
            slopes.append(slope)
        assert abs(slopes[0] - (k + 1)) < 0.15
        assert abs(slopes[1] - k) < 0.15
        assert abs(slopes[2] - k) < 0.15


def test_heat_problem_stays_bounded_across_steps():
    # forced diagonal heat problem: sup_n |u^n| stays data-bounded for a wide
    # range of dt (the unconditional-stability monitor, not a proof)
    lam = np.array([0.0, 1.0, 4.0, 25.0, 400.0])
    f = lambda t: np.array([0.1, 1.0, 0.5, -2.0, 3.0]) * math.cos(t)
    u0 = np.array([1.0, -1.0, 0.5, 0.25, 0.0])
    bound = 10.0 * (np.abs(u0).max() + 3.0)
    for dt in (1e-3, 1e-2, 1e-1, 1.0):
        spec = itg.ProblemSpec(linear_symbol=lam, nonlinear=None, source=f, u0=u0)
        s = itg.run(spec, 3, 2.0, dt, 40 * dt,
                    observe=lambda u, t: float(np.abs(u).max()))
        assert max(s.values) < bound


def test_blowup_is_returned_with_the_step_that_step_raises():
    # u' = u^2 from u(0) = 0.5 leaves every bound near t = 2, after the starter
    spec = itg.ProblemSpec(linear_symbol=np.zeros(1),
                           nonlinear=lambda u: -u ** 2, u0=np.array([0.5]))
    s = itg.run(spec, 2, 1.0, 0.5, 25.0)
    # the same run driven by hand: initialize + step until step raises
    state = itg.initialize(spec, 2, 1.0, 0.5)
    with pytest.raises(itg.BlowUpError) as err:
        for _ in range(50):
            last = state.newest
            state = itg.step(state)
    assert s.diverged and s.blowup_step == err.value.step == state.n + 1
    assert isinstance(s.blowup, itg.BlowUpError)
    assert (s.blowup.step, s.blowup.time) == (err.value.step, err.value.time)
    assert str(s.blowup) == str(err.value)
    assert np.isfinite(last).all() and np.array_equal(s.final_state, last)
    assert s.final_time == state.time == (s.blowup_step - 1) * 0.5
    assert s.times[-1] < err.value.time
    # from u(0) = 5 the starter itself blows up: initialize raises, run returns
    spec.u0 = np.array([5.0])
    with pytest.raises(itg.BlowUpError) as err:
        itg.initialize(spec, 2, 1.0, 0.5)
    s = itg.run(spec, 2, 1.0, 0.5, 25.0)
    assert (s.blowup.step, s.blowup.time) == (err.value.step, err.value.time)
    assert s.blowup.step == 1 and 0.0 < s.blowup.time <= 0.5  # while building level 1
    assert str(s.blowup) == f"solution blew up at step 1 (t = {s.blowup.time:g})"
    with pytest.raises(itg.BlowUpError) as want:
        imex1_history(spec, 2, 0.5)
    assert str(s.blowup) == str(want.value)
    assert s.final_state is None and s.times == []


def test_run_observes_every_stride_and_the_last_level():
    # 11 steps at stride 3: levels 0, 3, 6, 9 and the off-stride last level 11
    spec = itg.ProblemSpec(linear_symbol=np.array([1.0]), u0=np.array([1.0]))
    dt = 0.1
    s = itg.run(spec, 3, 2.0, dt, 11 * dt, stride=3,
                observe=lambda u, t: (t, float(u[0])))
    assert s.times == [n * dt for n in (0, 3, 6, 9, 11)]
    assert [t for t, _ in s.values] == s.times
    assert s.values[-1][1] == s.final_state[0] and s.final_time == s.times[-1]
    assert not s.diverged and s.blowup is None and s.blowup_step is None


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        itg.ProblemSpec(linear_symbol=np.array([-1.0]))
    spec = itg.ProblemSpec(linear_symbol=np.ones(1), u0=np.array([np.nan]))
    with pytest.raises(ValueError):
        itg.initialize(spec, 2, 1.0, 0.1)
    spec = itg.ProblemSpec(linear_symbol=np.ones(1), u0=np.array([1.0]))
    for dt in (-0.1, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            itg.initialize(spec, 2, 1.0, dt)
    for name in ("nope", "rk4", "imex1"):  # only None or a callable starts a run
        with pytest.raises(ValueError):
            itg.initialize(spec, 2, 1.0, 0.1, starter=name)
        with pytest.raises(ValueError):
            itg.run(spec, 2, 1.0, 0.1, 1.0, starter=name)
    with pytest.raises(ValueError):
        itg.run(spec, 3, 2.0, 1.0, 2.0)  # fewer than k steps
    # stride, T and dt are checked before the start: a non-finite u0 would say so
    spec.u0 = np.array([np.nan])
    for stride in (0, -1, 1.5, None):
        with pytest.raises(ValueError, match="stride must be an integer >= 1"):
            itg.run(spec, 2, 1.0, 0.1, 1.0, stride=stride)
    for T in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="T must be finite"):
            itg.run(spec, 2, 1.0, 0.1, T)
    for dt in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            itg.run(spec, 2, 1.0, dt, 1.0)


def test_first_order_baseline_is_backward_euler_imex():
    lam = 2.0
    spec = itg.ProblemSpec(linear_symbol=np.array([lam]), u0=np.array([1.0]))
    state = itg.initialize(spec, 1, 1.0, 0.1)
    state = itg.step(state)
    assert state.newest[0] == pytest.approx(1.0 / (1.0 + 0.1 * lam), rel=1e-14)
    with pytest.raises(ValueError):
        itg.initialize(spec, 1, 2.0, 0.1)


def test_first_order_baseline_is_the_integer_record_at_beta_one():
    assert itg._resolve_coefficients(1, 1.0) == coeffs._build(1, 1.0)
    assert itg._resolve_coefficients(1, 1) == coeffs._build(1, 1.0)


_ORDERS = [(1, 1.0), (2, 3.0), (3, 2.0), (4, 2.5), (5, 7.0)]


def _real_vector_problem():
    lam = np.array([0.0, 0.5, 3.0, 40.0, 900.0])
    spec = itg.ProblemSpec(linear_symbol=lam, nonlinear=lambda u: 0.3 * u ** 3 - u,
                           source=lambda t: np.array([1.0, -2.0, 0.5, 3.0, 0.1]) * math.cos(t),
                           u0=np.zeros(5))
    phase = np.array([0.1, 0.7, 1.3, 2.9, 4.4])
    return spec, lambda t: np.cos(t + phase), 0.05


def _half_spectrum_problem():
    grid = sp.Grid2D(16, 16, *sp.MANUFACTURED_DOMAIN)
    params = sp.MANUFACTURED_PARAMS
    spec = itg.ProblemSpec(linear_symbol=sp.linear_symbol(params, grid),
                           nonlinear=sp.nonlinear_fourier(params, grid),
                           source=sp.manufactured_source_fourier(grid), u0=np.zeros((16, 9)))
    return spec, lambda t: np.fft.rfft2(sp.manufactured_solution(grid, t)), 0.01


@pytest.mark.parametrize("problem", [_real_vector_problem, _half_spectrum_problem])
@pytest.mark.parametrize("k,beta", _ORDERS)
def test_planned_step_matches_reference_step(problem, k, beta):
    spec, exact, dt = problem()
    state = itg.initialize(spec, k, beta, dt, starter=exact)
    for _ in range(2 * k + 1):  # every ring offset, twice
        want = reference_step(state)
        state = itg.step(state)
        assert state.newest.dtype == want.dtype
        assert np.abs(state.newest - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("problem", [_real_vector_problem, _half_spectrum_problem])
@pytest.mark.parametrize("k,beta", _ORDERS)
def test_weighted_sums_match_the_combine_oracle(problem, k, beta):
    spec, exact, dt = problem()
    state = itg.initialize(spec, k, beta, dt, starter=exact)
    rec = state.coefficients
    a = [-float(w) / dt for w in rec.a[:k]]
    b = [-float(w) for w in rec.b[:k - 1]]
    c = [float(w) for w in rec.c[:k]]
    for _ in range(k + 1):  # every ring offset
        hist = state.history
        rows = itg._weighted_sums(state)
        if k == 1:
            assert not rows[1].any()  # no b-sum
        for row, weights, levels in ((rows[0], a, hist), (rows[1], b, hist[1:]),
                                     (rows[2], c, hist)):
            if not weights:
                continue
            # compared per real component against the rounding bound of a
            # k-term sum, k ulp of sum |w_q| |u_q|: the sums themselves
            # cancel, so a bound relative to them would not hold
            got = row.view(np.float64)
            want = combine(weights, levels).view(np.float64)
            scale = combine(np.abs(weights), [np.abs(lv.view(np.float64)) for lv in levels])
            assert np.all(np.abs(got - want) <= k * np.finfo(float).eps * scale)
        itg.step(state)


@pytest.mark.parametrize("k,beta", _ORDERS)
def test_stepping_by_hand_gives_the_levels_of_run(k, beta):
    # `step` takes the problem from the state, so `initialize` and then
    # `step(state)` reproduce what `run` observes and returns, bit for bit
    spec, exact, dt = _half_spectrum_problem()
    spec.u0 = exact(0.0)  # a half-spectrum, so the default starter runs
    nsteps, stride = 4 * k + 1, 3
    s = itg.run(spec, k, beta, dt, nsteps * dt, observe=lambda u, t: u.copy(), stride=stride)
    state = itg.initialize(spec, k, beta, dt)
    assert state.spec is spec
    levels = [lv.copy() for lv in state.history]
    while state.n < nsteps:
        levels.append(itg.step(state).newest.copy())
    observed = [n for n in range(nsteps + 1) if n % stride == 0 or n == nsteps]
    assert s.times == [n * dt for n in observed] and s.final_time == state.time
    for got, n in zip(s.values + [s.final_state], observed + [nsteps], strict=True):
        assert got.dtype == levels[n].dtype == np.complex128
        assert np.array_equal(got, levels[n])


def test_default_starter_promotes_a_real_start_to_complex():
    # the half-spectrum nonlinearity and source are complex, so the starter's
    # substeps from a real zero field must give what a complex one gives
    real, _, dt = _half_spectrum_problem()
    cplx, _, _ = _half_spectrum_problem()
    cplx.u0 = cplx.u0.astype(complex)
    got, want = (itg.run(spec, 3, 2.0, dt, 0.1) for spec in (real, cplx))
    assert got.final_state.dtype == np.complex128
    assert np.array_equal(got.final_state, want.final_state)


@pytest.mark.parametrize("complex_term", ["nonlinear", "source"])
@pytest.mark.parametrize("k,beta", [(1, 1.0), (2, 3.0), (4, 2.5)])
def test_callable_start_is_promoted_by_a_complex_g_or_f(complex_term, k, beta):
    # a real callable start takes the dtype the default start would: a
    # complex G or f makes the ring complex, and the run equals the same
    # start cast to complex bit for bit
    terms = {"nonlinear": lambda u: (0.3 + 0.2j) * u ** 3 - u,
             "source": lambda t: np.array([1.0j, -2.0, 0.5 + 1.0j]) * math.cos(t)}
    spec = itg.ProblemSpec(linear_symbol=np.array([0.0, 3.0, 40.0]), u0=np.ones(3),
                           **{complex_term: terms[complex_term]})
    phase = np.array([0.1, 1.3, 2.9])
    real = lambda t: np.cos(t + phase)
    got, want = (itg.run(spec, k, beta, 0.05, 0.5, observe=lambda u, t: u.copy(), starter=s)
                 for s in (real, lambda t: real(t).astype(complex)))
    assert not got.diverged and got.final_state.dtype == np.complex128
    for a, b in zip(got.values + [got.final_state], want.values + [want.final_state],
                    strict=True):
        assert a.dtype == b.dtype == np.complex128 and np.array_equal(a, b)


def _counting(fn, counter, key):
    def wrapped(x):
        counter[key] += 1
        return fn(x)
    return wrapped


@pytest.mark.parametrize("k,beta", [(1, 1.0), (3, 2.0)])
def test_the_dtype_decision_evaluates_g_and_f_at_most_once_per_run(k, beta):
    # one evaluation of G and one of f per step; the dtype decision adds one
    # each for a real start, none for a complex one, and none per substep
    nsteps = 10
    for start in ("complex", "real", "default"):
        counts = {"G": 0, "f": 0}
        spec, exact, dt = _real_vector_problem()
        spec.nonlinear = _counting(spec.nonlinear, counts, "G")
        spec.source = _counting(spec.source, counts, "f")
        starter = {"complex": lambda t: exact(t).astype(complex), "real": exact,
                   "default": None}[start]
        s = itg.run(spec, k, beta, dt, nsteps * dt, starter=starter)
        assert not s.diverged
        steps = nsteps - (k - 1) + (0 if starter else (k - 1) * itg.STARTER_SUBSTEPS)
        probe = 0 if start == "complex" else 1
        assert counts == {"G": steps + probe, "f": steps + probe}, start


def _desk_start_problems():
    # (problem, dt) on half-spectra: Cahn-Hilliard 32^2 as the desk preset
    # has it, at the preset step and at the reference's dt / 30, and the
    # Allen-Cahn circle at 64^2 and the desk step
    ch_grid = sp.Grid2D(32, 32, 1.0, 1.0)
    ch = sp.PhaseFieldParams(mobility=1.0, eps=ex.CH_DESK["eps"], alpha=1)
    ch_spec = itg.ProblemSpec(linear_symbol=sp.linear_symbol(ch, ch_grid),
                              nonlinear=sp.nonlinear_fourier(ch, ch_grid),
                              u0=np.fft.rfft2(ex.ch_initial_state(32, ex.DEFAULT_SEED)))
    ac_grid = sp.Grid2D(64, 64, 2.0, 2.0, x0=-1.0, y0=-1.0)
    ac_spec = itg.ProblemSpec(linear_symbol=sp.linear_symbol(ex.AC_PARAMS, ac_grid),
                              nonlinear=sp.nonlinear_fourier(ex.AC_PARAMS, ac_grid),
                              u0=np.fft.rfft2(ex.ac_initial_profile(ac_grid)))
    dt = ex.CH_DESK["dt"]
    return [(ch_spec, dt), (ch_spec, dt / ex.CH_DESK["ref_dt_ratio"]), (ac_spec, 0.75)]


@pytest.mark.parametrize("k,beta", _ORDERS[1:])
def test_default_start_equals_the_substep_oracle(k, beta):
    # the start is k = 1 steps of the stepper; the oracle is its own loop of
    # backward-Euler substeps.  On the desks' half-spectra they agree bit for
    # bit.  On a real vector problem the stepper forms u * (1/h) where the
    # oracle forms u / h, and the levels agree to 4 ulp of their largest entry
    for spec, dt in _desk_start_problems():
        got = itg.initialize(spec, k, beta, dt).history
        for lv, want in zip(got, imex1_history(spec, k, dt), strict=True):
            assert lv.dtype == want.dtype == np.complex128
            assert np.array_equal(lv, want)
    spec, _, dt = _real_vector_problem()
    got = itg.initialize(spec, k, beta, dt).history
    for lv, want in zip(got, imex1_history(spec, k, dt), strict=True):
        assert lv.dtype == want.dtype == np.float64
        assert np.all(np.abs(lv - want) <= 4 * np.spacing(np.abs(want).max()))


def test_states_of_two_problems_step_independently():
    # the same scheme on L = (1, 2) and on L = (100, 200): each state steps
    # its own problem, however the two are interleaved
    specs = [itg.ProblemSpec(linear_symbol=np.array(lam), u0=np.array([1.0, 1.0]))
             for lam in ([1.0, 2.0], [100.0, 200.0])]
    runs = [itg.run(spec, 3, 2.0, 0.1, 1.0) for spec in specs]
    states = [itg.initialize(spec, 3, 2.0, 0.1) for spec in specs]
    while states[0].n < 10:
        for state in states:
            itg.step(state)
    for state, s in zip(states, runs):
        assert np.array_equal(state.newest, s.final_state)
    assert not np.allclose(states[0].newest, states[1].newest)


def test_step_advances_the_ring_in_place():
    spec, exact, dt = _real_vector_problem()
    k = 3
    state = itg.initialize(spec, k, 2.0, dt, starter=exact)
    assert itg.step(state) is state and state.n == k
    held, value = state.newest, state.newest.copy()
    for _ in range(k - 1):  # a level keeps its value for k - 1 more steps ...
        itg.step(state)
        assert np.array_equal(held, value)
    itg.step(state)  # ... and the k-th overwrites its slot
    assert np.shares_memory(held, state.newest) and not np.array_equal(held, value)


def test_run_hands_out_copies_of_the_ring(monkeypatch):
    # `run` calls `step` through the module global: record each state it steps
    seen, real_step = [], itg.step

    def spy(state):
        seen.append(state)
        return real_step(state)

    monkeypatch.setattr(itg, "step", spy)
    spec, exact, dt = _real_vector_problem()
    k = 3
    s = itg.run(spec, k, 2.0, dt, 10 * dt, starter=exact)
    assert len(seen) == 10 - (k - 1)
    final = s.final_state.copy()
    for _ in range(k + 1):
        real_step(seen[-1])
    assert np.array_equal(s.final_state, final)

    # the error's last finite level is a copy too: give the state it left a
    # calm problem with the same (zero) symbol, so its inverse still holds,
    # and step it
    wild = itg.ProblemSpec(linear_symbol=np.zeros(1), nonlinear=lambda u: -u ** 2,
                           u0=np.array([0.5]))
    seen.clear()
    s = itg.run(wild, 2, 1.0, 0.5, 25.0)
    last = s.blowup.last_state.copy()
    assert s.final_state is s.blowup.last_state
    seen[-1].spec = itg.ProblemSpec(linear_symbol=np.zeros(1))
    for _ in range(3):
        real_step(seen[-1])
    assert np.array_equal(s.blowup.last_state, last)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.1e10, 0.9e10])
def test_finiteness_check_catches_nan_inf_and_the_limit(value):
    # k = 1 with L = 0 and dt = 1 makes u^(n+1) = u^n + f(n + 1) exactly, so
    # the source puts `value` into the level of step 3 and keeps it there
    spec = itg.ProblemSpec(linear_symbol=np.zeros(3),
                           source=lambda t: np.array([0.0, value if t == 3.0 else 0.0, 0.0]),
                           u0=np.zeros(3))
    s = itg.run(spec, 1, 1.0, 1.0, 6.0, observe=lambda u, t: float(u[1]))
    if value == 0.9e10:
        assert not s.diverged and s.final_state[1] == value
        return
    assert isinstance(s.blowup, itg.BlowUpError)
    assert s.blowup_step == 3 and s.blowup.time == 3.0
    assert s.times == [0.0, 1.0, 2.0] and s.final_state[1] == 0.0


def _finiteness_verdict(u):
    try:
        itg._check_finite(u, 1, 0.5)
    except itg.BlowUpError:
        return "raises"
    return "passes"


@pytest.mark.parametrize("re,im,verdict", [
    (7e9, -7e9, "passes"),  # at the part bound: no exact test needed
    (-7e9, 7e9, "passes"),
    (7.07e9, 7.07e9, "passes"),  # |u| = 9.9985e9: the exact test lets it pass
    (7.08e9, 7.08e9, "raises"),  # |u| = 1.00129e10
    (0.0, np.nan, "raises"),
    (np.nan, 0.0, "raises"),
    (np.inf, 0.0, "raises"),
    (0.0, -np.inf, "raises"),
])
def test_finiteness_check_bounds_the_parts_then_tests_the_modulus(re, im, verdict):
    assert 7.07e9 * math.sqrt(2.0) < itg.BLOWUP_LIMIT < 7.08e9 * math.sqrt(2.0)
    u = np.full((4, 3), 0.5 - 0.25j)
    u[2, 1] = complex(re, im)
    assert _finiteness_verdict(u) == verdict
    # a real ring holding the real part, the imaginary part or the modulus
    for value in (re, im, abs(complex(re, im))):
        want = "passes" if abs(value) <= itg.BLOWUP_LIMIT else "raises"
        for sign in (1.0, -1.0):
            r = np.full((4, 3), 0.5)
            r[2, 1] = sign * value
            assert _finiteness_verdict(r) == want


@pytest.mark.parametrize("k", [2.0, 1.0, True])
def test_run_refuses_an_order_that_is_not_an_integer(k):
    # 1.0 and True equal 1 but do not select the k = 1 baseline
    spec, exact, dt = _real_vector_problem()
    with pytest.raises(coeffs.OrderError):
        itg.run(spec, k, 1.0, dt, 10 * dt)
    with pytest.raises(coeffs.OrderError):
        itg.initialize(spec, k, 1.0, dt)


@pytest.mark.parametrize("k,beta", [(3, 2.0), (1, 1.0)])
def test_run_takes_a_numpy_integer_order(k, beta):
    spec, exact, dt = _real_vector_problem()
    got, want = (itg.run(spec, order, beta, dt, 10 * dt, observe=lambda u, t: u.copy())
                 for order in (np.int64(k), k))
    assert got.times == want.times
    for a, b in zip(got.values + [got.final_state], want.values + [want.final_state],
                    strict=True):
        assert np.array_equal(a, b)
