import math

import numpy as np
import pytest

from betaimex import integrate as itg
from betaimex import spectral as sp
from betaimex.experiments import ac_initial_profile, ch_initial_state
import oracles

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


# Pointwise oracles for the grid operators of `spectral`.

def symbol_at(params, xi_x, xi_y):
    """Implicit symbol m |xi|^(2(alpha+1)) at one continuous mode."""
    k2 = xi_x ** 2 + xi_y ** 2
    return params.mobility * k2 ** (params.alpha + 1)


def nonlinear_term(params, grid, values):
    """G[u] = -m (-lap)^alpha [ u(1-u^2)/eps^2 ] in physical space."""
    w = values * (1.0 - values * values) / params.eps ** 2
    if params.alpha == 0:
        return -params.mobility * w
    return np.fft.irfft2(-params.mobility * grid.K2 * np.fft.rfft2(w), s=grid.shape)


@pytest.fixture
def unit_grid():
    return sp.Grid2D(64, 64, 1.0, 1.0)


def test_round_trip(unit_grid):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(64, 64))
    back = np.fft.irfft2(np.fft.rfft2(vals), s=unit_grid.shape)
    assert np.abs(back - vals).max() < 1e-12 * np.abs(vals).max()


def test_fourier_conjugate_symmetry(unit_grid):
    rng = np.random.default_rng(4)
    hat = np.fft.fft2(rng.normal(size=(64, 64)))
    flipped = np.conj(hat[(-np.arange(64)) % 64][:, (-np.arange(64)) % 64])
    assert np.abs(hat - flipped).max() < 1e-9 * np.abs(hat).max()


def test_spectral_derivative_exact_on_trig(unit_grid):
    u = np.sin(2 * np.pi * 3 * unit_grid.X) * np.cos(2 * np.pi * 5 * unit_grid.Y)
    hat = np.fft.rfft2(u)
    assert hat.shape == unit_grid.KX.shape == unit_grid.KY.shape == (64, 33)
    ux = np.fft.irfft2(1j * unit_grid.KX * hat, s=unit_grid.shape)
    exact = 6 * np.pi * np.cos(2 * np.pi * 3 * unit_grid.X) * np.cos(2 * np.pi * 5 * unit_grid.Y)
    assert np.abs(ux - exact).max() < 1e-12 * np.abs(exact).max()


def test_symbol_values():
    assert symbol_at(sp.PhaseFieldParams(1.0, 1.0, 1), 0.0, 0.0) == 0.0
    assert symbol_at(sp.PhaseFieldParams(0.2, 1.0, 0), math.pi, 0.0) == \
        pytest.approx(0.2 * math.pi ** 2, rel=1e-15)
    assert symbol_at(sp.PhaseFieldParams(1.0, 1.0, 1), 2 * math.pi, 0.0) == \
        pytest.approx(16 * math.pi ** 4, rel=1e-15)


def test_linear_symbol_grid_matches_pointwise(unit_grid):
    params = sp.PhaseFieldParams(0.7, 0.1, 1)
    sym = sp.linear_symbol(params, unit_grid)
    assert sym[0, 0] == 0.0
    assert sym[3, 5] == pytest.approx(
        symbol_at(params, unit_grid.KX[3, 5], unit_grid.KY[3, 5]), rel=1e-14)


def test_nonlinear_term_trivial_fields(unit_grid):
    params = sp.PhaseFieldParams(0.2, 0.2, 0)
    ones = np.ones((64, 64))
    zeros = np.zeros((64, 64))
    assert np.abs(nonlinear_term(params, unit_grid, ones)).max() == 0.0
    assert np.abs(nonlinear_term(params, unit_grid, zeros)).max() == 0.0
    const = np.full((64, 64), 0.37)
    expected = -(0.2 / 0.04) * 0.37 * (1 - 0.37 ** 2)
    assert np.allclose(nonlinear_term(params, unit_grid, const), expected, rtol=1e-12)


@pytest.mark.parametrize("alpha", [0, 1])
def test_nonlinear_fourier_matches_physical_oracle(unit_grid, alpha):
    params = sp.PhaseFieldParams(0.7, 0.1, alpha)
    rng = np.random.default_rng(12)
    u = rng.uniform(-1.0, 1.0, (64, 64))
    got = np.fft.irfft2(sp.nonlinear_fourier(params, unit_grid)(np.fft.rfft2(u)),
                        s=unit_grid.shape)
    want = nonlinear_term(params, unit_grid, u)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("alpha", [0, 1])
@pytest.mark.parametrize("n", [32, 64, 256])
def test_nonlinear_fourier_equals_the_two_dimensional_oracle(n, alpha):
    # one-axis passes into the closure's buffers give the bits of irfft2 and
    # rfft2; a batch of three half-spectra after a single one remakes them
    grid = sp.Grid2D(n, n, 1.0, 1.0)
    params = sp.PhaseFieldParams(0.7, 0.1, alpha)
    gee, want = sp.nonlinear_fourier(params, grid), oracles.nonlinear_fourier(params, grid)
    rng = np.random.default_rng(n + alpha)
    for shape in ((n, n), (3, n, n)):
        u_hat = np.fft.rfft2(rng.uniform(-1.0, 1.0, shape))
        got = gee(u_hat)
        assert got.shape == shape[:-1] + (n // 2 + 1,)
        assert np.array_equal(got, want(u_hat))
    for row in range(3):
        assert np.array_equal(got[row], want(u_hat[row]))


def test_nonlinear_fourier_returns_its_own_buffer(unit_grid):
    # every call returns the same array, which the next call overwrites
    params = sp.PhaseFieldParams(0.7, 0.1, 1)
    gee, want = sp.nonlinear_fourier(params, unit_grid), oracles.nonlinear_fourier(params, unit_grid)
    rng = np.random.default_rng(5)
    a, b = (np.fft.rfft2(rng.uniform(-1.0, 1.0, (64, 64))) for _ in range(2))
    first = gee(a)
    assert np.array_equal(first, want(a))
    assert gee(b) is first
    assert np.array_equal(first, want(b))


def test_conserved_variant_kills_zero_mode(unit_grid):
    params = sp.PhaseFieldParams(1.0, 0.04, 1)
    gee = sp.nonlinear_fourier(params, unit_grid)
    rng = np.random.default_rng(11)
    u_hat = np.fft.rfft2(0.2 + rng.uniform(-0.02, 0.02, (64, 64)))
    assert abs(gee(u_hat)[0, 0]) == 0.0


def test_free_energy_closed_forms(unit_grid):
    params = sp.PhaseFieldParams(1.0, 1.0, 0)
    ones = np.ones((64, 64))
    zeros = np.zeros((64, 64))
    sine = np.sin(2 * np.pi * unit_grid.X)
    assert sp.free_energy(params, unit_grid, ones) == 0.0
    assert sp.free_energy(params, unit_grid, zeros) == pytest.approx(0.25, rel=1e-14)
    assert sp.free_energy(params, unit_grid, sine) == pytest.approx(math.pi ** 2 + 3 / 32,
                                                                    rel=1e-12)


def test_free_energy_translation_invariant(unit_grid):
    params = sp.PhaseFieldParams(1.0, 0.3, 0)
    rng = np.random.default_rng(5)
    hat = np.zeros((64, 64), dtype=complex)
    hat[:8, :8] = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    u = np.fft.ifft2(hat).real
    e0 = sp.free_energy(params, unit_grid, u)
    for shift in ((1, 0), (7, 13), (32, 32)):
        e = sp.free_energy(params, unit_grid, np.roll(u, shift, (0, 1)))
        assert abs(e - e0) <= 1e-12 * max(1.0, abs(e0))


def test_manufactured_source_value_at_zero():
    grid = sp.Grid2D(40, 40, *sp.MANUFACTURED_DOMAIN)
    s = np.sin(np.pi * grid.X) * np.sin(np.pi * grid.Y)
    assert np.allclose(oracles.manufactured_source(grid, 0.0), np.exp(s), rtol=1e-14)


def test_manufactured_source_satisfies_equation():
    grid = sp.Grid2D(40, 40, *sp.MANUFACTURED_DOMAIN)
    params = sp.MANUFACTURED_PARAMS
    for t in (0.0, 0.4, 1.0):
        u = sp.manufactured_solution(grid, t)
        s = np.sin(np.pi * grid.X) * np.sin(np.pi * grid.Y)
        u_t = np.exp(s) * math.cos(t)
        Lu = np.fft.irfft2(sp.linear_symbol(params, grid) * np.fft.rfft2(u), s=grid.shape)
        Gu = nonlinear_term(params, grid, u)
        resid = np.abs(u_t + Lu + Gu - oracles.manufactured_source(grid, t)).max()
        assert resid < 1e-10


def test_manufactured_source_periodic():
    grid = sp.Grid2D(40, 40, *sp.MANUFACTURED_DOMAIN)
    f = oracles.manufactured_source(grid, 0.7)
    # periodic images: value at x=0 equals the limit from x -> Lx
    fine = sp.Grid2D(80, 80, *sp.MANUFACTURED_DOMAIN)
    ff = oracles.manufactured_source(fine, 0.7)
    assert np.allclose(ff[::2, ::2], f, rtol=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.5, -4.0])
def test_manufactured_source_fourier_matches_transformed_oracle(t):
    grid = sp.Grid2D(40, 40, *sp.MANUFACTURED_DOMAIN)
    want = np.fft.rfft2(oracles.manufactured_source(grid, t))
    got = sp.manufactured_source_fourier(grid)(t)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_free_energy_parseval_matches_physical_space_oracle():
    rng = np.random.default_rng(8)
    params = sp.PhaseFieldParams(1.0, 0.04, 1)
    cases = [(sp.Grid2D(64, 64, 1.0, 1.0), rng.uniform(-1.0, 1.0, (64, 64))),
             (sp.Grid2D(32, 48, 1.0, 2.5, x0=-0.3), rng.normal(size=(32, 48))),
             (sp.Grid2D(64, 64, 1.0, 1.0), ch_initial_state(64, 1234)),
             (sp.Grid2D(128, 128, 1.0, 1.0), ch_initial_state(128, 5))]
    for grid, u in cases:
        want = oracles.free_energy(params, grid, u)
        assert abs(sp.free_energy(params, grid, u) - want) <= 1e-12 * abs(want)


def _tanh_level_set(grid, centre, axes):
    rho = np.sqrt(((grid.X - centre[0]) / axes[0]) ** 2 + ((grid.Y - centre[1]) / axes[1]) ** 2)
    return np.tanh((1.0 - rho) / 0.05)


def test_radius_matches_row_loop_oracle():
    cases = []
    for n in (64, 256):
        grid = sp.Grid2D(n, n, 2.0, 2.0, x0=-1.0, y0=-1.0)
        cases += [(grid, ac_initial_profile(grid)),
                  (grid, _tanh_level_set(grid, (0.31, -0.17), (0.5, 0.5))),
                  (grid, _tanh_level_set(grid, (-0.9, 0.6), (0.4, 0.4))),  # wraps in x
                  (grid, _tanh_level_set(grid, (0.05, 0.1), (0.7, 0.35))),
                  (grid, _tanh_level_set(grid, (0.0, 0.0), (0.2, 0.8)))]
    for grid, values in cases:
        want = oracles.radius_of_circle(grid, values)
        assert abs(sp.radius_of_circle(grid, values) - want) <= 1e-12 * want


def test_radius_of_synthetic_disk():
    grid = sp.Grid2D(256, 256, 256.0, 256.0, x0=-128.0, y0=-128.0)
    disk = np.where(grid.X ** 2 + grid.Y ** 2 < 100.0 ** 2, 1.0, -1.0)
    r = sp.radius_of_circle(grid, disk)
    assert abs(r - 100.0) < 1.0  # within one cell width


def test_radius_rejects_empty_and_full_sets():
    grid = sp.Grid2D(64, 64, 2.0, 2.0, x0=-1.0, y0=-1.0)
    with pytest.raises(ValueError):
        sp.radius_of_circle(grid, -np.ones((64, 64)))
    with pytest.raises(ValueError):
        sp.radius_of_circle(grid, np.ones((64, 64)))


def test_interface_benchmark_initial_radius():
    from betaimex.experiments import ac_initial_profile, AC_MAP_SCALE
    grid = sp.Grid2D(256, 256, 2.0, 2.0, x0=-1.0, y0=-1.0)
    r = sp.radius_of_circle(grid, ac_initial_profile(grid)) * AC_MAP_SCALE
    assert abs(r - 100.0) < 0.5


def test_fully_discrete_step_conserves_mass():
    grid = sp.Grid2D(64, 64, 1.0, 1.0)
    params = sp.PhaseFieldParams(1.0, 0.04, 1)
    rng = np.random.default_rng(7)
    u0 = 0.2 + rng.uniform(-0.02, 0.02, (64, 64))
    spec = itg.ProblemSpec(linear_symbol=sp.linear_symbol(params, grid),
                           nonlinear=sp.nonlinear_fourier(params, grid),
                           u0=np.fft.rfft2(u0))
    state = itg.initialize(spec, 3, 3.0, 1e-7)
    mean0 = state.history[0][0, 0].real / (64 * 64)
    for _ in range(5):
        state = itg.step(state)
    mean = state.newest[0, 0].real / (64 * 64)
    assert abs(mean - mean0) < 1e-12


def test_param_validation():
    with pytest.raises(ValueError):
        sp.PhaseFieldParams(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        sp.PhaseFieldParams(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        sp.Grid2D(63, 64, 1.0, 1.0)
