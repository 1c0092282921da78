import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaimex import coeffs, stability
from betaimex.polynomials import _integer_multiple, _roots_inside_unit_disk
from betaimex.stability import _CHUNK, DEFAULT_WINDOW, is_stable, scan_region
from oracles import boundary_locus, characteristic_coeffs, eig_scan_mask

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.mark.parametrize("beta", [1.0, 3.0, 5.0])
@pytest.mark.parametrize("z", [0.3 + 0.7j, -2.0 + 0j, -1.0 + 4.0j])
def test_second_order_characteristic_matches_printed_quadratic(beta, z):
    got = characteristic_coeffs(2, beta, z)
    printed = np.array([2 * beta - 1,
                        2 * (beta - 1) * z - 4 * beta,
                        2 * beta + 1 - 2 * beta * z])
    assert np.allclose(2.0 * got, printed, rtol=1e-13)


def test_zero_z_reduces_to_derivative_weights():
    got = characteristic_coeffs(4, 2.0, 0.0)
    assert np.allclose(got, coeffs.scheme_coefficients(4, 2.0).a)


def test_third_order_beta1_at_minus_one():
    # hand-evaluated from the printed tables: a(1) - z*b(1) at z = -1
    got = characteristic_coeffs(3, 1.0, -1.0)
    assert np.allclose(got, [-1 / 3, 3 / 2, -3.0, 17 / 6], rtol=1e-13)


def test_a_stability_samples_second_order():
    assert is_stable(2, 1.0, -10.0)
    assert is_stable(2, 5.0, -10.0 + 5.0j)
    assert is_stable(2, 1.0, 0.0)  # simple amplification factor on the circle
    assert not is_stable(2, 1.0, 0.5)  # inside the classical instability lens


ZERO_CASES = [(k, beta) for k in (2, 3, 4, 5) for beta in (1.0, 2.0, 2.5, 3.0, 5.0, 7.0, 10.0)]


@pytest.mark.parametrize("k,beta", ZERO_CASES)
def test_zero_is_stable(k, beta):
    # pi = a has the simple root w = 1 and its other roots inside (zero-stability)
    assert is_stable(k, beta, 0.0)


def _rounded_a_at_zero_holds(k, beta):
    a, _ = _integer_multiple(coeffs.scheme_coefficients(k, beta).a)
    return _roots_inside_unit_disk(a, closed=True)


def test_the_rounded_weights_would_misjudge_zero():
    # on the correctly rounded a the exact test loses the root w = 1 where the
    # rounded a(1) falls below 0, as for classical BDF3; is_stable takes the
    # exact weights instead
    assert not _rounded_a_at_zero_holds(3, 1.0)
    assert sum(not _rounded_a_at_zero_holds(k, beta) for k, beta in ZERO_CASES) == 8


def test_the_pole_is_unstable():
    # classical BDF2: the leading coefficient 3/2 - z of pi vanishes at z = 3/2
    assert not is_stable(2, 1.0, 1.5)


def _recurrence_bounded(k, beta, z, steps=10_000):
    """Whether the recurrence with characteristic polynomial pi stays bounded, per z."""
    coef = characteristic_coeffs(k, beta, z)
    rng = np.random.default_rng(99)
    start = rng.normal(size=k) + 1j * rng.normal(size=k)
    hist = [np.full(len(z), h) for h in start]
    peak = np.zeros(len(z))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            new = -sum(coef[:, q] * hist[q] for q in range(k)) / coef[:, k]
            hist = hist[1:] + [new]
            # fmax skips the NaNs of overflowed points, which keep their peak
            peak = np.fmax(peak, np.abs(new))
    return ~(peak > 1e9) & (peak < 1e6)


@pytest.mark.parametrize("k,beta", [(2, 3.0), (3, 1.0), (3, 5.0), (4, 3.0)])
def test_root_condition_agrees_with_power_iteration(k, beta):
    rng = np.random.default_rng(k * 17 + int(beta))
    zs = []
    while len(zs) < 100:
        z = complex(rng.uniform(-12, 4), rng.uniform(-8, 8))
        coef = characteristic_coeffs(k, beta, z)
        rmax = np.abs(np.roots(coef[::-1])).max()
        if abs(rmax - 1.0) < 1e-3:
            continue  # too close to the region boundary for a finite run
        zs.append(z)
    bounded = _recurrence_bounded(k, beta, np.array(zs))
    assert [is_stable(k, beta, z) for z in zs] == bounded.tolist()


def test_scan_mask_symmetric_and_area_positive():
    grid = scan_region(3, 3.0, resolution=(120, 120))
    assert np.array_equal(grid.mask, grid.mask[:, ::-1])
    assert grid.area > 0.0
    assert grid.window == DEFAULT_WINDOW


def test_left_half_plane_stable_for_second_order():
    for beta in (1.0, 3.0, 5.0):
        grid = scan_region(2, beta, resolution=(120, 120))
        re = grid.re_lo + (np.arange(grid.nx) + 0.5) * (grid.re_hi - grid.re_lo) / grid.nx
        assert grid.mask[re <= 0.0, :].all()


def test_area_grows_with_shift():
    areas = {(k, b): scan_region(k, b, resolution=(150, 150)).area
             for k in (3, 4) for b in (1.0, 3.0, 5.0)}
    for k in (3, 4):
        assert areas[(k, 5.0)] > areas[(k, 3.0)] > areas[(k, 1.0)]
    area_21 = scan_region(2, 1.0, resolution=(150, 150)).area
    assert areas[(4, 3.0)] > area_21


ORACLE_CASES = [(k, beta) for k in (2, 3, 4, 5) for beta in (1.0, 3.0, 5.0)] + [(5, 7.0)]


@pytest.mark.parametrize("k,beta", ORACLE_CASES)
def test_scan_mask_matches_is_stable_at_every_cell_centre(k, beta):
    grid = scan_region(k, beta, resolution=(41, 40))
    re = grid.re_lo + (np.arange(grid.nx) + 0.5) * (grid.re_hi - grid.re_lo) / grid.nx
    im = grid.im_lo + (np.arange(grid.ny) + 0.5) * (grid.im_hi - grid.im_lo) / grid.ny
    want = np.array([[is_stable(k, beta, complex(x, y)) for y in im] for x in re])
    assert grid.mask.shape == want.shape
    assert np.array_equal(grid.mask, want)


GALLERY_CASES = [(k, beta) for k in (2, 3, 4) for beta in (1.0, 3.0, 5.0)]


@pytest.mark.parametrize("k,beta", GALLERY_CASES + [(5, 1.0), (5, 7.0)])
def test_scan_mask_equals_the_eigensolve_route_bit_for_bit(k, beta):
    grid = scan_region(k, beta, resolution=(200, 200))
    assert np.array_equal(grid.mask, eig_scan_mask(k, beta, DEFAULT_WINDOW, (200, 200)))


def test_scan_mask_equals_the_eigensolve_route_across_a_chunk_seam():
    # 257 * 256 points span several chunks, the last of them partial
    grid = scan_region(4, 1.0, resolution=(257, 256))
    assert grid.mask.size > _CHUNK
    tail = grid.mask.ravel()[_CHUNK:]
    assert tail.any() and not tail.all()
    assert np.array_equal(grid.mask, eig_scan_mask(4, 1.0, DEFAULT_WINDOW, (257, 256)))


# a symmetric window scanned once per conjugate pair of columns: an odd ny
# with its middle column, a fold across a chunk seam; and a window that is
# not symmetric, scanned whole
FOLD_CASES = [(4, 1.0, DEFAULT_WINDOW, (41, 41)), (3, 5.0, DEFAULT_WINDOW, (41, 41)),
              (4, 1.0, DEFAULT_WINDOW, (257, 255)),
              (4, 1.0, (-12.0, 4.0, -8.0, 7.0), (200, 200)),
              (5, 3.0, (-12.0, 4.0, -8.0, 7.0), (41, 41))]


@pytest.mark.parametrize("k,beta,window,resolution", FOLD_CASES)
def test_folded_scan_equals_the_eigensolve_route_bit_for_bit(k, beta, window, resolution):
    grid = scan_region(k, beta, window=window, resolution=resolution)
    want = eig_scan_mask(k, beta, window, resolution)
    assert want.any() and not want.all()
    assert np.array_equal(grid.mask, want)


@pytest.mark.parametrize("window,resolution,scanned", [
    (DEFAULT_WINDOW, (200, 200), 200 * 100), (DEFAULT_WINDOW, (41, 41), 41 * 21),
    (DEFAULT_WINDOW, (257, 255), 257 * 128), (DEFAULT_WINDOW, (3, 1), 3),
    ((-12.0, 4.0, -8.0, 7.0), (200, 200), 200 * 200),
    ((-12.0, 4.0, -8.0, 7.0), (41, 41), 41 * 41)])
def test_symmetric_windows_are_scanned_once_per_conjugate_pair(monkeypatch, window,
                                                               resolution, scanned):
    # the first Schur-Cohn pass of each chunk sees every scanned point once
    columns = []
    schur_inside = stability._schur_inside

    def spy(p, spare):
        columns.append(p.shape[1])
        return schur_inside(p, spare)

    monkeypatch.setattr(stability, "_schur_inside", spy)
    grid = scan_region(4, 1.0, window=window, resolution=resolution)
    assert grid.mask.shape == resolution
    # each chunk makes two calls, the inner pass and then the outer one
    assert sum(columns[::2]) == scanned


@pytest.mark.parametrize("k,beta,resolution", [(4, 1.0, (200, 200)), (4, 1.0, (257, 256)),
                                               (5, 3.0, (200, 200)), (3, 5.0, (201, 201))])
def test_scan_mask_does_not_depend_on_the_chunk_size(monkeypatch, k, beta, resolution):
    # chunks of an odd size cut rows at other points and leave a partial
    # last chunk; every mask bit must stay
    want = scan_region(k, beta, resolution=resolution)
    monkeypatch.setattr(stability, "_CHUNK", 1000)
    got = scan_region(k, beta, resolution=resolution)
    assert np.array_equal(got.mask, want.mask) and got.area == want.area


@pytest.mark.parametrize("k,beta", ORACLE_CASES)
def test_a_widened_band_moves_no_mask_bit(monkeypatch, k, beta):
    # with _BAND = 1e-2 hundreds of cells over the 13 cases reach the exact
    # test instead of the float passes; no verdict may change
    want = scan_region(k, beta, resolution=(200, 200)).mask
    exact = []
    root_condition = stability._root_condition

    def spy(*args):
        exact.append(args)
        return root_condition(*args)

    monkeypatch.setattr(stability, "_root_condition", spy)
    monkeypatch.setattr(stability, "_BAND", 1e-2)
    got = scan_region(k, beta, resolution=(200, 200)).mask
    assert exact
    assert np.array_equal(got, want)
    assert np.array_equal(got, eig_scan_mask(k, beta, DEFAULT_WINDOW, (200, 200)))


def _spy_records(monkeypatch):
    # the integer records built, and the records the exact tests were given
    built, tested = [], []
    integer_record, root_condition = coeffs._integer_record, stability._root_condition

    def build(k, beta):
        built.append(integer_record(k, beta))
        return built[-1]

    def exact(record, z):
        tested.append(record)
        return root_condition(record, z)

    monkeypatch.setattr(coeffs, "_integer_record", build)
    monkeypatch.setattr(stability, "_root_condition", exact)
    return built, tested


def test_a_scan_warns_once_however_many_cells_reach_the_exact_test(monkeypatch):
    # 20 cells of this window reach the exact test, and none of them warns
    built, tested = _spy_records(monkeypatch)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        grid = scan_region(4, 1.0, window=(-1, 1, -1, 1), resolution=(301, 301))
    assert [(str(w.message), w.filename) for w in record] == \
        [("k=4 with beta=1: multiplier certificate requires beta >= 2", __file__)]
    # one record for the float weights, one for every exact test
    assert len(built) == 2 and len(tested) == 20 and all(r is built[1] for r in tested)
    assert int(grid.mask.sum()) == 43_903


def test_a_scan_with_no_cell_at_the_exact_test_builds_only_the_float_record(monkeypatch):
    built, tested = _spy_records(monkeypatch)
    scan_region(4, 3.0, resolution=(200, 200))
    assert len(built) == 1 and not tested


@pytest.mark.parametrize("k,beta", [(k, beta) for k in (2, 3, 4, 5) for beta in (1.0, 3.0)])
def test_scan_cell_where_the_leading_coefficient_vanishes_is_unstable(k, beta):
    # at z* = a_k / b_(k-1) the w^k coefficient of pi vanishes: one
    # amplification factor escapes to infinity
    a, b, _ = coeffs.scheme_coefficients(k, beta).arrays()
    z_star = a[k] / b[k - 1]
    grid = scan_region(k, beta, window=(z_star - 0.5, z_star + 0.5, -0.5, 0.5),
                       resolution=(1, 1))
    centre = complex(grid.re_lo + 0.5 * (grid.re_hi - grid.re_lo), 0.0)
    coef = characteristic_coeffs(k, beta, centre)
    assert abs(coef[k]) <= 1e-14 * np.abs(coef[:k]).max()
    assert not grid.mask[0, 0]
    assert not is_stable(k, beta, centre)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(2, 5), beta=st.floats(1.0, 10.0),
       theta=st.floats(0.0, 2 * np.pi), log_offset=st.floats(-9.0, -3.0),
       direction=st.floats(0.0, 2 * np.pi))
def test_scan_verdict_matches_is_stable_near_the_boundary(k, beta, theta, log_offset,
                                                          direction):
    z = complex(boundary_locus(k, beta, theta)) + 10.0 ** log_offset * np.exp(1j * direction)
    half = 1e-3
    grid = scan_region(k, beta, window=(z.real - half, z.real + half,
                                        z.imag - half, z.imag + half), resolution=(1, 1))
    centre = complex(grid.re_lo + 0.5 * (grid.re_hi - grid.re_lo),
                     grid.im_lo + 0.5 * (grid.im_hi - grid.im_lo))
    assert grid.mask[0, 0] == is_stable(k, beta, centre)


# the boundary locus of these cases is a simple closed curve around the unstable
# set; at (3, 1) and (4, 1) it self-intersects
SIMPLE_LOCUS_CASES = [(2, 1.0), (2, 3.0), (2, 5.0), (3, 3.0), (3, 5.0), (4, 3.0), (4, 5.0)]


@pytest.mark.parametrize("k,beta", SIMPLE_LOCUS_CASES)
def test_unstable_area_matches_the_boundary_locus(k, beta):
    grid = scan_region(k, beta)
    z = boundary_locus(k, beta, np.linspace(0.0, 2 * np.pi, 20_001))
    re_lo, re_hi, im_lo, im_hi = grid.window
    # the whole unstable set lies in the window; the (2, 1) locus touches re = 4
    assert re_lo <= z.real.min() and z.real.max() <= re_hi + 1e-12
    assert im_lo <= z.imag.min() and z.imag.max() <= im_hi
    shoelace = 0.5 * abs(np.sum(z.real[:-1] * z.imag[1:] - z.real[1:] * z.imag[:-1]))
    perimeter = np.abs(np.diff(z)).sum()
    cell = max((re_hi - re_lo) / grid.nx, (im_hi - im_lo) / grid.ny)
    window_area = (re_hi - re_lo) * (im_hi - im_lo)
    assert abs(window_area - grid.area - shoelace) <= perimeter * cell


def test_scan_rejects_empty_window():
    with pytest.raises(ValueError):
        scan_region(2, 1.0, window=(1.0, 1.0, -1.0, 1.0))


@pytest.mark.parametrize("window", [(-12.0, 4.0, -8.0, np.inf), (-1e308, 1e308, -8.0, 8.0),
                                    (-1e200, 1e200, -1e200, 1e200)])
def test_scan_rejects_non_finite_windows(window):
    # an infinite bound, a width that overflows, an area that overflows
    with pytest.raises(ValueError, match="finite"):
        scan_region(2, 1.0, window=window, resolution=(4, 4))
