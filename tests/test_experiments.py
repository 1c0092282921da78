import math
import warnings

import numpy as np
import pytest

from betaimex.experiments import (CH_DESK, CH_FULL, ExperimentConfig,
                                  ch_initial_state, ch_preset, run_allen_cahn_radius,
                                  run_cahn_hilliard, run_convergence, theory_radius)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def test_dt_sweep_must_decrease():
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", dt_sweep=(0.1, 0.2))
    with pytest.raises(ValueError):
        ExperimentConfig(name="x", dt_sweep=(0.1, -0.05))
    cfg = ExperimentConfig(name="x", dt_sweep=(0.1, 0.05, 0.025, 0.0125))
    assert cfg.dt_sweep == (0.1, 0.05, 0.025, 0.0125)


def test_convergence_needs_four_points():
    cfg = ExperimentConfig(name="converge", k=2, beta=1.0, dt_sweep=(0.1, 0.05, 0.025, 0.0125))
    with pytest.raises(ValueError):
        run_convergence(ExperimentConfig(name="converge", k=2, beta=1.0,
                                         dt_sweep=(0.1, 0.05)))
    rep = run_convergence(cfg)
    assert len(rep.errors) == 4 and abs(rep.slope - 2.0) < 0.35


def test_theory_radius_value():
    assert theory_radius(1000.0) == pytest.approx(math.sqrt(8000.0), rel=1e-12)
    assert theory_radius(1000.0) == pytest.approx(89.4427, abs=1e-4)


def test_presets():
    assert ch_preset(True) == CH_DESK and ch_preset(False) == CH_FULL
    assert CH_DESK["dt"] == 2e-6 and CH_FULL["dt"] == 7.5e-8


def test_seeded_start_is_reproducible():
    a = ch_initial_state(32, 77)
    b = ch_initial_state(32, 77)
    c = ch_initial_state(32, 78)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert abs(a.mean() - 0.2) < 0.005
    assert np.all(np.abs(a - 0.2) <= 0.02)


# Tolerance classes of the solver.  Robust runs agree to a stated tolerance:
# `run_convergence` errors at the default 40^2 / 1/80..1/1280 sweep.  (2, 3)
# and (3, 3) were recorded while the history sums were still three loops of
# scaled adds (commit 25119b8); reordering those sums moved them by at most
# 1.2e-13.  (4, 5) was recorded once every float coefficient became the
# correctly rounded rational, which moved its errors by up to 8.4e-12.
ROBUST_CONVERGENCE = {
    (2, 3.0): ((0.0017972519224003457, 0.00045657014245249555, 0.00011510907358740983,
                2.8902323737430955e-05, 7.2414902660027055e-06), 1.9892159729523722),
    (3, 3.0): ((0.0001863935138315499, 2.7900160807394938e-05, 3.8102222558262683e-06,
                4.976145942796202e-07, 6.357306385759774e-08), 2.8844397663742005),
    (4, 5.0): ((3.179870557003636e-06, 2.03979726698163e-07, 1.2930917447808388e-08,
                8.145514121854461e-10, 5.134024039578474e-11), 3.980524122006328),
}


@pytest.mark.parametrize("k,beta", sorted(ROBUST_CONVERGENCE))
def test_robust_class_convergence_errors_are_pinned(k, beta):
    errors, slope = ROBUST_CONVERGENCE[(k, beta)]
    rep = run_convergence(ExperimentConfig(name="converge", k=k, beta=beta))
    assert np.abs(np.subtract(rep.errors, errors)).max() <= 1e-12
    assert abs(rep.slope - slope) <= 1e-3


@pytest.mark.parametrize("beta", [1.0, 3.0, 5.0])
def test_fourth_order_errors_fall_sixteenfold_per_halving(beta):
    # with the weights rounded once, every halving of dt gains at least 15 of
    # the ideal 16, down to dt = 1/1280 where the error is near 1e-11
    errors = run_convergence(ExperimentConfig(name="converge", k=4, beta=beta)).errors
    assert min(e0 / e1 for e0, e1 in zip(errors, errors[1:])) >= 15.0


# Allen-Cahn desk runs of the robust class (256^2, dt = 0.75, T = 500):
# max_relative_deviation and the last radius, recorded at commit 4bb0aec.
ROBUST_ALLEN_CAHN = {
    (2, 3.0): (0.00019106867574606668, 94.85899930274678),
    (3, 3.0): (0.00019106867574606668, 94.85639189761156),
}


@pytest.mark.parametrize("k,beta", sorted(ROBUST_ALLEN_CAHN))
def test_robust_class_allen_cahn_radius_is_pinned(k, beta):
    deviation, last_radius = ROBUST_ALLEN_CAHN[(k, beta)]
    rep = run_allen_cahn_radius(ExperimentConfig(name="allen-cahn", k=k, beta=beta,
                                                 small=True))
    assert not rep.diverged
    assert rep.max_relative_deviation == pytest.approx(deviation, rel=1e-12, abs=0)
    assert rep.radius[-1] == pytest.approx(last_radius, rel=1e-12, abs=0)


# Sensitive runs amplify last-bit changes, so they keep verdicts and exact
# blow-up steps, not digits: the classical (3, 1) and (4, 1) schemes on the
# Cahn-Hilliard desk preset up to T = 1e-3, by seed (the same values as
# perfbench's CH_BLOWUPS, seed 22 has the latest blow-up of seeds 0..32).
SENSITIVE_CH_BLOWUPS = {0: (94, 67), 2: (242, 64), 22: (275, 66), 1234: (95, 69)}


@pytest.mark.parametrize("seed", sorted(SENSITIVE_CH_BLOWUPS))
def test_sensitive_class_keeps_the_cahn_hilliard_blowup_steps(seed):
    report = run_cahn_hilliard(ExperimentConfig(
        name="cahn-hilliard", small=True, T=1e-3, seed=seed,
        schemes=((3, 1.0), (4, 1.0))), with_reference=False)
    assert tuple(v.blowup_step for v in report.verdicts) == SENSITIVE_CH_BLOWUPS[seed]


def test_cahn_hilliard_reference_takes_no_admissibility_warning():
    # the reference is the classical k = 4 at beta = 1 by design; (2, 1) warns nothing
    config = ExperimentConfig(name="cahn-hilliard", small=True, resolution=16, T=1e-4,
                              schemes=((2, 1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_cahn_hilliard(config)
    assert report.reference_checksum is not None


def test_cahn_hilliard_warns_once_per_call_site_under_the_default_filter():
    # silencing the reference must leave the once-per-location registry alone
    config = ExperimentConfig(name="cahn-hilliard", small=True, resolution=16, T=1e-4,
                              schemes=((4, 1.0),))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("default")
        for _ in range(2):
            run_cahn_hilliard(config)
    assert [str(w.message) for w in record] == \
        ["k=4 with beta=1: multiplier certificate requires beta >= 2"]


def test_cahn_hilliard_reference_reaches_t_and_leaves_the_schemes_alone():
    # 125 preset steps observed at stride 2: the level at T falls off the stride
    config = ExperimentConfig(name="cahn-hilliard", small=True, resolution=32, T=2.5e-4)
    report = run_cahn_hilliard(config)
    alone = run_cahn_hilliard(config, with_reference=False)
    stable = [v for v in report.verdicts if v.stable]
    assert stable and all(math.isfinite(v.ref_distance[-1]) for v in stable)
    # the reference run shares the schemes' ProblemSpec and must not touch it
    assert [(v.energy, v.blowup_step) for v in report.verdicts] == \
        [(v.energy, v.blowup_step) for v in alone.verdicts]
