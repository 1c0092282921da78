import math

import numpy as np
import pytest

from betaimex.experiments import (CH_DESK, CH_FULL, ExperimentConfig,
                                  ch_initial_state, ch_preset, run_cahn_hilliard,
                                  run_convergence, theory_radius)

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
# `run_convergence` errors at the default 40^2 / 1/80..1/1280 sweep, recorded
# while the history sums were still three loops of scaled adds (commit
# 25119b8).  Reordering those sums moved them by at most 1.2e-13.
ROBUST_CONVERGENCE = {
    (2, 3.0): ((0.0017972519224003457, 0.00045657014245249555, 0.00011510907358740983,
                2.8902323737430955e-05, 7.2414902660027055e-06), 1.9892159729523722),
    (3, 3.0): ((0.0001863935138315499, 2.7900160807394938e-05, 3.8102222558262683e-06,
                4.976145942796202e-07, 6.357306385759774e-08), 2.8844397663742005),
    (4, 5.0): ((3.1798697995854976e-06, 2.0397798450277911e-07, 1.2926694054805353e-08,
                8.061299184198104e-10, 5.663549672146614e-11), 3.953698859388424),
}


@pytest.mark.parametrize("k,beta", sorted(ROBUST_CONVERGENCE))
def test_robust_class_convergence_errors_are_pinned(k, beta):
    errors, slope = ROBUST_CONVERGENCE[(k, beta)]
    rep = run_convergence(ExperimentConfig(name="converge", k=k, beta=beta))
    assert np.abs(np.subtract(rep.errors, errors)).max() <= 1e-12
    assert abs(rep.slope - slope) <= 1e-3


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
