import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

import numpy as np
import pytest

from betaimex import certificates, cli, coeffs
from betaimex.outputs import write_csv, write_json, write_pgm
from betaimex.polynomials import _roots_inside_unit_disk

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    yield
    assert not multiprocessing.active_children()


def run_cli(args, capsys):
    code = cli.main(args)
    assert not multiprocessing.active_children()  # no worker outlives a command
    out = capsys.readouterr().out
    return code, out


def test_coeffs_json_roundtrip(capsys):
    code, out = run_cli(["coeffs", "--k", "2", "--beta", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == [2.5, -6.0, 3.5]
    assert payload["eta"] == pytest.approx(2 / 3)


def test_coeffs_exact_csv(capsys):
    code, out = run_cli(["coeffs", "--k", "3", "--beta", "3/2", "--exact", "--csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "symbol,index,value"
    values = {(row[0], row[1]): row[2] for row in (l.split(",") for l in lines[1:])}
    assert Fraction(values[("a", "3")]) == Fraction(3 * 9 + 6 * 6 + 2 * 4, 24)
    assert Fraction(values[("eta", "")]) == Fraction(1, 5)


def test_coeffs_prints_correctly_rounded_splitting_weights(capsys):
    # d[1] = -47/48, which b - eta*c formed in floats misses in the 12th digit
    code, out = run_cli(["coeffs", "--k", "3", "--beta", "95"], capsys)
    assert code == 0
    assert json.loads(out)["d"][1] == -0.9791666666666666 == float(Fraction(-47, 48))
    assert "-0.9791666666666666," in out


def test_coeffs_output_is_deterministic(capsys):
    _, first = run_cli(["coeffs", "--k", "4", "--beta", "2.5"], capsys)
    _, second = run_cli(["coeffs", "--k", "4", "--beta", "2.5"], capsys)
    assert first == second


def test_stability_emits_pgm_and_sidecar(tmp_path, capsys):
    code, out = run_cli(["--out", str(tmp_path), "stability", "--k", "2", "--beta", "1",
                         "--window=-4,2,-3,3", "--res", "40,40"], capsys)
    assert code == 0
    pgm = tmp_path / "stability_k2_beta1.pgm"
    sidecar = json.loads((tmp_path / "stability_k2_beta1.json").read_text())
    assert sidecar["k"] == 2 and sidecar["window"] == [-4.0, 2.0, -3.0, 3.0]
    assert sidecar["area"] > 0
    raw = pgm.read_bytes()
    assert raw.startswith(b"P5\n40 40\n255\n")
    pixels = set(raw.split(b"255\n", 1)[1])
    assert pixels <= {0, 255}
    assert (tmp_path / "manifest.json").exists()
    # byte-identical rerun
    run_cli(["--out", str(tmp_path), "stability", "--k", "2", "--beta", "1",
             "--window=-4,2,-3,3", "--res", "40,40"], capsys)
    assert pgm.read_bytes() == raw


@pytest.mark.parametrize("window", ["1,1,-1,1", "-12,4,-8,inf", "-1e308,1e308,-8,8"])
def test_stability_refuses_empty_and_non_finite_windows(tmp_path, capsys, window):
    code = cli.main(["--out", str(tmp_path), "stability", "--k", "2", "--beta", "1",
                     f"--window={window}", "--res", "4,4"])
    assert code == 1 and "window" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.json"))


def test_verify_exit_codes_and_records(tmp_path, capsys):
    code, _ = run_cli(["--out", str(tmp_path), "verify", "--k", "2", "--beta", "1"], capsys)
    assert code == 0
    code, _ = run_cli(["--out", str(tmp_path), "verify", "--k", "4", "--beta", "1"], capsys)
    assert code == 2
    records = json.loads((tmp_path / "verify_k4.json").read_text())
    assert records[0]["pass"] is False
    assert records[0]["min_h"] == pytest.approx(-0.31556515, rel=1e-6)


@pytest.mark.parametrize("k,beta", [(4, "1e6"), (3, "1e9"), (2, "1e16")])
def test_verify_passes_when_the_explicit_roots_crowd_the_circle(tmp_path, capsys, k, beta):
    # the roots of C~ lie within 1e-6 .. 1e-16 of |z| = 1, so the eigensolve
    # may report a modulus of 1 or more; the verdict comes from Schur-Cohn
    code, _ = run_cli(["--out", str(tmp_path), "verify", "--k", str(k), "--beta", beta], capsys)
    assert code == 0
    record, = json.loads((tmp_path / f"verify_k{k}.json").read_text())
    assert record["pass"] is True and record["failure_witness"] is None
    # the printed modulus is then the least double the exact test proves above
    # every root; at 1e16 no double below 1 bounds them
    c = coeffs._integer_record(k, Fraction(float(beta)))[2][0]

    def roots_below(rho):  # rho = p / q: q^n c(rho w) in integers, exact Schur-Cohn
        p, q = Fraction(rho).as_integer_ratio()
        n = len(c) - 1
        return _roots_inside_unit_disk([x * p ** i * q ** (n - i) for i, x in enumerate(c)])

    rho = record["max_root_modulus_C"]
    assert (rho < 1.0) == (k != 2) and rho <= 1.0
    assert roots_below(rho) and not roots_below(np.nextafter(rho, 0.0))


@pytest.mark.parametrize("k,beta", [(4, "1e60"), (3, "1e100"), (2, "1e155"), (2, "1.7e308")])
def test_verify_decides_shifts_beyond_the_float_range(tmp_path, capsys, k, beta):
    # resultants and certificate coefficients exceed the float range here, and
    # at 1.7e308 min_h = 1 / beta is subnormal; the verdict is taken on the
    # exact integers and only the printed floats saturate
    code, out = run_cli(["--out", str(tmp_path), "verify", "--k", str(k), "--beta", beta],
                        capsys)
    assert code == 0 and ": pass " in out
    record, = json.loads((tmp_path / f"verify_k{k}.json").read_text())
    assert record["pass"] is True and record["failure_witness"] is None
    assert record["min_f"] > 0.0 and record["min_h"] > 0.0
    if k == 4:
        assert record["resultant_AC"] == record["resultant_DC"] == -math.inf


def test_verify_at_a_large_representable_shift_keeps_its_report(tmp_path, capsys):
    code, out = run_cli(["--out", str(tmp_path), "verify", "--k", "4", "--beta", "1e30"],
                        capsys)
    assert code == 0
    assert out == "k=4 beta=1e+30: pass  min_f=1.800e+01 min_h=4.000e-30 rmax=1.000000\n"
    record, = json.loads((tmp_path / "verify_k4.json").read_text())
    assert record == {"beta": 1e30, "failure_witness": None, "k": 4,
                      "max_root_modulus_C": 1.0, "min_f": 18.0,
                      "min_h": 3.9999999999999996e-30, "pass": True,
                      "resultant_AC": -3.4722222222222225e+177,
                      "resultant_DC": -2.777777777777778e+178}


@pytest.mark.parametrize("grid", ["0:100:inf", "1:2:nan", "1:inf:1", "-inf:2:1",
                                  "0:100:1e-320", "1:1e12:1"])
def test_verify_refuses_non_finite_grids(tmp_path, capsys, grid):
    # an infinite step once checked no shift and passed; the others could not
    # count their points; 0:100:1e-320 has more than a float can count, and
    # 1:1e12:1 more steps than `MAX_GRID_STEPS`, whose shifts would not fit
    # in memory
    code = cli.main(["--out", str(tmp_path), "verify", "--k", "5", f"--grid={grid}"])
    assert code == 1 and "--grid" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.json"))


def test_grid_takes_up_to_max_grid_steps():
    assert len(cli._beta_grid("1:1e5:1")) == 100_000
    grid = cli._beta_grid("0:1e5:1")  # exactly MAX_GRID_STEPS steps
    assert len(grid) == 100_001 and grid[0] == 0.0 and grid[-1] == 1e5
    with pytest.raises(ValueError, match="--grid"):
        cli._beta_grid("0:100001:1")


def test_verify_grid_ordered_by_beta(tmp_path, capsys):
    code, _ = run_cli(["--out", str(tmp_path), "verify", "--k", "3",
                       "--grid", "1:3:0.5"], capsys)
    assert code == 0
    records = json.loads((tmp_path / "verify_k3.json").read_text())
    betas = [r["beta"] for r in records]
    assert betas == sorted(betas) == [1.0, 1.5, 2.0, 2.5, 3.0]


def test_verify_k5_has_one_beta_domain(tmp_path, capsys):
    # --beta and --grid both take every shift in [0, 100] and nothing else
    records = {}
    for flag, value in (("--beta", "0.5"), ("--grid", "0.5:0.5:0.1")):
        out = tmp_path / flag.strip("-")
        code, _ = run_cli(["--out", str(out), "verify", "--k", "5", flag, value], capsys)
        assert code == 2
        records[flag] = (out / "verify_k5.json").read_text()
    assert records["--beta"] == records["--grid"]
    for flag, value in (("--beta", "150"), ("--grid", "99:101:1")):
        code = cli.main(["--out", str(tmp_path), "verify", "--k", "5", flag, value])
        assert code == 1 and "[0, 100]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["allen-cahn", "--small", "--dt", "0", "--schemes", "[[2,3]]"],
    ["allen-cahn", "--small", "--T", "0", "--schemes", "[[2,3]]"],
    ["allen-cahn", "--small", "--resolution", "0", "--schemes", "[[2,3]]"],
    ["cahn-hilliard", "--small", "--dt", "0", "--no-reference"],
    ["cahn-hilliard", "--small", "--T", "-0.001", "--no-reference"],
    ["converge", "--k", "2", "--T", "0"],
    ["converge", "--k", "2", "--resolution", "0"],
])
def test_non_positive_experiment_flags_are_refused(tmp_path, capsys, argv):
    # a zero is not "use the preset": the run would record 0 and use the default
    code = cli.main(["--out", str(tmp_path), *argv])
    assert code == 1 and "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["allen-cahn", "--small", "--T", "inf", "--schemes", "[[2,3]]"], "T"),
    (["allen-cahn", "--small", "--dt", "inf", "--schemes", "[[2,3]]"], "dt"),
    (["cahn-hilliard", "--small", "--T", "inf", "--no-reference"], "T"),
    (["cahn-hilliard", "--small", "--dt", "inf", "--no-reference"], "dt"),
    (["converge", "--k", "2", "--T", "inf"], "T"),
])
def test_infinite_experiment_flags_are_refused(tmp_path, capsys, argv, flag):
    code = cli.main(["--out", str(tmp_path), *argv])
    assert code == 1
    assert capsys.readouterr().err == f"error: {flag} must be positive and finite, got inf\n"
    assert not any(tmp_path.iterdir())


def test_converge_writes_reports(tmp_path, capsys):
    code, out = run_cli(["--out", str(tmp_path), "converge", "--k", "2", "--beta", "1",
                         "--dts", "0.05,0.025,0.0125,0.00625"], capsys)
    assert code == 0
    rep = json.loads((tmp_path / "converge_k2.json").read_text())[0]
    assert abs(rep["slope"] - 2.0) < 0.3
    csv_lines = (tmp_path / "converge_k2_beta1.csv").read_text().splitlines()
    assert csv_lines[0] == "dt,l2_error" and len(csv_lines) == 5
    assert json.loads((tmp_path / "manifest.json").read_text())["experiment"] == "converge"


def _tree(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _assert_rerun_identical(tmp_path, args, capsys):
    """Run into two fresh directories; return (exit code, stdout, files) of the first."""
    runs = []
    for name in ("first", "second"):
        code, out = run_cli(["--out", str(tmp_path / name)] + args, capsys)
        runs.append((code, out, _tree(tmp_path / name)))
    assert runs[0] == runs[1]
    return runs[0]


def test_converge_rerun_is_byte_identical(tmp_path, capsys):
    code, out, files = _assert_rerun_identical(
        tmp_path, ["converge", "--k", "2", "--beta", "1,3", "--resolution", "16",
                   "--dts", "0.05,0.025,0.0125,0.00625"], capsys)
    assert code == 0 and out.count("slope=") == 2
    assert sorted(files) == ["converge_k2.json", "converge_k2_beta1.csv",
                             "converge_k2_beta3.csv", "manifest.json"]


@pytest.mark.parametrize("args,config", [
    (["stability", "--k", "2", "--beta", "3", "--res", "20,20"],
     {"k": 2, "beta": 3.0, "window": [-12.0, 4.0, -8.0, 8.0], "res": "20,20"}),
    (["verify", "--k", "3", "--grid", "1:2:0.5"], {"k": 3, "beta": 1.0, "grid": "1:2:0.5"}),
])
def test_scan_and_verify_manifests_do_not_depend_on_out(tmp_path, capsys, args, config):
    _, _, files = _assert_rerun_identical(tmp_path, args, capsys)
    manifest = json.loads(files["manifest.json"])
    assert manifest["config"] == config and manifest["seed"] == 1234


AC_TINY = ["allen-cahn", "--resolution", "32", "--T", "15"]


def test_allen_cahn_writes_outputs(tmp_path, capsys):
    code, out, files = _assert_rerun_identical(
        tmp_path, AC_TINY + ["--schemes", "[[1,1],[2,3]]"], capsys)
    assert code == 0
    assert sorted(files) == ["field_k1_beta1.f64", "field_k1_beta1.json",
                             "field_k2_beta3.f64", "field_k2_beta3.json",
                             "manifest.json", "radius_k1_beta1.csv",
                             "radius_k2_beta3.csv", "radius_summary.json"]
    summary = json.loads(files["radius_summary.json"])
    assert [(e["k"], e["beta"], e["diverged"]) for e in summary] == \
        [(1, 1.0, False), (2, 3.0, False)]
    assert all(0 < e["max_relative_deviation"] < 0.05 for e in summary)
    assert [json.loads(line) for line in out.splitlines()] == summary
    assert files["radius_k2_beta3.csv"].startswith(b"t,radius,radius_theory\n")
    assert len(files["field_k2_beta3.f64"]) == 32 * 32 * 8
    manifest = json.loads(files["manifest.json"])
    assert manifest["experiment"] == "allen-cahn"
    assert manifest["config"]["schemes"] == [[1, 1], [2, 3]]


def test_allen_cahn_blow_up_exits_2(tmp_path, capsys):
    # 200 steps observed at stride 2; the blow-up at step 4 falls off the stride
    code, out = run_cli(["--out", str(tmp_path), "allen-cahn", "--resolution", "32",
                         "--T", "1000", "--dt", "5", "--schemes", "[[2,1]]"], capsys)
    assert code == 2
    summary = json.loads((tmp_path / "radius_summary.json").read_text())
    assert summary == [{"k": 2, "beta": 1.0, "diverged": True,
                        "max_relative_deviation": None}]
    # the snapshot holds level 3, the last finite one, and says so
    assert json.loads((tmp_path / "field_k2_beta1.json").read_text())["t"] == 15.0


CH_TINY = ["cahn-hilliard", "--small", "--resolution", "32", "--no-reference"]


def test_cahn_hilliard_writes_outputs(tmp_path, capsys):
    code, out, files = _assert_rerun_identical(
        tmp_path, CH_TINY + ["--T", "4e-5", "--schemes", "[[2,1],[3,3]]"], capsys)
    assert code == 0
    assert sorted(files) == ["cahn_hilliard_summary.json",
                             "energy_k2_beta1.csv", "energy_k3_beta3.csv",
                             "field_k2_beta1.f64", "field_k2_beta1.json",
                             "field_k3_beta3.f64", "field_k3_beta3.json",
                             "manifest.json"]
    summary = json.loads(files["cahn_hilliard_summary.json"])
    assert sorted(summary) == ["preset", "reference_checksum", "seed", "verdicts"]
    assert summary["preset"]["n"] == 32 and summary["seed"] == 1234
    assert summary["reference_checksum"] is None
    assert summary["verdicts"] == [
        {"k": 2, "beta": 1.0, "stable": True, "blowup_step": None},
        {"k": 3, "beta": 3.0, "stable": True, "blowup_step": None}]
    assert [json.loads(line) for line in out.splitlines()] == summary["verdicts"]
    assert files["energy_k3_beta3.csv"].startswith(b"t,energy,ref_distance\n")


def test_cahn_hilliard_blow_up_exits_2(tmp_path, capsys):
    # 200 steps observed at stride 3; the (4, 1) blow-up falls off the stride
    code, out = run_cli(["--out", str(tmp_path)] + CH_TINY +
                        ["--T", "1e-3", "--dt", "5e-6", "--schemes", "[[2,1],[4,1]]"], capsys)
    assert code == 2
    verdicts = json.loads((tmp_path / "cahn_hilliard_summary.json").read_text())["verdicts"]
    assert [v["stable"] for v in verdicts] == [True, False]
    assert verdicts[1]["blowup_step"] == 27
    # the snapshot holds level 26, the last finite one, and says so
    assert json.loads((tmp_path / "field_k4_beta1.json").read_text())["t"] == 26 * 5e-6


def test_cahn_hilliard_reference_blow_up_exits_1(tmp_path, capsys):
    # at dt / 30 = 3.3e-5 the classical fourth-order reference itself blows up
    code = cli.main(["--out", str(tmp_path), "cahn-hilliard", "--small", "--resolution",
                     "32", "--dt", "1e-3", "--T", "2e-2", "--schemes", "[[2,1]]"])
    assert code == 1
    assert capsys.readouterr().err == ("error: reference run (k=4, beta=1, dt = 3.33333e-05) "
                                       "blew up at reference step 6 (t = 0.0002)\n")
    assert not any(tmp_path.iterdir())


def test_schemes_accept_integral_float_order(tmp_path, capsys):
    code, _ = run_cli(["--out", str(tmp_path / "ch")] + CH_TINY +
                      ["--T", "4e-5", "--schemes", "[[4.0,2.5]]"], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "ch" / "cahn_hilliard_summary.json").read_text())
    assert summary["verdicts"][0]["k"] == 4
    assert (tmp_path / "ch" / "energy_k4_beta2.5.csv").exists()
    manifest = json.loads((tmp_path / "ch" / "manifest.json").read_text())
    assert manifest["config"]["schemes"] == [[4.0, 2.5]]  # echoed as given

    code, _ = run_cli(["--out", str(tmp_path / "ac")] + AC_TINY +
                      ["--schemes", "[[2.0,3]]"], capsys)
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "ac").glob("radius_k*.csv")) == \
        ["radius_k2_beta3.csv"]
    summary = json.loads((tmp_path / "ac" / "radius_summary.json").read_text())
    assert (summary[0]["k"], summary[0]["beta"]) == (2, 3.0)


@pytest.mark.parametrize("command", ["allen-cahn", "cahn-hilliard"])
@pytest.mark.parametrize("schemes", ["[[2.5,3]]", "[[2]]", "[]", '[["2",3]]', "[[true,1]]",
                                     "[[2,3]", "[[3,3],[2,NaN]]", "[[3,3],[2,Infinity]]",
                                     "[[3,3],[2,1e400]]", "[[3,3],[2,0.5]]", "[[3,3],[1,2]]",
                                     "[[3,3],[6,7]]"])
def test_schemes_rejects_bad_pairs(tmp_path, capsys, command, schemes):
    # every pair is checked before the first run, here the full-scale (3, 3)
    code = cli.main(["--out", str(tmp_path), command, "--schemes", schemes])
    assert code == 1
    assert "--schemes" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("betas,why", [("1,nan", "finite"), ("1,inf", "finite"),
                                       ("1,0.5", ">= 1")])
def test_converge_rejects_bad_shifts_before_the_first_run(tmp_path, capsys, betas, why):
    code = cli.main(["--out", str(tmp_path), "converge", "--k", "3", "--beta", betas])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --beta entry k=3, beta=") and why in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,flag", [
    (["converge", "--k", "4", "--beta", "1,0.5"], "--beta entry k=4"),
    (["allen-cahn", "--schemes", "[[2,1],[4,0.5]]"], "--schemes entry k=4"),
    (["cahn-hilliard", "--schemes", "[[2,1],[4,0.5]]"], "--schemes entry k=4")])
def test_a_refused_experiment_leaves_its_new_out_directory_empty(tmp_path, capsys, argv, flag):
    # the output directory is made after the shifts are checked, so a refused
    # command leaves nothing at all where it was asked for
    out = tmp_path / "new"
    code = cli.main(["--out", str(out)] + argv)
    assert code == 1
    assert capsys.readouterr().err == (f"error: {flag}, beta=0.5: "
                                       "shift beta=0.5 must be >= 1\n")
    assert not out.exists()


def _no_pool(fn, jobs):
    pytest.fail("a refused command reached the pool")


@pytest.mark.parametrize("argv,err", [
    (["converge", "--k", "2", "--beta", "3.0000001,3.0000002", "--resolution", "8",
      "--dts", "0.05,0.025,0.0125,0.00625"],
     "--beta entries k=2, beta=3.0000001 and k=2, beta=3.0000002 "
     "would both write the files tagged k2_beta3"),
    (["allen-cahn", "--schemes", "[[4,1],[2,3],[2,3]]"],
     "--schemes entries k=2, beta=3.0 and k=2, beta=3.0 "
     "would both write the files tagged k2_beta3"),
    (["cahn-hilliard", "--small", "--schemes", "[[4,1],[2,1.0000001],[2,1]]"],
     "--schemes entries k=2, beta=1.0000001 and k=2, beta=1.0 "
     "would both write the files tagged k2_beta1"),
    (["allen-cahn", "--resolution", "33", "--T", "15", "--dt", "5", "--schemes", "[[4,1]]"],
     "resolution must be even, got 33"),
    (["converge", "--k", "4", "--beta", "1,3", "--resolution", "15"],
     "resolution must be even, got 15"),
    (["cahn-hilliard", "--small", "--resolution", "33", "--no-reference"],
     "resolution must be even, got 33"),
    (["allen-cahn", "--schemes", "[[5,1e78]]", "--resolution", "32", "--T", "10", "--dt", "5"],
     "--schemes entry k=5, beta=1e+78: order k=5 at shift beta=1e+78 has a weight "
     "beyond the float range")])
def test_a_refused_run_warns_of_nothing_and_forks_nothing(tmp_path, capsys, monkeypatch,
                                                          argv, err):
    # files that one entry would overwrite with another's, an odd grid, a
    # record past the float range: refused before any k = 4 warning, worker
    # or directory
    monkeypatch.setattr(cli, "_ordered_map", _no_pool)
    out = tmp_path / "new"
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        code = cli.main(["--out", str(out)] + argv)
    assert code == 1 and not record
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


def test_a_short_dt_sweep_is_refused_before_any_run(tmp_path, capsys, monkeypatch):
    # the config refuses it in this process, so no worker is forked for it
    monkeypatch.setattr(cli, "_ordered_map", _no_pool)
    out = tmp_path / "new"
    code = cli.main(["--out", str(out), "converge", "--k", "3", "--beta", "1,3",
                     "--dts", "0.1,0.05,0.02"])
    assert code == 1
    assert capsys.readouterr().err == "error: slope fit needs at least 4 dt values\n"
    assert not out.exists()


def test_cahn_hilliard_warns_for_the_requested_schemes_only(tmp_path, capsys):
    # the fine-step reference is the classical k = 4 at beta = 1 by design
    for schemes, count in (("[[2,1]]", 0), ("[[4,1]]", 1)):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            code, _ = run_cli(["--out", str(tmp_path), "cahn-hilliard", "--small",
                               "--resolution", "16", "--T", "1e-4", "--schemes", schemes],
                              capsys)
        assert code == 0
        assert [str(w.message) for w in record if w.category is UserWarning] == \
            ["k=4 with beta=1: multiplier certificate requires beta >= 2"] * count


def test_ordered_map_keeps_job_order_on_forked_workers(monkeypatch):
    def run(cores, fn, jobs):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        try:
            with cli._ordered_map(fn, jobs) as results:
                return list(results)
        finally:
            assert not multiprocessing.active_children()

    assert run(2, lambda j: j * j, range(7)) == run(1, lambda j: j * j, range(7)) == \
        [j * j for j in range(7)]
    # the workers inherit fn and the jobs, which need not pickle; one job stays here
    pids = run(2, lambda job: os.getpid(), [lambda: 0] * 4)
    assert os.getpid() not in pids and len(set(pids)) <= 2
    assert run(2, lambda job: os.getpid(), [None]) == [os.getpid()]

    def fail_at_two(j):
        if j == 2:
            raise ValueError("job 2 failed")
        return j

    # a worker that dies breaks the pool instead of hanging it
    with pytest.raises(BrokenProcessPool):
        run(2, lambda j: os._exit(3) if j == 1 else j, range(4))

    # an error is raised in its job's place, after the results before it
    for cores in (1, 2):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        seen = []
        with pytest.raises(Exception, match="^job 2 failed$"):
            with cli._ordered_map(fail_at_two, range(4)) as results:
                seen.extend(results)
        assert seen == [0, 1] and not multiprocessing.active_children()


POOLED = [
    ["verify", "--k", "4", "--grid", "1:30:0.1"],  # three blocks of shifts
    ["allen-cahn", "--resolution", "32", "--T", "30", "--dt", "5", "--schemes", "[[2,1],[3,3]]"],
    ["converge", "--k", "3", "--beta", "1,3", "--resolution", "16",
     "--dts", "0.05,0.025,0.0125,0.00625"],
]


@pytest.mark.parametrize("argv", POOLED, ids=lambda argv: argv[0])
def test_program_output_does_not_depend_on_the_core_count(tmp_path, argv):
    # as a program, stdout a pipe: files, stdout, stderr and exit code of a
    # two-worker pool and of a serial run
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    runs = []
    for cores in (1, 2):
        cwd = tmp_path / str(cores)
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c",
             f"from betaimex import cli; cli._usable_cores = lambda: {cores}; cli.entry()",
             "--out", "out", *argv], cwd=cwd, capture_output=True, env=env, timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr, _tree(cwd / "out")))
    assert runs[0] == runs[1]
    assert runs[0][0] == (0 if argv[0] == "converge" else 2)


def test_verify_builds_the_report_forms_before_the_pool(tmp_path, capsys, monkeypatch):
    # a grid's forked workers inherit the forms instead of each building them,
    # and take the grid in blocks of GRID_BLOCK shifts; one shift runs the
    # per-shift route as a block of one and builds no forms
    pooled = cli._ordered_map
    warm = []

    def checked(fn, jobs):
        warm.append((certificates._forms.cache_info().currsize, [len(b) for b in jobs]))
        return pooled(fn, jobs)

    certificates._forms.cache_clear()
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(cli, "_ordered_map", checked)
    code, _ = run_cli(["--out", str(tmp_path), "verify", "--k", "3", "--beta", "2"], capsys)
    assert code == 0 and warm == [(0, [1])]
    for grid, blocks in (("1:2:0.5", [3]), ("1:30:0.1", [128, 128, 35])):
        code, _ = run_cli(["--out", str(tmp_path), "verify", "--k", "3", "--grid", grid],
                          capsys)
        assert code == 0 and warm[-1] == (1, blocks)


def test_importing_the_cli_builds_no_report_forms():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import betaimex.cli; from betaimex import certificates; "
         "print(certificates._forms.cache_info().currsize)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def test_a_failing_middle_job_leaves_what_a_serial_run_leaves(tmp_path, capsys, monkeypatch):
    # 3 steps: (4, 3) cannot start, (2, 1) before it is written, (3, 3) after it is not
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        code = cli.main(["--out", str(tmp_path / str(cores)), "allen-cahn", "--resolution",
                         "32", "--T", "15", "--dt", "5", "--schemes", "[[2,1],[4,3],[3,3]]"])
        assert not multiprocessing.active_children()
        runs.append((code, capsys.readouterr(), _tree(tmp_path / str(cores))))
    assert runs[0] == runs[1]
    code, captured, files = runs[0]
    assert code == 1 and captured.err == "error: T must cover at least k steps\n"
    assert sorted(files) == ["field_k2_beta1.f64", "field_k2_beta1.json",
                             "radius_k2_beta1.csv"]


def test_a_dying_worker_ends_the_command_with_exit_1(tmp_path, capsys, monkeypatch):
    real = cli.run_allen_cahn_radius

    def run(config):
        if config.k == 3:
            os._exit(3)  # as an out-of-memory kill would end it
        return real(config)

    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(cli, "run_allen_cahn_radius", run)
    code = cli.main(["--out", str(tmp_path), "allen-cahn", "--resolution", "32", "--T", "15",
                     "--dt", "5", "--schemes", "[[2,1],[3,3]]"])
    assert code == 1 and not multiprocessing.active_children()
    assert capsys.readouterr().err.startswith("error: A process in the process pool was "
                                              "terminated abruptly")


# a pool whose two workers each report their pid and then sleep in a job
SLOW_POOL = """
import os, time
from betaimex import cli
cli._usable_cores = lambda: 2

def slow(job):
    os.write(1, b"%d\\n" % os.getpid())  # one write: print may split the line
    time.sleep(60)

with cli._ordered_map(slow, range(2)) as results:
    list(results)
"""


def _running(pid):
    # a zombie has ended and only waits for its new parent to reap it
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
def test_pool_workers_end_when_their_command_is_killed():
    # SIGTERM ends the command without shutting its pool down
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen([sys.executable, "-c", SLOW_POOL], stdout=subprocess.PIPE,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    pids = []
    try:
        pids = [int(proc.stdout.readline()) for _ in range(2)]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 5
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


def test_pooled_verify_warns_once_per_shift_in_beta_order(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    with pytest.warns(UserWarning) as record:
        code = cli.main(["--out", str(tmp_path), "verify", "--k", "4", "--grid", "1:30:0.1"])
    assert code == 2 and not multiprocessing.active_children()
    assert [str(w.message) for w in record if w.category is UserWarning] == \
        [f"k=4 with beta={b / 10:g}: multiplier certificate requires beta >= 2"
         for b in range(10, 20)]


def test_later_calls_keep_their_own_defaults(tmp_path, capsys):
    # main shares one parser across calls; a call's flags must not become
    # the defaults of the calls after it
    code, _ = run_cli(["--out", str(tmp_path / "flags"), "--seed", "7", "verify",
                       "--k", "2", "--beta", "3"], capsys)
    manifest = json.loads((tmp_path / "flags" / "manifest.json").read_text())
    assert code == 0 and manifest["seed"] == 7 and manifest["config"]["beta"] == 3.0
    code, _ = run_cli(["--out", str(tmp_path / "plain"), "stability", "--k", "3",
                       "--beta", "1", "--res", "6,6"], capsys)
    manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
    assert code == 0 and manifest["seed"] == 1234
    assert manifest["config"] == {"k": 3, "beta": 1.0, "window": [-12.0, 4.0, -8.0, 8.0],
                                  "res": "6,6"}
    code, _ = run_cli(["--out", str(tmp_path / "plain"), "verify", "--k", "2"], capsys)
    manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
    assert code == 0 and manifest["seed"] == 1234 and manifest["config"]["beta"] == 1.0


def test_usage_errors_exit_1_not_the_unstable_code_2(tmp_path, capsys):
    # flags come from the command line only: there is no --config file
    for argv, named in ((["verify", "--k", "2", "--beta", "abc"], "--beta"),
                        (["stability", "--beta", "1"], "--k"),
                        (["--config", "cfg.json", "coeffs", "--k", "2", "--beta", "1"],
                         "cfg.json"),
                        (["--config=cfg.json", "coeffs", "--k", "2", "--beta", "1"],
                         "--config")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out", str(tmp_path / "out"), *argv])
        assert exc.value.code == cli.EXIT_ERROR == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_internal_error_exit_code(capsys):
    code = cli.main(["coeffs", "--k", "9", "--beta", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_names_the_file_and_exits_1(tmp_path, capsys):
    (tmp_path / "manifest.json").mkdir()
    code = cli.main(["--out", str(tmp_path), "stability", "--k", "2", "--beta", "1",
                     "--res", "8,8"])
    assert code == 1
    want = f"error: cannot write JSON to {tmp_path / 'manifest.json'}: "
    assert capsys.readouterr().err.startswith(want)


def test_program_prints_warnings_without_source_location(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "betaimex.cli", "--out", str(tmp_path), "stability",
         "--k", "4", "--beta", "1", "--res", "8,8"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stderr == \
        "warning: k=4 with beta=1: multiplier certificate requires beta >= 2\n"


def test_empty_series_gives_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["t", "value"], [])
    assert path.read_text() == "t,value\n"


def test_pgm_two_level_content(tmp_path):
    mask = np.array([[True, False], [False, True]])
    path = tmp_path / "m.pgm"
    write_pgm(path, mask)
    raw = path.read_bytes()
    header, pixels = raw.split(b"255\n", 1)
    assert header == b"P5\n2 2\n"
    assert set(pixels) == {0, 255}


def test_json_writer_sorts_keys(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": 1, "a": [2.0, 3.5]})
    assert path.read_text() == '{\n  "a": [\n    2.0,\n    3.5\n  ],\n  "b": 1\n}\n'


def test_field_snapshot_round_trip(tmp_path):
    from betaimex.outputs import write_field_snapshot
    from betaimex.spectral import Grid2D
    grid = Grid2D(8, 8, 2.0, 1.0)
    rng = np.random.default_rng(0)
    values = rng.normal(size=(8, 8))
    stem = str(tmp_path / "snap")
    write_field_snapshot(stem, grid, values, t=0.25)
    meta = json.loads((tmp_path / "snap.json").read_text())
    assert meta == {"nx": 8, "ny": 8, "Lx": 2.0, "Ly": 1.0, "t": 0.25}
    back = np.fromfile(tmp_path / "snap.f64", dtype=np.float64).reshape(8, 8)
    assert np.array_equal(back, values)
