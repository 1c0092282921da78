"""The four benchmark workloads: CLI command lines, work counts and output checks.

Each workload is a fixed list of `betaimex` command lines that `run.py` runs
in-process through `betaimex.cli.main`, as `betaimex <args>` would run them.
`check` reads the files a pass wrote and returns one verdict per operation
(one CLI call, scheme or beta).  The expected values below were measured on
the commit that introduced the benchmark, with the same arguments.
"""
from __future__ import annotations

import json
import os

# --- stability-gallery: nine region scans, all time in stability ----------
GALLERY_RES = 200
GALLERY_WINDOW_AREA = 16.0 * 16.0  # default window (-12, 4) x (-8, 8)
GALLERY_CASES = tuple((k, beta) for k in (2, 3, 4) for beta in (1, 3, 5))
# stable cell count per (k, beta) at GALLERY_RES^2
GALLERY_STABLE_CELLS = {
    (2, 1): 37792, (2, 3): 39268, (2, 5): 39378,
    (3, 1): 35520, (3, 3): 38996, (3, 5): 39262,
    (4, 1): 31750, (4, 3): 38698, (4, 5): 39124,
}

# --- certificate-sweep: exact-rational certificate reports ----------------
SWEEP_GRID = "0:100:0.1"
SWEEP_REPORTS = 1001
SWEEP_PASSED = 937
SWEEP_FIRST_PASSING_BETA = 6.4  # every report below fails, every one from here passes

# --- allen-cahn-desk: headline scheme at 256^2 ----------------------------
AC_STEPS = round(500 / 0.75) - 3  # desk T and dt; k = 4 starts at step 3
# max relative radius deviation of the (1, 1) scheme at desk scale;
# criterion 09 requires the (4, 3) scheme to stay below it
AC_DEV_K1 = 0.012853437205471508

# --- cahn-hilliard-desk: five schemes plus the fine-step reference --------
# T = 1e-3 (500 steps) instead of the desk 3e-3: the latest classical blow-up
# over seeds 0..32 is step 275, so both still blow up inside the horizon.
CH_T = "1e-3"
CH_STABLE = {(2, 1.0): True, (3, 1.0): False, (4, 1.0): False,
             (3, 3.0): True, (4, 2.5): True}
# blow-up steps of (3, 1) and (4, 1) by seed
CH_BLOWUPS = {
    0: (94, 67), 1: (97, 71), 2: (242, 64), 3: (103, 74), 4: (101, 72),
    5: (110, 70), 6: (97, 68), 7: (87, 65), 8: (118, 73), 9: (101, 71),
    10: (95, 68), 11: (103, 68), 12: (90, 64), 13: (107, 67), 14: (102, 66),
    15: (99, 70), 16: (103, 69), 17: (103, 77), 18: (239, 66), 19: (100, 71),
    20: (113, 69), 21: (94, 69), 22: (275, 66), 23: (99, 68), 24: (94, 66),
    25: (92, 67), 26: (98, 72), 27: (106, 69), 28: (260, 68), 29: (103, 66),
    30: (99, 67), 31: (93, 69), 32: (90, 67), 1234: (95, 69),
}


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class StabilityGallery:
    name = "stability-gallery"
    work_name = "points_per_s"
    expected_rc = 0

    def commands(self, seed, out):
        return [["--out", out, "--seed", str(seed), "stability", "--k", str(k),
                 "--beta", str(beta), "--res", f"{GALLERY_RES},{GALLERY_RES}"]
                for k, beta in GALLERY_CASES]

    def work(self, out):
        return len(GALLERY_CASES) * GALLERY_RES ** 2

    def check(self, out, rcs, seed):
        cell = GALLERY_WINDOW_AREA / GALLERY_RES ** 2
        pgm_size = len(f"P5\n{GALLERY_RES} {GALLERY_RES}\n255\n") + GALLERY_RES ** 2
        areas, ok = {}, {}
        for (k, beta), rc in zip(GALLERY_CASES, rcs):
            stem = os.path.join(out, f"stability_k{k}_beta{beta}")
            sidecar = _read_json(stem + ".json") or {}
            area = sidecar.get("area", -1.0)
            areas[(k, beta)] = area
            ok[(k, beta)] = (rc == self.expected_rc
                             and round(area / cell) == GALLERY_STABLE_CELLS[(k, beta)]
                             and os.path.isfile(stem + ".pgm")
                             and os.path.getsize(stem + ".pgm") == pgm_size)
        # region area grows with the shift (k = 3, 4), and area(4,3) > area(2,1)
        for k in (3, 4):
            for lo, hi in ((1, 3), (3, 5)):
                ok[(k, hi)] &= areas[(k, hi)] > areas[(k, lo)]
        ok[(4, 3)] &= areas[(4, 3)] > areas[(2, 1)]
        return [ok[case] for case in GALLERY_CASES]

    def layer_counts(self, out):
        return {}


class CertificateSweep:
    name = "certificate-sweep"
    work_name = "certs_per_s"
    expected_rc = 2  # the reports below beta = 6.4 fail

    def commands(self, seed, out):
        return [["--out", out, "--seed", str(seed), "verify", "--k", "5",
                 "--grid", SWEEP_GRID]]

    def work(self, out):
        return SWEEP_REPORTS

    def check(self, out, rcs, seed):
        records = _read_json(os.path.join(out, "verify_k5.json")) or []
        if (rcs != [self.expected_rc] or len(records) != SWEEP_REPORTS
                or sum(bool(r.get("pass")) for r in records) != SWEEP_PASSED):
            return [False] * SWEEP_REPORTS
        return [r["pass"] == (r["beta"] >= SWEEP_FIRST_PASSING_BETA - 0.05)
                for r in records]

    def layer_counts(self, out):
        return {}


class AllenCahnDesk:
    name = "allen-cahn-desk"
    work_name = "steps_per_s"
    expected_rc = 0

    def commands(self, seed, out):
        return [["--out", out, "--seed", str(seed), "allen-cahn", "--small",
                 "--schemes", "[[4,3]]"]]

    def work(self, out):
        return AC_STEPS

    def check(self, out, rcs, seed):
        summary = _read_json(os.path.join(out, "radius_summary.json")) or []
        ok = (rcs == [self.expected_rc] and len(summary) == 1
              and summary[0]["k"] == 4 and summary[0]["beta"] == 3.0
              and not summary[0]["diverged"]
              and summary[0]["max_relative_deviation"] < AC_DEV_K1)
        return [ok]

    def layer_counts(self, out):
        return {}


class CahnHilliardDesk:
    name = "cahn-hilliard-desk"
    work_name = "steps_per_s"
    expected_rc = 2  # the classical (3, 1) and (4, 1) schemes blow up

    def commands(self, seed, out):
        return [["--out", out, "--seed", str(seed), "cahn-hilliard", "--small",
                 "--T", CH_T]]

    def _summary(self, out):
        return _read_json(os.path.join(out, "cahn_hilliard_summary.json")) or {}

    def work(self, out):
        """Scheme steps including the reference run; starter substeps excluded."""
        summary = self._summary(out)
        try:
            preset = summary["preset"]
            nsteps = round(preset["T"] / preset["dt"])
            steps = round(preset["T"] * preset["ref_dt_ratio"] / preset["dt"]) - 3
            for v in summary["verdicts"]:
                end = nsteps if v["stable"] else v["blowup_step"]
                steps += end - (v["k"] - 1)
        except (KeyError, TypeError):  # no usable summary: `check` fails the pass
            return 0
        return steps

    def check(self, out, rcs, seed):
        verdicts = self._summary(out).get("verdicts", [])
        found = {(v["k"], v["beta"]): v for v in verdicts}
        if rcs != [self.expected_rc] or sorted(found) != sorted(CH_STABLE):
            return [False] * len(CH_STABLE)
        blowups = dict(zip(((3, 1.0), (4, 1.0)), CH_BLOWUPS.get(seed, (None, None))))
        ok = []
        for key, stable in CH_STABLE.items():
            v = found[key]
            good = v["stable"] == stable and (v["blowup_step"] is None) == stable
            if blowups.get(key) is not None:
                good &= v["blowup_step"] == blowups[key]
            ok.append(good)
        return ok

    def layer_counts(self, out):
        found = {(v["k"], v["beta"]): v["blowup_step"]
                 for v in self._summary(out).get("verdicts", [])}
        return {"integrate.blowup_step_k3b1": found.get((3, 1.0)) or 0,
                "integrate.blowup_step_k4b1": found.get((4, 1.0)) or 0}


WORKLOADS = {w.name: w for w in (StabilityGallery(), CertificateSweep(),
                                 AllenCahnDesk(), CahnHilliardDesk())}
