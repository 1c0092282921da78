import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import betaimex

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "BlowUpError", "CertificateReport", "IntegratorState", "ProblemSpec",
    "SchemeCoefficients", "StabilityGrid", "TrajectorySummary", "__version__",
    "initialize", "is_stable", "run", "scan_region", "scheme_coefficients",
    "step", "telescoping", "verify_certificate",
]


def test_public_surface_is_exactly_the_listed_names():
    # second routes the tests compare against live in tests/oracles.py
    assert sorted(betaimex.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(betaimex, name) is not None
    # besides the listed names, the package holds only its submodules
    others = {name: value for name, value in vars(betaimex).items()
              if not name.startswith("_") and name not in PUBLIC_NAMES}
    for name, value in others.items():
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"betaimex.{name}"


def test_the_dropped_names_are_gone_and_the_internals_stay_in_their_modules():
    for name in ("eta", "stability_condition", "roots", "sylvester_resultant"):
        with pytest.raises(ImportError):
            exec(f"from betaimex import {name}", {})
    # perfbench times and traces these by module attribute
    from betaimex import certificates, coeffs, polynomials
    assert certificates.roots is polynomials.roots
    assert certificates.sylvester_resultant is polynomials.sylvester_resultant
    assert callable(coeffs.exact_scheme_coefficients)


def test_the_readme_library_sketch_runs(tmp_path):
    # the README's one python block, run as a program on the source tree
    block, = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", block], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
