"""Shifted BDF/IMEX multistep schemes with stability and multiplier tooling."""

__version__ = "0.1.0"

from .coeffs import SchemeCoefficients, scheme_coefficients
from .certificates import CertificateReport, telescoping, verify_certificate
from .integrate import (BlowUpError, IntegratorState, ProblemSpec,
                        TrajectorySummary, initialize, run, step)
from .stability import StabilityGrid, is_stable, scan_region

__all__ = [
    "__version__",
    "BlowUpError", "CertificateReport", "IntegratorState", "ProblemSpec",
    "SchemeCoefficients", "StabilityGrid", "TrajectorySummary",
    "initialize", "is_stable", "run", "scan_region",
    "scheme_coefficients", "step", "telescoping", "verify_certificate",
]
