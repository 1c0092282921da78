"""Shifted BDF/IMEX multistep schemes with stability and multiplier tooling."""

__version__ = "0.1.0"

from .coeffs import SchemeCoefficients, eta, scheme_coefficients
from .certificates import (CertificateReport, stability_condition, telescoping,
                           verify_certificate)
from .integrate import (BlowUpError, IntegratorState, ProblemSpec,
                        TrajectorySummary, initialize, run, step)
from .polynomials import roots, sylvester_resultant
from .stability import StabilityGrid, is_stable, scan_region

__all__ = [
    "__version__",
    "BlowUpError", "CertificateReport", "IntegratorState", "ProblemSpec",
    "SchemeCoefficients", "StabilityGrid",
    "TrajectorySummary", "eta",
    "initialize", "is_stable", "roots", "run", "scan_region",
    "scheme_coefficients", "stability_condition", "step", "sylvester_resultant",
    "telescoping", "verify_certificate",
]
