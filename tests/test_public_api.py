import betaimex

PUBLIC_NAMES = [
    "BlowUpError", "CertificateReport", "IntegratorState", "ProblemSpec",
    "SchemeCoefficients", "StabilityGrid",
    "TrajectorySummary", "__version__",
    "eta",
    "initialize", "is_stable", "roots", "run",
    "scan_region", "scheme_coefficients", "stability_condition", "step",
    "sylvester_resultant", "telescoping", "verify_certificate",
]


def test_public_surface_is_exactly_the_listed_names():
    # second routes the tests compare against live in tests/oracles.py
    assert sorted(betaimex.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(betaimex, name) is not None
