"""Per-layer tracing from outside the package.

Spans are recorded by wrapping the public names that `cli` and `experiments`
look up at call time (`stability.scan_region`, `integrate.step`, the
`spectral.nonlinear_fourier` closure, the writers `cli` imported, ...), so no
file under `src/` changes.  FFTs are counted, not timed, by wrapping the
transforms of `numpy.fft`; `FftCounters.install` must run before `betaimex`
is imported so that names bound at import time are the counting ones.

Spans live in memory as [name, parent index, start, end, size] lists and are
reduced to the per-layer metrics when the run ends.
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from fractions import Fraction

FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# (module, attribute, span name, size of one call's work from its result)
SPAN_POINTS = (
    ("betaimex.stability", "scan_region", "stability.scan", lambda g: g.nx * g.ny),
    ("betaimex.certificates", "verify_k5_range", "certificates.verify", len),
    ("betaimex.certificates", "verify_certificate", "certificates.verify", lambda r: 1),
    ("betaimex.certificates", "sylvester_resultant", "polynomials.resultant", None),
    ("betaimex.polynomials", "sylvester_resultant", "polynomials.resultant", None),
    ("betaimex.certificates", "roots", "polynomials.roots", None),
    ("betaimex.polynomials", "roots", "polynomials.roots", None),
    ("betaimex.integrate", "initialize", "integrate.initialize", None),
    ("betaimex.integrate", "step", "integrate.step", None),
    ("betaimex.spectral", "radius_of_circle", "spectral.radius", None),
    ("betaimex.spectral", "free_energy", "spectral.energy", None),
    ("betaimex.experiments", "ch_reference_trajectory", "experiments.reference", None),
    ("betaimex.cli", "write_csv", "outputs.write", None),
    ("betaimex.cli", "write_json", "outputs.write", None),
    ("betaimex.cli", "write_pgm", "outputs.write", None),
    ("betaimex.cli", "write_field_snapshot", "outputs.write", None),
    ("betaimex.cli", "write_manifest", "outputs.write", None),
)
# every per-layer metric of a traced run, with its unit
LAYER_UNITS = {
    "stability.scan_s": "s",
    "stability.points_per_s": "1/s",
    "stability.points": "count",
    "certificates.verify_ms": "ms",
    "coeffs.exact_ms": "ms",
    "polynomials.resultant_ms": "ms",
    "polynomials.roots_us": "us",
    "coeffs.scheme_coefficients_us": "us",
    "integrate.initialize_ms": "ms",
    "integrate.step_us": "us",
    "integrate.step_p99_us": "us",
    "integrate.steps": "count",
    "integrate.step_self_us": "us",
    "spectral.nonlinear_us": "us",
    "spectral.fft_calls_per_step": "count",
    "spectral.fft_bytes_per_step": "bytes-computed",
    "spectral.radius_ms": "ms",
    "spectral.energy_ms": "ms",
    "experiments.reference_s": "s",
    "integrate.blowup_step_k3b1": "count",
    "integrate.blowup_step_k4b1": "count",
    "outputs.write_ms": "ms",
    "outputs.bytes": "bytes",
    "cli.overhead_ms": "ms",
    "trace.overhead_frac": "frac",
}
CLOSURE_FACTORY = ("betaimex.spectral", "nonlinear_fourier", "spectral.nonlinear")
STEP = "integrate.step"


class Tracer:
    """Spans and FFT counts of one traced pass."""

    def __init__(self):
        self.spans = []
        self.open = []  # indices of the spans currently running
        self.fft_calls_in_step = 0
        self.fft_bytes_in_step = 0

    def wrap(self, name, fn, size=None):
        spans, open_ = self.spans, self.open

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, open_[-1] if open_ else None, time.perf_counter(), None, 0]
            spans.append(span)
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    span[4] = size(result)
                return result
            finally:
                span[3] = time.perf_counter()
                open_.pop()

        return traced

    def in_step(self):
        return any(self.spans[i][0] == STEP for i in self.open)


class FftCounters:
    """Counting wrappers on numpy.fft; they count only while a tracer is set."""

    def __init__(self):
        self.tracer = None

    def install(self, np):
        for fname in FFT_FUNCS:
            setattr(np.fft, fname, self._counting(getattr(np.fft, fname)))

    def _counting(self, fn):
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            tracer = self.tracer
            if tracer is not None and tracer.in_step():
                tracer.fft_calls_in_step += 1
                # computed bytes: one read of the input, one write of the output
                tracer.fft_bytes_in_step += a.nbytes + out.nbytes
            return out

        return counted


@contextlib.contextmanager
def tracing(tracer, counters):
    """Wrap every span point for the duration of the block, then restore."""
    saved = []

    def patch(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    for module_name, attr, name, size in SPAN_POINTS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):  # a name imported from elsewhere may go away
            patch(module, attr, tracer.wrap(name, getattr(module, attr), size))
    module_name, attr, name = CLOSURE_FACTORY
    module = importlib.import_module(module_name)
    factory = getattr(module, attr)
    patch(module, attr, lambda *a, **kw: tracer.wrap(name, factory(*a, **kw)))
    counters.tracer = tracer
    try:
        yield tracer
    finally:
        counters.tracer = None
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def run_probe(seed):
    """Small fixed calls into every traced layer, for layers a workload misses."""
    from betaimex import certificates, experiments, stability

    stability.scan_region(4, 3.0, resolution=(64, 64))
    for beta in (7.0, 10.0, 20.0, 50.0):
        certificates.verify_certificate(5, beta)
    experiments.run_allen_cahn_radius(experiments.ExperimentConfig(
        name="allen-cahn", k=4, beta=3.0, resolution=128, T=37.5))
    experiments.run_cahn_hilliard(experiments.ExperimentConfig(
        name="cahn-hilliard", small=True, resolution=32, T=4e-5, seed=seed,
        schemes=((4, 2.5),)))


def coeff_metrics(repeats=20):
    """Direct timings of the coefficient generators; `cli` never calls the exact one."""
    from betaimex import coeffs

    exact = []
    # the certificate sweep's float betas from 6.5 on, as exact binary fractions
    for i in range(65, 1001, 20):
        beta = Fraction(i * 0.1)
        t0 = time.perf_counter()
        coeffs.exact_scheme_coefficients(5, beta)
        exact.append(time.perf_counter() - t0)
    cases = [(k, float(b)) for k in (2, 3, 4) for b in (2, 3, 5)] + [(4, 2.5), (5, 7.0)]
    floats = []
    for _ in range(repeats):
        for k, beta in cases:
            t0 = time.perf_counter()
            coeffs.scheme_coefficients(k, beta)
            floats.append(time.perf_counter() - t0)
    return {"coeffs.exact_ms": 1e3 * statistics.median(exact),
            "coeffs.scheme_coefficients_us": 1e6 * statistics.median(floats)}


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def span_metrics(tracers):
    """Per-layer metrics over the traced passes, and each pass's top-level span time.

    A metric is absent when its layer never ran.
    """
    durs, sizes, step_self, top_level = {}, {}, [], []
    fft_calls = fft_bytes = 0
    for tracer in tracers:
        child = [0.0] * len(tracer.spans)
        top = 0.0
        for name, parent, t0, t1, size in tracer.spans:
            durs.setdefault(name, []).append(t1 - t0)
            sizes[name] = sizes.get(name, 0) + size
            if parent is None:
                top += t1 - t0
            else:
                child[parent] += t1 - t0
        step_self += [t1 - t0 - child[i] for i, (name, _, t0, t1, _) in enumerate(tracer.spans)
                      if name == STEP]
        top_level.append(top)
        fft_calls += tracer.fft_calls_in_step
        fft_bytes += tracer.fft_bytes_in_step
    n = len(tracers)
    out = {}
    if "stability.scan" in durs:
        total = sum(durs["stability.scan"])
        out["stability.scan_s"] = total / n
        out["stability.points"] = sizes["stability.scan"] / n
        out["stability.points_per_s"] = sizes["stability.scan"] / total
    if "certificates.verify" in durs:
        reports = sizes["certificates.verify"]
        out["certificates.verify_ms"] = 1e3 * sum(durs["certificates.verify"]) / reports
        if "polynomials.resultant" in durs:
            out["polynomials.resultant_ms"] = 1e3 * sum(durs["polynomials.resultant"]) / reports
    if "polynomials.roots" in durs:
        out["polynomials.roots_us"] = 1e6 * statistics.median(durs["polynomials.roots"])
    if "integrate.initialize" in durs:
        out["integrate.initialize_ms"] = 1e3 * statistics.median(durs["integrate.initialize"])
    if STEP in durs:
        steps = durs[STEP]
        out["integrate.steps"] = len(steps) / n
        out["integrate.step_us"] = 1e6 * statistics.median(steps)
        out["integrate.step_p99_us"] = 1e6 * _quantile(steps, 0.99)
        out["integrate.step_self_us"] = 1e6 * statistics.median(step_self)
        out["spectral.fft_calls_per_step"] = fft_calls / len(steps)
        out["spectral.fft_bytes_per_step"] = fft_bytes / len(steps)
    if "spectral.nonlinear" in durs:
        out["spectral.nonlinear_us"] = 1e6 * statistics.median(durs["spectral.nonlinear"])
    if "spectral.radius" in durs:
        out["spectral.radius_ms"] = 1e3 * statistics.median(durs["spectral.radius"])
    if "spectral.energy" in durs:
        out["spectral.energy_ms"] = 1e3 * statistics.median(durs["spectral.energy"])
    if "experiments.reference" in durs:
        out["experiments.reference_s"] = sum(durs["experiments.reference"]) / n
    if "outputs.write" in durs:
        out["outputs.write_ms"] = 1e3 * sum(durs["outputs.write"]) / n
    return out, top_level
