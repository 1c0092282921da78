"""Benchmark of the betaimex command line: four workloads and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload stability-gallery --seed 1 --seconds 24 --trace 0

Each pass runs the workload's command lines in this process through
`betaimex.cli.main`, writing into `.bench_out/<workload>` (relative, because
the CLI echoes `--out` into its manifests).  Passes repeat while another one
fits within `--seconds` (at least twice), and every pass's outputs are checked.  With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a run that alternates untraced
and traced passes.  The line before it holds the details: machine facts, the
seed, per-pass figures and each workload's own throughput by name.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ".bench_out"
SETUP_REPEATS = 5
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Keep BLAS/OpenMP pools at or below the usable cores; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        n = int(value) if value.isdigit() and int(value) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_facts(nproc):
    import numpy as np

    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": nproc, "cpu": model, "caches": _cache_sizes(),
            "python": platform.python_version(), **versions,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def time_setup(workload, seed):
    """Wall time of a fresh interpreter that imports betaimex and builds the inputs."""
    cmd = [sys.executable, __file__, "--setup-only", "--workload", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def setup_inputs(workload, seed):
    from betaimex import cli

    parser = cli.build_parser()
    out = os.path.join(OUT_ROOT, workload.name)
    return [parser.parse_args(argv) for argv in workload.commands(seed, out)]


def dir_digest(path):
    digest, size = hashlib.sha256(), 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def run_pass(cli, workload, seed):
    """One pass of the workload's command lines, then its output checks."""
    out = os.path.join(OUT_ROOT, workload.name)
    shutil.rmtree(out, ignore_errors=True)
    commands = workload.commands(seed, out)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rcs = [cli.main(argv) for argv in commands]
        wall = time.perf_counter() - t0
    digest, size = dir_digest(out)
    return {"wall_s": wall, "rcs": rcs, "ok": workload.check(out, rcs, seed),
            "work": workload.work(out), "digest": digest, "bytes": size,
            "counts": workload.layer_counts(out)}


def tally(passes):
    """Operations attempted and failed; a pass whose outputs differ from the first fails whole."""
    attempted = failed = 0
    for p in passes:
        identical = p["digest"] == passes[0]["digest"]
        attempted += len(p["ok"])
        failed += sum(not (ok and identical) for ok in p["ok"])
    return attempted, failed


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def fits_another(start, passes, seconds, count=1):
    """Whether `count` more passes of median length still end within `seconds`."""
    typical = statistics.median(p["wall_s"] for p in passes)
    return time.perf_counter() - start + count * typical <= seconds


def measure(cli, workload, args, setup_s):
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or fits_another(start, passes, args.seconds):
        passes.append(run_pass(cli, workload, args.seed))
    walls = [p["wall_s"] for p in passes]
    rates = [p["work"] / p["wall_s"] for p in passes]
    attempted, failed = tally(passes)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    details = {"wall_s": quartiles(walls), workload.work_name: statistics.median(rates),
               "work_per_pass": passes[0]["work"], "failed_frac": failed / attempted,
               "setup_s": setup_s}
    return passes, attempted, failed, metrics, details


def measure_traced(cli, workload, args, counters):
    import tracing

    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or fits_another(start, untraced + traced, args.seconds, 2):
        untraced.append(run_pass(cli, workload, args.seed))
        tracers.append(tracing.Tracer())
        with tracing.tracing(tracers[-1], counters):
            traced.append(run_pass(cli, workload, args.seed))
    probe = tracing.Tracer()
    with tracing.tracing(probe, counters):
        tracing.run_probe(args.seed)

    layers, top_level = tracing.span_metrics(tracers)
    probed, _ = tracing.span_metrics([probe])
    from_probe = sorted(set(probed) - set(layers))
    layers = {**probed, **layers, **tracing.coeff_metrics()}
    layers["integrate.blowup_step_k3b1"] = 0
    layers["integrate.blowup_step_k4b1"] = 0
    layers.update(traced[0]["counts"])
    layers["outputs.bytes"] = traced[0]["bytes"]
    layers["cli.overhead_ms"] = 1e3 * statistics.median(
        p["wall_s"] - top for p, top in zip(traced, top_level))
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0

    metrics = {name: (layers[name], unit) for name, unit in tracing.LAYER_UNITS.items()}
    passes = untraced + traced
    attempted, failed = tally(passes)
    details = {"from_probe": from_probe, "untraced_wall_s": quartiles([p["wall_s"] for p in untraced]),
               "traced_wall_s": quartiles([p["wall_s"] for p in traced])}
    return passes, attempted, failed, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "betaimex" / "__init__.py").is_file():
        print(f"error: no betaimex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        setup_inputs(workload, args.seed)
        return 0

    counters = None
    if args.trace:
        import numpy as np

        import tracing
        counters = tracing.FftCounters()
        counters.install(np)  # before betaimex binds any numpy.fft name
    from betaimex import cli

    try:
        if args.trace:
            passes, attempted, failed, metrics, details = measure_traced(
                cli, workload, args, counters)
        else:
            setup_s = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
            passes, attempted, failed, metrics, details = measure(
                cli, workload, args, setup_s)
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)

    details.update({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "machine": machine_facts(nproc), "exit_codes": passes[0]["rcs"],
                    "passes": [{k: p[k] for k in ("wall_s", "work", "bytes", "digest")}
                               for p in passes]})
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
