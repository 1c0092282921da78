"""Command-line entry point.

Subcommands: coeffs, stability, verify, converge, allen-cahn, cahn-hilliard.
The three experiments share one path: `cmd_experiment` runs the adapter its
subparser carries and writes the CSVs, field snapshots, console lines,
summary JSON and manifest for all three, each laid out as its report says.
`verify`, `allen-cahn` and `converge` run their independent jobs (a block of
`GRID_BLOCK` beta values, a scheme, a shift) on forked workers, one per
usable core, so the CPU affinity (`taskset -c 0`) caps them; with one usable
core or one job they run in this process.  Files, stdout, stderr and exit
codes do not depend on the core count: results are written in job order as
they arrive, and the parent emits every admissibility warning, in job order,
before the first job, whose runs then emit none.  `cahn-hilliard` runs in
this process, since its fine-step reference run is most of its work.
Global flags --out/--seed apply everywhere.  `main` parses with one parser
built on its first call and shared by every later call in the process.
Exit codes: 0 all good, 2 completed but some scheme was judged unstable,
1 usage or internal error.  Run as a program, warnings print as
`warning: <message>` without a source location.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import threading
import warnings
from fractions import Fraction

from . import __version__, certificates, coeffs, stability
from . import integrate as itg
from .experiments import (CH_SCHEMES, CONVERGENCE_DT_SWEEP, DEFAULT_SEED,
                          ExperimentConfig, run_allen_cahn_radius,
                          run_cahn_hilliard, run_convergence)
from .outputs import (write_csv, write_field_snapshot, write_json,
                      write_manifest, write_pgm)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSTABLE = 2
# 100 times the longest sweep in use (1,001 shifts); every shift is built up front
MAX_GRID_STEPS = 100_000
# shifts per job of a `verify` grid: one pass over the forms and one stacked
# eigensolve each; 1,001 shifts make 8 jobs, and a grid of one block runs here
GRID_BLOCK = 128


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


_inherited = None  # (fn, jobs) of the pool a forked worker belongs to


def _adopt(fn, jobs):
    import multiprocessing
    global _inherited
    _inherited = fn, jobs
    # a parent killed by a signal shuts no pool down; the worker ends once its
    # parent sentinel reads EOF, when the parent and every worker forked after
    # this one (each holds the parent's end of this pipe) have exited
    threading.Thread(target=_exit_at_eof, args=(multiprocessing.parent_process().sentinel,),
                     daemon=True).start()


def _exit_at_eof(fd):
    os.read(fd, 1)
    os._exit(1)


def _job(index):
    fn, jobs = _inherited
    try:
        return True, fn(jobs[index])
    except Exception as exc:  # an exception may not pickle or rebuild; its message does
        return False, str(exc)


@contextlib.contextmanager
def _ordered_map(fn, jobs):
    """An iterator over fn(job) for each job of the sequence `jobs`, in order.

    With two or more usable cores and jobs, and where the platform can fork,
    the jobs run on a pool of min(cores, len(jobs)) forked workers, which
    end with the block, or with this process if a signal ends it first.  A
    worker takes the next free job, so a worker on a core that other load
    slows takes fewer jobs instead of holding up the rest.  The workers
    inherit `fn` and `jobs` through the fork, so neither is pickled; only
    job indices and results cross the pipe.  A job's error is raised in
    its place, after the results before it, as a serial run raises it, with
    its message; a worker that dies raises `BrokenProcessPool`.  Otherwise
    this is `map(fn, jobs)` in this process.
    """
    workers = min(_usable_cores(), len(jobs))
    if workers < 2 or not hasattr(os, "fork"):
        yield map(fn, jobs)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(fn, jobs))

    def results():
        # the first submit forks, and a worker flushes its copy of the
        # standard streams when it exits
        sys.stdout.flush()
        sys.stderr.flush()
        for ok, value in pool.map(_job, range(len(jobs))):
            if not ok:
                raise RuntimeError(value)
            yield value
    try:
        yield results()
    finally:
        pool.shutdown(cancel_futures=True)


def _numbers(text, flag, form, count=None, kind=float, sep=","):
    """The `sep`-separated numbers of `text`, the value of `flag`, as a tuple.

    A part that `kind` cannot read, or a count other than `count` where one
    is given, is a ValueError that names `flag` and the `form` it takes.
    """
    try:
        values = tuple(kind(v) for v in text.split(sep))
    except ValueError:
        values = None
    if values is None or (count is not None and len(values) != count):
        raise ValueError(f"{flag} needs {form}, got {text!r}")
    return values


def _ensure_outdir(args):
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _coeff_payload(rec, exact):
    def render(seq):
        if exact:
            return [str(v) for v in seq]
        return [float(v) for v in seq]

    return {
        "k": rec.k,
        "beta": str(rec.beta) if exact else float(rec.beta),
        "a": render(rec.a), "b": render(rec.b), "c": render(rec.c),
        "d": render(rec.d),
        "eta": str(rec.eta) if exact else float(rec.eta),
    }


def cmd_coeffs(args):
    beta = Fraction(args.beta) if args.exact else float(args.beta)
    rec = coeffs.scheme_coefficients(args.k, beta)
    payload = _coeff_payload(rec, args.exact)
    if args.csv:
        lines = ["symbol,index,value"]
        for name in ("a", "b", "c", "d"):
            for q, v in enumerate(payload[name]):
                lines.append(f"{name},{q},{v}")
        lines.append(f"eta,,{payload['eta']}")
        print("\n".join(lines))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_stability(args):
    window = _numbers(args.window, "--window", "re_lo,re_hi,im_lo,im_hi", count=4)
    res = _numbers(args.res, "--res", "NX,NY", count=2, kind=int)
    grid = stability.scan_region(args.k, args.beta, window=window, resolution=res)
    outdir = _ensure_outdir(args)
    stem = os.path.join(outdir, f"stability_k{args.k}_beta{args.beta:g}")
    write_pgm(stem + ".pgm", grid.mask)
    sidecar = {"k": args.k, "beta": args.beta, "window": list(window),
               "resolution": list(res), "area": grid.area}
    write_json(stem + ".json", sidecar)
    manifest = {"k": args.k, "beta": args.beta, "window": list(window),
                "res": args.res}
    write_manifest(outdir, "stability", manifest, args.seed)
    print(json.dumps(sidecar, sort_keys=True))
    return EXIT_OK


def _beta_grid(spec_str):
    lo, hi, step = _numbers(spec_str, "--grid", "lo:hi:step", count=3, sep=":")
    if not (step > 0 and hi >= lo):  # false for a nan too
        raise ValueError("--grid requires lo <= hi and step > 0")
    if not all(math.isfinite(v) for v in (lo, hi, step, (hi - lo) / step)):
        raise ValueError("--grid needs a finite lo, hi, step and point count")
    # finite parts with lo <= hi put lo on the grid, so it is never empty
    n = int(round((hi - lo) / step))
    if n > MAX_GRID_STEPS:
        raise ValueError(f"--grid has {n} steps, more than {MAX_GRID_STEPS}")
    return [lo + i * step for i in range(n + 1) if lo + i * step <= hi + 1e-12]


def cmd_verify(args):
    betas = [args.beta] if args.grid is None else _beta_grid(args.grid)
    for b in betas:  # here, so the warnings come once each and in beta order
        certificates._check_shift(args.k, b)
    # a grid's reports read the order's forms, built here once so the pool's
    # workers inherit them; one shift runs the per-shift route instead
    forms = None if args.grid is None else certificates._forms(args.k)
    build = functools.partial(certificates._build_reports, args.k, forms=forms)
    blocks = [betas[i:i + GRID_BLOCK] for i in range(0, len(betas), GRID_BLOCK)]
    with _ordered_map(build, blocks) as done:
        reports = [r for block in done for r in block]
    records = [r.as_dict() for r in reports]
    outdir = _ensure_outdir(args)
    path = os.path.join(outdir, f"verify_k{args.k}.json")
    write_json(path, records)
    write_manifest(outdir, "verify", {"k": args.k, "beta": args.beta, "grid": args.grid},
                   args.seed)
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        print(f"k={r.k} beta={r.beta:g}: {verdict}  min_f={r.min_f:.3e} "
              f"min_h={r.min_h:.3e} rmax={r.max_root_modulus_C:.6f}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_UNSTABLE


def _parse_schemes(text):
    """--schemes JSON -> (pairs as given, [(int k, float beta), ...]); (None, None) if absent.

    An empty value is an empty list, which is refused like `[]`.
    """
    if text is None:
        return None, None
    try:
        given = json.loads(text or "[]")
    except json.JSONDecodeError as exc:
        raise ValueError(f"--schemes is not valid JSON: {exc}") from exc
    if not isinstance(given, list) or not given:
        raise ValueError("--schemes needs a non-empty JSON list of [k, beta] pairs")
    schemes = []
    for pair in given:
        if not (isinstance(pair, list) and len(pair) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
            raise ValueError(f"--schemes entry {pair!r} is not a [k, beta] pair of numbers")
        k, beta = pair
        if not float(k).is_integer():
            raise ValueError(f"--schemes order k={k!r} is not an integer")
        schemes.append((int(k), float(beta)))
    return given, schemes


def _tag(k, beta):
    """The part of an experiment's file names that says which scheme wrote them."""
    return f"k{k}_beta{beta:g}"


def _checked(run, flag, schemes):
    """`run` of the (k, beta) pairs `schemes`, each checked before the first run.

    A pair whose files would overwrite an earlier pair's is an error that
    names `flag`, and so is a pair the run would refuse; each pair is
    resolved as its run will resolve it.  The admissibility warnings come
    from here, once each and in job order, which a pool's workers could not
    keep; the `run` returned emits none.
    """
    tagged = {}
    for k, beta in schemes:
        tag, entry = _tag(k, beta), f"k={k}, beta={beta!r}"
        if tag in tagged:
            raise ValueError(f"{flag} entries {tagged[tag]} and {entry} "
                             f"would both write the files tagged {tag}")
        tagged[tag] = entry
    for k, beta in schemes:
        try:
            itg._resolve_coefficients(k, beta)
        except ValueError as exc:
            raise ValueError(f"{flag} entry k={k}, beta={beta:g}: {exc}") from None

    def quiet(*args, **kwargs):
        with coeffs._admissibility_warnings_off():
            return run(*args, **kwargs)
    return quiet


def _converge(args):
    sweep = (CONVERGENCE_DT_SWEEP if args.dts is None
             else _numbers(args.dts, "--dts", "a comma list of steps"))
    configs = [ExperimentConfig(name=args.command, k=args.k, beta=beta, dt_sweep=sweep,
                                resolution=args.resolution, T=args.T, seed=args.seed)
               for beta in _numbers(args.beta, "--beta", "a comma list of shifts")]
    run = _checked(run_convergence, "--beta", [(c.k, c.beta) for c in configs])
    manifest = {"k": args.k, "beta": args.beta, "dts": list(sweep),
                "resolution": args.resolution, "T": args.T}
    return _ordered_map(run, configs), f"converge_k{args.k}.json", list, manifest


AC_SCHEMES = ((1, 1.0), (2, 1.0), (3, 3.0), (4, 3.0))  # allen-cahn without --schemes


def _allen_cahn(args):
    given, schemes = _parse_schemes(args.schemes)
    if given is None:
        given = schemes = AC_SCHEMES
    configs = [ExperimentConfig(name=args.command, k=k, beta=beta, dt=args.dt,
                                resolution=args.resolution, T=args.T, seed=args.seed,
                                small=args.small)
               for k, beta in schemes]
    run = _checked(run_allen_cahn_radius, "--schemes", schemes)
    manifest = {"schemes": given, "dt": args.dt, "resolution": args.resolution,
                "T": args.T, "small": args.small}
    return _ordered_map(run, configs), "radius_summary.json", list, manifest


def _cahn_hilliard(args):
    given, schemes = _parse_schemes(args.schemes)
    config = ExperimentConfig(name=args.command, seed=args.seed, small=args.small,
                              dt=args.dt, T=args.T, resolution=args.resolution,
                              schemes=schemes)
    run = _checked(run_cahn_hilliard, "--schemes", schemes or CH_SCHEMES)
    # one run, not a pool of schemes: the fine-step reference is most of the work
    report = run(config, with_reference=not args.no_reference)

    def summary(entries):
        return {"preset": report.preset, "seed": report.seed,
                "reference_checksum": report.reference_checksum, "verdicts": entries}

    manifest = {"preset": report.preset, "small": args.small, "schemes": given}
    return (contextlib.nullcontext(report.verdicts), "cahn_hilliard_summary.json", summary,
            manifest)


def cmd_experiment(args):
    """Run `args.run`, the subparser's adapter, and write its outputs.

    The adapter returns a context manager over the reports in order, the
    summary file name, the summary of the as_dict() entries and the manifest
    config.  Per scheme: the CSV that the report's `csv` lays out, the field
    snapshot if the report has one, and its `line()`.  Then the summary JSON
    and the manifest.  Exit code 2 if any scheme diverged.
    """
    results, summary_name, summary, manifest = args.run(args)
    entries, diverged = [], False
    with results as reports:
        for rep in reports:
            # made with the first report, so a refused command or a failing
            # first job makes no directory
            outdir = _ensure_outdir(args)
            tag = _tag(rep.k, rep.beta)
            stem, header = rep.csv
            write_csv(os.path.join(outdir, f"{stem}_{tag}.csv"), header, rep.rows())
            if rep.final_values is not None:
                write_field_snapshot(os.path.join(outdir, f"field_{tag}"), rep.grid,
                                     rep.final_values, rep.final_time)
            entries.append(rep.as_dict())
            diverged |= rep.diverged
            print(rep.line())
    write_json(os.path.join(outdir, summary_name), summary(entries))
    write_manifest(outdir, args.command, manifest, args.seed)
    return EXIT_UNSTABLE if diverged else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 (2 means "judged unstable")
    and no prefix matching: a flag is given by its full name or not at all."""

    def __init__(self, **kwargs):  # the subparsers are built by this class too
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="betaimex", description="shifted BDF/IMEX scheme toolbox")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--out", help="output directory", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print the coefficient record of one scheme")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--exact", action="store_true", help="rational arithmetic")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("stability", help="scan an absolute-stability region")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--window", default="-12,4,-8,8")
    p.add_argument("--res", default="600,600")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("verify", help="multiplier certificate reports")
    p.add_argument("--k", type=int, required=True)
    shift = p.add_mutually_exclusive_group()
    shift.add_argument("--beta", type=float, default=1.0)
    shift.add_argument("--grid", help="lo:hi:step sweep of beta")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="manufactured-solution convergence study")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", default="1", help="comma list of shifts")
    p.add_argument("--dts", help="comma list of decreasing steps")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--T", type=float, default=None)
    p.set_defaults(func=cmd_experiment, run=_converge)

    p = sub.add_parser("allen-cahn", help="shrinking-circle radius benchmark")
    p.add_argument("--small", action="store_true", help="desk preset: 256^2, T=500")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--schemes", help='JSON list, e.g. "[[1,1],[4,3]]"')
    p.set_defaults(func=cmd_experiment, run=_allen_cahn)

    p = sub.add_parser("cahn-hilliard", help="conserved-flow stability comparison")
    p.add_argument("--small", action="store_true",
                   help="desk preset: 64^2, eps=0.04, dt=2e-6")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--schemes", help='JSON list of [k, beta] pairs')
    p.add_argument("--no-reference", action="store_true",
                   help="skip the fine-step reference trajectory")
    p.set_defaults(func=cmd_experiment, run=_cahn_hilliard)
    return parser


@functools.cache
def _shared_parser():
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except Exception as exc:  # internal error contract: code 1 with message
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry():
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    sys.exit(main())


if __name__ == "__main__":
    entry()
