"""Deterministic file emitters: CSV, JSON, portable graymaps, run manifests.

Identical inputs produce byte-identical files (floats via repr, sorted JSON
keys, no timestamps), so reruns with the same config and seed can be diffed.
"""
from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from . import __version__


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextlib.contextmanager
def _writing(path, kind, mode="w", **kwargs):
    """open(path, mode) whose OSErrors name the kind of file and its path."""
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot write {kind} to {path}: {exc}") from exc


def write_csv(path, header, rows):
    with _writing(path, "CSV", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload):
    with _writing(path, "JSON") as fh:
        # one write: json.dump makes one per encoder chunk
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_pgm(path, mask):
    """Binary (P5) two-level portable graymap of a boolean mask (True -> 255).

    mask is indexed [re, im]; rows of the image run top-down in decreasing
    imaginary part, columns left-right in increasing real part.
    """
    image = (np.asarray(mask).T[::-1, :]).astype(np.uint8) * 255
    h, w = image.shape
    with _writing(path, "PGM", "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def write_field_snapshot(stem, grid, values, t):
    """Field snapshot: row-major float64 at `stem.f64` plus `stem.json` metadata."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    with _writing(stem + ".f64", "field snapshot", "wb") as fh:
        fh.write(arr.tobytes())
    write_json(stem + ".json", {"nx": grid.nx, "ny": grid.ny,
                                "Lx": grid.Lx, "Ly": grid.Ly, "t": t})


def write_manifest(outdir, experiment, config_dict, seed):
    payload = {
        "experiment": experiment,
        "config": config_dict,
        "seed": seed,
        "version": __version__,
    }
    write_json(os.path.join(outdir, "manifest.json"), payload)
