"""Versioned on-disk formats: ensembles (JSON manifest + npz payload),
survival curves and iteration logs as CSV, reports as JSON, sparse matrices
as Matrix Market triplets, and run manifests with content hashes.

scipy is imported by the function that calls it, so that importing this
module (and starting a run) costs numpy only."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from .estimators import SurvivalCurve
from .measures import WeightedEnsemble
from .phi import PhiStats

ENSEMBLE_FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def sha256_of_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def save_ensemble(ensemble: WeightedEnsemble, path) -> None:
    """Write <path>.json (manifest) and <path>.npz (occupancies, weights)."""
    path = Path(path)
    payload = path.with_suffix(".npz")
    with open(payload, "wb") as fh:
        np.savez(fh, occupancies=ensemble.occupancies,
                 weights=ensemble.weights)
    write_json(path.with_suffix(".json"), {
        "format_version": ENSEMBLE_FORMAT_VERSION,
        "kind": "weighted_ensemble",
        "n_atoms": ensemble.n_atoms,
        "num_sites": ensemble.num_sites,
        "normalization": ensemble.normalization,
        "censor_fraction": ensemble.censor_fraction,
        "payload": payload.name,
    })


def load_ensemble(path) -> WeightedEnsemble:
    path = Path(path)
    manifest = read_json(path.with_suffix(".json"))
    if manifest.get("kind") != "weighted_ensemble":
        raise ValueError(f"{path}: not an ensemble manifest")
    if manifest["format_version"] > ENSEMBLE_FORMAT_VERSION:
        raise ValueError("ensemble written by a newer format version")
    data = np.load(path.parent / manifest["payload"])
    return WeightedEnsemble(data["occupancies"], data["weights"],
                            manifest.get("censor_fraction", 0.0))


# ---------------------------------------------------------------------------
# curves and logs
# ---------------------------------------------------------------------------

def survival_curve_csv(curve: SurvivalCurve) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "estimate", "ci_lo", "ci_hi", "n_alive"])
    lo, hi = curve.ci()
    for k in range(curve.t.size):
        alive = "" if curve.n_alive is None else int(curve.n_alive[k])
        w.writerow([repr(float(curve.t[k])), repr(float(curve.estimate[k])),
                    repr(float(lo[k])), repr(float(hi[k])), alive])
    return buf.getvalue()


def save_survival_curve(curve: SurvivalCurve, path) -> None:
    Path(path).write_text(survival_curve_csv(curve))


def iteration_log_csv(log: list[PhiStats]) -> str:
    """One row per (iteration, probe); stats repeat across a run's probes."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["iteration", "e_tau", "ci", "censor_frac", "ess",
                "probe_s", "probe_value"])
    for it, row in enumerate(log):
        probes = row.probes or {float("nan"): float("nan")}
        for s, val in sorted(probes.items()):
            w.writerow([it + 1, repr(row.e_tau),
                        repr(3.0 * row.e_tau_stderr),
                        repr(row.censor_fraction), repr(row.ess),
                        repr(float(s)), repr(float(val))])
    return buf.getvalue()


def save_iteration_log(log: list[PhiStats], path) -> None:
    Path(path).write_text(iteration_log_csv(log))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def save_matrix(matrix, path) -> None:
    """Sparse triplet text export (Matrix Market) for external verification."""
    from scipy.io import mmwrite

    mmwrite(str(path), matrix)
