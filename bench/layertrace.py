"""Spans and counts recorded around the calls into each qslab layer.

The tracer replaces a function at the module (or class) attribute through
which the program calls it, so nothing under src/ changes.  Each call opens a
span (key, start, end, parent) and may add counts computed from the call's
arguments and return value.  Spans stay in memory; `layer_metrics` turns them
into the per-layer metrics once the traced pass ends.

Span times are CPU seconds of the process, like the end-to-end metrics (see
the README on host steal time).  A layer's time is the summed duration of its
spans that have no ancestor of the same key (so recursion is not counted
twice); its self time subtracts the direct child spans of any key.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import process_time

import numpy as np

from qslab import cli, dynamics, phi, rng, spectral, storage
from qslab.config import ExperimentConfig
from qslab.measures import ProductMeasure

# status codes returned by the event kernel (qslab._kernel)
_BUFFER_FULL = 3
_FROZEN = 2

MB = float(1 << 20)


class Tracer:
    """In-memory span and counter store plus the attribute patches."""

    def __init__(self):
        self.spans: list[list] = []     # [key, start, end, parent, data]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._undo: list[tuple] = []
        self._immortal = False

    # -- spans --------------------------------------------------------------

    def open(self, key: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([key, process_time(), 0.0, parent, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = process_time()
        self.stack.pop()

    def wrap(self, owner, attr: str, key: str, on_call=None, on_return=None):
        """Patch owner.attr with a span-recording wrapper.  A missing entry
        point, or one whose hook no longer fits it, is remembered, and the
        metrics that need it read as missing."""
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        orig = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(label)
            return
        tracer = self

        def hook(fn, *hook_args):
            # an entry point whose arguments or result changed shape reads as
            # missing instead of failing the operation it wraps
            try:
                return fn(tracer, *hook_args)
            except (AttributeError, IndexError, TypeError, ValueError):
                if label not in tracer.missing:
                    tracer.missing.append(label)
                return None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            pre = hook(on_call, args, kwargs) if on_call else None
            idx = tracer.open(key)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return:
                hook(on_return, idx, args, kwargs, result, pre)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- span arithmetic ----------------------------------------------------

    def _children(self):
        kids = defaultdict(list)
        for i, span in enumerate(self.spans):
            kids[span[3]].append(i)
        return kids

    def _outermost(self, key: str) -> list[int]:
        out = []
        for i, span in enumerate(self.spans):
            if span[0] != key:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != key:
                p = self.spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def total(self, key: str) -> float:
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self._outermost(key))

    def self_time(self, key: str) -> float:
        kids = self._children()
        acc = 0.0
        for i, span in enumerate(self.spans):
            if span[0] != key:
                continue
            acc += span[2] - span[1]
            for c in kids[i]:
                acc -= self.spans[c][2] - self.spans[c][1]
        return acc

    def child_total(self, parent_key: str, child_keys) -> float:
        """Time of the nearest descendants with the given keys under the
        outermost spans of parent_key."""
        kids = self._children()
        acc = 0.0
        for i in self._outermost(parent_key):
            stack = list(kids[i])
            while stack:
                c = stack.pop()
                if self.spans[c][0] in child_keys:
                    acc += self.spans[c][2] - self.spans[c][1]
                else:
                    stack.extend(kids[c])
        return acc


# ---------------------------------------------------------------------------
# hooks: counts from arguments and return values
# ---------------------------------------------------------------------------

def _kernel_call(tr, args, kwargs):
    occ, threshold, t0, n_ev0 = args[0], args[7], args[8], args[14]
    if t0 == 0.0:  # first call of a trajectory; resumes continue from t > 0
        tr._immortal = int(occ.sum()) <= int(threshold)
        tr.counts["kernel.trajectories"] += 1
        tr.counts["kernel.immortal_trajectories"] += tr._immortal
    return n_ev0


def _kernel_return(tr, idx, args, kwargs, result, n_ev0):
    status, _, n_ev = result
    events = int(n_ev) - int(n_ev0)
    tr.counts["kernel.calls"] += 1
    tr.counts["kernel.events"] += events
    if tr._immortal:
        tr.counts["kernel.immortal_events"] += events
    if status == _BUFFER_FULL:
        tr.counts["kernel.resumes"] += 1
    elif status == _FROZEN:
        tr.counts["kernel.frozen"] += 1


def _batch_return(tr, idx, args, kwargs, result, pre):
    n = int(result.taus.size)
    tr.counts["dynamics.batches"] += 1
    tr.counts["dynamics.trajectories"] += n
    tr.counts["dynamics.censored"] += int(n - result.hit.sum())
    pool = 0
    if result.events is not None:
        for i in np.flatnonzero(result.hit):
            pool += int(result.events[i][0].size)
    tr.spans[idx][4] = {"n": n, "pool": pool}


def _stream_return(tr, idx, args, kwargs, result, pre):
    tr.counts["rng.streams"] += 1


def _sample_return(tr, idx, args, kwargs, result, pre):
    tr.counts["measures.samples"] += int(result.shape[0])


def _phi_return(tr, idx, args, kwargs, result, pre):
    tr.counts["phi.applies"] += 1
    tr.values["phi.ess"].append(float(result[1].ess))


def _enumerate_return(tr, idx, args, kwargs, result, pre):
    tr.counts["spectral.states"] += int(result.size)


def _assemble_return(tr, idx, args, kwargs, result, pre):
    tr.counts["spectral.assembled_states"] += int(args[0].size)
    tr.counts["spectral.nnz"] += int(result.matrix.nnz)


def _core_return(tr, idx, args, kwargs, result, pre):
    tr.counts["spectral.core_states"] += int(np.count_nonzero(result))


def _eigen_return(tr, idx, args, kwargs, result, pre):
    tr.values["spectral.eigen_residual"].append(
        max(float(result.right_residual), float(result.left_residual)))


def _rayleigh_call(tr, args, kwargs):
    target, space = args[1], args[2]
    n = int(np.count_nonzero(
        space.occupancies[:, target.sites].sum(axis=1) <= target.threshold))
    tr.values["spectral.rayleigh_dense_mb"].append(n * n * 8 / MB)


def _coupling_return(tr, idx, args, kwargs, result, pre):
    tr.counts["dynamics.coupling_trajectories"] += int(result.n_traj)


def _hash_call(tr, args, kwargs):
    tr.counts["storage.bytes"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> Tracer:
    """Patch every traced entry point; `tracer.uninstall()` undoes it."""
    w = tracer.wrap
    w(dynamics, "run_killed", "kernel", _kernel_call, _kernel_return)
    w(dynamics, "run_batch", "dynamics.batch", on_return=_batch_return)
    w(phi, "run_batch", "phi.batch", on_return=_batch_return)
    w(rng, "stream", "rng", on_return=_stream_return)
    w(ProductMeasure, "sample_occupancies", "measures.sample",
      on_return=_sample_return)
    w(phi, "systematic_resample", "measures.resample")
    w(cli, "increasing_suite", "measures.domination")
    w(cli, "domination_test", "measures.domination")
    w(cli, "fit_decay", "estimators.fit")
    w(cli, "exponentiality_report", "estimators.expo")
    w(cli, "second_class_escape", "dynamics.coupling",
      on_return=_coupling_return)
    w(cli, "sigma_exit", "dynamics.sigma_exit")
    w(dynamics, "rw_hitting", "dynamics.walk_solve")
    w(phi, "phi_apply", "phi", on_return=_phi_return)
    w(cli, "phi_direct", "phi", on_return=_phi_return)
    w(cli, "phi_iterate", "phi")
    for mod in (cli, spectral):
        w(mod, "enumerate_states", "spectral.enumerate",
          on_return=_enumerate_return)
        w(mod, "build_killed_generator", "spectral.assemble",
          on_return=_assemble_return)
        w(mod, "absorbing_core", "spectral.core", on_return=_core_return)
        w(mod, "restrict_to_core", "spectral.core")
        w(mod, "principal_decay", "spectral.eigen", on_return=_eigen_return)
        w(mod, "qsd_fixed_point_check", "spectral.fixed_point")
        w(mod, "exact_survival", "spectral.uniformize")
        w(mod, "rayleigh_quotient", "spectral.rayleigh", on_call=_rayleigh_call)
    w(cli, "run_experiment", "cli")
    w(ExperimentConfig, "validate", "config")
    w(ExperimentConfig, "model", "config")
    w(ExperimentConfig, "measure", "config")
    for name in ("write_json", "save_matrix", "save_survival_curve",
                 "save_iteration_log", "save_ensemble"):
        w(storage, name, "storage.write")
    w(storage, "sha256_of_file", "storage.hash", on_call=_hash_call)
    w(storage, "sha256_of_text", "storage.hash")
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> entry points it needs; a metric whose entry point is gone reads as
# missing (null) instead of failing the run.  Units are the ones BENCHMARK.json
# declares.
PER_LAYER = {
    "kernel.calls": ["dynamics.run_killed"],
    "kernel.events": ["dynamics.run_killed"],
    "kernel.busy_s": ["dynamics.run_killed"],
    "kernel.events_per_s": ["dynamics.run_killed"],
    "kernel.resumes": ["dynamics.run_killed"],
    "kernel.frozen": ["dynamics.run_killed"],
    "dynamics.batches": ["dynamics.run_batch", "phi.run_batch"],
    "dynamics.trajectories": ["dynamics.run_batch", "phi.run_batch"],
    "dynamics.batch_s": ["dynamics.run_batch", "phi.run_batch"],
    "dynamics.traj_per_s": ["dynamics.run_batch", "phi.run_batch"],
    "dynamics.self_s": ["dynamics.run_batch", "phi.run_batch",
                        "dynamics.run_killed"],
    "dynamics.censored_frac": ["dynamics.run_batch", "phi.run_batch"],
    "dynamics.immortal_frac": ["dynamics.run_killed"],
    "dynamics.immortal_event_frac": ["dynamics.run_killed"],
    "dynamics.coupling_s": ["cli.second_class_escape"],
    "dynamics.coupling_traj_per_s": ["cli.second_class_escape"],
    "dynamics.sigma_exit_s": ["cli.sigma_exit"],
    "dynamics.walk_solve_s": ["dynamics.rw_hitting"],
    "phi.applies": ["phi.phi_apply", "cli.phi_direct"],
    "phi.escalations": ["phi.run_batch"],
    "phi.rerun_traj_frac": ["phi.run_batch"],
    "phi.harvest_s": ["phi.phi_apply", "cli.phi_direct"],
    "phi.sojourns": ["phi.run_batch"],
    "phi.ess": ["phi.phi_apply", "cli.phi_direct"],
    "rng.streams": ["rng.stream"],
    "rng.stream_s": ["rng.stream"],
    "measures.samples": ["ProductMeasure.sample_occupancies"],
    "measures.sample_s": ["ProductMeasure.sample_occupancies"],
    "measures.resample_s": ["phi.systematic_resample"],
    "measures.domination_s": ["cli.domination_test"],
    "estimators.fit_s": ["cli.fit_decay"],
    "estimators.expo_s": ["cli.exponentiality_report"],
    "spectral.states": ["spectral.enumerate_states"],
    "spectral.enumerate_s": ["spectral.enumerate_states"],
    "spectral.assemble_s": ["spectral.build_killed_generator"],
    "spectral.assemble_states_per_s": ["spectral.build_killed_generator"],
    "spectral.nnz": ["spectral.build_killed_generator"],
    "spectral.core_s": ["spectral.absorbing_core"],
    "spectral.core_states": ["spectral.absorbing_core"],
    "spectral.eigen_s": ["spectral.principal_decay"],
    "spectral.eigen_residual": ["spectral.principal_decay"],
    "spectral.fixed_point_s": ["spectral.qsd_fixed_point_check"],
    "spectral.uniformize_s": ["spectral.exact_survival"],
    "spectral.rayleigh_s": ["spectral.rayleigh_quotient"],
    "spectral.rayleigh_dense_mb": ["spectral.rayleigh_quotient"],
    "cli.self_s": ["cli.run_experiment"],
    "config.validate_s": ["ExperimentConfig.validate"],
    "storage.write_s": ["storage.write_json"],
    "storage.hash_s": ["storage.sha256_of_file"],
    "storage.bytes": ["storage.sha256_of_file"],
    "trace.overhead_frac": [],
    "trace.coverage": [],
}

UNITS = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)["per_layer"]}

_BATCH_CHILDREN = ("kernel", "rng", "measures.sample")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tr: Tracer, untraced_pass_s: float,
                  traced_pass_s: float) -> dict:
    """Per-layer metrics of one traced pass (0 where a layer did no work)."""
    c = tr.counts
    batch_keys = ("dynamics.batch", "phi.batch")
    batch_s = sum(tr.total(k) for k in batch_keys)
    kernel_s = tr.total("kernel")
    coupling_s = tr.total("dynamics.coupling")
    assemble_s = tr.total("spectral.assemble")

    # phi: the first batch under each phi call is the original run, later
    # ones are horizon-doubling reruns; the last one is the harvested pool
    per_parent = defaultdict(list)
    for span in tr.spans:
        if span[0] == "phi.batch" and span[4] is not None:
            per_parent[span[3]].append(span[4])
    phi_traj = sum(d["n"] for runs in per_parent.values() for d in runs)
    rerun_traj = sum(d["n"] for runs in per_parent.values() for d in runs[1:])

    values = {
        "kernel.calls": c["kernel.calls"],
        "kernel.events": c["kernel.events"],
        "kernel.busy_s": kernel_s,
        "kernel.events_per_s": _ratio(c["kernel.events"], kernel_s),
        "kernel.resumes": c["kernel.resumes"],
        "kernel.frozen": c["kernel.frozen"],
        "dynamics.batches": c["dynamics.batches"],
        "dynamics.trajectories": c["dynamics.trajectories"],
        "dynamics.batch_s": batch_s,
        "dynamics.traj_per_s": _ratio(c["dynamics.trajectories"], batch_s),
        "dynamics.self_s": batch_s - sum(
            tr.child_total(k, _BATCH_CHILDREN) for k in batch_keys),
        "dynamics.censored_frac": _ratio(c["dynamics.censored"],
                                         c["dynamics.trajectories"]),
        "dynamics.immortal_frac": _ratio(c["kernel.immortal_trajectories"],
                                         c["kernel.trajectories"]),
        "dynamics.immortal_event_frac": _ratio(c["kernel.immortal_events"],
                                               c["kernel.events"]),
        "dynamics.coupling_s": coupling_s,
        "dynamics.coupling_traj_per_s": _ratio(
            c["dynamics.coupling_trajectories"], coupling_s),
        "dynamics.sigma_exit_s": tr.total("dynamics.sigma_exit"),
        "dynamics.walk_solve_s": tr.total("dynamics.walk_solve"),
        "phi.applies": c["phi.applies"],
        "phi.escalations": sum(len(r) - 1 for r in per_parent.values()),
        "phi.rerun_traj_frac": _ratio(rerun_traj, phi_traj),
        "phi.harvest_s": tr.self_time("phi"),
        "phi.sojourns": sum(runs[-1]["pool"] for runs in per_parent.values()),
        "phi.ess": (statistics.fmean(tr.values["phi.ess"])
                    if tr.values["phi.ess"] else 0.0),
        "rng.streams": c["rng.streams"],
        "rng.stream_s": tr.total("rng"),
        "measures.samples": c["measures.samples"],
        "measures.sample_s": tr.total("measures.sample"),
        "measures.resample_s": tr.total("measures.resample"),
        "measures.domination_s": tr.total("measures.domination"),
        "estimators.fit_s": tr.total("estimators.fit"),
        "estimators.expo_s": tr.total("estimators.expo"),
        "spectral.states": c["spectral.states"],
        "spectral.enumerate_s": tr.total("spectral.enumerate"),
        "spectral.assemble_s": assemble_s,
        "spectral.assemble_states_per_s": _ratio(
            c["spectral.assembled_states"], assemble_s),
        "spectral.nnz": c["spectral.nnz"],
        "spectral.core_s": tr.total("spectral.core"),
        "spectral.core_states": c["spectral.core_states"],
        "spectral.eigen_s": tr.self_time("spectral.eigen"),
        "spectral.eigen_residual": max(tr.values["spectral.eigen_residual"],
                                       default=0.0),
        "spectral.fixed_point_s": tr.total("spectral.fixed_point"),
        "spectral.uniformize_s": tr.total("spectral.uniformize"),
        "spectral.rayleigh_s": tr.total("spectral.rayleigh"),
        "spectral.rayleigh_dense_mb": max(
            tr.values["spectral.rayleigh_dense_mb"], default=0.0),
        "cli.self_s": tr.self_time("cli"),
        "config.validate_s": tr.total("config"),
        "storage.write_s": tr.total("storage.write"),
        "storage.hash_s": tr.total("storage.hash"),
        "storage.bytes": c["storage.bytes"],
        "trace.overhead_frac": _ratio(traced_pass_s - untraced_pass_s,
                                      untraced_pass_s),
    }
    op_s = tr.total("op")
    uncovered = tr.self_time("op") + tr.self_time("cli")
    values["trace.coverage"] = _ratio(op_s - uncovered, op_s)

    missing = set(tr.missing)
    out = {}
    for name, needs in PER_LAYER.items():
        gone = any(n in missing for n in needs)
        out[name] = {"value": None if gone else float(values[name]),
                     "unit": UNITS[name]}
    return out
