"""Runs one workload: set-up timing, timed rounds, oracles, traced pass.

A run is one process with one client (closed loop, workers=1).  It times
set-up in fresh child processes, runs one untimed warm-up operation, then
repeats the workload's operation list in rounds until the run length has
passed; within a round a short operation repeats.  Operation times are
CPU seconds scaled by the reference loop timed around each execution
(`reference.py`), and medians over all executions.  The traced run
alternates untraced and traced rounds.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import layertrace
from reference import reference_s, scaled
from workloads import WORKLOADS, Op, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
PROBE_TIMEOUT_S = 120
SETUP_PROBES = 3
MIN_OP_ROUND_S = 1.0


@dataclass
class OpRecord:
    op: Op
    slot: str
    times: list[float] = field(default_factory=list)     # scaled CPU s
    cpus: list[float] = field(default_factory=list)      # CPU seconds
    walls: list[float] = field(default_factory=list)     # wall seconds
    executions: int = 0                 # untraced attempts, the next repeat
    hashes: dict = field(default_factory=dict)      # repeat -> results_hash
    verdicts: dict = field(default_factory=dict)    # repeat -> oracle verdict
    fingerprint: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if why not in self.errors:
            self.errors.append(why)


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    try:
        from qslab._kernel import HAVE_NUMBA
    except ImportError:
        HAVE_NUMBA = None
    src = ROOT / "src" / "qslab"
    return {
        "cpu_model": cpu or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": HAVE_NUMBA,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(src.rglob("*.py"))),
    }


def time_setup(workload: str, seed: int):
    """SETUP_PROBES fresh interpreters that import, generate and build the
    full-scale workload.  Returns each probe's CPU seconds at ready (its own
    clock, which starts with the process) scaled by the reference loop it
    times before its imports and after ready, the same unscaled, and the
    wall seconds from spawn to exit.  A probe that fails or has not exited
    after PROBE_TIMEOUT_S raises."""
    scaled_cpu, cpu, wall = [], [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        # on timeout, run() kills the probe and raises TimeoutExpired
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
        wall.append(perf_counter() - start)
        line = proc.stdout.split()
        if proc.returncode != 0 or len(line) != 4 or line[0] != b"ready":
            raise RuntimeError(
                f"set-up probe failed with exit code {proc.returncode}")
        ready, before, after = map(float, line[1:])
        cpu.append(ready)
        scaled_cpu.append(scaled(ready, before, after))
    return scaled_cpu, cpu, wall


def _execute(rec: OpRecord, work: Path, refs: dict,
             tracer=None) -> tuple[float, float, float] | None:
    """Run one operation; returns its scaled CPU, CPU and wall seconds, or
    None when it raised.  The reference loop runs right before and right
    after the operation, outside its trace span.

    Untraced, the first output of every distinct config goes to the oracle
    and a repeated config must reproduce its results_hash.  Traced, the op
    reruns its first config and must reproduce the untraced hash."""
    repeat = 0 if tracer is not None else rec.executions
    if tracer is None:
        rec.executions += 1
    out = work / rec.op.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()  # one operation's garbage is not collected in the next
    rec.attempted += 1
    before = reference_s()
    span = tracer.open("op") if tracer is not None else None
    start, start_cpu = perf_counter(), process_time()
    try:
        fp = rec.op.execute(out, repeat)
    except Exception:  # the run must go on; the failure is counted
        traceback.print_exc(file=sys.stderr)
        rec.fail("raised")
        return None
    finally:
        cpu, wall = process_time() - start_cpu, perf_counter() - start
        if span is not None:
            tracer.close(span)
    elapsed = scaled(cpu, before, reference_s()), cpu, wall
    digest = fp["results_hash"]
    if tracer is not None:
        if digest != rec.hashes.get(0):
            rec.fail("traced run changed results_hash")
        return elapsed
    key = repeat if rec.op.reseed else 0
    if key in rec.hashes:
        if digest != rec.hashes[key]:
            rec.fail("results_hash differs between repeats")
            return elapsed
    else:
        rec.hashes[key] = digest
        try:
            ok, fingerprint = rec.op.check(rec.op, out, fp, refs)
        except Exception:  # an unreadable output fails its oracle
            traceback.print_exc(file=sys.stderr)
            ok, fingerprint = False, {}
        rec.verdicts[key] = bool(ok)
        if key == 0:
            rec.fingerprint = fingerprint
    if not rec.verdicts[key]:
        rec.fail("oracle")
    return elapsed


def _round(records, work, refs, tracer=None) -> float:
    """One pass over the operation list; returns its scaled CPU seconds.
    Untraced, an operation repeats until it has run MIN_OP_ROUND_S (wall) in
    the pass, so short operations get several samples; the pass counts its
    mean."""
    total = 0.0
    for rec in records:
        if tracer is not None:
            if 0 in rec.hashes:  # else nothing to compare with
                total += (_execute(rec, work, refs, tracer) or (0.0,))[0]
            continue
        cpu, wall, runs = 0.0, 0.0, 0
        while runs == 0 or wall < MIN_OP_ROUND_S:
            elapsed = _execute(rec, work, refs)
            if elapsed is None:
                break
            rec.times.append(elapsed[0])
            rec.cpus.append(elapsed[1])
            rec.walls.append(elapsed[2])
            cpu += elapsed[0]
            wall += elapsed[2]
            runs += 1
        if runs:
            total += cpu / runs
    return total


def _median(values):
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 scale: str = "full"):
    """Returns (summary, detail): the result line and the full record."""
    setup, setup_cpu, setup_wall = time_setup(name, seed)
    wl: Workload = WORKLOADS[name](seed, scale)
    wl.build()
    refs = wl.references()
    records = [OpRecord(op, f"op{i + 1}_cpu_s")
               for i, op in enumerate(wl.ops)]
    work = WORK / f"{name}-{os.getpid()}"
    passes, traced_passes, layer_runs, missing = [], [], [], []
    try:
        warm = OpRecord(wl.warmup, "warmup")
        _execute(warm, work, refs)
        begin = perf_counter()
        while True:
            passes.append(_round(records, work, refs))
            if trace:
                tracer = layertrace.install(layertrace.Tracer())
                try:
                    traced_passes.append(_round(records, work, refs, tracer))
                finally:
                    tracer.uninstall()
                layer_runs.append(layertrace.layer_metrics(
                    tracer, passes[-1], traced_passes[-1]))
                missing = tracer.missing
            if perf_counter() - begin >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    if trace:
        metrics = {}
        for key, first in layer_runs[0].items():
            vals = [run[key]["value"] for run in layer_runs]
            value = None if any(v is None for v in vals) else _median(vals)
            metrics[key] = {"value": value, "unit": first["unit"]}
    else:
        metrics = {
            "setup_s": {"value": _median(setup), "unit": "s"},
            "pass_cpu_s": {"value": _median(passes), "unit": "s"},
        }
        for rec in records:
            metrics[rec.slot] = {"value": _median(rec.times), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"}
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "scale": scale,
        "machine": machine_record(),
        "setup_scaled_s": setup, "setup_cpu_s": setup_cpu,
        "setup_wall_s": setup_wall,
        "pass_cpu_s": passes,
        "traced_pass_cpu_s": traced_passes,
        "fail_frac": failed / attempted if attempted else 0.0,
        "missing_entry_points": missing,
        "ops": [{
            "slot": r.slot, "name": r.op.name,
            "kind": r.op.raw["experiment"] if r.op.run is None else r.op.name,
            "repeats": len(r.times), "scaled_cpu_s": r.times,
            "cpu_s": r.cpus, "wall_s": r.walls,
            "median_scaled_cpu_s": _median(r.times),
            "median_cpu_s": _median(r.cpus),
            "median_wall_s": _median(r.walls), "results_hash": r.hashes.get(0),
            "config_seed": r.op.raw["seed"],
            "oracle_checks": len(r.verdicts),
            "oracle_ok": bool(r.verdicts) and all(r.verdicts.values()),
            "errors": r.errors,
            "fingerprint": r.fingerprint,
        } for r in records],
    }
    return summary, detail
