"""The benchmark's own checks, run at tiny budgets."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import layertrace  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def short_rounds(monkeypatch):
    # a few repeats per op keep the repeat paths covered at tiny budgets
    monkeypatch.setattr(harness, "MIN_OP_ROUND_S", 0.2)
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)


def tiny(name, trace=False, seed=3):
    return harness.run_workload(name, seed, 0.0, trace, scale="tiny")


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_declared_workloads_exist():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_end_to_end(name):
    summary, detail = tiny(name)
    assert summary["correct"], detail["ops"]
    repeats = [op["repeats"] for op in detail["ops"]]
    assert len(repeats) == 4 and min(repeats) >= 1
    assert summary["attempted"] == sum(repeats) and summary["failed"] == 0
    assert units(summary["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    # set-up is timed by one fresh-interpreter probe (SETUP_PROBES above)
    assert len(detail["setup_cpu_s"]) == 1
    assert summary["metrics"]["setup_s"]["value"] == \
        detail["setup_scaled_s"][0]
    for op in detail["ops"]:
        assert len(op["scaled_cpu_s"]) == len(op["cpu_s"]) == op["repeats"]
    assert all(op["oracle_ok"] for op in detail["ops"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reproduces_untraced_hashes(name):
    summary, detail = tiny(name, trace=True)
    # a traced op whose results_hash moved is counted as failed
    assert summary["correct"], detail["ops"]
    # one traced execution per op on top of the untraced ones
    untraced = sum(op["repeats"] for op in detail["ops"])
    assert summary["attempted"] == untraced + 4
    assert units(summary["metrics"]) == PER_LAYER
    assert detail["missing_entry_points"] == []
    metrics = summary["metrics"]
    assert all(m["value"] is not None for m in metrics.values())
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    busy = "spectral.eigen_s" if name == "exact-ring" else "kernel.busy_s"
    assert metrics[busy]["value"] > 0


def test_wrong_pinned_reference_counts_as_failure(monkeypatch):
    monkeypatch.setitem(workloads.PINNED_DECAY, 8,
                        workloads.PINNED_DECAY[8] * (1 + 1e-6))
    summary, detail = tiny("exact-ring")
    assert not summary["correct"]
    spectral = next(op for op in detail["ops"] if op["name"] == "spectral")
    assert summary["failed"] == spectral["repeats"]
    verdicts = {op["name"]: op["oracle_ok"] for op in detail["ops"]}
    assert verdicts == {"spectral": False, "decay": True,
                        "spectral_defective": True, "oracle_check": True}


def test_reference_scaling():
    assert reference.reference_s() > 0
    # a core that runs the loop at half speed halves the reported time
    slow = 2 * reference.REFERENCE_S
    assert reference.scaled(3.0, slow, slow) == pytest.approx(1.5)
    assert reference.scaled(3.0, reference.REFERENCE_S,
                            reference.REFERENCE_S) == pytest.approx(3.0)


def test_failed_setup_probe_raises():
    with pytest.raises(RuntimeError, match="set-up probe failed"):
        harness.time_setup("no-such-workload", 1)


def test_missing_entry_point_reads_as_missing():
    tracer = layertrace.Tracer()
    gone = types.SimpleNamespace(__name__="qslab.dynamics")
    tracer.wrap(gone, "run_killed", "kernel")
    metrics = layertrace.layer_metrics(tracer, 1.0, 1.0)
    assert tracer.missing == ["dynamics.run_killed"]
    assert metrics["kernel.events"]["value"] is None
    assert metrics["dynamics.immortal_frac"]["value"] is None
    assert metrics["spectral.eigen_s"]["value"] == 0.0


def test_changed_entry_point_reads_as_missing():
    tracer = layertrace.Tracer()
    changed = types.SimpleNamespace(__name__="qslab.dynamics",
                                    run_killed=lambda occ: (0, 0.0, 0))
    tracer.wrap(changed, "run_killed", "kernel", layertrace._kernel_call,
                layertrace._kernel_return)
    assert changed.run_killed([0, 1]) == (0, 0.0, 0)
    assert tracer.missing == ["dynamics.run_killed"]
    assert layertrace.layer_metrics(tracer, 1.0, 1.0)[
        "kernel.calls"]["value"] is None


def test_seed_fixes_configs():
    for make in workloads.WORKLOADS.values():
        same = [op.raw for op in make(5, "tiny").ops]
        assert same == [op.raw for op in make(5, "tiny").ops]
        other = [op.raw for op in make(6, "tiny").ops]
        assert all(a != b for a, b in zip(same, other))


# exact-ring outputs do not depend on the seed, only its time grids do
@pytest.mark.parametrize("name,op_name", [("mc-ring", "survival"),
                                          ("mc-line", "couplings")])
def test_seed_fixes_results_hash(tmp_path, name, op_name):
    def digest(seed, where):
        op = next(o for o in workloads.WORKLOADS[name](seed, "tiny").ops
                  if o.name == op_name)
        op.build()
        return op.execute(tmp_path / where)["results_hash"]

    first = digest(5, "a")
    assert digest(5, "b") == first
    assert digest(6, "c") != first


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-ring", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
