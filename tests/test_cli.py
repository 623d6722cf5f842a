"""End-to-end runs through the command-line entry point on small configs."""

import json

import pytest

from qslab import cli


def _model(extent, boundary, offsets, weights, rates):
    return {"lattice": {"extent": [extent], "boundary": boundary},
            "kernel": {"offsets": offsets, "weights": weights},
            "rates": rates}


# the `toy` fixture of conftest.py as a config
TOY = {"model": _model(3, "torus", [[1], [-1]], [0.7, 0.3],
                       {"family": "zero_range", "g": {"kind": "identity"}}),
       "target": {"sites": [0], "threshold": 1}, "rho": 0.5}
# totally asymmetric exclusion on a 6-ring: a defective killed spectrum
TASEP_RING = {"model": _model(6, "torus", [[1]], [1.0],
                              {"family": "exclusion"}),
              "target": {"sites": [0], "threshold": 0}, "rho": 0.5}


# totally asymmetric exclusion on a blocked 16-site line feeding the trap at
# its right edge, started half filled with the tagged site 11 and the trap
# empty for the couplings
LINE = {"model": _model(16, "blocked", [[1]], [1.0], {"family": "exclusion"}),
        "target": {"sites": [15], "threshold": 0}, "rho": 0.5}
LINE_START = [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
LINE_START[11] = LINE_START[15] = 0

# results_hash of every Monte Carlo experiment kind at seed 13: how the
# draws are computed may change, the random paths they give may not
PINNED = [
    (TOY, "survival", {"t_grid": [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0],
                       "n_traj": 400, "t_max": 20.0},
     "73c83cf3caec67b2ea933d638ac94876c966befc33f1de5c5b0688d6a209bb09"),
    (TOY, "phi-direct", {"order": 2, "n_traj": 100, "t_max": 30.0},
     "cd95895cea1e56a9d47fbb2d765ed86b87c968d83f38c4eb59e985983b2333e0"),
    (TOY, "phi-iterate", {"iterations": 2, "n_particles": 100,
                          "t_max": 30.0},
     "9bc7913e0a7ca01876570484d713535c6bf4870856c43c258678227ceb4961ad"),
    (TOY, "domination", {"iterations": 2, "n_particles": 100, "t_max": 30.0},
     "2422f801307d71209047095799633e2832b0e98a0f54b7ae65996c6f9d38f744"),
    (LINE, "oracle-check", {"t_grid": [0.1, 0.25, 0.5, 0.75, 1.0, 1.5],
                            "n_traj": 800},
     "30d5e1b90d01ec6383ed0d5e4f8730f4a82dc50fa913c737c1acff461dea71a7"),
    (LINE, "couplings", {"initial": LINE_START, "site": 11,
                         "t_grid": [0.5, 1.0, 2.0], "n_traj": 50},
     "59b550d806e445db51835b7b5d23cb334b26963e9095b3c5a13d7b35555a7988"),
    (LINE, "sigma-exit", {"kappas": [0.5, 0.8], "n_traj": 60},
     "d970c1dc06e811dc7a384a25090fbf532c3409a49c7d4571b501eac559740c69"),
]


def _write(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


@pytest.mark.parametrize("experiment,budgets", [
    ("survival", {"t_grid": [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0],
                  "n_traj": 400, "t_max": 20.0}),
    ("phi-direct", {"order": 2, "n_traj": 100, "t_max": 30.0}),
    ("phi-iterate", {"iterations": 2, "n_particles": 100, "t_max": 30.0}),
    ("domination", {"iterations": 2, "n_particles": 100, "t_max": 30.0}),
])
def test_run_is_worker_count_invariant(tmp_path, capsys, experiment,
                                       budgets):
    """Equal results_hash and equal work counters at 1 and 2 workers."""
    config = _write(tmp_path, "cfg", dict(TOY, experiment=experiment,
                                          seed=5, budgets=budgets))
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert cli.main(["run", "--config", config, "--out", str(out),
                         "--workers", str(workers)]) == cli.EXIT_OK
        outs.append(out)
    manifests = [_manifest(out) for out in outs]
    assert manifests[0]["results_hash"] == manifests[1]["results_hash"]
    counters = [m["telemetry"]["counters"] for m in manifests]
    assert counters[0] == counters[1]
    assert counters[0]["trajectories"] > 0
    assert counters[0]["events"] > 0
    # the toy's base law puts over half its mass on immortal starts
    assert counters[0]["immortal_skipped"] > 0
    capsys.readouterr()
    assert cli.main(["compare", str(outs[0]), str(outs[1])]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is True


@pytest.mark.parametrize("base,experiment,budgets,digest", PINNED,
                         ids=[case[1] for case in PINNED])
def test_results_hash_is_pinned(tmp_path, base, experiment, budgets, digest):
    config = _write(tmp_path, "cfg", dict(base, experiment=experiment,
                                          seed=13, budgets=budgets))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) \
        == cli.EXIT_OK
    assert _manifest(out)["results_hash"] == digest


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG


def test_config_without_seed_exits_2(tmp_path):
    config = _write(tmp_path, "noseed", dict(TOY, experiment="survival",
                                             budgets={"t_grid": [1.0],
                                                      "n_traj": 10}))
    assert cli.main(["run", "--config", config,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_validate_accepts_valid_config(tmp_path, capsys):
    config = _write(tmp_path, "cfg", dict(TOY, experiment="survival",
                                          seed=1))
    assert cli.main(["validate", "--config", config]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True


def _run_spectral(tmp_path, base, state_space):
    """Exit code of `run` on a spectral config; output in tmp_path/out."""
    config = _write(tmp_path, "spectral", dict(
        base, experiment="spectral", seed=1,
        budgets={"state_space": state_space}))
    return cli.main(["run", "--config", config, "--out", str(tmp_path / "out")])


def _spectral_report(tmp_path, base, state_space):
    assert _run_spectral(tmp_path, base, state_space) == cli.EXIT_OK
    return json.loads((tmp_path / "out" / "spectral.json").read_text())


def test_spectral_reports_zero_weight_skip(tmp_path):
    # the truncated marginal gives the high-occupancy core states weight 0
    rep = _spectral_report(tmp_path, TOY, {"kind": "max_total", "value": 20})
    assert "qsd_fixed_point" in rep
    assert set(rep["skipped"]) == {"sandwich", "rayleigh"}
    assert "zero product-measure weight" in rep["skipped"]["sandwich"]
    assert "sandwich" not in rep and "rayleigh" not in rep


def test_spectral_reports_defective_skip(tmp_path):
    rep = _spectral_report(tmp_path, TASEP_RING,
                           {"kind": "fixed_total", "value": 3})
    assert rep["principal"]["defective"]
    assert set(rep["skipped"]) == {"qsd_fixed_point", "sandwich",
                                   "rayleigh"}
    assert all("defective" in why for why in rep["skipped"].values())


def test_spectral_over_state_limit_exits_3(tmp_path):
    # 3^12 = 531,441 capped states, past the enumeration limit
    ring = dict(TOY, model=_model(12, "torus", [[1], [-1]], [0.7, 0.3],
                                  {"family": "zero_range",
                                   "g": {"kind": "identity"}}))
    assert _run_spectral(tmp_path, ring, {"kind": "site_cap", "value": 2}) \
        == cli.EXIT_MODEL


def test_spectral_with_empty_core_exits_4(tmp_path):
    # exclusion puts at most two particles on the window {0, 1}, so the
    # threshold 2 is never passed and no state can be killed
    ring = {"model": _model(6, "torus", [[1], [-1]], [0.7, 0.3],
                            {"family": "exclusion"}),
            "target": {"sites": [0, 1], "threshold": 2}, "rho": 0.5}
    assert _run_spectral(tmp_path, ring, {"kind": "max_total", "value": 6}) \
        == cli.EXIT_RUNTIME


def test_compare_without_manifests_exits_5(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert cli.main(["compare", str(tmp_path / "a"),
                     str(tmp_path / "b")]) == cli.EXIT_COMPARE
