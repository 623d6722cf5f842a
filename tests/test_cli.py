"""End-to-end runs through the command-line entry point on small configs."""

import json
import math

import pytest

from qslab import cli
from qslab.config import KINDS, ExperimentConfig
from qslab.dynamics import run_batch


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
# the `excl_ring` fixture of conftest.py: a Perron pair, so the spectral run
# reports the sandwich as well
EXCL_RING = {"model": _model(8, "torus", [[1], [-1]], [0.7, 0.3],
                             {"family": "exclusion"}),
             "target": {"sites": [0, 1], "threshold": 1}, "rho": 0.5}


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
     "2970ad9e312d69d7857e91280457b4df0a0b17d0f848c6eaac8cee1d605bb102"),
    (TOY, "phi-direct", {"order": 2, "n_traj": 100, "t_max": 30.0},
     "cd95895cea1e56a9d47fbb2d765ed86b87c968d83f38c4eb59e985983b2333e0"),
    (TOY, "phi-iterate", {"iterations": 2, "n_particles": 100,
                          "t_max": 30.0},
     "9bc7913e0a7ca01876570484d713535c6bf4870856c43c258678227ceb4961ad"),
    (TOY, "domination", {"iterations": 2, "n_particles": 100, "t_max": 30.0},
     "2422f801307d71209047095799633e2832b0e98a0f54b7ae65996c6f9d38f744"),
    (LINE, "oracle-check", {"t_grid": [0.1, 0.25, 0.5, 0.75, 1.0, 1.5],
                            "n_traj": 800},
     "b88d41e10449739f94a35fdda74e965b1b189f3b45c5746f1eedd8d5e65fbaaa"),
    (LINE, "couplings", {"initial": LINE_START, "site": 11,
                         "t_grid": [0.5, 1.0, 2.0], "n_traj": 50},
     "59b550d806e445db51835b7b5d23cb334b26963e9095b3c5a13d7b35555a7988"),
    (LINE, "sigma-exit", {"kappas": [0.5, 0.8], "n_traj": 60},
     "d970c1dc06e811dc7a384a25090fbf532c3409a49c7d4571b501eac559740c69"),
    # half the line's starts hit at tau = 0, so the exponentiality report
    # sees an atom at zero
    (LINE, "survival", {"t_grid": [0.1, 0.25, 0.5, 0.75, 1.0, 1.5],
                        "n_traj": 800},
     "7a1af14fd88bcc297c6e88cf9f690a43e43d5f422dfb5148c2e753ed9d89342b"),
]
# test ids: the experiment kind, prefixed by "line-" where the toy runs the
# same kind
PINNED_IDS = [("line-" if base is LINE and kind == "survival" else "") + kind
              for base, kind, _, _ in PINNED]


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


def test_counters_do_not_leak_between_runs(tmp_path):
    """A manifest counts the work of its own run only: a batch simulated
    between two equal runs shows in neither."""
    raw = dict(TOY, experiment="survival", seed=5, budgets=PINNED[0][2])
    config = _write(tmp_path, "cfg", raw)
    outs = [tmp_path / "first", tmp_path / "second"]
    assert cli.main(["run", "--config", config, "--out", str(outs[0])]) \
        == cli.EXIT_OK
    cfg = ExperimentConfig.from_dict(raw)
    run_batch(cfg.model(), cfg.target(), 300, 10.0, 7, measure=cfg.measure())
    assert cli.main(["run", "--config", config, "--out", str(outs[1])]) \
        == cli.EXIT_OK
    counters = [_manifest(out)["telemetry"]["counters"] for out in outs]
    assert counters[0] == counters[1]
    assert counters[0]["trajectories"] + counters[0]["immortal_skipped"] \
        == 400


@pytest.mark.parametrize("base,experiment,budgets,digest", PINNED,
                         ids=PINNED_IDS)
def test_results_hash_is_pinned(tmp_path, base, experiment, budgets, digest):
    config = _write(tmp_path, "cfg", dict(base, experiment=experiment,
                                          seed=13, budgets=budgets))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) \
        == cli.EXIT_OK
    assert _manifest(out)["results_hash"] == digest


def test_nonpositive_kappas_exit_2(tmp_path, capsys):
    # a tagged-exit time at or below 0 would report a floor above 1
    config = _write(tmp_path, "cfg", dict(
        LINE, experiment="sigma-exit", seed=13,
        budgets={"kappas": [-0.5, 0.0], "n_traj": 60}))
    assert cli.main(["run", "--config", config,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert "kappas must be a list of positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sigma_exit_work_depends_on_largest_kappa_only(tmp_path):
    """The tagged exit runs each trajectory once, to the largest kappa: a
    smaller kappa on the grid adds no work."""
    counters = []
    for kappas in ([0.5, 0.8], [0.8]):
        config = _write(tmp_path, "cfg", dict(
            LINE, experiment="sigma-exit", seed=13,
            budgets={"kappas": kappas, "n_traj": 60}))
        out = tmp_path / f"out{len(kappas)}"
        assert cli.main(["run", "--config", config, "--out", str(out)]) \
            == cli.EXIT_OK
        counters.append(_manifest(out)["telemetry"]["counters"])
    assert counters[0] == counters[1]
    assert counters[0]["trajectories"] == 60


@pytest.mark.parametrize("site,hit", [(1, 1.0), (4, 0.0)])
def test_couplings_with_closed_class_out_of_reach(tmp_path, site, hit):
    """The walk moves along the second axis of a 3 x 3 torus only, so the
    rows without the window {0} never reach it: the walk bound is 1 from
    the window's row and 0 from the others, not NaN."""
    torus = {"lattice": {"extent": [3, 3], "boundary": "torus"},
             "kernel": {"offsets": [[0, 1]], "weights": [1.0]},
             "rates": {"family": "exclusion"}}
    config = _write(tmp_path, "cfg", {
        "model": torus, "target": {"sites": [0], "threshold": 0},
        "experiment": "couplings", "seed": 13,
        "budgets": {"initial": [0, 0, 1, 1, 0, 1, 0, 1, 0], "site": site,
                    "t_grid": [0.5, 1.0, 2.0], "n_traj": 50}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) \
        == cli.EXIT_OK
    rep = json.loads((out / "couplings.json").read_text())
    assert rep["walk_hit_probability"] == hit
    assert rep["bound_ok_at_3_sigma"] is True


def test_non_numeric_budget_exits_2(tmp_path, capsys):
    config = _write(tmp_path, "cfg", dict(
        TOY, experiment="survival", seed=13,
        budgets={"t_grid": [1.0, 2.0], "n_traj": "ten", "t_max": 5.0}))
    assert cli.main(["run", "--config", config,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert "budget n_traj must be a number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _replaced(base, path, value):
    """A copy of `base` with the entry at `path` (a tuple of keys) set to
    `value`, or removed when `value` is None."""
    raw = json.loads(json.dumps(base))
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return raw


SURVIVAL = dict(TOY, experiment="survival", seed=13,
                budgets={"t_grid": [1.0, 2.0], "n_traj": 10, "t_max": 5.0})
COUPLINGS = dict(TOY, experiment="couplings", seed=13,
                 budgets={"initial": [1, 1, 0], "site": 1, "t_grid": [1.0],
                          "n_traj": 10})


@pytest.mark.parametrize("cfg", [
    _replaced(SURVIVAL, ("budgets", "n_traj"), None),
    _replaced(SURVIVAL, ("rho",), None),
    _replaced(SURVIVAL, ("budgets", "t_max"), 1.5),
    _replaced(dict(SURVIVAL, experiment="spectral"), ("budgets",),
              {"state_space": {"kind": "bogus", "value": 3}}),
    _replaced(SURVIVAL, ("model", "lattice", "extent"), 3),
    _replaced(SURVIVAL, ("budgets",), [10, 5.0]),
    _replaced(SURVIVAL, ("model", "kernel", "weights"), "ab"),
    _replaced(SURVIVAL, ("target", "threshold"), "x"),
    _replaced(SURVIVAL, ("budgets", "t_grid"), "abc"),
    _replaced(SURVIVAL, ("budgets", "t_grid"), []),
    _replaced(dict(SURVIVAL, experiment="spectral"), ("budgets",),
              {"state_space": {"kind": "max_total"}}),
    _replaced(dict(SURVIVAL, experiment="spectral"), ("budgets",),
              {"state_space": "max_total"}),
    _replaced(COUPLINGS, ("budgets", "n_traj"), 1),
    _replaced(COUPLINGS, ("budgets", "site"), 7),
    _replaced(COUPLINGS, ("budgets", "initial"), "abc"),
    _replaced(COUPLINGS, ("budgets", "initial"), [1, 0]),
    _replaced(COUPLINGS, ("budgets", "initial"), [1, -1, 0]),
    _replaced(COUPLINGS, ("budgets", "site"), 0),
    _replaced(COUPLINGS, ("budgets", "initial"), [2, 1, 0]),
    _replaced(COUPLINGS, ("model", "rates"), {"family": "exclusion"}),
    _replaced(_replaced(COUPLINGS, ("model", "rates"),
                        {"family": "exclusion"}),
              ("budgets", "initial"), [0, 0, 2]),
    _replaced(SURVIVAL, ("target",), None),
    _replaced(dict(SURVIVAL, experiment="oracle-check"), ("rho",), None),
    _replaced(dict(LINE, experiment="oracle-check", seed=13,
                   budgets=SURVIVAL["budgets"]), ("rho",), None),
    _replaced(dict(SURVIVAL, experiment="spectral", budgets={
        "state_space": {"kind": "max_total", "value": 3}}), ("rho",), None),
    _replaced(SURVIVAL, ("budgets", "t_max"), float("inf")),
    _replaced(SURVIVAL, ("budgets", "order"), 2),
    _replaced(COUPLINGS, ("budgets", "site"), 1.0),
    _replaced(dict(TASEP_RING, experiment="oracle-check", seed=13,
                   budgets={"t_grid": [0.5, 1.0]}), ("budgets", "n_traj"),
              999),
], ids=["no-n_traj", "no-rho", "t_max-below-grid", "state-space-kind",
        "extent-scalar", "budgets-list", "weights-string", "threshold-word",
        "t_grid-string", "t_grid-empty", "state-space-no-value",
        "state-space-string", "couplings-one-traj", "site-off-lattice",
        "initial-string", "initial-short", "initial-negative",
        "site-in-window", "initial-in-target", "site-full",
        "initial-over-cap", "target-missing", "oracle-ring-no-rho",
        "oracle-line-no-rho", "spectral-no-rho", "t_max-infinite",
        "budget-unread", "site-fraction", "oracle-ring-n_traj"])
def test_config_fault_found_late_exits_2(tmp_path, capsys, cfg):
    """A config fault exits 2 with a message, not a traceback, before
    `--out` exists, and `validate` gives the same verdict."""
    config = _write(tmp_path, "cfg", cfg)
    assert cli.main(["run", "--config", config,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config invalid: ")
    assert not (tmp_path / "out").exists()
    assert cli.main(["validate", "--config", config]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config invalid: ")


def test_every_kind_has_a_dispatcher():
    """The runner and the validation table name the same experiment
    kinds, so no kind runs unchecked."""
    assert set(cli._DISPATCH) == set(KINDS)


def test_nonpositive_decay_rate_exits_4(tmp_path, capsys):
    # the only starts that hit by 0.005 hit at tau = 0, so the curve is flat
    # on the grid and the fitted rate (-0.0) has no exponential law
    config = _write(tmp_path, "cfg", dict(
        TOY, experiment="survival", seed=1,
        budgets={"t_grid": [0.001, 0.002, 0.003, 0.004, 0.005],
                 "n_traj": 120, "t_max": 20}))
    assert cli.main(["run", "--config", config,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
    assert "is not positive" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [0, -1])
def test_nonpositive_workers_exit_2(tmp_path, capsys, workers):
    config = _write(tmp_path, "cfg", dict(
        TOY, experiment="survival", seed=13,
        budgets={"t_grid": [1.0, 2.0], "n_traj": 10, "t_max": 5.0}))
    assert cli.main(["run", "--config", config, "--workers", str(workers),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("base,state_space", [
    (TOY, {"kind": "max_total", "value": 20}),
    (TASEP_RING, {"kind": "fixed_total", "value": 3}),
    (EXCL_RING, {"kind": "max_total", "value": 8}),
], ids=["toy", "tasep-ring", "exclusion-ring"])
def test_spectral_is_worker_count_invariant(tmp_path, capsys, base,
                                            state_space):
    """Two runs of an exact kind give one results_hash, which the benchmark
    requires of every repeat: on the toy, on a defective ring (a survival
    fit) and on a ring with a Perron pair (the sandwich's survival)."""
    config = _write(tmp_path, "cfg", dict(
        base, experiment="spectral", seed=1,
        budgets={"state_space": state_space}))
    outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        assert cli.main(["run", "--config", config, "--out", str(out),
                         "--workers", str(workers)]) == cli.EXIT_OK
    assert _manifest(outs[0])["results_hash"] \
        == _manifest(outs[1])["results_hash"]
    capsys.readouterr()
    assert cli.main(["compare", str(outs[0]), str(outs[1])]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["identical"] is True


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("text,match", [
    ('{"experiment": ', "cannot read"),
    ("[1, 2]", "must hold a JSON object, got list"),
    (None, "Is a directory"),
], ids=["not-json", "not-an-object", "directory"])
def test_malformed_config_file_exits_2(tmp_path, capsys, command, text,
                                       match):
    """A config file that holds no JSON object exits 2 with a message, not
    a traceback."""
    path = tmp_path / "cfg.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config invalid: ") and match in err
    assert not (tmp_path / "out").exists()


def test_config_without_seed_exits_2(tmp_path):
    config = _write(tmp_path, "noseed", dict(TOY, experiment="survival",
                                             budgets={"t_grid": [1.0],
                                                      "n_traj": 10}))
    assert cli.main(["run", "--config", config,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_validate_accepts_valid_config(tmp_path, capsys):
    config = _write(tmp_path, "cfg", SURVIVAL)
    assert cli.main(["validate", "--config", config]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("sites", [[3], [-1], [0, 7]])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_target_off_the_lattice_exits_3(tmp_path, capsys, command, sites):
    """A target off the lattice is a model fault under both commands."""
    config = _write(tmp_path, "cfg",
                    _replaced(SURVIVAL, ("target", "sites"), sites))
    argv = [command, "--config", config]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model invalid: ") and "outside the lattice" in err
    assert not (tmp_path / "out").exists()


def test_validate_without_target_exits_2(tmp_path, capsys):
    config = _write(tmp_path, "cfg", _replaced(SURVIVAL, ("target",), None))
    assert cli.main(["validate", "--config", config]) == cli.EXIT_CONFIG
    assert "missing config.target" in capsys.readouterr().err


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
    """The 6-ring with 3 particles: 3 states share the smallest exit rate
    on one path, so the graph shows the Jordan block and no pair is
    computed."""
    rep = _spectral_report(tmp_path, TASEP_RING,
                           {"kind": "fixed_total", "value": 3})
    assert rep["principal"]["defective"]
    assert rep["principal"]["jordan_block"] == 3
    assert math.isnan(rep["principal"]["right_residual"])
    assert math.isnan(rep["principal"]["left_residual"])
    assert set(rep["skipped"]) == {"qsd_fixed_point", "sandwich",
                                   "rayleigh"}
    assert all("defective" in why and "3 states share the smallest exit "
               "rate on one path" in why for why in rep["skipped"].values())


def test_spectral_report_of_a_perron_pair_has_no_jordan_block(tmp_path):
    rep = _spectral_report(tmp_path, EXCL_RING,
                           {"kind": "max_total", "value": 8})
    assert not rep["principal"]["defective"]
    assert "jordan_block" not in rep["principal"]


def test_spectral_rayleigh_runs_on_the_core(tmp_path):
    # on every survivor state the never-killed sectors of at most one
    # particle would hold lambda_s at a rounding-level 0
    rep = _spectral_report(tmp_path, EXCL_RING,
                           {"kind": "max_total", "value": 8})
    assert rep["rayleigh"]["lambda_s"] > 0.01
    assert rep["rayleigh"]["classical_bound_margin"] > 0


def test_spectral_over_state_limit_exits_3(tmp_path):
    # binom(24, 12) = 2,704,156 states of at most 12 particles on 12 sites,
    # past the enumeration limit
    ring = dict(TOY, model=_model(12, "torus", [[1], [-1]], [0.7, 0.3],
                                  {"family": "zero_range",
                                   "g": {"kind": "identity"}}))
    assert _run_spectral(tmp_path, ring, {"kind": "max_total", "value": 12}) \
        == cli.EXIT_MODEL
    assert not (tmp_path / "out").exists()


def test_spectral_density_fault_leaves_no_file(tmp_path, capsys):
    """No product law on the exclusion ring has density 0.9999995: the run
    exits 3 before it writes the generator."""
    ring = dict(EXCL_RING, rho=0.9999995)
    assert _run_spectral(tmp_path, ring, {"kind": "max_total", "value": 8}) \
        == cli.EXIT_MODEL
    assert capsys.readouterr().err.startswith("model error: ")
    assert not (tmp_path / "out").exists()


def test_failed_run_keeps_an_existing_out(tmp_path, capsys):
    """A failed run removes only an `--out` it made itself: a directory
    that was there before stays, with what it held (a directory that holds
    anything is refused before the run)."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    ring = dict(EXCL_RING, rho=0.9999995)
    assert _run_spectral(tmp_path, ring, {"kind": "max_total", "value": 8}) \
        == cli.EXIT_CONFIG
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    (out / "notes.txt").unlink()
    assert _run_spectral(tmp_path, ring, {"kind": "max_total", "value": 8}) \
        == cli.EXIT_MODEL
    assert out.is_dir() and not any(out.iterdir())


def test_failed_run_takes_back_the_directories_it_made(tmp_path, capsys):
    """A failed run removes the missing ancestors of `--out` that it made,
    deepest first, and no directory that was there before."""
    config = _write(tmp_path, "spectral", dict(
        EXCL_RING, rho=0.9999995, experiment="spectral", seed=1,
        budgets={"state_space": {"kind": "max_total", "value": 8}}))
    (tmp_path / "keep").mkdir()
    for out in (tmp_path / "nest" / "a" / "b" / "out",
                tmp_path / "keep" / "a" / "out"):
        assert cli.main(["run", "--config", config, "--out", str(out)]) \
            == cli.EXIT_MODEL
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["keep", "spectral.json"]
    assert not any((tmp_path / "keep").iterdir())


def test_spectral_site_cap_space_exits_2(tmp_path, capsys):
    """A state space is a run of particle-number sectors; the per-site cap
    box is no kind of space."""
    assert _run_spectral(tmp_path, TOY, {"kind": "site_cap", "value": 2}) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "fixed_total" in err and "max_total" in err


def test_spectral_with_empty_core_exits_4(tmp_path):
    # exclusion puts at most two particles on the window {0, 1}, so the
    # threshold 2 is never passed and no state can be killed
    ring = {"model": _model(6, "torus", [[1], [-1]], [0.7, 0.3],
                            {"family": "exclusion"}),
            "target": {"sites": [0, 1], "threshold": 2}, "rho": 0.5}
    assert _run_spectral(tmp_path, ring, {"kind": "max_total", "value": 6}) \
        == cli.EXIT_RUNTIME


@pytest.mark.parametrize("layout", ["file", "under-a-file", "not-empty",
                                    "long-name", "under-a-long-name"])
def test_unusable_out_exits_2(tmp_path, capsys, layout):
    """An `--out` that is a file, lies under one, holds files or cannot be
    made is refused before any work, and nothing is created: a leftover
    file there would enter the manifest's results.  A name too long for
    the file system under a missing directory is refused only after that
    directory has been made."""
    out = tmp_path / "out"
    if layout == "not-empty":
        out.mkdir()
        (out / "stale.txt").write_text("old\n")
    elif layout == "long-name":
        out = tmp_path / ("x" * 300)
    elif layout == "under-a-long-name":
        out = out / ("x" * 300) / "run"
    else:
        out.write_text("a file\n")
    if layout == "under-a-file":
        out = out / "run"
    before = sorted(tmp_path.rglob("*"))
    config = _write(tmp_path, "cfg", SURVIVAL)
    assert cli.main(["run", "--config", config, "--out", str(out)]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config invalid: cannot use --out")
    assert sorted(tmp_path.rglob("*")) == sorted(before + [tmp_path
                                                           / "cfg.json"])


def test_sigma_exit_far_from_the_window(tmp_path):
    """The floor's terms (Delta kappa)^d / d! stay finite at distances d
    past 170, where d! is no float: on a 200-site blocked line the window
    {199} is 199 kernel ranges from site 0."""
    line = dict(LINE, model=_model(200, "blocked", [[1]], [1.0],
                                   {"family": "exclusion"}),
                target={"sites": [199], "threshold": 0})
    config = _write(tmp_path, "cfg", dict(
        line, experiment="sigma-exit", seed=13,
        budgets={"kappas": [0.5], "n_traj": 20}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", config, "--out", str(out)]) \
        == cli.EXIT_OK
    report, = json.loads((out / "sigma_exit.json").read_text())["reports"]
    assert 0 < report["lower_bound"] < 1


def _runs_to_compare(tmp_path):
    """Two runs of one tagged-exit config, a and b, and their directories."""
    config = _write(tmp_path, "cfg", dict(
        LINE, experiment="sigma-exit", seed=13,
        budgets={"kappas": [0.5], "n_traj": 20}))
    runs = [tmp_path / "a", tmp_path / "b"]
    for run in runs:
        assert cli.main(["run", "--config", config, "--out", str(run)]) \
            == cli.EXIT_OK
    return runs


def test_compare_reports_a_result_only_in_b(tmp_path, capsys):
    a, b = _runs_to_compare(tmp_path)
    manifest = _manifest(b)
    manifest["results"]["extra.txt"] = "0" * 64
    (b / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["compare", str(a), str(b)]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["identical"] is False
    assert report["diffs"] == {"extra.txt": [{"note": "missing in a"}]}


def test_diff_numeric_takes_nan_as_equal_to_nan():
    """Residuals that were not computed are NaN on both sides of a compare
    of two defective spectral runs, and are no difference; NaN against a
    number still is one."""
    a = {"residual": float("nan"), "rate": 1.0, "pair": [float("nan"), 2.0]}
    b = {"residual": float("nan"), "rate": 1.0, "pair": [float("nan"), 2.0]}
    assert cli._diff_numeric(a, b) == []
    diff, = cli._diff_numeric(a, dict(b, residual=0.5))
    assert (diff["field"], diff["b"]) == ("residual", 0.5)
    assert math.isnan(diff["a"])


@pytest.mark.parametrize("target", ["directory", "under-a-missing-one"])
def test_compare_unwritable_out_exits_5(tmp_path, capsys, target):
    runs = _runs_to_compare(tmp_path)
    out = {"directory": tmp_path,
           "under-a-missing-one": tmp_path / "missing" / "diff.json"}[target]
    capsys.readouterr()
    assert cli.main(["compare", *map(str, runs), "--out", str(out)]) \
        == cli.EXIT_COMPARE
    captured = capsys.readouterr()
    assert captured.err.startswith("compare failed: ")
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


def test_compare_without_manifests_exits_5(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert cli.main(["compare", str(tmp_path / "a"),
                     str(tmp_path / "b")]) == cli.EXIT_COMPARE


@pytest.mark.parametrize("layout", ["run-is-a-file", "manifest-is-a-list",
                                    "results-is-a-list"])
def test_compare_unreadable_run_exits_5(tmp_path, capsys, layout):
    """A run path that is a file, or a manifest that holds no JSON object or
    whose results are no JSON object, is a failed comparison, not a
    traceback."""
    manifest = {"manifest-is-a-list": "[1, 2]",
                "results-is-a-list": '{"experiment": "x", "results": [1], '
                                     '"results_hash": "h"}'}
    for name in ("a", "b"):
        if layout == "run-is-a-file":
            (tmp_path / name).write_text("{}\n")
        else:
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text(
                manifest[layout] + "\n")
    assert cli.main(["compare", str(tmp_path / "a"),
                     str(tmp_path / "b")]) == cli.EXIT_COMPARE
    assert capsys.readouterr().err.startswith("compare failed: ")


@pytest.mark.parametrize("rho,count", [(0.01, 0), (0.99, 6)])
def test_oracle_check_ring_without_room_exits_2(tmp_path, capsys, rho,
                                                count):
    """round(rho N) particles on the N-ring must leave the trap something
    to hit and a hole to reach it through."""
    config = _write(tmp_path, "cfg", dict(
        TASEP_RING, experiment="oracle-check", seed=13, rho=rho,
        budgets={"t_grid": [0.5, 1.0]}))
    assert cli.main(["run", "--config", config,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert f"particle count {count} must lie in [1, 5]" \
        in capsys.readouterr().err
