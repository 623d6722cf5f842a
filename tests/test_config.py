"""`ExperimentConfig` validation on its own: each malformed field is refused
with the error type the command line maps to its exit code."""

import copy

import pytest

from qslab.config import ConfigError, ExperimentConfig
from qslab.model import ModelError

BASE = {
    "experiment": "survival",
    "model": {"lattice": {"extent": [3], "boundary": "torus"},
              "kernel": {"offsets": [[1], [-1]], "weights": [0.7, 0.3]},
              "rates": {"family": "zero_range", "g": {"kind": "identity"}}},
    "target": {"sites": [0], "threshold": 1},
    "rho": 0.5,
    "seed": 3,
    "budgets": {"t_grid": [1.0, 2.0], "n_traj": 10, "t_max": 5.0},
}


def _with(path, value):
    """BASE with the entry at `path` (a tuple of keys) set to `value`, or
    removed when `value` is None."""
    raw = copy.deepcopy(BASE)
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return raw


def test_base_config_is_valid():
    cfg = ExperimentConfig.from_dict(BASE)
    assert cfg.experiment == "survival" and cfg.seed == 3
    assert cfg.model().lattice.num_sites == 3


@pytest.mark.parametrize("path,value,match", [
    (("experiment",), "warp-drive", "unknown experiment kind"),
    (("model", "rates"), None, "missing model.rates"),
    (("model", "kernel"), None, "missing model.kernel"),
    (("target",), None, "missing config.target"),
    (("budgets", "n_traj"), 0, "n_traj must be positive"),
    (("budgets", "n_traj"), -4, "n_traj must be positive"),
    (("budgets", "t_max"), 0.0, "t_max must be positive"),
    (("budgets", "kappas"), [0.5, -0.5], "kappas"),
    (("budgets", "kappas"), [0.5, "1"], "kappas"),
    (("budgets", "kappas"), 0.5, "kappas"),
    (("budgets", "kappas"), [], "kappas"),
    (("seed",), 2**64, "64 bits"),
    (("budgets", "n_traj"), "ten", "n_traj must be a number"),
    (("budgets", "n_traj"), True, "n_traj must be an integer"),
    (("budgets", "n_traj"), 10.5, "n_traj must be an integer"),
    (("budgets", "kappas"), [True], "kappas"),
    (("budgets", "t_grid"), [True, 2.0], "t_grid must be a list of times"),
    (("budgets", "state_space"), {"kind": "max_total", "value": 2.7},
     "state_space must be"),
    (("budgets", "t_max"), [5.0], "t_max must be a number"),
    (("rho",), "half", "rho must be a number"),
    (("seed",), "three", "seed must be a number"),
    (("rho",), True, "rho must be a number"),
    (("seed",), True, "seed must be a number"),
    (("seed",), 1.5, "seed must be a nonnegative integer"),
    (("seed",), -1, "seed must be a nonnegative integer"),
    (("target", "threshold"), 1.5, "threshold must be a nonnegative integer"),
    (("target", "threshold"), True, "threshold must be a nonnegative integer"),
    (("budgets", "t_max"), True, "t_max must be a number"),
    (("model", "rates", "g"), {"kind": "cubic"}, "unknown g kind"),
    (("model", "rates"), {"family": "teleport"}, "unknown rate family"),
    (("model", "rates"), {"family": "misanthrope", "g": {"kind": "identity"},
                          "b": {"kind": "sideways"}}, "unknown b kind"),
    (("budgets", "t_max"), float("inf"), "t_max must be a number"),
    (("budgets", "t_grid"), [-1.0, 1.0], "t_grid must be a list of times"),
    (("budgets", "kappas"), [0.5, float("nan")], "kappas"),
    (("budgets", "probe_times"), [1.0, float("inf")],
     "probe_times must be a list of times"),
    (("budgets", "t_grid"), None, "budget t_grid required for survival"),
    (("budgets", "order"), 2, "budget order is not read by survival"),
    (("rho",), float("nan"), "rho must be a number"),
    (("model", "lattice", "extent"), [3.5], "extent must be integers"),
    (("model", "kernel", "offsets"), [[1.5], [-1]],
     "offsets must be integers"),
    (("target", "sites"), [0.5], "sites must be integers"),
    (("target", "sites"), [True], "sites must be integers"),
    (("model", "rates", "g"), {"kind": "capped", "cap": 1.5},
     "cap must be a nonnegative integer"),
    (("model", "rates", "g"), {"kind": "capped", "cap": True},
     "cap must be a nonnegative integer"),
    (("model", "kernel", "weights"), [float("nan"), 0.3],
     "kernel weights must be finite"),
    (("model", "kernel", "weights"), [float("inf"), 0.3],
     "kernel weights must be finite"),
    (("model", "rates", "g"), {"kind": "table", "values": [0, 1, float("nan")]},
     "g values must be finite"),
    (("model", "rates", "g"), {"kind": "table", "values": [0, float("inf")]},
     "g values must be finite"),
    (("model", "rates"), {"family": "misanthrope", "g": {"kind": "identity"},
                          "b": {"kind": "table2d",
                                "values": [[0, 0], [1, float("nan")]]}},
     "b values must be finite"),
], ids=["experiment", "no-rates", "no-kernel", "no-target", "n_traj-zero",
        "n_traj-negative", "t_max-zero", "kappas-negative", "kappas-string",
        "kappas-scalar", "kappas-empty", "seed", "n_traj-word", "n_traj-bool",
        "n_traj-fraction", "kappas-bool", "t_grid-bool",
        "state_space-fraction", "t_max-list", "rho-word",
        "seed-word", "rho-bool", "seed-bool", "seed-fraction",
        "seed-negative", "threshold-fraction", "threshold-bool", "t_max-bool",
        "g-kind", "rate-family", "b-kind", "t_max-infinite",
        "t_grid-negative", "kappas-nan", "probe_times-infinite", "no-t_grid",
        "budget-unread", "rho-nan", "extent-fraction", "offsets-fraction",
        "sites-fraction", "sites-bool", "cap-fraction", "cap-bool",
        "weights-nan", "weights-infinite", "g-table-nan", "g-table-infinite",
        "b-table-nan"])
def test_malformed_field_is_a_config_error(path, value, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(_with(path, value))


@pytest.mark.parametrize("sites", [[3], [-1], [0, 7]])
def test_target_off_the_lattice_is_a_model_error(sites):
    with pytest.raises(ModelError, match="outside the lattice"):
        ExperimentConfig.from_dict(_with(("target", "sites"), sites))


def test_largest_seed_is_accepted():
    assert ExperimentConfig.from_dict(_with(("seed",), 2**64 - 1)).seed \
        == 2**64 - 1


def test_oracle_check_reads_n_traj_on_the_line_only():
    """The ring's oracle check is exact and reads no trajectory budget; the
    blocked line's runs Monte Carlo and needs one."""
    ring = dict(copy.deepcopy(BASE), experiment="oracle-check",
                target={"sites": [0], "threshold": 0},
                budgets={"t_grid": [0.5, 1.0]})
    ring["model"] = {"lattice": {"extent": [6], "boundary": "torus"},
                     "kernel": {"offsets": [[1]], "weights": [1.0]},
                     "rates": {"family": "exclusion"}}
    ExperimentConfig.from_dict(ring)
    with pytest.raises(ConfigError,
                       match="budget n_traj is not read by oracle-check"):
        ExperimentConfig.from_dict(dict(ring, budgets={"t_grid": [0.5, 1.0],
                                                       "n_traj": 999}))
    line = copy.deepcopy(ring)
    line["model"]["lattice"]["boundary"] = "blocked"
    line["target"]["sites"] = [5]
    with pytest.raises(ConfigError,
                       match="budget n_traj required for oracle-check"):
        ExperimentConfig.from_dict(line)
    line["budgets"]["n_traj"] = 10
    ExperimentConfig.from_dict(line)
