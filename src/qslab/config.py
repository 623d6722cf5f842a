"""Structured experiment configuration: dict schema <-> model objects.

The canonical form is the JSON dict, a JSON object with the fields
`experiment`, `model` (`lattice`, `kernel`, `rates`), `target`, `rho`,
`seed` and `budgets`; objects are built on demand so a loaded config
round-trips byte-for-byte.  The budgets each experiment kind reads:

- `survival`: `t_grid` (a non-empty list of times), `n_traj`, and an
  optional `t_max` that covers the grid;
- `oracle-check`: `t_grid`, and `n_traj` on a blocked line;
- `phi-iterate`: `iterations`, `n_particles`, `t_max`, optional
  `probe_times`;
- `phi-direct`: `order`, `n_traj`, `t_max`;
- `spectral`: `state_space` (`{"kind": "fixed_total" or "max_total",
  "value": n}`), optional `t_grid` for the hitting-time sandwich;
- `domination`: `iterations`, `n_particles`, `t_max`;
- `sigma-exit`: `kappas` (a non-empty list of positive times), `n_traj`;
- `couplings`: `initial` (one occupancy per site), `site`, `t_grid`,
  `n_traj` (at least 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import ProductMeasure
from .model import (EXCLUSION, MISANTHROPE, ZERO_RANGE, JumpKernel, Lattice,
                    Model, ModelError, RateFunction, TargetSet, g_capped,
                    g_constant, g_from_table, g_identity)
from .spectral import FixedTotal, MaxTotal

EXPERIMENT_KINDS = ("survival", "phi-iterate", "phi-direct", "spectral",
                    "oracle-check", "domination", "sigma-exit", "couplings")
# state-space constraint of a `spectral` run by its `kind` name
STATE_SPACES = {"fixed_total": FixedTotal, "max_total": MaxTotal}


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ConfigError(f"missing {ctx}.{key}")
    return mapping[key]


def _number(value, kind, what: str):
    """`kind(value)` (int or float), a ConfigError when it is no number."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _is_count(value) -> bool:
    """Whether `value` is a nonnegative integer (a bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _is_time(value) -> bool:
    """Whether `value` is a real number (a bool is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def g_from_spec(spec: dict):
    kind = _require(spec, "kind", "rates.g")
    if kind == "identity":
        return g_identity, None
    if kind == "constant":
        return g_constant, 1.0
    if kind == "capped":
        cap = int(_require(spec, "cap", "rates.g"))
        return g_capped(cap), float(cap)
    if kind == "table":
        values = _require(spec, "values", "rates.g")
        return g_from_table(values), float(max(values))
    raise ConfigError(f"unknown g kind {kind!r}")


def rates_from_dict(spec: dict) -> RateFunction:
    family = _require(spec, "family", "rates")
    if family == EXCLUSION:
        return RateFunction.exclusion()
    if family == ZERO_RANGE:
        g, g_sup = g_from_spec(_require(spec, "g", "rates"))
        return RateFunction.zero_range(g, g_sup)
    if family == MISANTHROPE:
        g, g_sup = g_from_spec(_require(spec, "g", "rates"))
        b_spec = _require(spec, "b", "rates")
        b_kind = _require(b_spec, "kind", "rates.b")
        if b_kind == "g_over_crowding":
            def b(n, m):
                return g(n) / (m + 1.0)
        elif b_kind == "table2d":
            table = np.asarray(_require(b_spec, "values", "rates.b"),
                               dtype=np.float64)

            def b(n, m):
                return float(table[min(n, table.shape[0] - 1),
                                   min(m, table.shape[1] - 1)])
        else:
            raise ConfigError(f"unknown b kind {b_kind!r}")
        return RateFunction.misanthrope(b, g, g_sup)
    raise ConfigError(f"unknown rate family {family!r}")


def lattice_from_dict(spec: dict) -> Lattice:
    return Lattice(tuple(_require(spec, "extent", "lattice")),
                   spec.get("boundary", "torus"))


def kernel_from_dict(spec: dict) -> JumpKernel:
    return JumpKernel(np.asarray(_require(spec, "offsets", "kernel")),
                      np.asarray(_require(spec, "weights", "kernel"),
                                 dtype=np.float64))


def target_from_dict(spec: dict) -> TargetSet:
    threshold = _require(spec, "threshold", "target")
    if not _is_count(threshold):
        raise ConfigError(f"target threshold must be a nonnegative integer, "
                          f"got {threshold!r}")
    return TargetSet(np.asarray(_require(spec, "sites", "target")), threshold)


@dataclass
class ExperimentConfig:
    """Validated view over the raw config dict (kept verbatim for hashing)."""

    raw: dict

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        cfg = ExperimentConfig(dict(raw))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        raw = self.raw
        kind = _require(raw, "experiment", "config")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        model_spec = _require(raw, "model", "config")
        for key in ("lattice", "kernel", "rates"):
            _require(model_spec, key, "model")
        _require(raw, "target", "config")  # every experiment kind reads it
        rho = raw.get("rho")
        if rho is not None:
            if not _is_time(rho):
                raise ConfigError(f"density rho must be a number, "
                                  f"got {rho!r}")
            if not 0.0 <= rho:
                raise ConfigError(f"density must be nonnegative, got {rho}")
        budgets = raw.get("budgets", {})
        if not isinstance(budgets, dict):
            raise ConfigError(f"budgets must be a mapping, got {budgets!r}")
        for key, value in budgets.items():
            if key in ("n_traj", "n_particles", "iterations", "order"):
                if _number(value, int, f"budget {key}") <= 0:
                    raise ConfigError(f"budget {key} must be positive")
                if not _is_count(value):
                    raise ConfigError(f"budget {key} must be an integer, "
                                      f"got {value!r}")
            if key == "t_max":
                if not _is_time(value):
                    raise ConfigError(f"budget {key} must be a number, "
                                      f"got {value!r}")
                if not value > 0:
                    raise ConfigError(f"budget {key} must be positive")
            # a tagged-exit run with no time checks nothing
            if key == "kappas" and not (isinstance(value, list) and value
                                        and all(_is_time(k) and k > 0
                                                for k in value)):
                raise ConfigError("budget kappas must be a list of positive "
                                  f"times, at least one, got {value!r}")
            if key == "state_space" and not (
                    isinstance(value, dict)
                    and isinstance(value.get("kind"), str)
                    and value["kind"] in STATE_SPACES
                    and _is_count(value.get("value"))):
                raise ConfigError(
                    "budget state_space must be {\"kind\": one of "
                    f"{sorted(STATE_SPACES)}, \"value\": a nonnegative "
                    f"integer}}, got {value!r}")
            # a time grid needs a point; probe times may be none
            if key in ("t_grid", "probe_times") and not (
                    isinstance(value, list) and (value or key != "t_grid")
                    and all(_is_time(t) for t in value)):
                raise ConfigError(f"budget {key} must be a list of times, "
                                  f"got {value!r}")
        # the gap's standard error is a sample deviation (ddof=1), which
        # one coupling leaves undefined
        if kind == "couplings" and budgets.get("n_traj", 2) < 2:
            raise ConfigError("budget n_traj must be at least 2 for "
                              "couplings: the gap's standard error needs "
                              "two couplings")
        if kind == "survival" and "t_grid" in budgets and "t_max" in budgets \
                and float(budgets["t_max"]) < max(budgets["t_grid"]):
            raise ConfigError("budget t_max must cover the time grid")
        if "seed" in raw:
            seed = raw["seed"]
            if not _is_time(seed):
                raise ConfigError(f"seed must be a number, got {seed!r}")
            if not _is_count(seed):
                raise ConfigError(f"seed must be a nonnegative integer, "
                                  f"got {seed!r}")
            if seed >= 2**64:
                raise ConfigError("seed must fit in 64 bits")
        # object construction surfaces structural errors early; a value of
        # the wrong type or form is a config error, a well-formed model that
        # breaks a rule a model error
        try:
            n_sites = self.model().lattice.num_sites
            self.target().validate_on(self.lattice())
        except (ConfigError, ModelError):
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed model or target: {exc}") from None
        initial = budgets.get("initial")
        if initial is not None and not (
                isinstance(initial, list) and len(initial) == n_sites
                and all(_is_count(n) for n in initial)):
            raise ConfigError(f"budget initial must hold one nonnegative "
                              f"integer per site ({n_sites}), got {initial!r}")
        site = budgets.get("site")
        if site is not None and not (_is_count(site) and site < n_sites):
            raise ConfigError(f"budget site must be a site index below "
                              f"{n_sites}, got {site!r}")
        # the coupled start: eta from `initial` outside the target, and the
        # tagged particle added at `site`, outside the window, with room
        if kind == "couplings" and initial is not None and site is not None:
            target = self.target()
            cap = self.rates().max_site_occupancy
            if site in target.sites:
                raise ConfigError(f"budget site {site} lies inside the "
                                  "target window; the tagged particle must "
                                  "start outside it")
            if target.contains(initial):
                raise ConfigError("budget initial already lies inside the "
                                  "target")
            if cap is not None and max(initial) > cap:
                raise ConfigError(f"budget initial puts more than {cap} "
                                  "particle(s) on a site")
            if cap is not None and initial[site] >= cap:
                raise ConfigError(f"budget site {site} is full, so the "
                                  "tagged particle cannot be added there")

    # -- parsed views -------------------------------------------------------

    def lattice(self) -> Lattice:
        return lattice_from_dict(self.raw["model"]["lattice"])

    def kernel(self) -> JumpKernel:
        return kernel_from_dict(self.raw["model"]["kernel"])

    def rates(self) -> RateFunction:
        return rates_from_dict(self.raw["model"]["rates"])

    def model(self) -> Model:
        return Model(self.lattice(), self.kernel(), self.rates())

    def target(self) -> TargetSet:
        return target_from_dict(self.raw["target"])

    def state_constraint(self):
        """The `state_space` budget as a state-space constraint."""
        spec = self.budget("state_space")
        return STATE_SPACES[spec["kind"]](spec["value"])

    def measure(self) -> ProductMeasure:
        if "rho" not in self.raw:
            raise ConfigError("experiment needs a density rho")
        return ProductMeasure.at_density(float(self.raw["rho"]), self.rates())

    @property
    def experiment(self) -> str:
        return self.raw["experiment"]

    @property
    def seed(self) -> int:
        if "seed" not in self.raw:
            raise ConfigError("seed required (config field or --seed flag)")
        return int(self.raw["seed"])

    @property
    def budgets(self) -> dict:
        return self.raw.get("budgets", {})

    def budget(self, key: str):
        val = self.budgets.get(key)
        if val is None:
            raise ConfigError(f"budget {key} required for {self.experiment}")
        return val
