"""Structured experiment configuration: dict schema <-> model objects.

The canonical form is the JSON dict, a JSON object with the fields
`experiment`, `model` (`lattice`, `kernel`, `rates`), `target`, `rho`,
`seed` and `budgets`; objects are built on demand so a loaded config
round-trips byte-for-byte.  `KINDS` names what each experiment kind reads,
and `ExperimentConfig.validate` checks all of it before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import coupled_start
from .measures import ProductMeasure
from .model import (EXCLUSION, MISANTHROPE, ZERO_RANGE, JumpKernel, Lattice,
                    Model, ModelError, RateFunction, TargetSet, g_capped,
                    g_constant, g_from_table, g_identity)
from .spectral import FixedTotal, MaxTotal, TasepCircleOracle


class Kind(NamedTuple):
    needs: tuple[str, ...]       # budgets a run of the kind cannot miss
    takes: tuple[str, ...] = ()  # budgets it may take besides
    rho: bool = True             # whether it reads the density rho


# every experiment kind by name
KINDS = {
    "survival": Kind(("t_grid", "n_traj"), ("t_max",)),
    "oracle-check": Kind(("t_grid",)),
    "phi-iterate": Kind(("iterations", "n_particles", "t_max"),
                        ("probe_times",)),
    "phi-direct": Kind(("order", "n_traj", "t_max")),
    "spectral": Kind(("state_space",), ("t_grid",)),
    "domination": Kind(("iterations", "n_particles", "t_max")),
    "sigma-exit": Kind(("kappas", "n_traj")),
    "couplings": Kind(("initial", "site", "t_grid", "n_traj"), rho=False),
}
# state-space constraint of a `spectral` run by its `kind` name
STATE_SPACES = {"fixed_total": FixedTotal, "max_total": MaxTotal}


class ConfigError(ValueError):
    """Malformed experiment configuration."""


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ConfigError(f"missing {ctx}.{key}")
    return mapping[key]


def _number(value, what: str) -> float:
    """`float(value)`, a ConfigError when it is no number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _is_integer(value) -> bool:
    """Whether `value` is an integer (a bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    """Whether `value` is a nonnegative integer (a bool is not)."""
    return _is_integer(value) and value >= 0


def _integers(values, what: str) -> np.ndarray:
    """`values` (a list, or nested lists) as an integer array; a ConfigError
    when an entry is not an integer, so nothing is truncated."""
    array = np.asarray(values, dtype=object)
    if not all(_is_integer(v) for v in array.flat):
        raise ConfigError(f"{what} must be integers, got {values!r}")
    return array.astype(np.int64)


def _finite(values, what: str) -> np.ndarray:
    """`values` as a float array; a ConfigError when an entry is NaN or
    infinite, which a JSON reader accepts but no rate can be."""
    array = np.asarray(values, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ConfigError(f"{what} must be finite, got {values!r}")
    return array


def _is_time(value) -> bool:
    """Whether `value` is a finite real number (a bool is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def g_from_spec(spec: dict):
    kind = _require(spec, "kind", "rates.g")
    if kind == "identity":
        return g_identity, None
    if kind == "constant":
        return g_constant, 1.0
    if kind == "capped":
        cap = _require(spec, "cap", "rates.g")
        if not _is_count(cap):
            raise ConfigError(f"rates.g cap must be a nonnegative integer, "
                              f"got {cap!r}")
        return g_capped(cap), float(cap)
    if kind == "table":
        values = _finite(_require(spec, "values", "rates.g"), "g values")
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
            table = _finite(_require(b_spec, "values", "rates.b"),
                            "b values")

            def b(n, m):
                return float(table[min(n, table.shape[0] - 1),
                                   min(m, table.shape[1] - 1)])
        else:
            raise ConfigError(f"unknown b kind {b_kind!r}")
        return RateFunction.misanthrope(b, g, g_sup)
    raise ConfigError(f"unknown rate family {family!r}")


def lattice_from_dict(spec: dict) -> Lattice:
    extent = _integers(_require(spec, "extent", "lattice"), "lattice extent")
    return Lattice(tuple(extent.tolist()), spec.get("boundary", "torus"))


def kernel_from_dict(spec: dict) -> JumpKernel:
    return JumpKernel(_integers(_require(spec, "offsets", "kernel"),
                                "kernel offsets"),
                      _finite(_require(spec, "weights", "kernel"),
                              "kernel weights"))


def target_from_dict(spec: dict) -> TargetSet:
    threshold = _require(spec, "threshold", "target")
    if not _is_count(threshold):
        raise ConfigError(f"target threshold must be a nonnegative integer, "
                          f"got {threshold!r}")
    return TargetSet(_integers(_require(spec, "sites", "target"),
                               "target sites"), threshold)


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
        """Check every rule a run reads, so that a run which starts finds
        all it needs (`KINDS` names what each kind reads)."""
        raw = self.raw
        kind = _require(raw, "experiment", "config")
        if kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        model_spec = _require(raw, "model", "config")
        for key in ("lattice", "kernel", "rates"):
            _require(model_spec, key, "model")
        _require(raw, "target", "config")  # every experiment kind reads it
        rho = raw.get("rho")
        if rho is None and KINDS[kind].rho:
            raise ConfigError(f"experiment {kind} needs a density rho")
        if rho is not None and not (_is_time(rho) and rho >= 0):
            raise ConfigError(f"density rho must be a number >= 0, "
                              f"got {rho!r}")
        budgets = raw.get("budgets", {})
        if not isinstance(budgets, dict):
            raise ConfigError(f"budgets must be a mapping, got {budgets!r}")
        for key, value in budgets.items():
            if key in ("n_traj", "n_particles", "iterations", "order",
                       "t_max"):
                if _number(value, f"budget {key}") <= 0:
                    raise ConfigError(f"budget {key} must be positive")
                if key != "t_max" and not _is_count(value):
                    raise ConfigError(f"budget {key} must be an integer, "
                                      f"got {value!r}")
                if not _is_time(value):
                    raise ConfigError(f"budget {key} must be a number, "
                                      f"got {value!r}")
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
                    and all(_is_time(t) and t >= 0 for t in value)):
                raise ConfigError(f"budget {key} must be a list of times, "
                                  f"none negative, got {value!r}")
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
            model, target = self.model(), self.target()
            target.mask(model.lattice.num_sites)
        except (ConfigError, ModelError):
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed model or target: {exc}") from None
        blocked = model.lattice.boundary == "blocked"
        needs = KINDS[kind].needs
        if kind == "oracle-check" and blocked:  # Monte Carlo on the line
            needs += ("n_traj",)
        for key in needs:
            if key not in budgets:
                raise ConfigError(f"budget {key} required for {kind}")
        for key in budgets:
            if key not in needs + KINDS[kind].takes:
                raise ConfigError(f"budget {key} is not read by {kind}")
        if kind == "survival" and "t_max" in budgets \
                and budgets["t_max"] < max(budgets["t_grid"]):
            raise ConfigError("budget t_max must cover the time grid")
        # the gap's standard error is a sample deviation (ddof=1), which
        # one coupling leaves undefined
        if kind == "couplings" and budgets["n_traj"] < 2:
            raise ConfigError("budget n_traj must be at least 2 for "
                              "couplings: the gap's standard error needs "
                              "two couplings")
        try:  # the closed forms of the ring, and the coupled start
            if kind == "oracle-check" and not blocked:
                self.ring_oracle()
            if kind == "couplings":
                coupled_start(model, target, budgets["initial"],
                              budgets["site"])
        except ValueError as exc:
            raise ConfigError(f"{kind}: {exc}") from None

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
        spec = self.budgets["state_space"]
        return STATE_SPACES[spec["kind"]](spec["value"])

    def ring_oracle(self) -> TasepCircleOracle:
        """Closed forms of an `oracle-check` ring: round(rho N) particles."""
        n_sites = self.lattice().num_sites
        return TasepCircleOracle(n_sites,
                                 int(round(float(self.raw["rho"]) * n_sites)))

    def measure(self) -> ProductMeasure:
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
