"""Reproducible experiment runner: config in, seeded run, artifacts out.

One binary with subcommands (run / compare / validate).  Every run writes a
manifest with the config hash and a content hash over the result files, so
byte-level reproducibility is a single string comparison.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, storage
from .config import ConfigError, ExperimentConfig
from .dynamics import WORK, second_class_escape, sigma_exit, survival_curve
from .estimators import FitError, SurvivalCurve, exponentiality_report, fit_decay
from .measures import DensityError, FugacityError, increasing_suite, domination_test
from .model import ModelError, validate_model
from .phi import PhiUndefinedError, cesaro_mixture, phi_direct, phi_iterate
from .spectral import (FixedTotal, SolverError, StateSpaceError,
                       TasepCircleOracle, absorbing_core,
                       build_killed_generator, canonical_vector,
                       enumerate_states, exact_survival, hitting_sandwich_check,
                       normalize_density, principal_decay, product_vector,
                       qsd_fixed_point_check, rayleigh_quotient,
                       restrict_to_core, tasep_line_survival)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_RUNTIME = 4
EXIT_COMPARE = 5


# ---------------------------------------------------------------------------
# experiment dispatchers (each writes its result files into `out`; the
# simulation work they do adds to `dynamics.WORK`)
# ---------------------------------------------------------------------------

def _run_survival(cfg: ExperimentConfig, out: Path,
                  workers: int) -> None:
    model, target = cfg.model(), cfg.target()
    curve = survival_curve(
        model, target, cfg.budget("t_grid"), int(cfg.budget("n_traj")),
        cfg.seed, measure=cfg.measure(),
        t_max=cfg.budgets.get("t_max"), workers=workers)
    storage.save_survival_curve(curve, out / "curve.csv")
    fit = fit_decay(curve, seed=cfg.seed)
    report = fit.to_dict()
    report["censored_fraction"] = curve.censored_fraction
    storage.write_json(out / "decay_fit.json", report)
    expo = exponentiality_report(curve.taus[curve.hit], fit.lambda_hat,
                                 seed=cfg.seed)
    storage.write_json(out / "exponentiality.json", expo.to_dict())


def _run_oracle_check(cfg: ExperimentConfig, out: Path,
                      workers: int) -> None:
    model, target, measure = cfg.model(), cfg.target(), cfg.measure()
    rho = measure.rho
    t_grid = np.asarray(cfg.budget("t_grid"), dtype=np.float64)
    if model.lattice.boundary == "blocked":
        curve = survival_curve(model, target, t_grid,
                               int(cfg.budget("n_traj")), cfg.seed,
                               measure=measure, workers=workers)
        oracle = tasep_line_survival(rho, t_grid)
        rows = ["t,estimate,oracle,abs_err,three_sigma"]
        se = curve.stderr()
        for k in range(t_grid.size):
            rows.append(",".join(repr(float(v)) for v in (
                t_grid[k], curve.estimate[k], oracle[k],
                abs(curve.estimate[k] - oracle[k]), 3.0 * se[k])))
        (out / "oracle_table.csv").write_text("\n".join(rows) + "\n")
        fit = fit_decay(curve, seed=cfg.seed)
        storage.write_json(out / "summary.json", {
            "oracle": "half_line_closed_form",
            "sup_abs_err": float(np.abs(curve.estimate - oracle).max()),
            "lambda_hat": fit.lambda_hat,
            "lambda_hat_stderr": fit.stderr,
            "oracle_rate": rho,
            "truncation_bound": float((1.0 - rho)
                                      ** (model.lattice.num_sites + 1)),
        })
        return
    # ring: canonical fixed-count chain against the closed-form mixture
    n_sites = model.lattice.num_sites
    n_particles = int(round(rho * n_sites))
    try:
        oracle = TasepCircleOracle(n_sites, n_particles)
    except ValueError as exc:
        raise ConfigError(f"density rho = {rho} on the {n_sites}-site ring: "
                          f"{exc}") from None
    space = enumerate_states(model.lattice, FixedTotal(n_particles),
                             site_cap=1)
    kg = build_killed_generator(space, model, target)
    nu = canonical_vector(space, model.rates.g)[kg.ac_indices]
    exact = exact_survival(kg, nu, t_grid)
    closed = oracle.mixture_survival(t_grid)
    fit_ts = np.linspace(1e7, 2e7, 9)
    fit = fit_decay(SurvivalCurve.from_log(
        fit_ts, oracle.log_mixture_survival(fit_ts)))
    storage.write_json(out / "summary.json", {
        "oracle": "ring_closed_form",
        "max_two_method_gap": float(np.abs(exact - closed).max()),
        "lambda_ring_fit": fit.lambda_hat,
        "lambda_ring": oracle.decay_rate,
        "half_line_rate_for_same_density": rho,
    })


def _run_phi_iterate(cfg: ExperimentConfig, out: Path,
                     workers: int) -> None:
    model, target = cfg.model(), cfg.target()
    ensembles, log = phi_iterate(
        model, target, cfg.measure(), int(cfg.budget("iterations")),
        int(cfg.budget("n_particles")), float(cfg.budget("t_max")), cfg.seed,
        probe_times=cfg.budgets.get("probe_times", ()), workers=workers)
    storage.save_iteration_log(log, out / "iterations.csv")
    storage.save_ensemble(ensembles[-1], out / "ensemble_final")
    storage.save_ensemble(cesaro_mixture(ensembles), out / "ensemble_cesaro")
    storage.write_json(out / "summary.json", {
        "e_tau_path": [r.e_tau for r in log.rows],
        "censor_path": [r.censor_fraction for r in log.rows],
    })


def _run_phi_direct(cfg: ExperimentConfig, out: Path,
                    workers: int) -> None:
    model, target = cfg.model(), cfg.target()
    ens, stats = phi_direct(
        model, target, cfg.measure(), int(cfg.budget("order")),
        int(cfg.budget("n_traj")), float(cfg.budget("t_max")), cfg.seed,
        workers=workers)
    storage.save_ensemble(ens, out / "ensemble")
    storage.write_json(out / "summary.json", {
        "order": int(cfg.budget("order")),
        "site_means": list(map(float, ens.site_means())),
        "censored_fraction": stats.censor_fraction,
        "effective_sample_size": stats.ess,
    })


def _run_spectral(cfg: ExperimentConfig, out: Path,
                  workers: int) -> None:
    model, target = cfg.model(), cfg.target()
    space = enumerate_states(model.lattice, cfg.state_constraint(),
                             site_cap=model.rates.max_site_occupancy)
    kg = build_killed_generator(space, model, target)
    storage.save_matrix(kg.matrix, out / "killed_generator.mtx")
    core_mask = absorbing_core(kg)
    kgc = restrict_to_core(kg, core_mask)
    res = principal_decay(kgc)
    report = {"schema_version": 1, "states": space.size, "surviving": kg.dim,
              "core": int(core_mask.sum())}
    report["principal"] = res.to_dict()
    skipped = {}
    if res.qsd is None:
        for section in ("qsd_fixed_point", "sandwich", "rayleigh"):
            skipped[section] = ("defective spectrum: the decay rate is a "
                                "survival fit, with no Perron vectors")
    else:
        report["qsd_fixed_point"] = {
            k: v for k, v in qsd_fixed_point_check(kgc, res.qsd).items()
            if k != "generator_residuals"}
        nu_full = product_vector(space, cfg.measure().marginal)
        nu_core = nu_full[kgc.ac_indices]
        n_zero = int(np.count_nonzero(nu_core <= 0))
        if n_zero:
            for section in ("sandwich", "rayleigh"):
                skipped[section] = (f"{n_zero} core states have zero "
                                    "product-measure weight")
        else:
            f = normalize_density(res.qsd / nu_core, nu_core)
            g = normalize_density(res.right_vector, nu_core)
            sandwich = hitting_sandwich_check(
                kgc, nu_core, f, g, res.decay_rate,
                cfg.budgets.get("t_grid", (0.5, 1.0, 2.0, 4.0, 8.0)))
            report["sandwich"] = {
                "holds": sandwich.holds(),
                "entropy": sandwich.entropy,
                "fg_mass": sandwich.fg_mass,
            }
            ray = rayleigh_quotient(model, target, space, nu_full,
                                    lambda_asymmetric=res.decay_rate)
            report["rayleigh"] = {
                "lambda_s": ray.lambda_s,
                "classical_bound_margin": ray.classical_bound_margin,
            }
    if skipped:
        report["skipped"] = skipped
    storage.write_json(out / "spectral.json", report)


def _run_domination(cfg: ExperimentConfig, out: Path,
                    workers: int) -> None:
    model, target = cfg.model(), cfg.target()
    measure = cfg.measure()
    ensembles, log = phi_iterate(
        model, target, measure, int(cfg.budget("iterations")),
        int(cfg.budget("n_particles")), float(cfg.budget("t_max")), cfg.seed,
        workers=workers)
    suite = increasing_suite(measure, model.lattice, target, model.kernel)
    rows = []
    for label, ens in [(f"iterate_{i+1}", e) for i, e in enumerate(ensembles)] \
            + [("cesaro", cesaro_mixture(ensembles))]:
        for row in domination_test(ens, measure, suite):
            rows.append({
                "ensemble": label, "function": row.name,
                "ensemble_mean": row.ensemble_mean,
                "reference_mean": row.reference_mean,
                "excess_sigmas": row.excess_sigmas,
            })
    worst = max(r["excess_sigmas"] for r in rows)
    storage.write_json(out / "domination.json", {
        "schema_version": 1, "rows": rows, "worst_excess_sigmas": worst,
        "passed_at_3_sigma": bool(worst <= 3.0)})


def _run_sigma_exit(cfg: ExperimentConfig, out: Path,
                    workers: int) -> None:
    model, target, measure = cfg.model(), cfg.target(), cfg.measure()
    rep = sigma_exit(model, target, measure, cfg.budget("kappas"),
                     int(cfg.budget("n_traj")), cfg.seed)
    columns = (rep.kappas, rep.estimate, rep.stderr, rep.lower_bound,
               rep.passed())
    reports = [{"kappa": k, "estimate": p, "stderr": se, "lower_bound": b,
                "passed_at_3_sigma": ok} for k, p, se, b, ok
               in zip(*(c.tolist() for c in columns))]
    storage.write_json(out / "sigma_exit.json",
                       {"schema_version": 1, "reports": reports})


def _run_couplings(cfg: ExperimentConfig, out: Path,
                   workers: int) -> None:
    model, target = cfg.model(), cfg.target()
    rep = second_class_escape(
        model, target, cfg.budget("initial"), cfg.budget("site"),
        cfg.budget("t_grid"), int(cfg.budget("n_traj")), cfg.seed)
    storage.write_json(out / "couplings.json", {
        "schema_version": 1,
        "t_grid": list(map(float, rep.t_grid)),
        "gap": list(map(float, rep.gap)),
        "gap_stderr": list(map(float, rep.gap_stderr)),
        "survival": list(map(float, rep.survival_eta)),
        "walk_hit_probability": rep.walk_hit_probability,
        "epsilon_bound": rep.epsilon_bound,
        "order_violations": rep.order_violations,
        "bound_ok_at_3_sigma": rep.bound_ok(),
    })


_DISPATCH = {
    "survival": _run_survival,
    "oracle-check": _run_oracle_check,
    "phi-iterate": _run_phi_iterate,
    "phi-direct": _run_phi_direct,
    "spectral": _run_spectral,
    "domination": _run_domination,
    "sigma-exit": _run_sigma_exit,
    "couplings": _run_couplings,
}


# ---------------------------------------------------------------------------
# run / compare / validate
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out_dir, workers: int = 1) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    before = asdict(WORK)
    _DISPATCH[cfg.experiment](cfg, out, workers)
    counters = {k: v - before[k] for k, v in asdict(WORK).items()}
    results = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json" or not path.is_file():
            continue
        results[path.name] = storage.sha256_of_file(path)
    manifest = {
        "schema_version": 1,
        "experiment": cfg.experiment,
        "config": cfg.raw,
        "config_hash": storage.sha256_of_text(storage.canonical_json(cfg.raw)),
        "seed": cfg.seed,
        "version": __version__,
        "workers": workers,
        "results": results,
        "results_hash": storage.sha256_of_text(
            storage.canonical_json(results)),
        "wall_time_s": time.time() - started,
        "telemetry": {"counters": counters},
    }
    storage.write_json(out / "manifest.json", manifest)
    return out


def _diff_numeric(a, b, prefix=""):
    diffs = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in a and key in b:
                diffs += _diff_numeric(a[key], b[key], f"{prefix}{key}.")
            else:
                diffs.append({"field": prefix + key, "note": "only one side"})
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            diffs += _diff_numeric(x, y, f"{prefix}{i}.")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a != b:
            diffs.append({"field": prefix.rstrip("."), "a": a, "b": b,
                          "diff": float(b) - float(a)})
    elif a != b:
        diffs.append({"field": prefix.rstrip("."), "a": str(a), "b": str(b)})
    return diffs


def compare_runs(dir_a, dir_b) -> dict:
    man_a = storage.read_json(Path(dir_a) / "manifest.json")
    man_b = storage.read_json(Path(dir_b) / "manifest.json")
    if man_a["experiment"] != man_b["experiment"]:
        raise ValueError(
            f"incompatible experiment kinds: {man_a['experiment']} "
            f"vs {man_b['experiment']}")
    diffs = {}
    for name, digest in man_a["results"].items():
        other = man_b["results"].get(name)
        if other is None:
            diffs[name] = [{"note": "missing in b"}]
            continue
        if digest == other:
            continue
        if name.endswith(".json"):
            diffs[name] = _diff_numeric(
                storage.read_json(Path(dir_a) / name),
                storage.read_json(Path(dir_b) / name))
        else:
            diffs[name] = [{"note": "content differs"}]
    return {
        "identical": not diffs
        and man_a["results_hash"] == man_b["results_hash"],
        "experiment": man_a["experiment"],
        "diffs": diffs,
    }


def _read_config(path) -> dict:
    """The JSON object in the config file at `path`; a ConfigError when the
    file cannot be read, is not JSON or holds another JSON value."""
    try:
        raw = storage.read_json(path)
    except (OSError, ValueError) as exc:  # decoding errors are ValueErrors
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must hold a JSON object, "
                          f"got {type(raw).__name__}")
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qslab",
        description="lattice-gas killed-dynamics experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--out", required=True)

    p_cmp = sub.add_parser("compare", help="diff two run directories")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    p_cmp.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="check a config and its model")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            cfg = ExperimentConfig.from_dict(_read_config(args.config))
            report = validate_model(cfg.lattice(), cfg.kernel(), cfg.rates())
        except (ConfigError, ModelError) as exc:
            print(f"config invalid: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(storage.canonical_json(report.to_dict()))
        return EXIT_OK if report.ok else EXIT_MODEL

    if args.command == "compare":
        try:
            result = compare_runs(args.run_a, args.run_b)
        except (FileNotFoundError, KeyError, ValueError) as exc:
            print(f"compare failed: {exc}", file=sys.stderr)
            return EXIT_COMPARE
        text = storage.canonical_json(result)
        if args.out:
            Path(args.out).write_text(text + "\n")
        print(text)
        return EXIT_OK

    # run
    if args.workers < 1:
        print(f"config invalid: --workers must be at least 1, got "
              f"{args.workers}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        raw = _read_config(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = ExperimentConfig.from_dict(raw)
        cfg.seed  # force the seed requirement before any work
    except ConfigError as exc:
        print(f"config invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ModelError, DensityError, FugacityError) as exc:
        print(f"model invalid: {exc}", file=sys.stderr)
        return EXIT_MODEL
    try:
        out = run_experiment(cfg, args.out, workers=args.workers)
    except ConfigError as exc:  # a budget or field the experiment needs
        print(f"config invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ModelError, DensityError, FugacityError, StateSpaceError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (PhiUndefinedError, SolverError, FitError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {out / 'manifest.json'}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
