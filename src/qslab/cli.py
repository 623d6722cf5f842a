"""Reproducible experiment runner: config in, seeded run, artifacts out.

One binary with subcommands (run / compare / validate).  Every run writes a
manifest with the config hash and a content hash over the result files, so
byte-level reproducibility is a single string comparison.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import suppress
from dataclasses import asdict
from itertools import takewhile
from pathlib import Path

import numpy as np

from . import __version__, storage
from .config import ConfigError, ExperimentConfig
from .dynamics import WORK, second_class_escape, sigma_exit, survival_curve
from .estimators import FitError, exponentiality_report, fit_decay
from .measures import DensityError, FugacityError, increasing_suite, domination_test
from .model import ModelError, validate_model
from .phi import PhiUndefinedError, cesaro_mixture, phi_direct, phi_iterate
from .spectral import (FixedTotal, SolverError, StateSpaceError,
                       absorbing_core, build_killed_generator,
                       canonical_vector,
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
        model, target, cfg.budgets["t_grid"], cfg.budgets["n_traj"],
        cfg.seed, measure=cfg.measure(),
        t_max=cfg.budgets.get("t_max"), workers=workers)
    storage.save_survival_curve(curve, out / "curve.csv")
    fit = fit_decay(curve)
    report = fit.to_dict()
    report["censored_fraction"] = curve.censored_fraction
    storage.write_json(out / "decay_fit.json", report)
    expo = exponentiality_report(curve.taus[curve.hit], fit.lambda_hat)
    storage.write_json(out / "exponentiality.json", expo.to_dict())


def _run_oracle_check(cfg: ExperimentConfig, out: Path,
                      workers: int) -> None:
    model, target, measure = cfg.model(), cfg.target(), cfg.measure()
    rho = measure.rho
    t_grid = np.asarray(cfg.budgets["t_grid"], dtype=np.float64)
    if model.lattice.boundary == "blocked":
        curve = survival_curve(model, target, t_grid,
                               cfg.budgets["n_traj"], cfg.seed,
                               measure=measure, workers=workers)
        oracle = tasep_line_survival(rho, t_grid)
        err = np.abs(curve.estimate - oracle)
        table = np.column_stack([t_grid, curve.estimate, oracle, err,
                                 3.0 * curve.stderr()])
        rows = ["t,estimate,oracle,abs_err,three_sigma"] \
            + [",".join(map(repr, row)) for row in table.tolist()]
        (out / "oracle_table.csv").write_text("\n".join(rows) + "\n")
        fit = fit_decay(curve)
        storage.write_json(out / "summary.json", {
            "oracle": "half_line_closed_form",
            "sup_abs_err": float(err.max()),
            "lambda_hat": fit.lambda_hat,
            "lambda_hat_stderr": fit.stderr,
            "oracle_rate": rho,
            "truncation_bound": float((1.0 - rho)
                                      ** (model.lattice.num_sites + 1)),
        })
        return
    # ring: canonical fixed-count chain against the closed-form mixture
    oracle = cfg.ring_oracle()
    space = enumerate_states(model.lattice, FixedTotal(oracle.n_particles),
                             site_cap=1)
    kg = build_killed_generator(space, model, target)
    nu = canonical_vector(space, model.rates.g)[kg.ac_indices]
    exact = exact_survival(kg, nu, t_grid)
    closed = oracle.mixture_survival(t_grid)
    storage.write_json(out / "summary.json", {
        "oracle": "ring_closed_form",
        "max_two_method_gap": float(np.abs(exact - closed).max()),
        "lambda_ring": oracle.decay_rate,
        "half_line_rate_for_same_density": rho,
    })


def _run_phi_iterate(cfg: ExperimentConfig, out: Path,
                     workers: int) -> None:
    model, target = cfg.model(), cfg.target()
    ensembles, log = phi_iterate(
        model, target, cfg.measure(), cfg.budgets["iterations"],
        cfg.budgets["n_particles"], float(cfg.budgets["t_max"]), cfg.seed,
        probe_times=cfg.budgets.get("probe_times", ()), workers=workers)
    storage.save_iteration_log(log, out / "iterations.csv")
    storage.save_ensemble(ensembles[-1], out / "ensemble_final")
    storage.save_ensemble(cesaro_mixture(ensembles), out / "ensemble_cesaro")
    storage.write_json(out / "summary.json", {
        "e_tau_path": [r.e_tau for r in log],
        "censor_path": [r.censor_fraction for r in log],
    })


def _run_phi_direct(cfg: ExperimentConfig, out: Path,
                    workers: int) -> None:
    model, target = cfg.model(), cfg.target()
    ens, stats = phi_direct(
        model, target, cfg.measure(), cfg.budgets["order"],
        cfg.budgets["n_traj"], float(cfg.budgets["t_max"]), cfg.seed,
        workers=workers)
    storage.save_ensemble(ens, out / "ensemble")
    storage.write_json(out / "summary.json", {
        "order": cfg.budgets["order"],
        "site_means": list(map(float, ens.site_means())),
        "censored_fraction": stats.censor_fraction,
        "effective_sample_size": stats.ess,
    })


def _run_spectral(cfg: ExperimentConfig, out: Path,
                  workers: int) -> None:
    model, target, measure = cfg.model(), cfg.target(), cfg.measure()
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
        report["qsd_fixed_point"] = qsd_fixed_point_check(kgc, res.qsd)
        nu_full = product_vector(space, measure.marginal)
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
            ray = rayleigh_quotient(model, target, space, nu_full)
            report["rayleigh"] = {
                "lambda_s": ray.decay_rate,
                "classical_bound_margin": res.decay_rate - ray.decay_rate,
            }
    if skipped:
        report["skipped"] = skipped
    storage.write_json(out / "spectral.json", report)


def _run_domination(cfg: ExperimentConfig, out: Path,
                    workers: int) -> None:
    model, target = cfg.model(), cfg.target()
    measure = cfg.measure()
    ensembles, log = phi_iterate(
        model, target, measure, cfg.budgets["iterations"],
        cfg.budgets["n_particles"], float(cfg.budgets["t_max"]), cfg.seed,
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
    rep = sigma_exit(model, target, measure, cfg.budgets["kappas"],
                     cfg.budgets["n_traj"], cfg.seed)
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
        model, target, cfg.budgets["initial"], cfg.budgets["site"],
        cfg.budgets["t_grid"], cfg.budgets["n_traj"], cfg.seed)
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

def _remove_empty(dirs: list[Path]) -> None:
    """Remove each of `dirs`, deepest first, that is an empty directory:
    `rmdir` refuses any other path."""
    for path in dirs:
        with suppress(OSError):
            path.rmdir()


def run_experiment(cfg: ExperimentConfig, out_dir, workers: int = 1) -> Path:
    """Run `cfg` into `out_dir`, a new path or an empty directory (else a
    ConfigError before any work): the manifest hashes every file there."""
    out = Path(out_dir)
    made = []
    try:
        # `out` and each of its missing ancestors, deepest first: the
        # directories this run makes, and takes back if it fails
        made = list(takewhile(lambda p: not p.exists(), (out, *out.parents)))
        if not made and (not out.is_dir() or any(out.iterdir())):
            raise ConfigError(f"cannot use --out {out}: not a new path or "
                              "an empty directory")
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _remove_empty(made)
        raise ConfigError(f"cannot use --out {out}: {exc}") from None
    started = time.time()
    before = asdict(WORK)
    try:
        _DISPATCH[cfg.experiment](cfg, out, workers)
    except BaseException:
        _remove_empty(made)
        raise
    counters = {k: v - before[k] for k, v in asdict(WORK).items()}
    results = {path.name: storage.sha256_of_file(path)
               for path in sorted(out.iterdir())}
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


def _read_manifest(run_dir) -> dict:
    """The JSON object in the run's `manifest.json`; a ValueError when it
    holds another JSON value or its `results` is no JSON object."""
    path = Path(run_dir) / "manifest.json"
    manifest = storage.read_json(path)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} must hold a JSON object, "
                         f"got {type(manifest).__name__}")
    if not isinstance(manifest.get("results"), dict):
        raise ValueError(f"{path} must map results to digests, got "
                         f"{type(manifest.get('results')).__name__}")
    return manifest


def compare_runs(dir_a, dir_b) -> dict:
    man_a, man_b = _read_manifest(dir_a), _read_manifest(dir_b)
    if man_a["experiment"] != man_b["experiment"]:
        raise ValueError(
            f"incompatible experiment kinds: {man_a['experiment']} "
            f"vs {man_b['experiment']}")
    diffs = {name: [{"note": "missing in a"}] for name in man_b["results"]
             if name not in man_a["results"]}
    for name, digest in man_a["results"].items():
        other = man_b["results"].get(name)
        if other is None:
            diffs[name] = [{"note": "missing in b"}]
        elif digest != other and name.endswith(".json"):
            diffs[name] = _diff_numeric(
                storage.read_json(Path(dir_a) / name),
                storage.read_json(Path(dir_b) / name))
        elif digest != other:
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
        except ConfigError as exc:
            print(f"config invalid: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except ModelError as exc:
            print(f"model invalid: {exc}", file=sys.stderr)
            return EXIT_MODEL
        print(storage.canonical_json(report.to_dict()))
        return EXIT_OK if report.ok else EXIT_MODEL

    if args.command == "compare":
        try:
            text = storage.canonical_json(compare_runs(args.run_a,
                                                       args.run_b))
            if args.out:
                Path(args.out).write_text(text + "\n")
        except (OSError, KeyError, ValueError) as exc:
            print(f"compare failed: {exc}", file=sys.stderr)
            return EXIT_COMPARE
        print(text)
        return EXIT_OK

    # run
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got "
                              f"{args.workers}")
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
    except ConfigError as exc:
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
