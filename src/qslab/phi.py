"""The occupation-measure map and its iterates.

The map sends a law mu on the survivor set to the normalized expected
occupation measure before the hitting time: sampling initial states from mu,
running each to its hitting time and weighting every visited state by its
holding duration gives an unbiased estimator, because for bounded phi the
weighted pool average estimates E[int_0^tau phi(eta_t) dt] / E[tau].

Weighting by duration is essential: drawing a uniform time on [0, tau] and
keeping that single state would estimate a tau-biased average instead (the
1/tau factor does not cancel), and a regression test keeps that mistake out.

The n-th iterate admits a single-pass estimator: a sojourn on [a, b) of a
trajectory started from the base law enters the n-th iterate with weight
(b^n - a^n) / n, accumulated in log space so large n cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp

from . import rng as rngmod
from .dynamics import BatchResult, WorkCounts, replay, run_batch
from .measures import (ProductMeasure, WeightedEnsemble, systematic_resample)
from .model import Model, TargetSet

CENSOR_FRACTION_LIMIT = 0.01
ESCALATION_FACTOR = 2.0
DEFAULT_ESCALATIONS = 6


class PhiUndefinedError(RuntimeError):
    """The occupation map could not be estimated (everything censored)."""


@dataclass
class SojournPool:
    """Harvested (state, log-weight) pairs from killed trajectories."""

    occupancies: np.ndarray
    log_weights: np.ndarray
    source_iteration: int
    n_trajectories: int
    censor_fraction: float

    @property
    def total_weight(self) -> float:
        return float(np.exp(logsumexp(self.log_weights)))

    def ensemble(self) -> WeightedEnsemble:
        w = np.exp(self.log_weights - self.log_weights.max())
        return WeightedEnsemble(self.occupancies, w, self.censor_fraction)


@dataclass
class PhiStats:
    e_tau: float
    e_tau_stderr: float
    censor_fraction: float
    ess: float
    t_max_used: float
    n_particles: int
    work: WorkCounts
    probes: dict[float, float] = field(default_factory=dict)


@dataclass
class PhiIterationLog:
    rows: list[PhiStats] = field(default_factory=list)

    def e_tau_sequence(self) -> np.ndarray:
        return np.array([r.e_tau for r in self.rows])

    def work(self) -> WorkCounts:
        return sum((r.work for r in self.rows), WorkCounts())


def _simulate_to_hits(model: Model, target: TargetSet, initials, measure,
                      n_traj: int, t_max: float, seed: int, base_index: int,
                      workers: int, max_escalations: int
                      ) -> tuple[BatchResult, WorkCounts]:
    """Run the batch, doubling the horizon while more than the documented
    limit of the mortal starts is censored; returns the last batch and the
    work of every run.

    A trajectory owns its stream, so a hit keeps its hit time at any longer
    horizon: each doubling reruns only the censored mortal starts, on their
    own stream indices, and splices them back by index, which gives the
    batch a rerun of every start would.  Immortal starts stay censored at
    every horizon, so they take no part in the decision; with no mortal
    start there is nothing to wait for.  A mortal start may still be unable
    to reach the window (a blocked box whose drift points away from it), so
    escalation also stops once the mortal censored fraction no longer
    improves."""
    horizon = t_max
    batch = run_batch(model, target, n_traj, horizon, seed,
                      measure=measure, initials=initials,
                      record_events=True, workers=workers,
                      base_index=base_index)
    work = batch.work()
    for _ in range(max_escalations):
        if batch.mortal_censored_fraction <= CENSOR_FRACTION_LIMIT:
            break
        horizon *= ESCALATION_FACTOR
        rerun = np.flatnonzero(~batch.hit & ~batch.immortal)
        longer = run_batch(model, target, rerun.size, horizon, seed,
                           measure=measure, initials=initials,
                           record_events=True, workers=workers,
                           base_index=base_index, indices=rerun)
        work += longer.work() + WorkCounts(escalations=1)
        before = batch.mortal_censored_fraction
        batch = batch.extended(rerun, longer)
        if before - batch.mortal_censored_fraction \
                < 0.1 * batch.mortal_censored_fraction:
            break
    return batch, work


def _harvest(batch: BatchResult, iteration: int,
             sojourn_log_weight: Callable[[np.ndarray, np.ndarray], np.ndarray]
             ) -> SojournPool:
    """Replay uncensored trajectories and weight every survivor-set sojourn;
    censored trajectories are excluded and reported via the censor fraction.

    A hit with no event started inside the target (tau = 0, no occupation).
    The others are replayed together: their events laid end to end give
    every visited state in one pass (`replay`); the state entered by the
    last event lies in the target and is dropped."""
    used = np.flatnonzero(batch.hit & (batch.n_events > 0))
    if used.size == 0:
        raise PhiUndefinedError(
            f"no usable trajectory: censored fraction "
            f"{batch.censored_fraction:.3f} at horizon {batch.t_max}; raise "
            "t_max or the trajectory budget")
    counts = batch.n_events[used]
    ends, srcs, dsts = (np.concatenate(part) for part in
                        zip(*(batch.events[i] for i in used)))
    states = replay(batch.initials[used], counts, srcs, dsts)
    last = np.cumsum(counts + 1) - 1
    inside = np.ones(states.shape[0], dtype=bool)
    inside[last] = False
    starts = np.empty_like(ends)
    starts[1:] = ends[:-1]
    starts[np.cumsum(counts) - counts] = 0.0
    return SojournPool(states[inside], sojourn_log_weight(starts, ends),
                       iteration, batch.n, batch.censored_fraction)


def _duration_log_weight(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    return np.log(ends - starts)


def _power_log_weight(n: int):
    def logw(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        # int_a^b u^{n-1} du = (b^n - a^n) / n, in log space
        logb = np.log(ends)
        with np.errstate(divide="ignore"):
            ratio = np.where(ends > 0, (starts / ends) ** n, 0.0)
        return n * logb + np.log1p(-ratio) - math.log(n)
    return logw


def _batch_stats(batch: BatchResult, work: WorkCounts, ess: float,
                 probe_times: Sequence[float],
                 n_particles: int) -> PhiStats:
    taus = batch.taus[batch.hit]
    e_tau = float(taus.mean()) if taus.size else float("nan")
    se = float(taus.std(ddof=1) / math.sqrt(taus.size)) if taus.size > 1 else 0.0
    probes = {}
    for s in probe_times:
        alive = (batch.taus > s) | ~batch.hit
        probes[float(s)] = float(alive.mean())
    return PhiStats(e_tau, se, batch.censored_fraction, ess,
                    batch.t_max, n_particles, work, probes)


def phi_apply(input_ensemble: WeightedEnsemble | None, model: Model,
              target: TargetSet, n_particles: int, t_max: float, seed: int,
              *, measure: ProductMeasure | None = None, iteration: int = 0,
              probe_times: Sequence[float] = (), workers: int = 1,
              max_escalations: int = DEFAULT_ESCALATIONS
              ) -> tuple[WeightedEnsemble, PhiStats]:
    """One application of the occupation map to a weighted ensemble (or to
    the base product law `measure`): harvest duration-weighted sojourns, then
    reduce to n_particles equally weighted atoms by systematic resampling."""
    if (input_ensemble is None) == (measure is None):
        raise ValueError("pass exactly one of input_ensemble/measure")
    initials = None
    if input_ensemble is not None:
        draw = rngmod.stream(seed, rngmod.RESAMPLE, 2 * iteration)
        idx = systematic_resample(input_ensemble.weights, n_particles, draw)
        initials = input_ensemble.occupancies[idx]
    batch, work = _simulate_to_hits(model, target, initials, measure,
                                    n_particles, t_max, seed,
                                    iteration * n_particles, workers,
                                    max_escalations)
    pool = _harvest(batch, iteration, _duration_log_weight)
    pool_ensemble = pool.ensemble()
    reduce_gen = rngmod.stream(seed, rngmod.RESAMPLE, 2 * iteration + 1)
    keep = systematic_resample(pool_ensemble.weights, n_particles, reduce_gen)
    resampled = WeightedEnsemble(pool.occupancies[keep],
                                 np.ones(n_particles),
                                 pool.censor_fraction)
    stats = _batch_stats(batch, work, pool_ensemble.effective_sample_size(),
                         probe_times, n_particles)
    return resampled, stats


def phi_iterate(model: Model, target: TargetSet, measure: ProductMeasure,
                n_iterations: int, n_particles: int, t_max: float, seed: int,
                *, probe_times: Sequence[float] = (), workers: int = 1
                ) -> tuple[list[WeightedEnsemble], PhiIterationLog]:
    """Iterate the occupation map starting from fresh product-measure samples;
    the log tracks the hitting-time mean (approaching the inverse decay rate)
    and survival probes per iteration."""
    log = PhiIterationLog()
    ensembles: list[WeightedEnsemble] = []
    current: WeightedEnsemble | None = None
    for it in range(n_iterations):
        if it == 0:
            ens, stats = phi_apply(
                None, model, target, n_particles, t_max, seed,
                measure=measure, iteration=it, probe_times=probe_times,
                workers=workers)
        else:
            ens, stats = phi_apply(
                current, model, target, n_particles, t_max, seed,
                iteration=it, probe_times=probe_times, workers=workers)
        ensembles.append(ens)
        log.rows.append(stats)
        current = ens
    return ensembles, log


def phi_direct(model: Model, target: TargetSet, measure: ProductMeasure,
               n: int, n_traj: int, t_max: float, seed: int, *,
               workers: int = 1, base_index: int = 0,
               max_escalations: int = DEFAULT_ESCALATIONS
               ) -> tuple[WeightedEnsemble, PhiStats]:
    """Single-pass estimator of the n-th iterate from the base product law:
    each survivor-set sojourn enters with the power-integral weight."""
    if n < 1:
        raise ValueError("iterate order must be >= 1")
    batch, work = _simulate_to_hits(model, target, None, measure, n_traj,
                                    t_max, seed, base_index, workers,
                                    max_escalations)
    pool = _harvest(batch, n, _power_log_weight(n))
    ens = pool.ensemble()
    stats = _batch_stats(batch, work, ens.effective_sample_size(), (), n_traj)
    return ens, stats


def cesaro_mixture(ensembles: Sequence[WeightedEnsemble]) -> WeightedEnsemble:
    """Equal-weight mixture of iterate ensembles (deterministic merge)."""
    if not ensembles:
        raise ValueError("nothing to mix")
    occ = np.vstack([e.occupancies for e in ensembles])
    w = np.concatenate([e.weights / (e.normalization * len(ensembles))
                        for e in ensembles])
    frac = float(np.mean([e.censor_fraction for e in ensembles]))
    return WeightedEnsemble(occ, w, frac)


# ---------------------------------------------------------------------------
# moment ratios
# ---------------------------------------------------------------------------

@dataclass
class MomentRatio:
    order: int
    estimate: float
    ci: tuple[float, float]
    effective_samples: float
    unstable: bool
    n_excluded_censored: int


def tau_moment_ratio(taus: np.ndarray, n: int, *, hit: np.ndarray | None = None,
                     n_boot: int = 200, seed: int = 0,
                     ess_floor: float = 20.0) -> MomentRatio:
    """Estimate the hitting-time mean under the n-th iterate through the
    moment-ratio identity E[tau^{n+1}] / ((n+1) E[tau^n]), in log space with
    a bootstrap interval; censored samples are excluded with a count."""
    if n < 1:
        raise ValueError("moment-ratio order must be >= 1")
    taus = np.asarray(taus, dtype=np.float64)
    excluded = 0
    if hit is not None:
        excluded = int((~hit).sum())
        taus = taus[np.asarray(hit, dtype=bool)]
    if taus.size == 0:
        raise PhiUndefinedError("no uncensored hitting times")
    pos = taus[taus > 0]
    if pos.size == 0:
        raise PhiUndefinedError("all hitting times are zero")
    logt = np.log(pos)

    def log_ratio(lt: np.ndarray) -> float:
        return float(logsumexp((n + 1) * lt) - logsumexp(n * lt)
                     - math.log(n + 1))

    est = math.exp(log_ratio(logt))
    ess = float(math.exp(2 * logsumexp(n * logt) - logsumexp(2 * n * logt)))
    boot = rngmod.stream(seed, rngmod.BOOTSTRAP, 3)
    samples = np.empty(n_boot)
    for b in range(n_boot):
        samples[b] = math.exp(log_ratio(logt[boot.integers(0, logt.size,
                                                           logt.size)]))
    lo, hi = np.quantile(samples, [0.0015, 0.9985])
    return MomentRatio(n, est, (float(lo), float(hi)), ess,
                       ess < ess_floor, excluded)
