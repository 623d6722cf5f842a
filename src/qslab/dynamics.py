"""Continuous-time simulation of the killed dynamics, hitting times, and the
couplings (second-class particle, dominating free walk, tagged-exit bound).

Every trajectory draws from its own counter-based stream keyed by
(master seed, TRAJECTORY, index), so batches are reproducible bit-for-bit
and independent of the worker count.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve
from scipy.stats import chi2 as chi2_dist

from . import rng as rngmod
from ._kernel import (STATUS_BUFFER_FULL, STATUS_CENSORED, STATUS_FROZEN,
                      STATUS_HIT, _refresh_all, run_killed)
from .estimators import SurvivalCurve
from .measures import Marginal, ProductMeasure
from .model import (BLOCKED, Configuration, JumpKernel, Lattice, Model,
                    TargetSet)
from .spectral import uniformized_sum

HIT = "hit_target"
CENSORED = "censored"

_NO_TARGET_THRESHOLD = np.int64(2**62)


# ---------------------------------------------------------------------------
# compiled simulation context
# ---------------------------------------------------------------------------

class SimContext:
    """Precomputed tables binding a model (and optional target) for the event
    loop: neighbor maps, kernel weights, the dense b table, window mask."""

    def __init__(self, model: Model, target: TargetSet | None,
                 reverse: bool = False):
        self.model = model
        self.target = target
        self.reverse = reverse
        kernel = model.kernel.reversed() if reverse else model.kernel
        self.kernel = kernel
        lattice = model.lattice
        self.nbr = lattice.neighbor_table(kernel.offsets)
        self.innbr = lattice.neighbor_table(-kernel.offsets)
        self.weights = kernel.weights.astype(np.float64)
        self.target_dep = model.rates.target_dependent
        self.in_window = np.zeros(lattice.num_sites, dtype=np.bool_)
        if target is not None:
            target.validate_on(lattice)
            self.in_window[target.sites] = True
            self.threshold = np.int64(target.threshold)
        else:
            self.threshold = _NO_TARGET_THRESHOLD
        self._btab_cap = -1
        self._btab = None

    def btab(self, cap: int) -> np.ndarray:
        """b(n, m) table covering occupancies up to cap (cached, grow-only)."""
        hard = self.model.rates.max_site_occupancy
        if hard is not None:
            cap = hard
        if cap > self._btab_cap:
            self._btab = self.model.rates.b_table(cap)
            self._btab_cap = cap
        return self._btab

    def immortal(self, occ: np.ndarray) -> bool:
        """Whether a start can never enter the target: every jump conserves
        the particle total, and the window never holds more than the total.
        Without a target nothing is immortal."""
        return self.target is not None and int(occ.sum()) <= self.threshold


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Piecewise-constant path: initial state plus the ordered event list."""

    initial: np.ndarray
    times: np.ndarray
    sources: np.ndarray
    destinations: np.ndarray
    terminal_time: float
    terminal_status: str
    frozen: bool = False

    @property
    def n_events(self) -> int:
        return self.times.size

    def states(self) -> np.ndarray:
        """Visited states in order, the initial one first and the state
        entered by the last event last: shape (n_events + 1, n_sites)."""
        rows = np.arange(1, self.times.size + 1)
        deltas = np.zeros((rows.size + 1, self.initial.size), dtype=np.int64)
        deltas[rows, self.destinations] += 1
        deltas[rows, self.sources] -= 1
        return self.initial + np.cumsum(deltas, axis=0)


@dataclass
class HittingResult:
    tau: float
    status: str
    frozen: bool = False
    trajectory: Trajectory | None = None

    @property
    def hit(self) -> bool:
        return self.status == HIT


class _EventBuffers:
    """Reusable fixed-size event arrays shared across the trajectories of
    one span."""

    size = 2048

    def __init__(self):
        self.times = np.empty(self.size)
        self.sources = np.empty(self.size, dtype=np.int64)
        self.destinations = np.empty(self.size, dtype=np.int64)


def _simulate(ctx: SimContext, occ: np.ndarray, t_max: float,
              gen: np.random.Generator, record: bool,
              buffers: _EventBuffers | None = None):
    """Run one trajectory to the target or to t_max; returns
    (status, time, times, srcs, dsts), the event arrays None unless recorded.

    An immortal start (see `SimContext.immortal`) is not simulated: it is
    censored at t_max with no events, `occ` and `gen` untouched, and frozen
    when its total rate is 0, exactly as the kernel would report it.

    A full buffer resumes the kernel from an empty buffer of the same size
    whether or not events are recorded, so the resume points (where the
    kernel recomputes its rate total) depend only on the trajectory."""
    total = int(occ.sum())
    btab = ctx.btab(max(total, 1))
    if ctx.immortal(occ):
        rate = _refresh_all(occ, ctx.nbr, ctx.weights, btab,
                            np.empty(occ.size))
        status = STATUS_FROZEN if rate <= 1e-300 else STATUS_CENSORED
        if record:
            return (status, t_max, np.empty(0), np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        return status, t_max, None, None, None
    buf = buffers or _EventBuffers()
    chunks = []
    t = 0.0
    while True:
        status, t, n_ev = run_killed(
            occ, ctx.nbr, ctx.innbr, ctx.weights, btab, ctx.target_dep,
            ctx.in_window, ctx.threshold, t, t_max, gen, buf.times,
            buf.sources, buf.destinations, 0)
        if record:
            chunk = (buf.times[:n_ev], buf.sources[:n_ev],
                     buf.destinations[:n_ev])
            if status == STATUS_BUFFER_FULL:
                chunk = tuple(arr.copy() for arr in chunk)
            chunks.append(chunk)
        if status != STATUS_BUFFER_FULL:
            break
    if record:  # concatenate copies, so the last chunk may be a buffer view
        return (status, t, *(np.concatenate(parts) for parts in zip(*chunks)))
    return status, t, None, None, None


def simulate_killed(initial: Configuration, model: Model,
                    target: TargetSet | None, t_max: float,
                    rng: np.random.Generator, reverse: bool = False,
                    record_trajectory: bool = False) -> HittingResult:
    """Exact event-driven run of the killed process from one configuration.

    Entering the target stops the run (tau); otherwise the trajectory is
    censored at t_max.  A configuration with no active rate is reported
    frozen and censored.  An immortal start (particle total at or below the
    threshold) is censored at once, with no events.  `reverse` simulates the
    adjoint kernel p*.
    """
    ctx = SimContext(model, target, reverse)
    occ = initial.occupancy.copy()
    status, t, ev_t, ev_s, ev_d = _simulate(ctx, occ, t_max, rng,
                                            record_trajectory)
    frozen = status == STATUS_FROZEN
    if status == STATUS_HIT:
        out_status, tau = HIT, t
    else:
        out_status, tau = CENSORED, t_max
    traj = None
    if record_trajectory:
        traj = Trajectory(initial.occupancy.copy(), ev_t, ev_s, ev_d,
                          tau, out_status, frozen)
    return HittingResult(tau, out_status, frozen, traj)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass
class WorkCounts:
    """Deterministic counts of the simulation work behind a result:
    trajectories simulated, immortal starts skipped instead, and horizon
    escalations of the occupation map."""

    trajectories: int = 0
    immortal_skipped: int = 0
    escalations: int = 0

    @classmethod
    def of_starts(cls, immortal: np.ndarray) -> "WorkCounts":
        skipped = int(np.count_nonzero(immortal))
        return cls(immortal.size - skipped, skipped)

    def __add__(self, other: "WorkCounts") -> "WorkCounts":
        return WorkCounts(self.trajectories + other.trajectories,
                          self.immortal_skipped + other.immortal_skipped,
                          self.escalations + other.escalations)


@dataclass
class BatchResult:
    """Outcome of a batch, one entry per trajectory in index order.

    `immortal` marks the starts that can never enter the target (particle
    total at or below the threshold; never set without a target).  They are
    not simulated: each is censored at t_max with no events, its row of
    `finals` is its initial state, not the state at t_max, and it is
    `frozen` only when its total rate at t = 0 is 0."""

    taus: np.ndarray            # hit time, or t_max where censored
    hit: np.ndarray             # bool per trajectory
    frozen: np.ndarray
    immortal: np.ndarray        # bool per trajectory
    t_max: float
    initials: np.ndarray | None = None
    events: list | None = None  # (times, srcs, dsts) triples when recorded
    finals: np.ndarray | None = None  # occupancy at the end of each run

    @property
    def n(self) -> int:
        return self.taus.size

    @property
    def censored_fraction(self) -> float:
        return float(1.0 - self.hit.mean())

    @property
    def mortal_censored_fraction(self) -> float:
        """Censored fraction among the starts that are not immortal (0 when
        there is none): the part a longer horizon can still reduce."""
        mortal = ~self.immortal
        return float(1.0 - self.hit[mortal].mean()) if mortal.any() else 0.0

    def trajectory(self, i: int) -> Trajectory:
        if self.events is None or self.initials is None:
            raise ValueError("batch was run without event recording")
        ev_t, ev_s, ev_d = self.events[i]
        status = HIT if self.hit[i] else CENSORED
        return Trajectory(self.initials[i], ev_t, ev_s, ev_d,
                          float(self.taus[i]), status, bool(self.frozen[i]))


_FORK_CTX = None  # payload inherited by forked workers


def _run_span(payload, lo, hi):
    (model, target, reverse, provider, initials, t_max, seed, base,
     record) = payload
    ctx = SimContext(model, target, reverse)
    n = hi - lo
    taus = np.empty(n)
    hit = np.empty(n, dtype=bool)
    frozen = np.empty(n, dtype=bool)
    immortal = np.empty(n, dtype=bool)
    init_out = final_out = None
    events = [] if record else None
    buffers = _EventBuffers()
    for k in range(n):
        i = lo + k
        gen = rngmod.stream(seed, rngmod.TRAJECTORY, base + i)
        if initials is not None:
            occ = initials[i].copy()
        else:
            occ = np.asarray(provider(gen), dtype=np.int64).copy()
        if init_out is None:
            init_out = np.empty((n, occ.size), dtype=np.int64)
            final_out = np.empty((n, occ.size), dtype=np.int64)
        init_out[k] = occ
        immortal[k] = ctx.immortal(occ)
        status, t, ev_t, ev_s, ev_d = _simulate(ctx, occ, t_max, gen, record,
                                                buffers)
        final_out[k] = occ
        hit[k] = status == STATUS_HIT
        frozen[k] = status == STATUS_FROZEN
        taus[k] = t if hit[k] else t_max
        if record:
            events.append((ev_t, ev_s, ev_d))
    return taus, hit, frozen, immortal, init_out, events, final_out


def _span_worker(span):
    return _run_span(_FORK_CTX, span[0], span[1])


def run_batch(model: Model, target: TargetSet | None, n_traj: int,
              t_max: float, seed: int, *,
              provider: Callable[[np.random.Generator], np.ndarray] | None = None,
              initials: np.ndarray | None = None, reverse: bool = False,
              record_events: bool = False, workers: int = 1,
              base_index: int = 0) -> BatchResult:
    """Simulate n_traj independent killed trajectories.

    Initial states come either from `provider(gen)` (drawn on the trajectory's
    own stream) or from a precomputed `initials` matrix.  Results depend only
    on (seed, base_index), never on `workers`.  Immortal starts are classified
    at t = 0 and not simulated (see `BatchResult`).

    With `workers` > 1 the spans run in processes started by the "fork"
    method, which inherit the payload (a provider may be a closure that
    cannot be pickled) instead of receiving it.  Fork exists on POSIX
    systems only; elsewhere `workers` must stay 1.
    """
    if (provider is None) == (initials is None):
        raise ValueError("exactly one of provider/initials must be given")
    payload = (model, target, reverse, provider, initials, t_max, seed,
               base_index, record_events)
    if workers <= 1 or n_traj < 2 * workers:
        parts = [_run_span(payload, 0, n_traj)]
    else:
        bounds = np.linspace(0, n_traj, workers + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
                 if b > a]
        global _FORK_CTX
        _FORK_CTX = payload
        try:
            with multiprocessing.get_context("fork").Pool(len(spans)) as pool:
                parts = pool.map(_span_worker, spans)
        finally:
            _FORK_CTX = None
    taus = np.concatenate([p[0] for p in parts])
    hit = np.concatenate([p[1] for p in parts])
    frozen = np.concatenate([p[2] for p in parts])
    immortal = np.concatenate([p[3] for p in parts])
    initials_out = np.vstack([p[4] for p in parts])
    events = None
    if record_events:
        events = [ev for p in parts for ev in p[5]]
    finals = np.vstack([p[6] for p in parts])
    return BatchResult(taus, hit, frozen, immortal, t_max, initials_out,
                       events, finals)


def measure_provider(measure: ProductMeasure, lattice: Lattice):
    def provider(gen: np.random.Generator) -> np.ndarray:
        return measure.sample_occupancies(lattice, gen, 1)[0]
    return provider


# ---------------------------------------------------------------------------
# survival curves and supermultiplicativity
# ---------------------------------------------------------------------------

def survival_curve(model: Model, target: TargetSet, t_grid: Sequence[float],
                   n_traj: int, seed: int, *,
                   measure: ProductMeasure | None = None,
                   provider=None, initials=None, t_max: float | None = None,
                   reverse: bool = False, workers: int = 1) -> SurvivalCurve:
    """Empirical survival P(tau > t) on a time grid with binomial errors.

    Trajectories censored at t_max >= max(t_grid) count as alive at every
    grid point, so censoring does not bias the curve, only the tail beyond
    the grid."""
    t_grid = np.asarray(sorted(t_grid), dtype=np.float64)
    horizon = float(t_grid[-1]) if t_max is None else float(t_max)
    if horizon < t_grid[-1]:
        raise ValueError("t_max must cover the time grid")
    if provider is None and initials is None:
        provider = measure_provider(measure, model.lattice)
    batch = run_batch(model, target, n_traj, horizon, seed,
                      provider=provider, initials=initials, reverse=reverse,
                      workers=workers)
    alive = batch.taus[None, :] > t_grid[:, None]
    # censored trajectories carry tau = t_max and stay alive on the grid
    alive |= (~batch.hit)[None, :]
    n_alive = alive.sum(axis=1)
    return SurvivalCurve(
        t=t_grid,
        estimate=n_alive / n_traj,
        n_alive=n_alive,
        n_total=n_traj,
        censored_fraction=batch.censored_fraction,
        taus=batch.taus,
        hit=batch.hit,
        immortal=batch.immortal,
    )


@dataclass
class SupermultiplicativityReport:
    s: float
    t: float
    p_s: float
    p_t: float
    p_st: float
    slack: float          # p(s+t) - p(s) p(t)
    slack_stderr: float
    n_traj: int

    def passed(self, n_sigma: float = 3.0) -> bool:
        return self.slack >= -n_sigma * self.slack_stderr


def supermultiplicativity_check(model: Model, target: TargetSet,
                                measure: ProductMeasure, s: float, t: float,
                                n_traj: int, seed: int,
                                n_boot: int = 200,
                                workers: int = 1) -> SupermultiplicativityReport:
    """Monte Carlo check of P(tau > t+s) >= P(tau > t) P(tau > s) under the
    stationary product law; the bootstrap spread of the slack sets the CI."""
    curve = survival_curve(model, target, [s, t, s + t], n_traj, seed,
                           measure=measure, workers=workers)
    # censored trajectories survived past the horizon: alive at every probe
    taus = np.where(curve.hit, curve.taus, np.inf)

    def alive(x, arr):
        return float(np.mean(arr > x))

    def slack_of(arr):
        return alive(s + t, arr) - alive(s, arr) * alive(t, arr)

    boot_gen = rngmod.stream(seed, rngmod.BOOTSTRAP, 0)
    slacks = np.empty(n_boot)
    for b in range(n_boot):
        slacks[b] = slack_of(taus[boot_gen.integers(0, n_traj, n_traj)])
    return SupermultiplicativityReport(
        s=s, t=t,
        p_s=alive(s, taus), p_t=alive(t, taus), p_st=alive(s + t, taus),
        slack=slack_of(taus),
        slack_stderr=float(slacks.std(ddof=1)),
        n_traj=n_traj,
    )


# ---------------------------------------------------------------------------
# dominating free walk: hitting probabilities
# ---------------------------------------------------------------------------

RENORMALIZE, IDLE, ESCAPE = "renormalize", "idle", "escape"


def _walk_matrix(lattice: Lattice, kernel: JumpKernel,
                 absorb_sites: np.ndarray, off_box: str):
    """One-step matrix of a single walk among the non-absorbing sites, its
    one-step hit vector into the absorbing set, and the site -> row map.

    `off_box` says what a blocked direction does: RENORMALIZE drops it and
    rescales the open ones (a site with none open never moves), IDLE keeps
    its mass as a self-loop, ESCAPE removes the walk (the mass leaves)."""
    n = lattice.num_sites
    absorbing = np.zeros(n, dtype=bool)
    absorbing[absorb_sites] = True
    keep = np.flatnonzero(~absorbing)
    pos = -np.ones(n, dtype=np.int64)
    pos[keep] = np.arange(keep.size)
    nbr = lattice.neighbor_table(kernel.offsets)[keep]
    inside = nbr >= 0
    w = np.where(inside, kernel.weights, 0.0)
    if off_box == RENORMALIZE:
        norm = w.sum(axis=1, keepdims=True)
    else:
        norm = kernel.weights.sum()
    prob = np.divide(w, norm, out=np.zeros_like(w), where=norm > 0)
    into = inside & absorbing[nbr]
    hit = np.where(into, prob, 0.0).sum(axis=1)
    move = inside & ~into
    rows = np.broadcast_to(np.arange(keep.size)[:, None], nbr.shape)
    rows, cols, vals = rows[move], pos[nbr[move]], prob[move]
    if off_box == IDLE:
        diag = np.arange(keep.size)
        rows = np.concatenate([rows, diag])
        cols = np.concatenate([cols, diag])
        vals = np.concatenate([vals, 1.0 - prob.sum(axis=1)])
    P = csr_matrix((vals, (rows, cols)), shape=(keep.size, keep.size))
    return P, hit, pos


def _ever_hits(lattice: Lattice, kernel: JumpKernel, start: int,
               target_sites: np.ndarray, off_box: str) -> float:
    """Probability that the jump chain from `start` ever enters the target
    (one when it starts there)."""
    P, hit, pos = _walk_matrix(lattice, kernel, target_sites, off_box)
    if pos[start] < 0:
        return 1.0
    h = spsolve((identity(P.shape[0], format="csr") - P).tocsc(), hit)
    return float(np.clip(h[pos[start]], 0.0, 1.0))


def rw_hitting(lattice: Lattice, kernel: JumpKernel, start: int,
               target_sites: Sequence[int], horizon: float | None = None,
               delta: float = 1.0, tol: float = 1e-12) -> float:
    """Probability that a single free walk started at `start` ever enters the
    target window (horizon=None), or does so within `horizon` when jumping at
    Poisson rate `delta`.  Solved exactly on the given lattice graph."""
    target_sites = np.unique(np.asarray(target_sites, dtype=np.int64))
    if start in target_sites:
        return 1.0
    if horizon is None:
        return _ever_hits(lattice, kernel, start, target_sites, RENORMALIZE)
    # continuous time at jump rate delta: uniformize at delta, with blocked
    # directions becoming self-loops (the walk waits through them)
    Q, _, pos = _walk_matrix(lattice, kernel, target_sites, IDLE)
    not_hit = uniformized_sum(Q.dot, np.ones(Q.shape[0]), delta * horizon,
                              tol)[0]
    return float(np.clip(1.0 - not_hit[pos[start]], 0.0, 1.0))


def free_walk_box(kernel: JumpKernel, start_coord: Sequence[int],
                  target_coords: Sequence[Sequence[int]], padding: int):
    """Blocked box around start and target padded by `padding` sites per side;
    returns (lattice, start_site, target_sites, offset_origin)."""
    pts = np.vstack([np.atleast_2d(np.asarray(target_coords, dtype=np.int64)),
                     np.asarray(start_coord, dtype=np.int64)])
    lo = pts.min(axis=0) - padding
    hi = pts.max(axis=0) + padding
    extent = tuple(int(e) for e in (hi - lo + 1))
    lattice = Lattice(extent, BLOCKED)
    start = lattice.site(np.asarray(start_coord) - lo)
    targets = [lattice.site(c - lo) for c in np.atleast_2d(target_coords)]
    return lattice, start, np.array(targets), lo


def rw_hitting_free(kernel: JumpKernel, start_coord: Sequence[int],
                    target_coords: Sequence[Sequence[int]],
                    padding: int | None = None, tol: float = 1e-10,
                    max_padding: int = 256) -> float:
    """Ever-hitting probability for the walk on the full integer lattice,
    approximated on a padded blocked box where leaving the box counts as
    escape.  The padding either is given explicitly or doubles until the
    value moves less than tol (walks with a recurrent symmetrization may hit
    the cap; the returned value is then a lower bound)."""
    R = max(1, kernel.range)

    def solve(pad):
        lattice, start, targets, _ = free_walk_box(
            kernel, start_coord, target_coords, pad)
        return _ever_hits(lattice, kernel, start, targets, ESCAPE)

    if padding is not None:
        return solve(padding)
    pad = 8 * R
    prev = solve(pad)
    while pad < max_padding:
        pad *= 2
        cur = solve(pad)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    return prev


def rw_hitting_mc(kernel: JumpKernel, start_coord: Sequence[int],
                  target_coords: Sequence[Sequence[int]], n_walks: int,
                  seed: int, max_steps: int | None = None,
                  padding: int = 16) -> tuple[float, float]:
    """Monte Carlo estimate of the free-walk ever-hitting probability with
    the same escape box as rw_hitting_free; returns (estimate, stderr)."""
    lattice, start, targets, _ = free_walk_box(
        kernel, start_coord, target_coords, padding)
    nbr = lattice.neighbor_table(kernel.offsets)
    target_mask = np.zeros(lattice.num_sites + 1, dtype=bool)
    target_mask[targets] = True
    gen = rngmod.stream(seed, rngmod.WALK, 0)
    cdf = np.cumsum(kernel.weights / kernel.weights.sum())
    pos = np.full(n_walks, start, dtype=np.int64)
    active = np.ones(n_walks, dtype=bool)
    hits = np.zeros(n_walks, dtype=bool)
    steps = 0
    limit = max_steps or 10_000
    while active.any() and steps < limit:
        idx = np.flatnonzero(active)
        choice = np.searchsorted(cdf, gen.random(idx.size), side="right")
        nxt = nbr[pos[idx], choice]
        pos[idx] = nxt
        escaped = nxt < 0
        hit_now = np.zeros(idx.size, dtype=bool)
        inside = ~escaped
        hit_now[inside] = target_mask[nxt[inside]]
        hits[idx[hit_now]] = True
        active[idx[escaped | hit_now]] = False
        steps += 1
    p = float(hits.mean())
    return p, float(np.sqrt(max(p * (1 - p), 1e-300) / n_walks))


# ---------------------------------------------------------------------------
# second-class particle coupling
# ---------------------------------------------------------------------------

@dataclass
class SecondClassReport:
    t_grid: np.ndarray
    gap: np.ndarray             # P(tau_eta > t) - P(tau_zeta > t)
    gap_stderr: np.ndarray
    survival_eta: np.ndarray
    walk_hit_probability: float
    epsilon_bound: float        # paper's non-hitting probability 1 - h
    order_violations: int       # trajectories with tau_zeta > tau_eta
    n_traj: int

    def bound_ok(self, n_sigma: float = 3.0) -> bool:
        ceiling = self.walk_hit_probability * self.survival_eta \
            + n_sigma * self.gap_stderr
        return bool(np.all(self.gap <= ceiling + 1e-12))


def second_class_escape(model: Model, target: TargetSet, eta0: Configuration,
                        site: int, t_grid: Sequence[float], n_traj: int,
                        seed: int, reverse: bool = False) -> SecondClassReport:
    """Couple eta with zeta = eta + one tagged particle at `site` and estimate
    the survival gap; the tagged particle rides its own kernel path with the
    attractiveness increment as clock, so it never perturbs the eta system.

    The gap is compared against (walk hitting probability) * P(tau_eta > t),
    with the walk solved exactly on the same lattice graph."""
    if site in target.sites:
        raise ValueError("tagged start site must lie outside the window")
    if target.contains(eta0.occupancy):
        raise ValueError("initial configuration already inside the target")
    if model.rates.max_site_occupancy is not None \
            and eta0.occupancy[site] >= model.rates.max_site_occupancy:
        raise ValueError("cannot add the tagged particle at a full site")
    ctx = SimContext(model, target, reverse)
    t_grid = np.asarray(sorted(t_grid), dtype=np.float64)
    horizon = float(t_grid[-1])
    btab = ctx.btab(int(eta0.occupancy.sum()) + 1)
    lam_mask = ctx.in_window
    k_thr = int(target.threshold)
    n_off = ctx.weights.size
    tau_eta = np.full(n_traj, np.inf)
    tau_zeta = np.full(n_traj, np.inf)
    violations = 0
    for trj in range(n_traj):
        gen = rngmod.stream(seed, rngmod.TRAJECTORY, trj)
        occ = eta0.occupancy.copy()
        ws = int(occ[target.sites].sum())
        X = site
        te = tz = np.inf
        t = 0.0
        if ws + (1 if lam_mask[X] else 0) > k_thr:
            tz = 0.0
        while t < horizon and not (te < np.inf):
            site_rates = np.array([
                _py_site_rate(occ, ctx.nbr, ctx.weights, btab, s)
                for s in range(occ.size)])
            eta_total = site_rates.sum()
            # tagged-particle clock: the attractiveness increment per target
            # (backward displacement by jumps into the tagged site is an
            # excess sub-event of the ordinary jumps, handled below)
            tag_rates = np.zeros(n_off)
            if not (tz < np.inf):
                nX = occ[X]
                for o in range(n_off):
                    y = ctx.nbr[X, o]
                    if y >= 0:
                        tag_rates[o] = ctx.weights[o] * (
                            btab[nX + 1, occ[y]] - btab[nX, occ[y]])
            total = eta_total + tag_rates.sum()
            if total <= 0:
                break
            t += -math.log1p(-gen.random()) / total
            if t >= horizon:
                break
            u = gen.random() * total
            if u < eta_total:
                # ordinary eta jump (shared by both systems)
                i = _pick(site_rates, u)
                res = max(0.0, u - site_rates[:i].sum())
                rates_o = np.array([
                    ctx.weights[o] * btab[occ[i], occ[ctx.nbr[i, o]]]
                    if ctx.nbr[i, o] >= 0 else 0.0 for o in range(n_off)])
                o = _pick(rates_o, res)
                j = int(ctx.nbr[i, o])
                occ[i] -= 1
                occ[j] += 1
                if lam_mask[i]:
                    ws -= 1
                if lam_mask[j]:
                    ws += 1
                if not (tz < np.inf) and ctx.target_dep and j == X:
                    # excess part of jumps into the tagged site relocates the
                    # discrepancy: zeta keeps its particle, eta catches up
                    full = btab[occ[i] + 1, occ[X] - 1]
                    excess = full - btab[occ[i] + 1, occ[X]]
                    if excess > 0 and gen.random() * full < excess:
                        X = i
            else:
                u -= eta_total
                pick = _pick(tag_rates, u)
                X = int(ctx.nbr[X, pick])  # tagged particle jumps
            if ws > k_thr:
                te = t
                if not (tz < np.inf):
                    tz = t
            elif not (tz < np.inf) and ws + (1 if lam_mask[X] else 0) > k_thr:
                tz = t
        tau_eta[trj] = te
        tau_zeta[trj] = tz
        if tz > te:
            violations += 1
    surv_eta = (tau_eta[None, :] > t_grid[:, None]).mean(axis=1)
    surv_zeta = (tau_zeta[None, :] > t_grid[:, None]).mean(axis=1)
    gap = surv_eta - surv_zeta
    diff = (tau_eta[None, :] > t_grid[:, None]).astype(float) \
        - (tau_zeta[None, :] > t_grid[:, None])
    gap_se = diff.std(axis=1, ddof=1) / np.sqrt(n_traj)
    kernel = model.kernel.reversed() if reverse else model.kernel
    h = rw_hitting(model.lattice, kernel, site, target.sites)
    return SecondClassReport(
        t_grid=t_grid, gap=gap, gap_stderr=gap_se, survival_eta=surv_eta,
        walk_hit_probability=h, epsilon_bound=1.0 - h,
        order_violations=violations, n_traj=n_traj)


def _py_site_rate(occ, nbr, w, btab, s) -> float:
    n = occ[s]
    if n == 0:
        return 0.0
    r = 0.0
    for o in range(nbr.shape[1]):
        j = nbr[s, o]
        if j >= 0:
            r += w[o] * btab[n, occ[j]]
    return float(r)


def _pick(rates: np.ndarray, u: float) -> int:
    """Category of u under the cumulative rates; float-edge overshoot falls
    back to the last positive-rate category."""
    cums = np.cumsum(rates)
    i = int(np.searchsorted(cums, u, side="right"))
    if i >= rates.size or rates[i] <= 0.0:
        i = int(np.flatnonzero(rates > 0)[-1])
    return i


# ---------------------------------------------------------------------------
# tagged-exit bound (first entry of an outside particle)
# ---------------------------------------------------------------------------

@dataclass
class SigmaExitReport:
    kappa: float
    estimate: float
    stderr: float
    lower_bound: float
    deltas: np.ndarray
    n_traj: int

    def passed(self, n_sigma: float = 3.0) -> bool:
        return self.estimate >= self.lower_bound - n_sigma * self.stderr


def sigma_exit(model: Model, target: TargetSet, measure: ProductMeasure,
               kappa: float, n_traj: int, seed: int) -> SigmaExitReport:
    """Estimate P(sigma > kappa): no particle starting outside the window
    enters it up to time kappa, under the unkilled stationary dynamics.

    Compared against the closed-form floor prod_i (1 - delta_i)^rho with
    delta_i = min(1, (Delta kappa)^{d_i} / d_i!) and d_i the kernel-graph
    distance to the window divided by the range, floored.  When a particle
    fires, the mover is uniform among the particles on the site, which keeps
    every per-particle clock below the Lipschitz rate."""
    lattice = model.lattice
    ctx = SimContext(model, None)
    lam_sites = target.sites
    lam_mask = np.zeros(lattice.num_sites, dtype=bool)
    lam_mask[lam_sites] = True
    survived = np.zeros(n_traj, dtype=bool)
    for trj in range(n_traj):
        gen = rngmod.stream(seed, rngmod.TRAJECTORY, trj)
        occ = measure.sample_occupancies(lattice, gen, 1)[0]
        btab = ctx.btab(max(int(occ.sum()), 1))
        tagged = occ.copy()
        tagged[lam_sites] = 0
        t = 0.0
        alive = True
        while True:
            site_rates = np.array([
                _py_site_rate(occ, ctx.nbr, ctx.weights, btab, s)
                for s in range(occ.size)])
            total = site_rates.sum()
            if total <= 0:
                break
            t += -math.log1p(-gen.random()) / total
            if t > kappa:
                break
            u = gen.random() * total
            i = _pick(site_rates, u)
            res = max(0.0, u - site_rates[:i].sum())
            rates_o = np.array([
                ctx.weights[o] * btab[occ[i], occ[ctx.nbr[i, o]]]
                if ctx.nbr[i, o] >= 0 else 0.0
                for o in range(ctx.weights.size)])
            o = _pick(rates_o, res)
            j = int(ctx.nbr[i, o])
            mover_tagged = gen.random() * occ[i] < tagged[i]
            occ[i] -= 1
            occ[j] += 1
            if mover_tagged:
                tagged[i] -= 1
                if lam_mask[j]:
                    alive = False
                    break
                tagged[j] += 1
        survived[trj] = alive
    p = float(survived.mean())
    se = float(np.sqrt(max(p * (1 - p), 1e-300) / n_traj))
    dist = lattice.graph_distance(list(lam_sites), model.kernel.offsets)
    R = max(1, model.kernel.range)
    delta_lip = model.rates.delta()
    deltas = np.zeros(lattice.num_sites)
    for i in range(lattice.num_sites):
        if lam_mask[i]:
            continue
        if dist[i] < 0:
            deltas[i] = 0.0
            continue
        d = dist[i] // R
        deltas[i] = min(1.0, (delta_lip * kappa) ** d / math.factorial(d))
    outside = ~lam_mask
    if np.any(deltas[outside] >= 1.0):
        bound = 0.0
    else:
        bound = float(np.exp(measure.rho
                             * np.log1p(-deltas[outside]).sum()))
    return SigmaExitReport(kappa, p, se, bound, deltas, n_traj)


# ---------------------------------------------------------------------------
# stationarity diagnostic
# ---------------------------------------------------------------------------

@dataclass
class StationarityReport:
    chi2: float
    dof: int
    threshold: float
    counts: np.ndarray
    expected: np.ndarray

    @property
    def passed(self) -> bool:
        return self.chi2 <= self.threshold


def stationarity_check(model: Model, measure: ProductMeasure, t: float,
                       n_traj: int, seed: int, site: int = 0,
                       n_sigma: float = 4.0,
                       workers: int = 1) -> StationarityReport:
    """Run the unkilled dynamics from the product law to time t and test the
    single-site occupancy against the marginal by chi-square with pooled
    bins; the threshold is the chi-square quantile at the n_sigma level."""
    batch = run_batch(model, None, n_traj, t, seed,
                      provider=measure_provider(measure, model.lattice),
                      workers=workers)
    final = batch.finals[:, site]
    probs = measure.marginal.probabilities
    kmax = probs.size - 1
    counts = np.bincount(np.minimum(final, kmax), minlength=kmax + 1).astype(float)
    expected = probs * n_traj
    # pool the tail so every expected count is at least 5
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        counts[-2] += counts[-1]
        expected = expected[:-1]
        counts = counts[:-1]
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    dof = counts.size - 1
    alpha = 2.0 * (1.0 - 0.5 * (1 + math.erf(n_sigma / math.sqrt(2))))
    threshold = float(chi2_dist.ppf(1.0 - alpha, dof))
    return StationarityReport(chi2, dof, threshold, counts, expected)
