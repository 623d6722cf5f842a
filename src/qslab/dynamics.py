"""Continuous-time simulation of the killed dynamics, hitting times, and the
couplings (second-class particle, dominating free walk, tagged-exit bound).

One lockstep event engine runs every Monte Carlo path: Gillespie's direct
method applied to all trajectories of a batch at once, one event per numpy
step.  The state is an (n_rows, n_sites) occupancy matrix.  Each step
recomputes the rate w(y - x) b(occ_x, occ_y) of every jump from the rate
table, so a b that depends on the destination needs no special case, and
takes each row's total from a fresh cumulative sum: there is no running
total, hence no drift and no resynchronization.  Each live row then draws
its waiting time and its (site, offset) pick; rows that enter the target,
pass the horizon or have no rate left retire.  Recorded events are gathered
per step and split by row at the end, so there is no event buffer and no
resume.  The couplings are short loops over the same primitives: the rate
matrix (`_jump_rates`), the per-row draws (`_Draws`) and the
categorical pick (`_categorical`).

Every trajectory draws from its own counter-based stream keyed by
(master seed, TRAJECTORY, index).  Draws are addressed by word position in
that stream (see `rng`): a start sampled from a product law is the inverse
CDF of positions 0 .. num_sites - 1, and the events then read from
position num_sites on (from 0 when the start is given).  `_Draws` holds
each row's key and position and computes the uniforms of every row that
runs short in one keyed block, with exactly the values one-at-a-time
`random()` calls would give; no per-trajectory Generator exists.  So
batches are reproducible bit for bit and do not depend on the worker count
or on how the trajectories are split.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve
from scipy.stats import chi2 as chi2_dist

from . import rng as rngmod
from .estimators import SurvivalCurve
from .measures import Marginal, ProductMeasure
from .model import (BLOCKED, Configuration, JumpKernel, Lattice, Model,
                    TargetSet)
from .spectral import uniformized_sum

HIT = "hit_target"
CENSORED = "censored"

_NO_TARGET_THRESHOLD = np.int64(2**62)

# end status of an engine row
_HIT, _CENSORED, _FROZEN = 1, 2, 3
# a total rate at or below this counts as no rate: the row is frozen
_FROZEN_RATE = 1e-300


# ---------------------------------------------------------------------------
# engine primitives
# ---------------------------------------------------------------------------

class SimContext:
    """Tables binding a model (and optional target) for the engine: the
    neighbor table, the kernel weight of every (site, offset) jump, the
    b table and the window mask."""

    def __init__(self, model: Model, target: TargetSet | None,
                 reverse: bool = False):
        self.model = model
        self.target = target
        kernel = model.kernel.reversed() if reverse else model.kernel
        lattice = model.lattice
        nbr = lattice.neighbor_table(kernel.offsets)
        # a blocked jump points at site 0 with weight 0, so rates need no mask
        self.nbr = np.maximum(nbr, 0)
        self.weights = np.where(nbr >= 0, kernel.weights.astype(np.float64),
                                0.0)
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
        """b(n, m) table covering occupancies up to cap (cached, grow-only);
        its row n = 0 is zero, since an empty site has nothing to move."""
        hard = self.model.rates.max_site_occupancy
        if hard is not None:
            cap = hard
        if cap > self._btab_cap:
            self._btab = self.model.rates.b_table(cap)
            self._btab[0] = 0.0
            self._btab_cap = cap
        return self._btab

    def immortal(self, occ: np.ndarray) -> np.ndarray:
        """Per row of `occ`, whether the start can never enter the target:
        every jump conserves the particle total, and the window never holds
        more than the total.  Without a target nothing is immortal."""
        if self.target is None:
            return np.zeros(occ.shape[0], dtype=bool)
        return occ.sum(axis=1) <= self.threshold


class _Draws:
    """Uniforms of keyed per-row streams, read in blocks: from absolute word
    position `start[r]` on, row r reads exactly the values that successive
    `random()` calls of its stream would return.  Each call refills every
    row it finds short with one keyed block computation (`rng.uniforms`)."""

    block = 64

    def __init__(self, key: np.ndarray, start):
        """`key` holds the rows' stream keys (see `rng.keys`), `start` their
        first word positions (one for all rows, or one per row)."""
        n = key.shape[0]
        self.key = key
        self.buf = np.empty((n, self.block))
        self.cur = np.full(n, self.block)           # cursor into buf
        # absolute position of buf[:, 0]; an empty buffer ends at start
        self.base = np.broadcast_to(np.asarray(start, dtype=np.int64),
                                    (n,)) - self.block

    def take(self, rows: np.ndarray, k: int = 1) -> np.ndarray:
        """The next k uniforms of each of `rows` (distinct row numbers),
        shape (len(rows), k)."""
        pos = self.cur[rows]
        if (pos + k > self.block).any():
            # a refill call has a fixed cost near that of filling some 40
            # rows, so rows within a quarter block of running short join in
            short = pos + k + self.block // 4 > self.block
            r = rows[short]
            self.base[r] += pos[short]
            self.buf[r] = rngmod.uniforms(self.key[r], self.base[r],
                                          self.block)
            pos[short] = 0
        self.cur[rows] = pos + k
        return self.buf[rows[:, None], pos[:, None] + np.arange(k)]


def _categorical(rates: np.ndarray, cum: np.ndarray, u: np.ndarray):
    """Row-wise pick of the first category whose cumulative rate exceeds u
    (float rounding that leaves u at or past the total falls back to the
    last positive category); returns the picks and u minus the cumulative
    rate before each pick, clipped at 0."""
    n, m = rates.shape
    k = (cum <= u[:, None]).sum(axis=1)
    over = k == m
    if over.any():
        k[over] = m - 1 - np.argmax(rates[over, ::-1] > 0.0, axis=1)
    rows = np.arange(n)
    return k, np.maximum(u - (cum[rows, k] - rates[rows, k]), 0.0)


def _draw_jumps(nbr: np.ndarray, rates: np.ndarray, site: np.ndarray,
                cum: np.ndarray, u: np.ndarray):
    """Jump of each row, picked with probability proportional to its rate:
    `u` in [0, total) selects the source site, and what is left of it the
    offset.  Returns (sources, destinations)."""
    src, residual = _categorical(site, cum, u)
    if rates.shape[2] == 1:
        return src, nbr[src, 0]
    at = rates[np.arange(src.size), src]
    off, _ = _categorical(at, np.cumsum(at, axis=1), residual)
    return src, nbr[src, off]


def _jump_rates(occ: np.ndarray, nbr: np.ndarray, w: np.ndarray,
                btab: np.ndarray) -> np.ndarray:
    """Rate w(y - x) b(occ_x, occ_y) of every jump of every row of `occ`,
    shape (rows, sites, offsets), for the tables of `SimContext` (0 where
    the jump is blocked)."""
    return w * btab[occ[:, :, None], occ[:, nbr]]


def _site_rates(rates: np.ndarray):
    """Per-site exit rates, their row-wise cumulative sums and totals."""
    site = rates[:, :, 0] if rates.shape[2] == 1 else rates.sum(axis=2)
    cum = np.cumsum(site, axis=1)
    return site, cum, cum[:, -1]


def run_killed(occ, nbr, w, btab, in_window, draws, log, threshold, t0,
               t_max, status, clock, counts, frozen_rate, n_ev0):
    """Lockstep engine: advance every row of `occ` (one trajectory per row,
    all starting at time t0) until its window sum exceeds `threshold`, its
    next event falls past `t_max`, or its total rate is at or below
    `frozen_rate`.

    `nbr` and `w` are `SimContext.nbr` and `SimContext.weights`, `btab` the
    rate table and `draws` the rows' `_Draws` (two uniforms per event: the
    waiting time, then the jump).  `occ` ends as the final occupancies;
    `status`, `clock` and `counts` receive, per row, the end status, the end
    time (the hit time; `t_max` when censored; the freezing time when
    frozen) and the number of events.  When `log` is a list, each step
    appends the (rows, times, sources, destinations) of its events.

    Returns (0, clock, n_ev0 + events).  The benchmark's layer tracer
    (bench/layertrace.py) reads this function by position: `occ`,
    `threshold`, `t0` and `n_ev0` at 0, 7, 8 and 14, and a result of
    (status, time, event count) with a scalar status."""
    cap = btab.shape[0] - 1
    live = np.arange(occ.shape[0])
    x = occ.copy()
    t = np.full(live.size, float(t0))
    win = x[:, in_window].sum(axis=1)
    end = np.where(win > threshold, _HIT, 0)
    while True:
        done = end > 0
        if done.any():
            rows, keep = live[done], ~done
            occ[rows], status[rows] = x[done], end[done]
            clock[rows] = np.where(end[done] == _CENSORED, t_max, t[done])
            live, x, t, win, end = live[keep], x[keep], t[keep], win[keep], \
                end[keep]
        if live.size == 0:
            return 0, clock, n_ev0 + int(counts.sum())
        rates = _jump_rates(x, nbr, w, btab)
        site, cum, total = _site_rates(rates)
        end[total <= frozen_rate] = _FROZEN
        if end.any():
            continue
        u = draws.take(live, 2)
        t_next = t - np.log1p(-u[:, 0]) / total
        censored = t_next > t_max
        if censored.any():
            end[censored] = _CENSORED
            move = np.flatnonzero(~censored)
        else:  # a slice spares copying the rate arrays
            move = slice(None)
        t[move] = t_next[move]
        src, dst = _draw_jumps(nbr, rates[move], site[move], cum[move],
                               u[move, 1] * total[move])
        rows = np.arange(live.size)[move]
        if (x[rows, dst] >= cap).any():
            # the rate table certifies b rows up to its cap; exceeding it
            # means the caller sized it below the particle total
            raise RuntimeError("occupancy exceeded the rate-table cap")
        x[rows, src] -= 1
        x[rows, dst] += 1
        win[rows] += in_window[dst].astype(np.int64) - in_window[src]
        counts[live[rows]] += 1
        if log is not None:
            log.append((live[rows], t[rows], src, dst))
        end[win > threshold] = _HIT


def _engine_events(log: list, counts: np.ndarray) -> list:
    """Per-row (times, sources, destinations) from an engine log, by a
    stable sort on the row."""
    if not log:
        return [(np.empty(0), np.empty(0, dtype=np.int64),
                 np.empty(0, dtype=np.int64))] * counts.size
    rows, times, srcs, dsts = (np.concatenate(part) for part in zip(*log))
    order = np.argsort(rows, kind="stable")
    times, srcs, dsts = times[order], srcs[order], dsts[order]
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [(times[a:b], srcs[a:b], dsts[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])]


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
        return replay(self.initial[None, :], np.array([self.times.size]),
                      self.sources, self.destinations)


def replay(initials: np.ndarray, counts: np.ndarray, sources: np.ndarray,
           destinations: np.ndarray) -> np.ndarray:
    """States visited by trajectories laid end to end: for trajectory i,
    its initial state `initials[i]` and then the state after each of its
    `counts[i]` events, whose sources and destinations are the next
    `counts[i]` entries of the concatenated event arrays.  Shape
    (counts.sum() + len(counts), n_sites).

    One cumulative sum runs over the whole concatenation in integers, and
    each trajectory then subtracts what the ones before it carried in, so
    every state is exact."""
    counts = np.asarray(counts, dtype=np.int64)
    heads = np.arange(counts.size) + np.cumsum(counts) - counts
    deltas = np.zeros((counts.sum() + counts.size, initials.shape[1]),
                      dtype=np.int64)
    moves = np.ones(deltas.shape[0], dtype=bool)
    moves[heads] = False
    moves = np.flatnonzero(moves)
    deltas[moves, destinations] += 1
    deltas[moves, sources] -= 1
    deltas[heads] = initials
    states = np.cumsum(deltas, axis=0)
    carried = np.zeros_like(initials, dtype=np.int64)
    carried[1:] = states[heads[1:] - 1]
    states -= np.repeat(carried, counts + 1, axis=0)
    return states


@dataclass
class HittingResult:
    tau: float
    status: str
    frozen: bool = False
    trajectory: Trajectory | None = None

    @property
    def hit(self) -> bool:
        return self.status == HIT


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass
class WorkCounts:
    """Deterministic counts of the simulation work behind a result:
    trajectories simulated, immortal starts skipped instead, horizon
    escalations of the occupation map, and events simulated."""

    trajectories: int = 0
    immortal_skipped: int = 0
    escalations: int = 0
    events: int = 0

    @classmethod
    def of_starts(cls, immortal: np.ndarray, events: int = 0) -> "WorkCounts":
        skipped = int(np.count_nonzero(immortal))
        return cls(immortal.size - skipped, skipped, 0, int(events))

    def __add__(self, other: "WorkCounts") -> "WorkCounts":
        return WorkCounts(self.trajectories + other.trajectories,
                          self.immortal_skipped + other.immortal_skipped,
                          self.escalations + other.escalations,
                          self.events + other.events)


@dataclass
class BatchResult:
    """Outcome of a batch, one entry per trajectory in index order.

    `immortal` marks the starts that can never enter the target (particle
    total at or below the threshold; never set without a target).  They do
    not enter the engine: each is censored at t_max with no events, its row
    of `finals` is its initial state, not the state at t_max, and it is
    `frozen` only when its total rate at t = 0 is 0.  `events` holds the
    recorded (times, sources, destinations) per trajectory, `n_events` the
    event counts whether recorded or not."""

    taus: np.ndarray            # hit time, or t_max where censored
    hit: np.ndarray             # bool per trajectory
    frozen: np.ndarray
    immortal: np.ndarray        # bool per trajectory
    t_max: float
    initials: np.ndarray | None = None
    events: list | None = None  # (times, srcs, dsts) triples when recorded
    finals: np.ndarray | None = None  # occupancy at the end of each run
    n_events: np.ndarray | None = None  # events per trajectory

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

    def work(self) -> WorkCounts:
        return WorkCounts.of_starts(self.immortal, int(self.n_events.sum()))

    def trajectory(self, i: int) -> Trajectory:
        if self.events is None or self.initials is None:
            raise ValueError("batch was run without event recording")
        ev_t, ev_s, ev_d = self.events[i]
        status = HIT if self.hit[i] else CENSORED
        return Trajectory(self.initials[i], ev_t, ev_s, ev_d,
                          float(self.taus[i]), status, bool(self.frozen[i]))

    def extended(self, rows: np.ndarray, longer: "BatchResult"
                 ) -> "BatchResult":
        """This batch at the horizon of `longer`, a rerun of its `rows`
        there.  Every other row must be a hit or an immortal start, whose
        outcome no horizon changes beyond the censoring time, so the result
        equals a rerun of the whole batch at that horizon."""
        out = BatchResult(np.where(self.hit, self.taus, longer.t_max),
                          self.hit.copy(), self.frozen.copy(), self.immortal,
                          longer.t_max, self.initials,
                          None if self.events is None else list(self.events),
                          self.finals.copy(), self.n_events.copy())
        for name in ("taus", "hit", "frozen", "finals", "n_events"):
            getattr(out, name)[rows] = getattr(longer, name)
        if out.events is not None:
            for k, i in enumerate(rows):
                out.events[i] = longer.events[k]
        return out


def _simulate(ctx: SimContext, occ: np.ndarray, key: np.ndarray,
              start: int, t_max: float, record: bool) -> BatchResult:
    """Run the rows of `occ` to the target or to t_max; row r reads the
    stream with key `key[r]` from word position `start` on.  Immortal starts (see `SimContext.immortal`) stay out of
    the engine: censored at t_max with no events, frozen when their total
    rate at t = 0 is 0."""
    n = occ.shape[0]
    btab = ctx.btab(max(int(occ.sum(axis=1).max(initial=0)), 1))
    immortal = ctx.immortal(occ)
    finals = occ.copy()
    status = np.full(n, _CENSORED)
    clock = np.full(n, float(t_max))
    counts = np.zeros(n, dtype=np.int64)
    if immortal.any():
        _, _, total = _site_rates(
            _jump_rates(occ[immortal], ctx.nbr, ctx.weights, btab))
        status[immortal] = np.where(total <= _FROZEN_RATE, _FROZEN, _CENSORED)
    mortal = np.flatnonzero(~immortal)
    log = [] if record else None
    if mortal.size:
        m_occ, m_status = occ[mortal], np.empty(mortal.size, dtype=np.int64)
        m_clock = np.empty(mortal.size)
        m_counts = np.zeros(mortal.size, dtype=np.int64)
        run_killed(m_occ, ctx.nbr, ctx.weights, btab, ctx.in_window,
                   _Draws(key[mortal], start), log, ctx.threshold,
                   0.0, t_max, m_status, m_clock, m_counts, _FROZEN_RATE, 0)
        finals[mortal], status[mortal] = m_occ, m_status
        clock[mortal], counts[mortal] = m_clock, m_counts
    hit = status == _HIT
    events = None
    if record:
        events = [(np.empty(0), np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.int64))] * n
        for k, ev in zip(mortal, _engine_events(log, counts[mortal])):
            events[k] = ev
    return BatchResult(np.where(hit, clock, t_max), hit, status == _FROZEN,
                       immortal, t_max, occ, events, finals, counts)


def simulate_killed(initial: Configuration, model: Model,
                    target: TargetSet | None, t_max: float,
                    rng: np.random.Generator, reverse: bool = False,
                    record_trajectory: bool = False) -> HittingResult:
    """Exact event-driven run of the killed process from one configuration.

    Entering the target stops the run (tau); otherwise the trajectory is
    censored at t_max.  A configuration with no active rate is reported
    frozen and censored.  An immortal start (particle total at or below the
    threshold) is censored at once, with no events.  `reverse` simulates the
    adjoint kernel p*.  `rng` must be a Philox generator (see
    `rng.position`): the run reads the values its next `random()` calls
    would return, by key and position, and leaves `rng` where it was.
    """
    key, pos = rngmod.position(rng)
    ctx = SimContext(model, target, reverse)
    occ = np.asarray(initial.occupancy, dtype=np.int64)[None, :].copy()
    batch = _simulate(ctx, occ, key[None, :], pos, t_max, record_trajectory)
    status = HIT if batch.hit[0] else CENSORED
    frozen = bool(batch.frozen[0])
    traj = batch.trajectory(0) if record_trajectory else None
    return HittingResult(float(batch.taus[0]), status, frozen, traj)


_FORK_CTX = None  # payload inherited by forked workers


def _run_span(payload, lo, hi) -> BatchResult:
    (model, target, reverse, measure, initials, t_max, seed, base, record,
     indices) = payload
    ctx = SimContext(model, target, reverse)
    idx = indices[lo:hi]
    key = rngmod.keys(seed, rngmod.TRAJECTORY, base + idx)
    if initials is not None:
        occ, start = np.array(initials[idx], dtype=np.int64), 0
    else:
        start = model.lattice.num_sites
        occ = measure.from_uniforms(rngmod.uniforms(key, 0, start))
    return _simulate(ctx, occ, key, start, t_max, record)


def _span_worker(span):
    return _run_span(_FORK_CTX, span[0], span[1])


def run_batch(model: Model, target: TargetSet | None, n_traj: int,
              t_max: float, seed: int, *,
              measure: ProductMeasure | None = None,
              initials: np.ndarray | None = None, reverse: bool = False,
              record_events: bool = False, workers: int = 1,
              base_index: int = 0,
              indices: np.ndarray | None = None) -> BatchResult:
    """Simulate n_traj independent killed trajectories on the lockstep
    engine.

    Trajectory i draws from stream (seed, TRAJECTORY, base_index + i).  Its
    initial state is either `initials[i]`, and then its events read the
    stream from position 0, or a sample of the product law `measure`: the
    inverse CDF of the stream's first num_sites uniforms, and then its
    events read from position num_sites on.
    `indices` (n_traj distinct trajectory numbers, default 0..n_traj-1)
    picks which ones run, in that order.  A trajectory's outcome depends
    only on its stream, its start and t_max, never on the other rows, on
    `workers` or on the split, so a subset rerun at a longer horizon can be
    spliced back by index (`BatchResult.extended`).  Immortal starts are
    classified at t = 0 and not simulated (see `BatchResult`).

    With `workers` > 1 the spans run in processes started by the "fork"
    method, which inherit the payload instead of receiving it.  Fork exists
    on POSIX systems only; elsewhere `workers` must stay 1.
    """
    if (measure is None) == (initials is None):
        raise ValueError("exactly one of measure/initials must be given")
    indices = np.arange(n_traj) if indices is None else \
        np.asarray(indices, dtype=np.int64)
    if indices.shape != (n_traj,):
        raise ValueError("indices must hold n_traj trajectory numbers")
    payload = (model, target, reverse, measure, initials, t_max, seed,
               base_index, record_events, indices)
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

    def joined(name):
        return np.concatenate([getattr(p, name) for p in parts])

    events = None
    if record_events:
        events = [ev for p in parts for ev in p.events]
    return BatchResult(joined("taus"), joined("hit"), joined("frozen"),
                       joined("immortal"), t_max, joined("initials"), events,
                       joined("finals"), joined("n_events"))


# ---------------------------------------------------------------------------
# survival curves and supermultiplicativity
# ---------------------------------------------------------------------------

def survival_curve(model: Model, target: TargetSet, t_grid: Sequence[float],
                   n_traj: int, seed: int, *,
                   measure: ProductMeasure | None = None,
                   initials=None, t_max: float | None = None,
                   reverse: bool = False, workers: int = 1) -> SurvivalCurve:
    """Empirical survival P(tau > t) on a time grid with binomial errors.

    Trajectories censored at t_max >= max(t_grid) count as alive at every
    grid point, so censoring does not bias the curve, only the tail beyond
    the grid."""
    t_grid = np.asarray(sorted(t_grid), dtype=np.float64)
    horizon = float(t_grid[-1]) if t_max is None else float(t_max)
    if horizon < t_grid[-1]:
        raise ValueError("t_max must cover the time grid")
    batch = run_batch(model, target, n_traj, horizon, seed,
                      measure=None if initials is not None else measure,
                      initials=initials, reverse=reverse, workers=workers)
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
        events=int(batch.n_events.sum()),
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
    events: int = 0             # events simulated

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

    All couplings advance in lockstep, one event per step; trajectory i
    draws from stream (seed, TRAJECTORY, i).  The gap is compared against
    (walk hitting probability) * P(tau_eta > t), with the walk solved
    exactly on the same lattice graph."""
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
    lam = ctx.in_window.astype(np.int64)
    k_thr = int(target.threshold)
    draws = _Draws(rngmod.keys(seed, rngmod.TRAJECTORY, np.arange(n_traj)),
                   0)
    occ = np.tile(np.asarray(eta0.occupancy, dtype=np.int64), (n_traj, 1))
    ws = occ @ lam                      # window sum of eta
    X = np.full(n_traj, site)           # the tagged particle
    t = np.zeros(n_traj)
    tau_eta = np.full(n_traj, np.inf)
    tau_zeta = np.where(ws + lam[X] > k_thr, 0.0, np.inf)
    events = 0
    live = np.arange(n_traj)
    while live.size:
        x = occ[live]
        rates = _jump_rates(x, ctx.nbr, ctx.weights, btab)
        site_r, cum, eta_total = _site_rates(rates)
        # tagged-particle clock: the attractiveness increment per target
        # (backward displacement by jumps into the tagged site is an excess
        # sub-event of the ordinary jumps, handled below)
        tag = np.zeros((live.size, ctx.nbr.shape[1]))
        free = np.flatnonzero(tau_zeta[live] == np.inf)
        if free.size:
            Xf = X[live[free]]
            nX = x[free, Xf][:, None]
            ny = x[free[:, None], ctx.nbr[Xf]]
            tag[free] = ctx.weights[Xf] * (btab[nX + 1, ny] - btab[nX, ny])
        total = eta_total + tag.sum(axis=1)
        u = draws.take(live, 2)
        with np.errstate(divide="ignore"):
            t_next = t[live] - np.log1p(-u[:, 0]) / total
        go = np.flatnonzero((total > 0) & (t_next < horizon))
        live, t_next, u, total = live[go], t_next[go], u[go], total[go]
        rates, site_r, cum, eta_total, tag = (
            rates[go], site_r[go], cum[go], eta_total[go], tag[go])
        t[live] = t_next
        events += live.size
        pick = u[:, 1] * total
        eta = pick < eta_total
        if eta.any():
            # ordinary eta jump (shared by both systems)
            rows = live[eta]
            src, dst = _draw_jumps(ctx.nbr, rates[eta], site_r[eta], cum[eta],
                                   pick[eta])
            occ[rows, src] -= 1
            occ[rows, dst] += 1
            ws[rows] += lam[dst] - lam[src]
            into = (tau_zeta[rows] == np.inf) & (dst == X[rows])
            if model.rates.target_dependent and into.any():
                # excess part of jumps into the tagged site relocates the
                # discrepancy: zeta keeps its particle, eta catches up
                r, s = rows[into], src[into]
                n_src, n_X = occ[r, s] + 1, occ[r, X[r]]
                full = btab[n_src, n_X - 1]
                excess = full - btab[n_src, n_X]
                pos = excess > 0
                r, s, full, excess = r[pos], s[pos], full[pos], excess[pos]
                moved = draws.take(r)[:, 0] * full < excess
                X[r[moved]] = s[moved]
        if not eta.all():
            tagged = ~eta
            rows = live[tagged]
            residual = pick[tagged] - eta_total[tagged]
            off, _ = _categorical(tag[tagged], np.cumsum(tag[tagged], axis=1),
                                  residual)
            X[rows] = ctx.nbr[X[rows], off]  # tagged particle jumps
        entered = ws[live] > k_thr
        zeta_free = tau_zeta[live] == np.inf
        tau_eta[live[entered]] = t[live[entered]]
        zeta_hit = zeta_free & (entered | (ws[live] + lam[X[live]] > k_thr))
        tau_zeta[live[zeta_hit]] = t[live[zeta_hit]]
        live = live[~entered]
    violations = int(np.count_nonzero(tau_zeta > tau_eta))
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
        order_violations=violations, n_traj=n_traj, events=events)


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
    events: int = 0             # events simulated

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
    every per-particle clock below the Lipschitz rate.  All trajectories
    advance in lockstep; trajectory i draws its start (the inverse CDF of
    the first num_sites uniforms) and then its events from stream (seed,
    TRAJECTORY, i)."""
    lattice = model.lattice
    ctx = SimContext(model, None)
    lam_sites = target.sites
    lam_mask = np.zeros(lattice.num_sites, dtype=bool)
    lam_mask[lam_sites] = True
    key = rngmod.keys(seed, rngmod.TRAJECTORY, np.arange(n_traj))
    occ = measure.from_uniforms(rngmod.uniforms(key, 0, lattice.num_sites))
    btab = ctx.btab(max(int(occ.sum(axis=1).max(initial=0)), 1))
    tagged = occ.copy()
    tagged[:, lam_sites] = 0
    draws = _Draws(key, lattice.num_sites)
    survived = np.ones(n_traj, dtype=bool)
    t = np.zeros(n_traj)
    events = 0
    live = np.arange(n_traj)
    while live.size:
        rates = _jump_rates(occ[live], ctx.nbr, ctx.weights, btab)
        site_r, cum, total = _site_rates(rates)
        u = draws.take(live, 3)
        with np.errstate(divide="ignore"):
            t_next = t[live] - np.log1p(-u[:, 0]) / total
        go = np.flatnonzero((total > 0) & (t_next <= kappa))
        rows, t_next, u, total = live[go], t_next[go], u[go], total[go]
        t[rows] = t_next
        events += rows.size
        src, dst = _draw_jumps(ctx.nbr, rates[go], site_r[go], cum[go],
                               u[:, 1] * total)
        mover_tagged = u[:, 2] * occ[rows, src] < tagged[rows, src]
        occ[rows, src] -= 1
        occ[rows, dst] += 1
        tagged[rows[mover_tagged], src[mover_tagged]] -= 1
        entered = mover_tagged & lam_mask[dst]
        stays = mover_tagged & ~entered
        tagged[rows[stays], dst[stays]] += 1
        survived[rows[entered]] = False
        live = rows[~entered]
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
    return SigmaExitReport(kappa, p, se, bound, deltas, n_traj, events)


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
    batch = run_batch(model, None, n_traj, t, seed, measure=measure,
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
