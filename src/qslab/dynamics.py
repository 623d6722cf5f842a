"""Continuous-time simulation of the killed dynamics: batches of hitting
times and survival curves, the second-class-particle coupling with the
exact hitting probability of its dominating free walk, and the tagged-exit
bound.

One lockstep event engine, `_Lockstep`, runs every Monte Carlo path:
Gillespie's direct method applied to all trajectories of a batch at once,
one event per numpy step.  The state is an (n_rows, n_sites) occupancy
matrix.  Each step recomputes the rate w(y - x) b(occ_x, occ_y) of every
jump with `model.jump_rates` from the model's jump table and b table, the
one rate rule the exact generator reads too, so a b that depends on the
destination needs no special case, and takes each row's total from a fresh
cumulative sum: there is no running total, hence no drift and no
resynchronization.  Each live row then draws its waiting time and its
event; rows with no rate left or past the horizon end.  Its three users
differ only in their stop rule and their extra draws: the killed runs
(`run_killed`) stop at the target; the coupling (`second_class_escape`)
adds the tagged particle's clocks and one draw per excess sub-event and
stops when eta enters the target; the tagged exit (`sigma_exit`) draws a
third uniform for the mover, stops when a tagged particle enters the window
and runs once, to the largest time of its grid.  Recorded events are
gathered per step and split by row at the end, so there is no event buffer
and no resume.

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

from . import rng as rngmod
from .estimators import CI_SIGMAS, SurvivalCurve
from .measures import ProductMeasure
from .model import JumpKernel, Lattice, Model, TargetSet, jump_rates

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
    model's jump table (`Model.jump_table`: destination and kernel weight
    of every (site, offset) jump) and the window mask."""

    def __init__(self, model: Model, target: TargetSet | None):
        self.model = model
        self.target = target
        lattice = model.lattice
        self.nbr, self.weights = model.jump_table()
        if target is not None:
            target.validate_on(lattice)
            self.in_window = target.mask(lattice.num_sites)
            self.threshold = np.int64(target.threshold)
        else:
            self.in_window = np.zeros(lattice.num_sites, dtype=bool)
            self.threshold = _NO_TARGET_THRESHOLD

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


class _Lockstep:
    """Gillespie's direct method on the rows of a batch, one event per live
    row per step.  Row r starts from `occ[r]` at time t0 and reads its
    uniforms from `draws`; `nbr` and `w` are the model's jump table
    (`Model.jump_table`) and `btab` its b table (`RateFunction.b_table`).

    The live rows are held as one compacted block: `live` holds their row
    numbers in the batch, `x` their occupancies and `t` their clocks.  A
    row ends when `step` finds it frozen (total rate at or below
    `_FROZEN_RATE`) or its next event past the horizon (censored, with its
    clock set to the horizon), or when its caller's stop rule ends it
    (`stop`).  `retire` then writes its occupancy into `occ`, its end
    status into `status` and its clock into `clock`, and drops it from the
    block.  `counts` holds the events of each row."""

    def __init__(self, occ: np.ndarray, nbr: np.ndarray, w: np.ndarray,
                 btab: np.ndarray, draws: _Draws, t0: float):
        n = occ.shape[0]
        self.occ, self.nbr, self.w, self.btab = occ, nbr, w, btab
        self.draws = draws
        self.status = np.zeros(n, dtype=np.int64)
        self.clock = np.empty(n)
        self.counts = np.zeros(n, dtype=np.int64)
        self.live = np.arange(n)
        self.x = occ.copy()
        self.t = np.full(n, float(t0))
        self.end = np.zeros(n, dtype=np.int64)

    def stop(self, rows, status: int) -> None:
        """End `rows` (a mask or positions in the live block) with status."""
        self.end[rows] = status

    def retire(self) -> int:
        """Write back the rows that ended and drop them from the block;
        returns the number of rows still live."""
        if self.end.any():
            done = self.end > 0
            rows, keep = self.live[done], ~done
            self.occ[rows], self.status[rows] = self.x[done], self.end[done]
            self.clock[rows] = self.t[done]
            self.live, self.x, self.t, self.end = (
                self.live[keep], self.x[keep], self.t[keep], self.end[keep])
        return self.live.size

    def step(self, n_u: int, horizon: float, clocks=None):
        """Advance every live row by one event.  A row reads its next `n_u`
        uniforms: the first gives the waiting time, and the second times
        the total rate picks the event, among the particle jumps in (site,
        offset) order, then among the columns of `clocks` (extra rates per
        live row).  An event may fall at the horizon but not past it, as
        P(tau > t) needs.  Returns the rows whose event was a particle jump
        (positions in the live block), their sources, destinations and
        uniforms, and the (rows, columns) of those whose event was a
        clock."""
        rates = jump_rates(self.x, self.nbr, self.w, self.btab)
        site = rates[:, :, 0] if rates.shape[2] == 1 else rates.sum(axis=2)
        cum = np.cumsum(site, axis=1)
        jumps = cum[:, -1]
        total = jumps if clocks is None else jumps + clocks.sum(axis=1)
        u = self.draws.take(self.live, n_u)
        frozen = total <= _FROZEN_RATE
        # a frozen row divides by the floor instead of 0; it does not move
        t_next = self.t - np.log1p(-u[:, 0]) / np.maximum(total, _FROZEN_RATE)
        stay = frozen | (t_next > horizon)
        if stay.any():
            self.end[stay] = np.where(frozen[stay], _FROZEN, _CENSORED)
            self.t[stay & ~frozen] = horizon
            move = np.flatnonzero(~stay)
        else:  # a slice spares copying the rate arrays
            move = slice(None)
        self.t[move] = t_next[move]
        self.counts[self.live[move]] += 1
        rows = np.arange(self.live.size)[move]
        u = u[move]
        pick = u[:, 1] * total[move]
        fired = (rows[:0], rows[:0])
        if clocks is not None:
            jump = pick < jumps[move]
            if not jump.all():
                on = rows[~jump]
                at = clocks[on]
                fired = (on, _categorical(at, np.cumsum(at, axis=1),
                                          pick[~jump] - jumps[on])[0])
                rows = move = rows[jump]
                u, pick = u[jump], pick[jump]
        src, residual = _categorical(site[move], cum[move], pick)
        if rates.shape[2] == 1:
            dst = self.nbr[src, 0]
        else:
            at = rates[rows, src]
            off, _ = _categorical(at, np.cumsum(at, axis=1), residual)
            dst = self.nbr[src, off]
        self.x[rows, src] -= 1
        self.x[rows, dst] += 1
        return rows, src, dst, u, fired


def run_killed(occ, nbr, w, btab, in_window, draws, log, threshold, t0,
               t_max, status, clock, counts, frozen_rate, n_ev0):
    """The killed runs on the lockstep engine (`_Lockstep`, two uniforms
    per event): advance every row of `occ` from time t0 until its window
    sum over the mask `in_window` exceeds `threshold`, its next event falls
    past `t_max` or it has no rate left.  `occ` ends as the final
    occupancies; `status`, `clock` and `counts` receive, per row, the end
    status, the end time (the hit time; `t_max` when censored; the freezing
    time when frozen) and the number of events.  When `log` is a list, each
    step appends the (rows, times, sources, destinations) of its events.

    Returns (0, clock, n_ev0 + events).  The benchmark's layer tracer
    (bench/layertrace.py) reads this function by position: `occ`,
    `threshold`, `t0` and `n_ev0` at 0, 7, 8 and 14, and a result of
    (status, time, event count) with a scalar status.  So three leftovers
    of an older per-trajectory kernel stay until that tracer changes
    (ROADMAP D13): `frozen_rate`, which is not read (the engine's floor is
    `_FROZEN_RATE`, the value the one caller passes), `n_ev0`, and the
    leading 0 of the result."""
    cap = btab.shape[0] - 1
    engine = _Lockstep(occ, nbr, w, btab, draws, t0)
    win = occ[:, in_window].sum(axis=1)
    engine.stop(win > threshold, _HIT)
    while engine.retire():
        rows, src, dst, _, _ = engine.step(2, t_max)
        if (engine.x[rows, dst] > cap).any():
            # the rate table certifies b rows up to its cap; exceeding it
            # means the caller sized it below the particle total
            raise RuntimeError("occupancy exceeded the rate-table cap")
        batch_rows = engine.live[rows]
        win[batch_rows] += in_window[dst].astype(np.int64) - in_window[src]
        if log is not None:
            log.append((batch_rows, engine.t[rows], src, dst))
        engine.stop(win[engine.live] > threshold, _HIT)
    status[:], clock[:] = engine.status, engine.clock
    counts += engine.counts
    return 0, clock, n_ev0 + int(counts.sum())


# ---------------------------------------------------------------------------
# event replay
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass
class WorkCounts:
    """Deterministic counts of simulation work: trajectories simulated,
    immortal starts skipped instead, horizon escalations of the occupation
    map, and events simulated.  `WORK` is the running total of the process:
    the code that does the work adds to it, in the parent process when
    spans run in workers, and a run reports the difference across it."""

    trajectories: int = 0
    immortal_skipped: int = 0
    escalations: int = 0
    events: int = 0


WORK = WorkCounts()


@dataclass
class BatchResult:
    """Outcome of a batch, one entry per trajectory in index order.

    `immortal` marks the starts that can never enter the target (particle
    total at or below the threshold; never set without a target).  They do
    not enter the engine: each is censored at t_max with no events, its row
    of `finals` is its initial state, not the state at t_max, and it is
    `frozen` only when its total rate at t = 0 is 0.  `events` holds the
    recorded (times, sources, destinations) per trajectory, `n_events` the
    event counts whether recorded or not.  The batch's work is not a field:
    `run_batch` adds it to `WORK`."""

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
    def censored_fraction(self) -> float:
        return float(1.0 - self.hit.mean())

    @property
    def mortal_censored_fraction(self) -> float:
        """Censored fraction among the starts that are not immortal (0 when
        there is none): the part a longer horizon can still reduce."""
        mortal = ~self.immortal
        return float(1.0 - self.hit[mortal].mean()) if mortal.any() else 0.0

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
    stream with key `key[r]` from word position `start` on.  Immortal
    starts (see `SimContext.immortal`) stay out of the engine: censored at
    t_max with no events, frozen when their total rate at t = 0 is 0."""
    n = occ.shape[0]
    btab = ctx.model.rates.b_table(
        max(int(occ.sum(axis=1).max(initial=0)), 1))
    immortal = ctx.immortal(occ)
    finals = occ.copy()
    status = np.full(n, _CENSORED)
    clock = np.full(n, float(t_max))
    counts = np.zeros(n, dtype=np.int64)
    if immortal.any():
        total = jump_rates(occ[immortal], ctx.nbr, ctx.weights,
                           btab).sum(axis=(1, 2))
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
        # a stable sort on the row splits the log by trajectory; `mortal`
        # is increasing, and immortal rows have no events
        times = np.empty(0)
        srcs = dsts = np.empty(0, dtype=np.int64)
        if log:
            rows, times, srcs, dsts = (np.concatenate(p) for p in zip(*log))
            order = np.argsort(rows, kind="stable")
            times, srcs, dsts = times[order], srcs[order], dsts[order]
        bounds = np.concatenate([[0], np.cumsum(counts)])
        events = [(times[a:b], srcs[a:b], dsts[a:b])
                  for a, b in zip(bounds[:-1], bounds[1:])]
    return BatchResult(np.where(hit, clock, t_max), hit, status == _FROZEN,
                       immortal, t_max, occ, events, finals, counts)


_FORK_CTX = None  # payload inherited by forked workers


def _run_span(payload, lo, hi) -> BatchResult:
    model, target, measure, initials, t_max, seed, record, indices = payload
    ctx = SimContext(model, target)
    key = rngmod.keys(seed, rngmod.TRAJECTORY, indices[lo:hi])
    if initials is not None:
        occ, start = np.array(initials[lo:hi], dtype=np.int64), 0
    else:
        start = model.lattice.num_sites
        occ = measure.from_uniforms(rngmod.uniforms(key, 0, start))
    return _simulate(ctx, occ, key, start, t_max, record)


def _span_worker(span):
    return _run_span(_FORK_CTX, span[0], span[1])


def run_batch(model: Model, target: TargetSet | None, n_traj: int,
              t_max: float, seed: int, *,
              measure: ProductMeasure | None = None,
              initials: np.ndarray | None = None,
              record_events: bool = False, workers: int = 1,
              indices: np.ndarray | None = None) -> BatchResult:
    """Simulate n_traj independent killed trajectories on the lockstep
    engine.

    Row r draws from stream (seed, TRAJECTORY, indices[r]); `indices` holds
    n_traj distinct trajectory numbers and defaults to 0..n_traj-1.  Its
    initial state is either `initials[r]` (`initials` holds exactly the
    n_traj rows that run), and then its events read the stream from
    position 0, or a sample of the product law `measure`: the inverse CDF
    of the stream's first num_sites uniforms, and then its events read from
    position num_sites on.  A trajectory's outcome depends only on its
    stream, its start and t_max, never on the other rows, on `workers` or
    on the split, so a subset rerun at a longer horizon can be spliced back
    by row (`BatchResult.extended`).  Immortal starts are classified at
    t = 0 and not simulated (see `BatchResult`).  The adjoint dynamics is
    the batch of `model.reversed()`.

    With `workers` > 1 the spans run in processes started by the "fork"
    method, which inherit the payload instead of receiving it.  Fork exists
    on POSIX systems only; elsewhere `workers` must stay 1.  The joined
    batch's trajectories, immortal skips and events are added to `WORK`
    here, in the parent, so the tally does not depend on `workers`.
    """
    if (measure is None) == (initials is None):
        raise ValueError("exactly one of measure/initials must be given")
    indices = np.arange(n_traj) if indices is None else \
        np.asarray(indices, dtype=np.int64)
    if indices.shape != (n_traj,):
        raise ValueError("indices must hold n_traj trajectory numbers")
    if initials is not None and len(initials) != n_traj:
        raise ValueError(f"initials must hold n_traj = {n_traj} rows, "
                         f"got {len(initials)}")
    payload = (model, target, measure, initials, t_max, seed, record_events,
               indices)
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

    immortal, n_events = joined("immortal"), joined("n_events")
    skipped = int(np.count_nonzero(immortal))
    WORK.trajectories += n_traj - skipped
    WORK.immortal_skipped += skipped
    WORK.events += int(n_events.sum())
    events = None
    if record_events:
        events = [ev for p in parts for ev in p.events]
    return BatchResult(joined("taus"), joined("hit"), joined("frozen"),
                       immortal, t_max, joined("initials"), events,
                       joined("finals"), n_events)


# ---------------------------------------------------------------------------
# survival curves
# ---------------------------------------------------------------------------

def survival_curve(model: Model, target: TargetSet, t_grid: Sequence[float],
                   n_traj: int, seed: int, *, measure: ProductMeasure,
                   t_max: float | None = None,
                   workers: int = 1) -> SurvivalCurve:
    """Empirical survival P(tau > t) on a time grid with binomial errors,
    from n_traj starts sampled from the product law `measure`.

    Trajectories censored at t_max >= max(t_grid) (max(t_grid) when not
    given) count as alive at every grid point, so censoring does not bias
    the curve, only the tail beyond the grid."""
    t_grid = np.asarray(sorted(t_grid), dtype=np.float64)
    horizon = float(t_grid[-1]) if t_max is None else float(t_max)
    if horizon < t_grid[-1]:
        raise ValueError("t_max must cover the time grid")
    batch = run_batch(model, target, n_traj, horizon, seed, measure=measure,
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
    )


# ---------------------------------------------------------------------------
# dominating free walk: hitting probability
# ---------------------------------------------------------------------------

def _walk_matrix(lattice: Lattice, kernel: JumpKernel,
                 target_sites: np.ndarray, dead: np.ndarray):
    """One-step matrix of a single walk among the sites outside the target
    and outside the mask `dead`, its one-step hit vector into the target,
    and the site -> row map.  Both the target and the dead sites absorb; a
    step into a dead site never reaches the target.

    A blocked direction is dropped and the open ones are rescaled; a site
    with none open never moves."""
    n = lattice.num_sites
    in_target = np.zeros(n, dtype=bool)
    in_target[target_sites] = True
    absorbing = in_target | dead
    keep = np.flatnonzero(~absorbing)
    pos = -np.ones(n, dtype=np.int64)
    pos[keep] = np.arange(keep.size)
    nbr = lattice.neighbor_table(kernel.offsets)[keep]
    inside = nbr >= 0
    w = np.where(inside, kernel.weights, 0.0)
    norm = w.sum(axis=1, keepdims=True)
    prob = np.divide(w, norm, out=np.zeros_like(w), where=norm > 0)
    hit = np.where(inside & in_target[nbr], prob, 0.0).sum(axis=1)
    move = inside & ~absorbing[nbr]
    rows = np.broadcast_to(np.arange(keep.size)[:, None], nbr.shape)
    P = csr_matrix((prob[move], (rows[move], pos[nbr[move]])),
                   shape=(keep.size, keep.size))
    return P, hit, pos


def rw_hitting(lattice: Lattice, kernel: JumpKernel, start: int,
               target_sites: Sequence[int]) -> float:
    """Probability that a single free walk started at `start` ever enters the
    target window (one when it starts there).  Solved exactly on the given
    lattice graph as (I - P) h = hit, with `_walk_matrix`'s blocked-edge
    rule.  The sites from which no path of positive-weight jumps reaches the
    window have h = 0 and absorb: they may form a closed class, on which
    I - P would be singular."""
    target_sites = np.unique(np.asarray(target_sites, dtype=np.int64))
    dead = lattice.graph_distance(
        target_sites, kernel.offsets[kernel.weights > 0]) < 0
    P, hit, pos = _walk_matrix(lattice, kernel, target_sites, dead)
    if pos[start] < 0:
        return 0.0 if dead[start] else 1.0
    h = spsolve((identity(P.shape[0], format="csr") - P).tocsc(), hit)
    return float(np.clip(h[pos[start]], 0.0, 1.0))


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

    def bound_ok(self) -> bool:
        """Gap within CI_SIGMAS standard errors of the walk bound."""
        ceiling = self.walk_hit_probability * self.survival_eta \
            + CI_SIGMAS * self.gap_stderr
        return bool(np.all(self.gap <= ceiling + 1e-12))


def second_class_escape(model: Model, target: TargetSet, eta0,
                        site: int, t_grid: Sequence[float], n_traj: int,
                        seed: int) -> SecondClassReport:
    """Couple eta with zeta = eta + one tagged particle at `site` and estimate
    the survival gap; the tagged particle rides its own kernel path with the
    attractiveness increment as clock, so it never perturbs the eta system.
    `eta0` is the start of eta: one nonnegative occupancy per site.

    All couplings advance in lockstep, one event per step; trajectory i
    draws from stream (seed, TRAJECTORY, i).  The gap is compared against
    (walk hitting probability) * P(tau_eta > t), with the walk solved
    exactly on the same lattice graph."""
    eta0 = np.asarray(eta0, dtype=np.int64)
    if eta0.shape != (model.lattice.num_sites,) or (eta0 < 0).any():
        raise ValueError("initial configuration needs one nonnegative "
                         "occupancy per site")
    if site in target.sites:
        raise ValueError("tagged start site must lie outside the window")
    if target.contains(eta0):
        raise ValueError("initial configuration already inside the target")
    if model.rates.max_site_occupancy is not None \
            and eta0[site] >= model.rates.max_site_occupancy:
        raise ValueError("cannot add the tagged particle at a full site")
    ctx = SimContext(model, target)
    t_grid = np.asarray(sorted(t_grid), dtype=np.float64)
    horizon = float(t_grid[-1])
    btab = model.rates.b_table(int(eta0.sum()) + 1)
    lam = ctx.in_window.astype(np.int64)
    k_thr = int(target.threshold)
    draws = _Draws(rngmod.keys(seed, rngmod.TRAJECTORY, np.arange(n_traj)),
                   0)
    engine = _Lockstep(np.tile(eta0, (n_traj, 1)), ctx.nbr, ctx.weights,
                       btab, draws, 0.0)
    ws = engine.occ @ lam               # window sum of eta
    X = np.full(n_traj, site)           # the tagged particle
    tau_zeta = np.where(ws + lam[X] > k_thr, 0.0, np.inf)
    while engine.retire():
        live, x = engine.live, engine.x
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
        rows, src, dst, _, (clocked, off) = engine.step(2, horizon, tag)
        # ordinary eta jumps (shared by both systems)
        r = live[rows]
        ws[r] += lam[dst] - lam[src]
        into = (tau_zeta[r] == np.inf) & (dst == X[r])
        if model.rates.target_dependent and into.any():
            # excess part of jumps into the tagged site relocates the
            # discrepancy: zeta keeps its particle, eta catches up
            k, r, s = rows[into], r[into], src[into]
            n_src, n_X = x[k, s] + 1, x[k, X[r]]  # x is after the move
            full = btab[n_src, n_X - 1]
            excess = full - btab[n_src, n_X]
            pos = excess > 0
            r, s, full, excess = r[pos], s[pos], full[pos], excess[pos]
            moved = draws.take(r)[:, 0] * full < excess
            X[r[moved]] = s[moved]
        r = live[clocked]
        X[r] = ctx.nbr[X[r], off]       # tagged particle jumps
        entered = ws[live] > k_thr
        zeta_hit = (tau_zeta[live] == np.inf) \
            & (entered | (ws[live] + lam[X[live]] > k_thr))
        tau_zeta[live[zeta_hit]] = engine.t[zeta_hit]
        engine.stop(entered, _HIT)
    tau_eta = np.where(engine.status == _HIT, engine.clock, np.inf)
    violations = int(np.count_nonzero(tau_zeta > tau_eta))
    surv_eta = (tau_eta[None, :] > t_grid[:, None]).mean(axis=1)
    surv_zeta = (tau_zeta[None, :] > t_grid[:, None]).mean(axis=1)
    gap = surv_eta - surv_zeta
    diff = (tau_eta[None, :] > t_grid[:, None]).astype(float) \
        - (tau_zeta[None, :] > t_grid[:, None])
    gap_se = diff.std(axis=1, ddof=1) / np.sqrt(n_traj)
    h = rw_hitting(model.lattice, model.kernel, site, target.sites)
    WORK.trajectories += n_traj
    WORK.events += int(engine.counts.sum())
    return SecondClassReport(
        t_grid=t_grid, gap=gap, gap_stderr=gap_se, survival_eta=surv_eta,
        walk_hit_probability=h, epsilon_bound=1.0 - h,
        order_violations=violations, n_traj=n_traj)


# ---------------------------------------------------------------------------
# tagged-exit bound (first entry of an outside particle)
# ---------------------------------------------------------------------------

@dataclass
class SigmaExitReport:
    kappas: np.ndarray
    estimate: np.ndarray        # P(sigma > kappa), per kappa
    stderr: np.ndarray
    lower_bound: np.ndarray
    deltas: np.ndarray          # one row of site deltas per kappa

    def passed(self) -> np.ndarray:
        """Per kappa: estimate at most CI_SIGMAS stderrs below the floor."""
        return self.estimate >= self.lower_bound - CI_SIGMAS * self.stderr


def sigma_exit(model: Model, target: TargetSet, measure: ProductMeasure,
               kappas: Sequence[float], n_traj: int,
               seed: int) -> SigmaExitReport:
    """Estimate P(sigma > kappa) for each kappa of `kappas`: no particle
    starting outside the window enters it up to time kappa, under the
    unkilled stationary dynamics.

    Compared against the closed-form floor prod_i (1 - delta_i)^rho with
    delta_i = min(1, (Delta kappa)^{d_i} / d_i!) and d_i the kernel-graph
    distance to the window divided by the range, floored.  When a particle
    fires, the mover is uniform among the particles on the site, which keeps
    every per-particle clock below the Lipschitz rate.  All trajectories
    advance in lockstep, once, to the largest kappa, and each keeps its
    first entry time sigma (infinite when none enters): its path up to a
    smaller kappa is the one a run to that kappa reads.  Trajectory i draws
    its start (the inverse CDF of the first num_sites uniforms) and then its
    events from stream (seed, TRAJECTORY, i)."""
    kappas = np.asarray(kappas, dtype=np.float64)
    lattice = model.lattice
    ctx = SimContext(model, target)
    key = rngmod.keys(seed, rngmod.TRAJECTORY, np.arange(n_traj))
    occ = measure.from_uniforms(rngmod.uniforms(key, 0, lattice.num_sites))
    btab = model.rates.b_table(max(int(occ.sum(axis=1).max(initial=0)), 1))
    tagged = np.where(ctx.in_window, 0, occ)
    engine = _Lockstep(occ, ctx.nbr, ctx.weights, btab,
                       _Draws(key, lattice.num_sites), 0.0)
    while engine.retire():
        rows, src, dst, u, _ = engine.step(3, float(kappas.max()))
        r = engine.live[rows]
        # the source held one more particle before the move
        mover_tagged = u[:, 2] * (engine.x[rows, src] + 1) < tagged[r, src]
        tagged[r[mover_tagged], src[mover_tagged]] -= 1
        entered = mover_tagged & ctx.in_window[dst]
        stays = mover_tagged & ~entered
        tagged[r[stays], dst[stays]] += 1
        engine.stop(rows[entered], _HIT)
    sigma = np.where(engine.status == _HIT, engine.clock, np.inf)
    WORK.trajectories += n_traj
    WORK.events += int(engine.counts.sum())
    p = (sigma[None, :] > kappas[:, None]).mean(axis=1)
    se = np.sqrt(np.maximum(p * (1 - p), 1e-300) / n_traj)
    dist = lattice.graph_distance(list(target.sites), model.kernel.offsets)
    R = max(1, model.kernel.range)
    delta_lip = model.rates.delta()
    deltas = np.zeros((kappas.size, lattice.num_sites))
    # window sites, and sites from which the window is out of reach, keep 0
    for kappa, row in zip(kappas.tolist(), deltas):
        for i in np.flatnonzero(~ctx.in_window & (dist >= 0)):
            d = dist[i] // R
            row[i] = min(1.0, (delta_lip * kappa) ** d / math.factorial(d))
    outside = deltas[:, ~ctx.in_window]
    bound = np.array([np.exp(measure.rho * np.log1p(-o).sum())
                      if (o < 1.0).all() else 0.0 for o in outside])
    return SigmaExitReport(kappas, p, se, bound, deltas)
