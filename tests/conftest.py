"""Shared fixtures: the small models every oracle-backed test runs against."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from qslab import rng as rngmod
from qslab.measures import ProductMeasure
from qslab.model import (Configuration, JumpKernel, Lattice, Model,
                         RateFunction, TargetSet)
from qslab.spectral import (FixedTotal, MaxTotal, SiteCap, absorbing_core,
                            build_killed_generator, enumerate_states,
                            principal_decay, product_vector, restrict_to_core)


def g_linear(k: int) -> float:
    return float(k)


def g_flat(k: int) -> float:
    return 1.0 if k >= 1 else 0.0


@pytest.fixture(scope="session")
def toy():
    """Asymmetric zero-range ring: 3 sites, g(k) = k, drift 0.4, window {0}
    with threshold 1.  Small enough for exact sector enumeration."""
    lattice = Lattice((3,), "torus")
    kernel = JumpKernel(np.array([[1], [-1]]), np.array([0.7, 0.3]))
    rates = RateFunction.zero_range(g_linear, label="g(k)=k")
    model = Model(lattice, kernel, rates)
    target = TargetSet(np.array([0]), 1)
    measure = ProductMeasure.at_density(0.5, rates)
    return model, target, measure


@pytest.fixture(scope="session")
def toy_spectral(toy):
    """Exact machinery for the toy: sector-union space to 20 particles, the
    killed generator, its almost-surely-absorbed core, the stationary vector
    and the principal pair (non-defective, residuals at solver precision)."""
    model, target, measure = toy
    space = enumerate_states(model.lattice, MaxTotal(20))
    kg = build_killed_generator(space, model, target)
    core = restrict_to_core(kg)
    nu_full = product_vector(space, measure.marginal)
    nu_core = nu_full[core.ac_indices]
    principal = principal_decay(core)
    return {
        "space": space,
        "kg": kg,
        "core": core,
        "nu_full": nu_full,
        "nu_core": nu_core,
        "principal": principal,
        "occ_core": space.occupancies[core.ac_indices],
    }


@pytest.fixture(scope="session")
def toy_qsd_sector(toy):
    """The slowest live sector (two particles) carrying the toy's QSD."""
    model, target, _ = toy
    space = enumerate_states(model.lattice, FixedTotal(2))
    kg = build_killed_generator(space, model, target)
    res = principal_decay(kg)
    return space, kg, res


@pytest.fixture(scope="session")
def tasep_line():
    """Blocked 65-site line feeding the trap at the right edge."""
    lattice = Lattice((65,), "blocked")
    kernel = JumpKernel(np.array([[1]]), np.array([1.0]))
    rates = RateFunction.exclusion()
    model = Model(lattice, kernel, rates)
    target = TargetSet(np.array([64]), 0)
    measure = ProductMeasure.at_density(0.5, rates)
    return model, target, measure


@pytest.fixture(scope="session")
def excl_ring():
    """Asymmetric exclusion on an 8-ring; exact Bernoulli stationarity."""
    lattice = Lattice((8,), "torus")
    kernel = JumpKernel(np.array([[1], [-1]]), np.array([0.7, 0.3]))
    rates = RateFunction.exclusion()
    model = Model(lattice, kernel, rates)
    target = TargetSet(np.array([0, 1]), 1)
    measure = ProductMeasure.at_density(0.5, rates)
    space = enumerate_states(lattice, MaxTotal(8), site_cap=1)
    kg = build_killed_generator(space, model, target)
    return model, target, measure, space, kg


def ratio_site_means(batch, n_sites, weight_fn=None):
    """Independent ratio-estimator oracle for occupation-map marginals.

    Groups sojourn mass per trajectory (i.i.d. units) so the standard error
    is honest; `weight_fn(starts, ends)` defaults to plain durations."""
    num = []
    den = []
    for i in np.flatnonzero(batch.hit):
        traj = batch.trajectory(i)
        if traj.n_events == 0:
            continue
        ends = traj.times
        starts = np.concatenate([[0.0], ends[:-1]])
        w = (ends - starts) if weight_fn is None else weight_fn(starts, ends)
        occ = traj.initial.copy()
        acc = np.zeros(n_sites)
        for k in range(traj.n_events):
            acc += w[k] * occ
            occ[traj.sources[k]] -= 1
            occ[traj.destinations[k]] += 1
        num.append(acc)
        den.append(w.sum())
    num = np.array(num)
    den = np.array(den)
    est = num.sum(axis=0) / den.sum()
    resid = num - den[:, None] * est
    se = np.sqrt((resid**2).sum(axis=0)) / den.sum()
    return est, se


def assert_same_batch(a, b):
    """Two `BatchResult`s agree bit for bit, events included."""
    for name in ("taus", "hit", "frozen", "immortal", "initials", "finals",
                 "n_events"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.t_max == b.t_max
    assert (a.events is None) == (b.events is None)
    if a.events is not None:
        assert len(a.events) == len(b.events)
        for x, y in zip(a.events, b.events):
            for u, v in zip(x, y):
                assert np.array_equal(u, v)


# ---------------------------------------------------------------------------
# reference implementations of the exact layer: plain loops over states,
# kept as independent oracles for the array-at-a-time versions in `spectral`
# ---------------------------------------------------------------------------

def enumerate_fixed_recursive(n_sites, total, cap):
    """Placements of `total` particles on the sites, at most `cap` per site,
    in lexicographic order, by depth-first recursion over the sites."""
    out = []
    occ = np.zeros(n_sites, dtype=np.int64)

    def rec(pos, remaining):
        if pos == n_sites - 1:
            if remaining <= cap:
                occ[pos] = remaining
                out.append(occ.copy())
            return
        for x in range(min(cap, remaining) + 1):
            occ[pos] = x
            rec(pos + 1, remaining - x)
        occ[pos] = 0

    rec(0, total)
    return np.array(out, dtype=np.int64) if out else \
        np.empty((0, n_sites), dtype=np.int64)


def enumerate_reference(n_sites, constraint, site_cap=None):
    """Occupancies of `enumerate_states` built from the recursion above."""
    if isinstance(constraint, SiteCap):
        cap = constraint.cap if site_cap is None else min(constraint.cap,
                                                          site_cap)
        grids = np.meshgrid(*[np.arange(cap + 1)] * n_sites, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    cap = constraint.total if site_cap is None else site_cap
    if isinstance(constraint, FixedTotal):
        return enumerate_fixed_recursive(n_sites, constraint.total, cap)
    parts = [enumerate_fixed_recursive(n_sites, m, min(cap, m))
             for m in range(constraint.total + 1)]
    return np.vstack([p for p in parts if p.size])


def killed_generator_loop(space, model, target):
    """Killed generator by a loop over states, occupied sites and offsets,
    locating each moved state through a dict of the enumeration.  Returns
    (matrix, killing, ac_indices, suppressed_rate)."""
    index = {tuple(row): i for i, row in enumerate(space.occupancies)}
    occ_all = space.occupancies
    in_a = occ_all[:, target.sites].sum(axis=1) > target.threshold
    ac_indices = np.flatnonzero(~in_a)
    pos = -np.ones(space.size, dtype=np.int64)
    pos[ac_indices] = np.arange(ac_indices.size)
    nbr = space.lattice.neighbor_table(model.kernel.offsets)
    b = model.rates.b
    hard_cap = model.rates.max_site_occupancy
    site_cap = (space.constraint.cap if isinstance(space.constraint, SiteCap)
                else None)
    if hard_cap is not None:
        site_cap = hard_cap if site_cap is None else min(site_cap, hard_cap)
    rows, cols, vals = [], [], []
    diag = np.zeros(ac_indices.size)
    killing = np.zeros(ac_indices.size)
    suppressed = 0.0
    for row, si in enumerate(ac_indices):
        occ = occ_all[si]
        for i in np.flatnonzero(occ):
            for o, w in enumerate(model.kernel.weights):
                j = nbr[i, o]
                if j < 0:
                    continue
                rate = w * b(int(occ[i]), int(occ[j]))
                if rate <= 0.0:
                    continue
                if site_cap is not None and occ[j] + 1 > site_cap \
                        and hard_cap is None:
                    suppressed += rate
                    continue
                new = occ.copy()
                new[i] -= 1
                new[j] += 1
                if new[target.sites].sum() > target.threshold:
                    killing[row] += rate
                    diag[row] -= rate
                    continue
                rows.append(row)
                cols.append(int(pos[index[tuple(new)]]))
                vals.append(rate)
                diag[row] -= rate
    rows.extend(range(ac_indices.size))
    cols.extend(range(ac_indices.size))
    vals.extend(diag)
    mat = csr_matrix((vals, (rows, cols)),
                     shape=(ac_indices.size, ac_indices.size))
    return mat, killing, ac_indices, suppressed


def absorbing_core_bfs(kg):
    """Core mask by two depth-first searches with one column read per state
    over the reversed off-diagonal graph."""
    adj = kg.matrix.copy()
    adj.setdiag(0.0)
    adj.eliminate_zeros()
    adj = adj.tocsc()
    can_kill = kg.killing > 0
    frontier = list(np.flatnonzero(can_kill))
    while frontier:
        for y in adj.getcol(frontier.pop()).nonzero()[0]:
            if not can_kill[y]:
                can_kill[y] = True
                frontier.append(int(y))
    reaches_dead = ~can_kill
    frontier = list(np.flatnonzero(reaches_dead))
    while frontier:
        for y in adj.getcol(frontier.pop()).nonzero()[0]:
            if not reaches_dead[y]:
                reaches_dead[y] = True
                frontier.append(int(y))
    return can_kill & ~reaches_dead


# ---------------------------------------------------------------------------
# reference implementations of the event engine and the couplings: one
# trajectory at a time, one scalar draw at a time, every rate recomputed by
# loops after each event; kept as independent oracles for the lockstep
# versions in `dynamics`
# ---------------------------------------------------------------------------

def _jump_rates_loop(occ, nbr, weights, b, s):
    """Rates of the jumps out of site s, one per offset (0 if blocked)."""
    return [weights[o] * b(int(occ[s]), int(occ[nbr[s, o]]))
            if occ[s] > 0 and nbr[s, o] >= 0 else 0.0
            for o in range(nbr.shape[1])]


def _site_rates_loop(occ, nbr, weights, b):
    rates = []
    for s in range(occ.size):
        acc = 0.0
        for r in _jump_rates_loop(occ, nbr, weights, b, s):
            acc += r
        rates.append(acc)
    return rates


def _total_loop(rates):
    acc = 0.0
    for r in rates:
        acc += r
    return acc


def _pick_loop(rates, u):
    """First category whose cumulative rate exceeds u, scanning in order;
    float-edge overshoot falls back to the last positive-rate category.
    Returns the pick and u minus the cumulative rate before it."""
    acc, pick = 0.0, -1
    for k, r in enumerate(rates):
        if r > 0.0:
            acc += r
            pick = k
            if u < acc:
                break
    return pick, max(u - (acc - rates[pick]), 0.0)


def _jump_loop(occ, nbr, weights, b, site_rates, u):
    """Source and destination picked by u in [0, total)."""
    src, residual = _pick_loop(site_rates, u)
    off, _ = _pick_loop(_jump_rates_loop(occ, nbr, weights, b, src),
                        residual)
    return src, int(nbr[src, off])


def killed_loop(model, target, n_traj, t_max, seed, *, measure=None,
                initials=None, base_index=0):
    """Reference for `dynamics.run_batch` with recorded events: trajectory i
    on stream (seed, TRAJECTORY, base_index + i) takes its start from
    `measure.sample_occupancies` on that stream (or `initials[i]`), then
    per event one uniform for the waiting time and one for the jump.  A
    start whose particle total is at or below the threshold is immortal:
    censored at t_max with no events.
    Returns (taus, hit, frozen, finals, events) with events a list of
    (times, sources, destinations)."""
    nbr = model.lattice.neighbor_table(model.kernel.offsets)
    weights, b = model.kernel.weights, model.rates.b
    thr = None if target is None else target.threshold
    taus, hit, frozen, finals, events = [], [], [], [], []
    for i in range(n_traj):
        gen = rngmod.stream(seed, rngmod.TRAJECTORY, base_index + i)
        occ = np.array(
            measure.sample_occupancies(model.lattice, gen, 1)[0]
            if initials is None else initials[i], dtype=np.int64)
        t, ev, status = 0.0, [], None
        while status is None:
            site_rates = _site_rates_loop(occ, nbr, weights, b)
            total = _total_loop(site_rates)
            if thr is not None and occ.sum() <= thr:
                status = "frozen" if total <= 1e-300 else "censored"
            elif thr is not None and occ[target.sites].sum() > thr:
                status = "hit"
            elif total <= 1e-300:
                status = "frozen"
            else:
                t_next = t - np.log1p(-gen.random()) / total
                if t_next > t_max:
                    status = "censored"
                    break
                t = t_next
                src, dst = _jump_loop(occ, nbr, weights, b, site_rates,
                                      gen.random() * total)
                occ[src] -= 1
                occ[dst] += 1
                ev.append((t, src, dst))
        taus.append(t if status == "hit" else t_max)
        hit.append(status == "hit")
        frozen.append(status == "frozen")
        finals.append(occ)
        events.append((np.array([e[0] for e in ev], dtype=np.float64),
                       np.array([e[1] for e in ev], dtype=np.int64),
                       np.array([e[2] for e in ev], dtype=np.int64)))
    return (np.array(taus), np.array(hit), np.array(frozen),
            np.array(finals).reshape(n_traj, -1), events)


def second_class_loop(model, target, eta0, site, horizon, n_traj, seed):
    """Reference for `dynamics.second_class_escape`: one coupling at a time
    on stream (seed, TRAJECTORY, i).  Returns the hitting times (tau_eta,
    tau_zeta)."""
    nbr = model.lattice.neighbor_table(model.kernel.offsets)
    weights, b = model.kernel.weights, model.rates.b
    lam = np.zeros(model.lattice.num_sites, dtype=bool)
    lam[target.sites] = True
    k_thr = target.threshold
    tau_eta, tau_zeta = np.full(n_traj, np.inf), np.full(n_traj, np.inf)
    for trj in range(n_traj):
        gen = rngmod.stream(seed, rngmod.TRAJECTORY, trj)
        occ = np.array(eta0, dtype=np.int64)
        ws, X, t, te, tz = int(occ[lam].sum()), site, 0.0, np.inf, np.inf
        if ws + lam[X] > k_thr:
            tz = 0.0
        while t < horizon and te == np.inf:
            site_rates = _site_rates_loop(occ, nbr, weights, b)
            tag = [0.0] * nbr.shape[1]
            if tz == np.inf:
                for o in range(nbr.shape[1]):
                    y = nbr[X, o]
                    if y >= 0:
                        tag[o] = weights[o] * (b(int(occ[X]) + 1, int(occ[y]))
                                               - b(int(occ[X]), int(occ[y])))
            eta_total = _total_loop(site_rates)
            total = eta_total + _total_loop(tag)
            if total <= 0:
                break
            t -= np.log1p(-gen.random()) / total
            if t >= horizon:
                break
            u = gen.random() * total
            if u < eta_total:
                i, j = _jump_loop(occ, nbr, weights, b, site_rates, u)
                occ[i] -= 1
                occ[j] += 1
                ws += int(lam[j]) - int(lam[i])
                if tz == np.inf and model.rates.target_dependent and j == X:
                    full = b(int(occ[i]) + 1, int(occ[X]) - 1)
                    excess = full - b(int(occ[i]) + 1, int(occ[X]))
                    if excess > 0 and gen.random() * full < excess:
                        X = i
            else:
                o, _ = _pick_loop(tag, u - eta_total)
                X = int(nbr[X, o])
            if ws > k_thr:
                te = t
                if tz == np.inf:
                    tz = t
            elif tz == np.inf and ws + lam[X] > k_thr:
                tz = t
        tau_eta[trj], tau_zeta[trj] = te, tz
    return tau_eta, tau_zeta


def sigma_exit_loop(model, target, measure, kappa, n_traj, seed):
    """Reference for the Monte Carlo part of `dynamics.sigma_exit`: one
    trajectory at a time; returns whether each kept every particle that
    started outside the window out of it up to kappa."""
    lattice = model.lattice
    nbr = lattice.neighbor_table(model.kernel.offsets)
    weights, b = model.kernel.weights, model.rates.b
    lam = np.zeros(lattice.num_sites, dtype=bool)
    lam[target.sites] = True
    survived = np.ones(n_traj, dtype=bool)
    for trj in range(n_traj):
        gen = rngmod.stream(seed, rngmod.TRAJECTORY, trj)
        occ = np.array(measure.sample_occupancies(lattice, gen, 1)[0],
                       dtype=np.int64)
        tagged = np.where(lam, 0, occ)
        t = 0.0
        while True:
            site_rates = _site_rates_loop(occ, nbr, weights, b)
            total = _total_loop(site_rates)
            if total <= 0:
                break
            t -= np.log1p(-gen.random()) / total
            if t > kappa:
                break
            i, j = _jump_loop(occ, nbr, weights, b, site_rates,
                              gen.random() * total)
            mover_tagged = gen.random() * occ[i] < tagged[i]
            occ[i] -= 1
            occ[j] += 1
            if mover_tagged:
                tagged[i] -= 1
                if lam[j]:
                    survived[trj] = False
                    break
                tagged[j] += 1
    return survived


def states_loop(initial, sources, destinations):
    """Reference for `dynamics.replay` on one trajectory: its initial state
    and then the state after each event, one event at a time."""
    states = [np.array(initial, dtype=np.int64)]
    for src, dst in zip(sources, destinations):
        nxt = states[-1].copy()
        nxt[src] -= 1
        nxt[dst] += 1
        states.append(nxt)
    return np.array(states)


def harvest_loop(batch, sojourn_log_weight):
    """Reference for `phi._harvest`: each uncensored trajectory with an
    event replayed on its own; returns the states and log-weights of its
    sojourns before the hit, concatenated in trajectory order."""
    occs, logw = [], []
    for i in np.flatnonzero(batch.hit):
        times, sources, destinations = batch.events[i]
        if times.size == 0:
            continue  # started inside the target: no occupation
        occs.append(states_loop(batch.initials[i], sources,
                                destinations)[:-1])
        logw.append(sojourn_log_weight(
            np.concatenate([[0.0], times[:-1]]), times))
    return np.concatenate(occs), np.concatenate(logw)
