"""Shared fixtures: the small models every oracle-backed test runs against."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

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
