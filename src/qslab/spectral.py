"""Exact finite-state computations: enumerated state spaces, killed
generators, principal decay rates and quasi-stationary vectors, survival by
uniformization, the hitting-time sandwich, Dirichlet quotients, and the
closed-form totally-asymmetric exclusion oracles.

The dynamics conserve the particle number, so a state space is a run of
particle-number sectors: one canonical sector (`FixedTotal`) or every
sector up to a total (`MaxTotal`).  Such a space is exactly closed under the
dynamics, so the killed generator needs no truncation and the canonical
stationary vectors stay exactly invariant.

One Perron solver, `principal_decay`, answers both eigenproblems: the
decay rate of the killed generator and, through the variational principle
for the reversible symmetrized chain, the least Dirichlet quotient
(`rayleigh_quotient`).  On a union of sectors the killed generator is block
diagonal, one block per sector: the solver factors only the slowest block
and certifies the others slower by Collatz-Wielandt bounds.

scipy is imported by the functions that call it, so that importing this
module (and starting a run) costs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .estimators import SurvivalCurve, fit_decay
from .measures import Marginal
from .model import Lattice, Model, TargetSet, jump_rates

DEFAULT_STATE_LIMIT = 100_000  # most states `enumerate_states` builds
POISSON_TOL = 1e-12   # Poisson mass left out of each uniformized sum
SANDWICH_TOL = 1e-10  # rounding slack of the hitting-time sandwich
RANK_ROWS = 4096      # rows per batch of the loops over states, which bounds
                      # their transient memory
# `principal_decay` on a core of several components (`_slowest_component`)
JACOBI_CANDIDATE = 5   # sweeps before the candidate component is chosen
JACOBI_SWEEPS = 500    # most sweeps that try to certify the others
JACOBI_STALL = 1e-9    # a sweep moving no pending entry by more, relatively,
                       # than this has stalled
RATE_TIE_RTOL = 1e-10  # exact rates this close share the minimum


class StateSpaceError(ValueError):
    """Enumeration refused or constraint invalid."""


class SolverError(RuntimeError):
    """Linear or eigen solve failed structurally (reducible/absorbing)."""


# ---------------------------------------------------------------------------
# constraints and enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedTotal:
    """Canonical sector: exactly `total` particles (closed on the torus)."""
    total: int

    @property
    def lowest(self) -> int:
        return self.total


@dataclass(frozen=True)
class MaxTotal:
    """Union of canonical sectors with at most `total` particles."""
    total: int
    lowest = 0


def _composition_counts(n_sites: int, total: int, cap: int) -> np.ndarray:
    """Exact counts (Python ints): entry [k, r] is the number of ways to
    place r particles on k sites with at most `cap` per site."""
    table = np.zeros((n_sites + 1, total + 1), dtype=object)
    table[0, 0] = 1
    for k in range(n_sites):
        run = np.cumsum(table[k])
        table[k + 1] = run
        table[k + 1, cap + 1:] -= run[:max(total - cap, 0)]
    return table


def count_states(n_sites: int, constraint, site_cap: int | None) -> int:
    cap = constraint.total if site_cap is None else site_cap
    top = _composition_counts(n_sites, constraint.total, cap)[n_sites]
    return int(top[constraint.lowest:].sum())


def _enumerate_fixed(n_sites: int, total: int, cap: int) -> np.ndarray:
    """Every placement of `total` particles on the sites, at most `cap` per
    site, in lexicographic order.  Each site extends every prefix by the
    values the later sites can still complete, so no prefix is wasted; the
    rows are then read back along the parent links."""
    left = np.array([total], dtype=np.int64)
    values, parents = [], []
    for i in range(n_sites):
        lo = np.maximum(left - (n_sites - 1 - i) * cap, 0)
        width = np.maximum(np.minimum(left, cap) - lo + 1, 0)
        parent = np.repeat(np.arange(left.size), width)
        first = np.repeat(np.cumsum(width) - width, width)
        value = lo[parent] + np.arange(parent.size) - first
        values.append(value)
        parents.append(parent)
        left = left[parent] - value
    occ = np.empty((left.size, n_sites), dtype=np.int64)
    row = np.arange(left.size)
    for i in reversed(range(n_sites)):
        occ[:, i] = values[i][row]
        row = parents[i][row]
    return occ


class StateSpace:
    """Exhaustive, duplicate-free enumeration with a bijective index map.

    The space is the run of particle-number sectors from the constraint's
    `lowest` total to its `total`, each in lexicographic order.  A state's
    index is its position in that order, computed from the state itself:
    the size of the lower sectors of the run plus, per site, the number of
    sector states that agree before that site and hold less on it.  Each
    such number is a difference of two prefix counts read at the particles
    at and after the site and at those after it; the sum over the sites
    telescopes, so a rank is one read per site of a term table of
    n_sites x (total + 1) entries, built once."""

    def __init__(self, lattice: Lattice, occupancies: np.ndarray, constraint):
        self.lattice = lattice
        self.occupancies = occupancies
        self.constraint = constraint
        n_sites = occupancies.shape[1]
        # the enumeration holds every state under its per-site cap, so its
        # largest occupancy is that cap (or the total, which binds first)
        self._cap = int(occupancies.max(initial=0))
        counts = _composition_counts(n_sites, constraint.total, self._cap)
        # prefix sums over the particle number, reduced mod 2^64: a rank is a
        # sum of differences of these, each at most the state count, so the
        # wrapped uint64 arithmetic returns it exactly
        below = (np.cumsum(counts, axis=1) % 2**64).astype(np.uint64)
        # a site with j sites after it, `at` particles from it on and `past`
        # after it adds below[j, at] - below[j, past].  `past` is `at` of the
        # next site (0 after the last), so the sum over the sites telescopes
        # to one read per site of term[j] = below[j] - below[j + 1]; the
        # first site's row (j = n_sites - 1, where `at` is the total) also
        # adds the states of the lower sectors of the run and takes
        # below[0, 0] for the last site's `past`
        fewer = np.zeros(constraint.total + 1, dtype=np.uint64)
        fewer[1:] = below[n_sites, :-1]
        terms = below[:n_sites].copy()
        terms[:-1] -= below[1:n_sites]
        terms[-1] += fewer - fewer[constraint.lowest] - below[0, 0]
        self._terms = terms
        if not np.array_equal(self._rank(occupancies), np.arange(self.size)):
            raise StateSpaceError(
                "occupancies are not the enumeration of the constraint")

    @property
    def size(self) -> int:
        return self.occupancies.shape[0]

    @property
    def n_sites(self) -> int:
        return self.occupancies.shape[1]

    def _rank(self, occ: np.ndarray) -> np.ndarray:
        """Indices of the rows of `occ` in the space, -1 for absent ones.
        The sites are read last to first, one column at a time, so that
        `at` holds the particles at and after the site (which has j sites
        after it) and the transient arrays are vectors over the rows."""
        occ = np.asarray(occ, dtype=np.int64)
        at = np.zeros(occ.shape[0], dtype=np.int64)
        rank = np.zeros(occ.shape[0], dtype=np.uint64)
        for j in range(self.n_sites):
            at += occ[:, self.n_sites - 1 - j]
            # an absent row may point outside the table: a clipped read
            # keeps it in bounds, and -1 replaces its rank
            rank += self._terms[j].take(at, mode="clip")
        # `at` now holds the totals
        valid = (at >= self.constraint.lowest) & (at <= self.constraint.total)
        if not 0 <= occ.min(initial=0) <= occ.max(initial=0) <= self._cap:
            valid &= ((occ >= 0) & (occ <= self._cap)).all(axis=1)
        return np.where(valid, rank.view(np.int64), -1)

    def index_of(self, occupancy) -> int:
        occ = np.asarray(occupancy, dtype=np.int64).ravel()
        got = (int(self._rank(occ[None, :])[0])
               if occ.size == self.n_sites else -1)
        if got < 0:
            raise StateSpaceError(
                f"state {tuple(occ.tolist())} not in the space")
        return got


def enumerate_states(lattice: Lattice, constraint, *,
                     site_cap: int | None = None) -> StateSpace:
    """Enumerate the sectors from `constraint.lowest` to `constraint.total`
    particles, in increasing total and each lexicographically.

    The predicted count is computed first; enumeration is refused when it
    exceeds `DEFAULT_STATE_LIMIT`.  `site_cap` adds a per-site bound on top
    of the constraint (1 for the exclusion family)."""
    n_sites = lattice.num_sites
    predicted = count_states(n_sites, constraint, site_cap)
    if predicted > DEFAULT_STATE_LIMIT:
        raise StateSpaceError(f"state space would hold {predicted} states "
                              f"(limit {DEFAULT_STATE_LIMIT})")
    cap = constraint.total if site_cap is None else site_cap
    sectors = [_enumerate_fixed(n_sites, m, min(cap, m))
               for m in range(constraint.lowest, constraint.total + 1)]
    occ = sectors[0] if len(sectors) == 1 else np.vstack(sectors)
    return StateSpace(lattice, occ, constraint)


# ---------------------------------------------------------------------------
# measure vectors on a state space
# ---------------------------------------------------------------------------

def product_vector(space: StateSpace, marginal: Marginal) -> np.ndarray:
    """Product-measure weights Prod theta(eta_i) per state (mass missing from
    the space is simply absent; renormalize only when appropriate)."""
    probs = marginal.probabilities
    occ = space.occupancies
    out = np.zeros(space.size)
    inside = (occ < probs.size).all(axis=1)
    out[inside] = probs[occ[inside]].prod(axis=1)
    return out


def canonical_vector(space: StateSpace, g: Callable[[int], float]) -> np.ndarray:
    """Canonical stationary weights prop. to Prod_i 1/(g(1)...g(eta_i)),
    normalized over the space (uniform for exclusion)."""
    maxocc = int(space.occupancies.max(initial=0))
    logg = np.zeros(maxocc + 1)
    for k in range(1, maxocc + 1):
        gk = g(k)
        if gk <= 0:
            raise StateSpaceError("canonical weights need g(k) > 0 for k >= 1")
        logg[k] = logg[k - 1] + math.log(gk)
    logw = np.empty(space.size)
    for lo in range(0, space.size, RANK_ROWS):   # bounds the transient
        logw[lo:lo + RANK_ROWS] = \
            -logg[space.occupancies[lo:lo + RANK_ROWS]].sum(axis=1)
    w = np.exp(logw - logw.max())
    return w / w.sum()


# ---------------------------------------------------------------------------
# killed generator
# ---------------------------------------------------------------------------

def _m_matrix_lu(a):
    """SuperLU factors of the CSC M-matrix `a` (off-diagonal entries <= 0, a
    nonnegative diagonal that dominates its row).

    Elimination on a nonsingular M-matrix needs no pivoting: each Schur
    complement is again an M-matrix, so the diagonal pivots stay positive
    and do not grow.  When the nonzero pattern is symmetric, SuperLU keeps
    the diagonal pivots and orders by minimum degree on A + A^T, which
    fills roughly half as much as COLAMD with partial pivoting on the
    two-way generators; any other pattern is factored by plain `splu`.  An
    exactly zero pivot raises RuntimeError either way."""
    from scipy.sparse.linalg import splu

    pattern = a != 0
    if (pattern != pattern.T).nnz == 0:
        return splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
    return splu(a)


class _ComponentLU:
    """The inverse of -L, one weakly connected component of the jump graph
    at a time.  No jump joins two components (on a box, two particle-number
    sectors), so -L is block diagonal up to a permutation and each block is
    factored alone (`_m_matrix_lu`), on the first solve whose right-hand
    side touches it; a block no solve needs is never factored.
    `members[c]` lists the states of component c in increasing order and
    `labels` gives each state's component."""

    def __init__(self, matrix):
        from scipy.sparse.csgraph import connected_components

        self._matrix = matrix
        count, self.labels = connected_components(
            matrix, directed=True, connection="weak")
        order = np.argsort(self.labels, kind="stable")
        bounds = np.searchsorted(self.labels[order], np.arange(1, count))
        self.members = np.split(order, bounds)
        self._factors = {}

    def block(self, c: int):
        """L on component c, as a CSR matrix on its own indices."""
        if len(self.members) == 1:
            return self._matrix
        idx = self.members[c]
        return self._matrix[idx][:, idx]

    def factor(self, c: int):
        """SuperLU factors of -L on component c, made once."""
        if c not in self._factors:
            self._factors[c] = _m_matrix_lu((-self.block(c)).tocsc())
        return self._factors[c]

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """(-L)^{-1} b, or its transpose with trans="T", factoring only the
        components where b is not zero; the solution is exactly zero on the
        others."""
        b = np.asarray(b, dtype=np.float64)
        if len(self.members) == 1:
            return self.factor(0).solve(b, trans=trans)
        out = np.zeros_like(b)
        for c in np.unique(self.labels[b != 0]):
            idx = self.members[c]
            out[idx] = self.factor(c).solve(b[idx], trans=trans)
        return out


@dataclass
class KilledGenerator:
    """Generator restricted to the complement of the target with killing.

    `matrix` rows/cols index A^c states (`ac_indices` maps into the space);
    `killing` holds the total rate into the target per state; row sums equal
    minus the killing rate (strictly negative exactly where a jump into the
    target is possible).  The space is a run of particle-number sectors, so
    every jump that does not kill stays in it: no rate is cut.  `lu`
    serves every solve with -L or its transpose (the Perron vectors and the
    occupation map), factoring each component of the jump graph once, on
    first need, so `matrix` must not change after `lu` is read; a
    generator that needs no solve (a defect that `principal_decay` reads
    off the graph) is never factored.  `lu` checks the one precondition of
    those solves, that the generator is its own `absorbing_core` (as
    `restrict_to_core` returns it), through `_require_core`.  -L is an
    M-matrix (nonpositive off-diagonal, row sums the killing rates), so it
    is factored with diagonal pivots (`_m_matrix_lu`)."""

    space: StateSpace
    target: TargetSet
    matrix: "scipy.sparse.csr_matrix"
    killing: np.ndarray
    ac_indices: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def lu(self) -> _ComponentLU:
        """Solves with -L, factored one weakly connected component at a
        time (`_ComponentLU`): a solve factors only the components its
        right-hand side touches, so the occupation map of a QSD held by one
        sector factors that sector alone.  -L is weakly chained diagonally
        dominant, hence nonsingular, exactly when every state reaches
        killing, that is when the generator is its own `absorbing_core`;
        any other generator raises SolverError (`_require_core`) before
        anything is factored."""
        _require_core(self)
        return _ComponentLU(self.matrix)


def _require_core(kg: KilledGenerator) -> None:
    """Raise SolverError unless `kg` is its own `absorbing_core`, naming
    the number of states outside the core and the occupancy of the first
    of them."""
    core = absorbing_core(kg)
    if not core.all():
        outside = np.flatnonzero(~core)
        first = kg.space.occupancies[kg.ac_indices[outside[0]]]
        raise SolverError(
            f"{outside.size} survivor states are not killed almost "
            f"surely, e.g. {tuple(first.tolist())}")


def build_killed_generator(space: StateSpace, model: Model,
                           target: TargetSet) -> KilledGenerator:
    """Assemble the sparse killed generator over the A^c states.

    The rate of every (state, site, offset) jump comes from `jump_rates`
    on the model's jump table and b table, the rule the Monte Carlo engine
    reads too.  A jump into the target kills and every
    other one moves the state within its sector, which the space holds
    unless its per-site cap is below the rate family's (StateSpaceError).
    The states are taken in blocks that move at most `RANK_ROWS` states per
    offset, which bounds the transient memory; the matrix does not depend
    on the blocks.  The diagonal and the killing rates are summed in
    (state, site, offset) order."""
    from scipy.sparse import csr_matrix

    in_window = target.mask(space.lattice.num_sites)
    occ_all = space.occupancies
    in_a = occ_all[:, in_window].sum(axis=1) > target.threshold
    ac_indices = np.flatnonzero(~in_a)
    n_ac = ac_indices.size
    pos = -np.ones(space.size, dtype=np.int64)
    pos[ac_indices] = np.arange(n_ac)
    nbr, w = model.jump_table()
    top = int(occ_all.max(axis=1, initial=0)[ac_indices].max(initial=0))
    hard_cap = model.rates.max_site_occupancy
    if hard_cap is not None and top > hard_cap:
        raise StateSpaceError(f"the space holds occupancies above the rate "
                              f"family's per-site bound {hard_cap}")
    btab = model.rates.b_table(top)
    rows, cols, vals = [], [], []
    diag = np.empty(n_ac)
    killing = np.empty(n_ac)
    # a block of states moves at most RANK_ROWS states per offset
    step = max(1, RANK_ROWS // space.n_sites)
    for lo in range(0, n_ac, step):
        occ = occ_all[ac_indices[lo:lo + step]]
        # rates per (state, site, offset) of the jumps the chain makes
        made = jump_rates(occ, nbr, w, btab)
        # an A^c state holds at most the threshold in the window, so a jump
        # kills exactly when it carries a particle in while the window is
        # full
        full = occ[:, in_window].sum(axis=1) == target.threshold
        dies = full[:, None, None] & in_window[nbr] & ~in_window[:, None]
        for o in range(nbr.shape[1]):
            row, site = np.nonzero((made[:, :, o] > 0.0) & ~dies[:, :, o])
            dest = nbr[site, o]
            moved = occ[row]
            moved[np.arange(row.size), site] -= 1
            moved[np.arange(row.size), dest] += 1
            tgt = space._rank(moved)
            if (tgt < 0).any():
                bad = moved[np.argmax(tgt < 0)]
                raise StateSpaceError(
                    f"state {tuple(bad.tolist())} not in the space")
            rows.append(lo + row)
            cols.append(pos[tgt])
            vals.append(made[row, site, o])
        # running sums in (site, offset) order
        made = made.reshape(occ.shape[0], -1)
        diag[lo:lo + step] = 0.0 - made.cumsum(axis=1)[:, -1]
        killing[lo:lo + step] = np.where(
            dies.reshape(made.shape), made, 0.0).cumsum(axis=1)[:, -1]
    diagonal = np.arange(n_ac)
    mat = csr_matrix((np.concatenate(vals + [diag]),
                      (np.concatenate(rows + [diagonal]),
                       np.concatenate(cols + [diagonal]))),
                     shape=(n_ac, n_ac))
    return KilledGenerator(space, target, mat, killing, ac_indices)


# ---------------------------------------------------------------------------
# principal decay
# ---------------------------------------------------------------------------

@dataclass
class SpectralResult:
    decay_rate: float
    right_vector: np.ndarray | None
    qsd: np.ndarray | None                  # left vector, normalized to mass 1
    right_residual: float
    left_residual: float
    defective: bool
    strongly_connected_components: int
    fit_window: tuple[float, float] | None = None
    jordan_block: int | None = None         # set when the graph shows it
    certificate: dict | None = None         # set on a multi-sector core

    def to_dict(self) -> dict:
        out = {
            "decay_rate": self.decay_rate,
            "right_residual": self.right_residual,
            "left_residual": self.left_residual,
            "defective": self.defective,
            "strongly_connected_components": self.strongly_connected_components,
            "fit_window": list(self.fit_window) if self.fit_window else None,
        }
        if self.defective:          # a Perron pair's report keeps its bytes
            out["jordan_block"] = self.jordan_block
        if self.certificate:        # so does a one-component report
            out.update(self.certificate)
        return out


def _dominant_vector(solve: Callable[[np.ndarray], np.ndarray],
                     n: int) -> np.ndarray:
    """Unit eigenvector of the largest-magnitude eigenvalue of the operator
    `solve` (an inverse), by Arnoldi from the all-ones vector.  Without a
    converged Ritz pair the start vector comes back, for the Perron checks
    to judge."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    op = LinearOperator((n, n), matvec=solve, dtype=np.float64)
    try:
        x = eigs(op, k=1, which="LM", tol=0, v0=np.ones(n))[1][:, 0].real
    except ArpackNoConvergence:
        x = np.ones(n)
    return x / np.linalg.norm(x)


def _jordan_chain(matrix, n_scc: int) -> int:
    """Size of the Jordan block of L at its smallest exit rate when the
    jump graph alone shows that it is one block of two or more states,
    else 0.

    When every strongly connected block is a single state (`n_scc` equal
    to the dimension), L is triangular up to a permutation and its
    spectrum is the diagonal.  Let M be the states whose exit rate -L_ii
    equals the smallest one exactly.  By Rothblum's index theorem the
    largest Jordan block at that eigenvalue has the size of the longest
    path through states of M, so when M has two or more states and every
    two of them are joined by a path, the eigenvalue is one Jordan block of
    size |M|.  One breadth-first search per state of M counts the pairs it
    reaches; in an acyclic graph all |M| (|M| - 1) / 2 pairs are reached
    exactly when M lies on one path."""
    from scipy.sparse.csgraph import breadth_first_order

    n = matrix.shape[0]
    if n_scc < n:
        return 0
    rates = -matrix.diagonal()
    minimal = rates == rates.min()
    k = int(np.count_nonzero(minimal))
    if k < 2:
        return 0
    pairs = 0
    for s in np.flatnonzero(minimal):
        reached = breadth_first_order(matrix, s, directed=True,
                                      return_predecessors=False)
        pairs += int(np.count_nonzero(minimal[reached])) - 1
    return k if pairs == k * (k - 1) // 2 else 0


def _survival_fit(kg: KilledGenerator, right_residual: float,
                  left_residual: float, n_scc: int,
                  jordan_block: int | None = None) -> SpectralResult:
    """The defective result of `principal_decay`: its survival fit, with
    the given residuals and Jordan block.  The fit sits far out because
    polynomial prefactors bias the local slope by O(log t / t)."""
    unif = 1.0 / max(1.0, float(-kg.matrix.diagonal().min()))
    fit_times = np.linspace(500.0, 1000.0, 9) * unif
    init = np.ones(kg.dim) / kg.dim
    logs = exact_survival(kg, init, fit_times, return_log=True)
    fit = fit_decay(SurvivalCurve.from_log(fit_times, logs))
    return SpectralResult(fit.lambda_hat, None, None, right_residual,
                          left_residual, True, n_scc, fit_window=fit.window,
                          jordan_block=jordan_block)


def _perron_pair(L, lu) -> tuple:
    """Both Perron vectors of the generator L (CSC) from `lu`, whose
    `solve` inverts -L and, with trans="T", its transpose: the dominant
    eigenvectors of (-L)^{-1} and its transpose by shift-invert Arnoldi,
    or a dense eigensolve on at most two states.  Returns ((rate, right,
    left), right residual, left residual), with None in place of the
    triple when the pair fails the guard of `principal_decay`."""
    from scipy.linalg import eig
    from scipy.sparse.linalg import norm as sparse_norm

    n = L.shape[0]
    if n <= 2:
        values, lefts, rights = eig(L.toarray(), left=True)
        top = int(np.argmax(values.real))
        right, left = rights[:, top].real, lefts[:, top].real
    else:
        right = _dominant_vector(lu.solve, n)
        left = _dominant_vector(lambda x: lu.solve(x, trans="T"), n)
    nu_r = float(right @ (L @ right))
    nu_l = float(left @ (L.T @ left))
    res_r = float(np.linalg.norm(L @ right - nu_r * right, np.inf))
    res_l = float(np.linalg.norm(L.T @ left - nu_l * left, np.inf))
    floor = np.finfo(np.float64).eps * float(sparse_norm(L, np.inf))
    ok = (max(res_r, res_l, floor) <= 1e-10 * abs(float(left @ right))
          and abs(nu_r - nu_l) <= 1e-8)
    if ok:
        if right.sum() < 0:
            right = -right
        if left.sum() < 0:
            left = -left
        if (right < -1e-9).any() or (left < -1e-9).any():
            ok = False  # mixed signs: not a Perron pair (reducible structure)
    if not ok:
        return None, res_r, res_l
    left = np.clip(left, 0.0, None)
    left /= left.sum()
    return (-0.5 * (nu_r + nu_l), right, left), res_r, res_l


def _whole_core(kg: KilledGenerator, n_scc: int) -> SpectralResult:
    """The Perron pair of the whole core through `kg.lu`, or the survival
    fit when there is none."""
    pair, res_r, res_l = _perron_pair(kg.matrix.tocsc(), kg.lu)
    if pair is None:
        return _survival_fit(kg, res_r, res_l, n_scc)
    return SpectralResult(*pair, res_r, res_l, False, n_scc)


def _slowest_component(kg: KilledGenerator, strong: np.ndarray,
                       n_scc: int) -> SpectralResult:
    """`principal_decay` of a core whose jump graph has several weakly
    connected components (`kg.lu.members`): the pair of the slowest one,
    with the others certified slower by Collatz-Wielandt lower bounds.

    Let A = -L.  For a positive x the least ratio (A x)_i / x_i over a
    component B bounds its rate from below, lambda_B >= min_B (A x)_i /
    x_i (Berman & Plemmons 1994, ch. 2), and the largest ratio bounds it
    from above.  Each ratio is lowered by the rounding of its product,
    (terms + 2) eps (|A| x)_i / x_i, with |A| x = 2 diag(A) x - A x since A
    has no positive off-diagonal entry.  The x are the Jacobi iterates
    x <- x + (1 - A x) / diag(A) from x = 1, all positive because A is a
    nonsingular M-matrix (Varga 1962); they tend to the mean killing times.

    After `JACOBI_CANDIDATE` sweeps the component with the least upper
    bound is solved exactly on its own block (`_jordan_chain`, its factors
    from `kg.lu`, `_perron_pair`).  The sweeps go on until every other
    component's lower bound exceeds the least exact rate by the relative
    `RATE_TIE_RTOL`.  The components still short of it when a sweep moves
    none of their entries by more than `JACOBI_STALL` relatively, or after
    `JACOBI_SWEEPS` sweeps, are solved exactly too, and the least exact
    rate wins; so the answer never rests on the cap.  The winner's vectors
    are padded with exact zeros.  A component solved without a Perron pair
    sends the whole core down `_whole_core`."""
    lu = kg.lu
    members = lu.members
    sizes = np.array([m.size for m in members])
    order = np.concatenate(members)
    a = (-kg.matrix)[order][:, order].tocsr()
    diag = a.diagonal()
    slack = (int(np.diff(a.indptr).max()) + 2) * np.finfo(np.float64).eps
    lower = np.full(len(members), -np.inf)
    pending = np.ones(len(members), dtype=bool)
    pairs = {}

    def solve(c: int) -> bool:
        block = lu.block(c)
        n_block = np.unique(strong[members[c]]).size
        if _jordan_chain(block, n_block):
            return False
        pair, res_r, res_l = _perron_pair(block.tocsc(), lu.factor(c))
        pairs[c] = (pair, res_r, res_l)
        pending[c] = False
        return pair is not None

    # a sweep covers the pending components alone: `swept`, whose `rows`
    # of `a` (`a_s`, with diagonal `d_s`) start each component at `at`.  A
    # is block diagonal, so those rows read x on the same components only,
    # and a component that clears keeps the lower bound of that sweep.
    x = np.ones(kg.dim)
    swept, rows, a_s, d_s = np.arange(len(members)), slice(None), a, diag
    at = np.cumsum(sizes) - sizes
    perron = True
    for sweep in range(JACOBI_SWEEPS + 1):
        xs = x[rows]
        ax = a_s @ x
        lower[swept] = np.maximum(lower[swept], np.minimum.reduceat(
            (ax - slack * (2.0 * d_s * xs - ax)) / xs, at))
        if sweep == JACOBI_CANDIDATE:  # every component is pending
            upper = np.maximum.reduceat(ax / xs, at)
            perron = solve(int(np.argmin(upper)))
            if not perron:
                break
        if pairs:
            least = min(p[0][0] for p in pairs.values())
            pending &= lower <= least * (1.0 + RATE_TIE_RTOL)
            if not pending.any():
                break
        step = (1.0 - ax) / d_s
        live = np.repeat(pending[swept], sizes[swept])
        if pairs and (np.abs(step[live]) <= JACOBI_STALL * xs[live]).all():
            break
        x[rows] = xs + step
        if not live.all():  # pending shrank, and only it is left
            swept = np.flatnonzero(pending)
            rows = np.flatnonzero(np.repeat(pending, sizes))
            a_s, d_s = a[rows], diag[rows]
            at = np.cumsum(sizes[swept]) - sizes[swept]
    if perron and all(solve(c) for c in np.flatnonzero(pending)):
        return _padded(kg, pairs, lower, n_scc)
    res = _whole_core(kg, n_scc)
    res.certificate = {"components": len(members),
                       "components_solved": len(members),
                       "next_rate_lower_bound": None,
                       "components_at_minimum": None}
    return res


def _padded(kg: KilledGenerator, pairs: dict, lower: np.ndarray,
            n_scc: int) -> SpectralResult:
    """The result of `_slowest_component` from the exact pairs of the
    solved components and the certified lower bounds of the others."""
    rates = {c: p[0][0] for c, p in pairs.items()}
    win = min(rates, key=rates.get)
    (lam, right, left), res_r, res_l = pairs[win]
    idx = kg.lu.members[win]
    bounds = lower.copy()
    bounds[list(rates)] = list(rates.values())
    others = np.delete(bounds, win)
    padded_right, padded_left = np.zeros(kg.dim), np.zeros(kg.dim)
    padded_right[idx], padded_left[idx] = right, left
    res = SpectralResult(lam, padded_right, padded_left, res_r, res_l, False,
                         n_scc)
    res.certificate = {
        "components": len(kg.lu.members),
        "components_solved": len(pairs),
        "next_rate_lower_bound": float(others.min()),
        "components_at_minimum": sum(
            r <= lam * (1.0 + RATE_TIE_RTOL) for r in rates.values()),
    }
    return res


def principal_decay(kg: KilledGenerator) -> SpectralResult:
    """Smallest decay rate of the killed generator with both Perron vectors.

    `kg` must be its own `absorbing_core`, else SolverError
    (`_require_core`).  Which path runs is decided by the jump graph first,
    with no solve:

    - When every strongly connected block is a single state and two or
      more states share the smallest exit rate on one path
      (`_jordan_chain`), that rate is one Jordan block and no Perron pair
      exists.  Nothing is factored and no eigensolve runs: the result is
      the survival fit below, with both residuals NaN (no pair was
      computed) and `jordan_block` the number of those states.
    - A core whose jump graph is one weakly connected component (every
      `FixedTotal` core) is checked through `kg.lu`, the factorization of
      -L (diagonal pivots, see `_m_matrix_lu`).  The right and left
      vectors are the dominant eigenvectors of (-L)^{-1} and its
      transpose, found by shift-invert Arnoldi (ARPACK) on it.  Cores of
      at most two states, too small for ARPACK, take a dense eigensolve.
    - A core of several components (a `MaxTotal` core, one component per
      particle-number sector) is block diagonal, and its pair is the pair
      of its slowest component padded with zeros.  That component alone is
      factored and solved as above; every other one is shown to be slower
      by a Collatz-Wielandt lower bound on its rate, or solved too where
      the bound does not reach (`_slowest_component`).  The result's
      `certificate` gives the number of components, how many were solved,
      the least lower bound or exact rate among the others
      (`next_rate_lower_bound`) and how many components attain the rate
      (`components_at_minimum`; with two or more the QSD is not unique
      and the one returned is that of one of them).

    The pair is a Perron pair only when both residuals, and the rounding
    floor eps ||L||_inf, stay below 1e-10 |y^T x| (x, y the unit vectors:
    the eigenvalue condition number times the residual), the two Rayleigh
    quotients agree to 1e-8 and neither vector has mixed signs.  A
    defective eigenvalue has y^T x = 0 however small its residuals; the
    rate is then fitted (`fit_decay`) on the exact log-survival from the
    uniform law at the nine times linspace(500, 1000, 9) / max(1, largest
    exit rate), with the residuals of the rejected pair and no
    `jordan_block`.  All nine come from one log-mode sweep of
    `exact_survival`, as long as the Poisson truncation of the last time
    (1,231 products with the uniformized matrix when the largest exit rate
    is at least 1, so that the last Poisson mean is 1000), and the fit
    window is the suffix of that grid with the smallest residual mean
    square.  On a core of several components, a component without a
    Perron pair sends the whole core down the one-component path, with
    every component factored.

    On a chain reversible under some nu this is also the least Dirichlet
    quotient, with the right vector as its minimizer: `rayleigh_quotient`
    is this solve on the symmetrized core."""
    from scipy.sparse.csgraph import connected_components

    if kg.dim == 0:
        raise SolverError("empty surviving state space")
    n_scc, strong = connected_components(kg.matrix, directed=True,
                                         connection="strong")
    n_scc = int(n_scc)
    jordan_block = _jordan_chain(kg.matrix, n_scc)
    if jordan_block:
        _require_core(kg)
        return _survival_fit(kg, math.nan, math.nan, n_scc, jordan_block)
    if len(kg.lu.members) == 1:
        return _whole_core(kg, n_scc)
    return _slowest_component(kg, strong, n_scc)


# ---------------------------------------------------------------------------
# survival by uniformization
# ---------------------------------------------------------------------------

def _poisson_logpmf(lam: float) -> np.ndarray:
    """Poisson(lam) log-probabilities of 0 .. q + 1, q the (1 - POISSON_TOL)
    quantile: the least k with P(N <= k) >= 1 - POISSON_TOL, found as the
    ceiling of the inverse of `pdtr` stepped back by one where `pdtr`
    already reaches the level there.  The arithmetic is that of scipy's
    `poisson.logpmf` and `poisson.ppf`, which give the same bits."""
    from scipy.special import gammaln, pdtr, pdtrik, xlogy

    level = 1.0 - POISSON_TOL
    top = np.ceil(pdtrik(level, lam))
    below = max(top - 1.0, 0.0)
    if pdtr(below, lam) >= level:
        top = below
    k = np.arange(int(top) + 2)
    return xlogy(k, lam) - gammaln(k + 1) - lam


def exact_survival(kg: KilledGenerator, initial: np.ndarray,
                   ts: Sequence[float] | float, return_log: bool = False):
    """Mass of the killed semigroup: initial^T exp(t L) 1, for a nonnegative
    initial vector of positive mass.

    Uniformization at the largest exit rate u: with Q = I + L/u and
    m_k = initial^T Q^k 1, the mass at t is sum_k Poisson(k; u t) m_k,
    truncated for each t at its own (1 - POISSON_TOL) Poisson quantile plus
    one.  One sweep v_{k+1} = Q^T v_k up to the largest truncation keeps
    only the scalars m_k: v is rescaled to unit mass at every step and
    m_k is carried as the running product of the scales, or their running
    log-sum with `return_log`.  Each time is then one dot product with its
    Poisson weights, in plain mode sum_k p(k) m_k and in log mode
    logsumexp_k(log p(k) + log m_k), so log-survival stays representable
    far beyond double underflow.  Mass that vanishes exactly (Q nilpotent
    on the states left) leaves m_k = 0 from there on."""
    from scipy.sparse import identity as sparse_identity
    from scipy.special import logsumexp

    scalar = np.isscalar(ts)
    times = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    init = np.asarray(initial, dtype=np.float64)
    if init.shape != (kg.dim,):
        raise ValueError("initial vector dimension mismatch")
    if (init < 0).any():
        raise ValueError("initial vector has negative entries")
    mass = float(init.sum())
    if mass <= 0:
        raise SolverError("initial vector carries no mass")
    L = kg.matrix
    lam_u = float(-L.diagonal().min())
    # with no exit rate anywhere every weight sits at k = 0: no step is taken
    log_weights = [_poisson_logpmf(lam) if lam > 0 else np.zeros(1)
                   for lam in lam_u * times]
    scales = np.zeros(max(w.size for w in log_weights))
    scales[0] = mass
    v = init / mass
    if scales.size > 1:
        QT = ((L / lam_u) + sparse_identity(kg.dim, format="csr")).T.tocsr()
    for k in range(1, scales.size):
        v = QT @ v
        scales[k] = v.sum()
        if scales[k] <= 0:
            break
        v /= scales[k]
    if return_log:
        with np.errstate(divide="ignore"):
            log_mass = np.cumsum(np.log(scales))
        out = np.array([logsumexp(w + log_mass[:w.size])
                        for w in log_weights])
    else:
        masses = np.cumprod(scales)
        out = np.array([np.exp(w) @ masses[:w.size] for w in log_weights])
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# fixed point, sandwich, Rayleigh
# ---------------------------------------------------------------------------

def absorbing_core(kg: KilledGenerator) -> np.ndarray:
    """Mask of survivor states from which killing happens almost surely.

    On a finite lattice the conserved particle number splits the survivor
    set; sectors with too few particles to ever raise the window above the
    threshold never die (infinite hitting time, the trivial fixed point).
    The core keeps exactly the states that can reach killing and cannot leak
    into a class that cannot.  Each of the two masks is one breadth-first
    traversal of the reversed jump graph, started from a virtual state
    joined to every seed state."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    n = kg.dim
    jumps = kg.matrix.tocoo()
    edge = (jumps.row != jumps.col) & (jumps.data != 0)
    heads, tails = jumps.col[edge], jumps.row[edge]

    def reaching(seeds: np.ndarray) -> np.ndarray:
        reverse = csr_matrix(
            (np.ones(heads.size + seeds.size),
             (np.concatenate([heads, np.full(seeds.size, n)]),
              np.concatenate([tails, seeds]))),
            shape=(n + 1, n + 1))
        mask = np.zeros(n + 1, dtype=bool)
        mask[breadth_first_order(reverse, n, directed=True,
                                 return_predecessors=False)] = True
        return mask[:n]

    can_kill = reaching(np.flatnonzero(kg.killing > 0))
    return can_kill & ~reaching(np.flatnonzero(~can_kill))


def restrict_to_core(kg: KilledGenerator,
                     core: np.ndarray | None = None) -> KilledGenerator:
    """Killed generator restricted to the almost-surely-absorbed core (the
    core is closed under the dynamics, so rows are preserved verbatim)."""
    core = absorbing_core(kg) if core is None else np.asarray(core, bool)
    idx = np.flatnonzero(core)
    sub = kg.matrix[idx][:, idx].tocsr()
    return KilledGenerator(kg.space, kg.target, sub, kg.killing[idx],
                           kg.ac_indices[idx])


def occupation_vectors(kg: KilledGenerator, initial: np.ndarray,
                       n: int) -> list[np.ndarray]:
    """Unnormalized row vectors initial (-L)^{-k} for k = 1..n (transpose
    solves on the cached `kg.lu`); their sums are E[tau^k]/k!.  The solves
    stay on the components of the jump graph where `initial` has mass, and
    only those are factored: from a QSD held by one sector, that sector.
    `kg` must be its own `absorbing_core`, or `kg.lu` raises SolverError."""
    lu = kg.lu
    out = []
    x = np.asarray(initial, dtype=np.float64)
    for _ in range(n):
        x = lu.solve(x, trans="T")
        out.append(x)
    return out


def qsd_fixed_point_check(kg: KilledGenerator, mu: np.ndarray) -> dict:
    """L1 distance between mu and its occupation-map image, and the
    expected killing time from mu."""
    mu = np.asarray(mu, dtype=np.float64)
    occ_map = occupation_vectors(kg, mu, 1)[0]
    phi_mu = occ_map / occ_map.sum()
    return {"l1_distance": float(np.abs(phi_mu - mu).sum()),
            "expected_tau": float(occ_map.sum())}


@dataclass
class SandwichReport:
    t_grid: np.ndarray
    survival: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    entropy: float
    fg_mass: float

    def holds(self) -> bool:
        return bool(np.all(self.survival <= self.upper + SANDWICH_TOL)
                    and np.all(self.survival >= self.lower - SANDWICH_TOL)
                    and self.fg_mass >= 1.0 - 1e-12)


def hitting_sandwich_check(kg: KilledGenerator, nu_ac: np.ndarray,
                           f: np.ndarray, g: np.ndarray, lam: float,
                           t_grid: Sequence[float]) -> SandwichReport:
    """Exact check of exp(-H) exp(-lam t) <= P(tau > t) <= exp(-lam t).

    nu_ac is the stationary measure restricted (unnormalized) to the
    survivor states; f and g are the left/right eigenvector densities with
    unit nu-integral.  H is the relative entropy of fg nu w.r.t. nu."""
    nu_ac = np.asarray(nu_ac, dtype=np.float64)
    fg = np.asarray(f) * np.asarray(g)
    z = float(nu_ac @ fg)
    tilted = nu_ac * fg / z
    support = tilted > 0
    entropy = float(np.sum(tilted[support] * np.log(fg[support] / z)))
    t_grid = np.asarray(sorted(t_grid), dtype=np.float64)
    surv = exact_survival(kg, nu_ac, t_grid)
    upper = np.exp(-lam * t_grid)
    lower = math.exp(-entropy) * upper
    return SandwichReport(t_grid, surv, upper, lower, entropy, z)


def normalize_density(vector: np.ndarray, nu_ac: np.ndarray) -> np.ndarray:
    """Scale a nonnegative vector on survivor states so its nu-integral is 1;
    returns the density values (constant zero mass raises)."""
    v = np.clip(np.asarray(vector, dtype=np.float64), 0.0, None)
    mass = float(nu_ac @ v)
    if mass <= 0:
        raise SolverError("vector carries no nu mass")
    return v / mass


def rayleigh_quotient(model: Model, target: TargetSet, space: StateSpace,
                      nu_full: np.ndarray) -> SpectralResult:
    """Least Dirichlet quotient -<f, L f>_nu / <f, f>_nu of the
    symmetrized-half kernel over the functions f on the `absorbing_core` of
    its killed generator (f is zero on the target and on the states that are
    never killed, whose quotient would be a rounding-level 0).

    The chain is reversible under nu (checked: S = D^(1/2) (-L) D^(-1/2),
    D = diag(nu), must be symmetric), so by the variational principle the
    least quotient is its principal decay rate, and the minimizing f is its
    right Perron vector.  The result is `principal_decay` of the
    symmetrized core, whose `decay_rate` is the quotient and whose
    `right_vector` is f; a core without a Perron pair (`defective`) raises
    SolverError rather than pass a survival fit off as a quotient."""
    from scipy.sparse import csr_matrix

    sym_model = Model(model.lattice, model.kernel.symmetrized_half(),
                      model.rates)
    kgs = restrict_to_core(build_killed_generator(space, sym_model, target))
    nu = np.asarray(nu_full, dtype=np.float64)[kgs.ac_indices]
    if (nu <= 0).any():
        raise SolverError("symmetrized quotient needs nu > 0 on the core")
    d = np.sqrt(nu)
    neg = (-kgs.matrix).tocoo()
    S = csr_matrix(((d[neg.row] * neg.data) / d[neg.col], (neg.row, neg.col)),
                   shape=neg.shape)
    asym = float(abs(S - S.T).max())
    if asym > 1e-8:
        raise SolverError(
            "symmetrized-kernel chain is not reversible under the supplied "
            f"measure (asymmetry {asym:.2e}); the quotient is ill-posed")
    res = principal_decay(kgs)
    if res.defective:
        raise SolverError("symmetrized core has no Perron pair; its decay "
                          "rate is a survival fit, not a quotient")
    return res


# ---------------------------------------------------------------------------
# totally asymmetric exclusion oracles
# ---------------------------------------------------------------------------

def tasep_line_survival(rho: float, t) -> np.ndarray | float:
    """Closed-form survival (1 - rho) exp(-rho t) for the half-line gas with
    the origin as the trap."""
    if not 0.0 < rho < 1.0:
        raise ValueError("density must lie in (0, 1)")
    return (1.0 - rho) * np.exp(-rho * np.asarray(t, dtype=np.float64))


@dataclass(frozen=True)
class TasepCircleOracle:
    """Closed forms for the ring of N sites with a fixed particle number, a
    single trap site at the origin, and clockwise unit jumps."""

    n_sites: int
    n_particles: int

    def __post_init__(self):
        if not 1 <= self.n_particles < self.n_sites:
            raise ValueError(f"particle count {self.n_particles} must lie "
                             f"in [1, {self.n_sites - 1}]")

    def chi(self, occupancy: np.ndarray) -> int:
        """Empty gap behind the origin: least k >= 0 with eta(-k) = 1."""
        occ = np.asarray(occupancy)
        for k in range(self.n_sites):
            if occ[(-k) % self.n_sites] == 1:
                return k
        raise ValueError("no particle on the ring")

    def survival_given_chi(self, chi, t) -> np.ndarray | float:
        """P(N_t < chi) = `pdtr(chi - 1, t)`, N the unit Poisson clock of
        the particle behind the origin, which needs chi jumps to reach it:
        one at t = 0 whenever the origin starts empty, 0 when chi = 0.
        Arrays of chi and t broadcast."""
        from scipy.special import pdtr

        out = np.where(chi > 0, pdtr(np.maximum(chi, 1) - 1, t), 0.0)
        return out if out.ndim else float(out)

    def survival(self, occupancy: np.ndarray, t):
        return self.survival_given_chi(self.chi(occupancy), t)

    def chi_distribution(self) -> np.ndarray:
        """Law of the gap under the uniform fixed-count measure."""
        N, m = self.n_sites, self.n_particles
        probs = np.zeros(N - m + 1)
        probs[0] = m / N
        total = math.comb(N, m)
        for c in range(1, N - m + 1):
            probs[c] = math.comb(N - c - 1, m - 1) / total
        return probs

    def mixture_survival(self, t):
        """P(tau > t) under the uniform fixed-count law: the survival given
        each gap against the gap's law."""
        dist = self.chi_distribution()
        t = np.asarray(t, dtype=np.float64)
        out = self.survival_given_chi(np.arange(dist.size), t[..., None]) \
            @ dist
        return out if out.ndim else float(out)

    def log_mixture_survival(self, t) -> np.ndarray | float:
        """log P(tau > t) under the uniform mixture, stable at huge t where
        the probability underflows (survival ~ e^{-t} poly(t))."""
        from scipy.special import gammaln, logsumexp

        dist = self.chi_distribution()
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        chunks = []
        for c, p in enumerate(dist):
            if p <= 0 or c == 0:
                continue
            ks = np.arange(c)
            chunks.append(math.log(p) - t[:, None]
                          + ks * np.log(np.clip(t[:, None], 1e-300, None))
                          - gammaln(ks + 1))
        stacked = np.concatenate(chunks, axis=1)
        out = logsumexp(stacked, axis=1)
        return out if out.size > 1 else float(out[0])

    @property
    def decay_rate(self) -> float:
        """The ring decay rate is 1 whatever the density: the finite ring
        approximation misses the half-line rates below 1."""
        return 1.0

    def yaglom_ratio(self, occupancy: np.ndarray) -> float:
        """Long-time conditioned likelihood ratio under the reversed ring
        dynamics: binom(N, m) on the fully packed block behind the origin,
        zero elsewhere."""
        N, m = self.n_sites, self.n_particles
        occ = np.asarray(occupancy)
        prod = 1.0
        for i in range(1, m + 1):
            prod *= occ[(-i) % N]
        return math.comb(N, m) * float(prod)
