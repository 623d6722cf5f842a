"""Lattices, jump kernels, rate families, the target event and the jump-rate
rule.

A model is the triple (lattice, kernel, rates); together with a TargetSet it
fully determines the killed dynamics.  A state is an int64 occupancy row
(many states: a matrix with one row each).  A particle jumps from x to y at
rate p(y - x) b(eta_x, eta_y); `jump_rates` evaluates that rule for every
jump of every row from two tables, `Model.jump_table` (destination and
kernel weight per (site, offset)) and `RateFunction.b_table` (b per
occupancy pair).  It is the only copy of the rule: the Monte Carlo engine
and the exact generator both read their rates from it.  Structural
hypotheses on the kernel and on the rate function are checked by
`validate_model`, which returns a report rather than raising: a model that
fails a hypothesis can still be simulated, it just loses the guarantees
attached to that hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

TORUS = "torus"
BLOCKED = "blocked"

ZERO_RANGE = "zero_range"
EXCLUSION = "exclusion"
MISANTHROPE = "misanthrope"

HYPOTHESIS_TOL = 1e-12
# largest occupancy at which properties of b and g over N are scanned
OCCUPANCY_CAP = 64


class ModelError(ValueError):
    """Invalid model specification."""


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    """Finite box in Z^d, either periodic (torus) or with blocked boundary.

    Sites are indexed row-major: site = ravel(coords, extent).  On the torus
    displacements wrap modulo the extent; in blocked mode a displacement that
    leaves the box has no destination (jump rate zero).
    """

    extent: tuple[int, ...]
    boundary: str = TORUS

    def __post_init__(self):
        if self.boundary not in (TORUS, BLOCKED):
            raise ModelError(f"unknown boundary mode {self.boundary!r}")
        if len(self.extent) == 0 or any(int(e) <= 0 for e in self.extent):
            raise ModelError(f"extent must be positive per axis, got {self.extent}")
        object.__setattr__(self, "extent", tuple(int(e) for e in self.extent))

    @property
    def dimension(self) -> int:
        return len(self.extent)

    @property
    def num_sites(self) -> int:
        return int(np.prod(self.extent))

    def neighbor_table(self, offsets: np.ndarray) -> np.ndarray:
        """int64[num_sites, n_offsets]; entry -1 where the jump is blocked."""
        n = self.num_sites
        offsets = np.atleast_2d(np.asarray(offsets, dtype=np.int64))
        coords = np.stack(np.unravel_index(np.arange(n), self.extent), axis=1)
        table = np.empty((n, len(offsets)), dtype=np.int64)
        extent = np.asarray(self.extent, dtype=np.int64)
        for k, off in enumerate(offsets):
            moved = coords + off
            if self.boundary == TORUS:
                moved %= extent
                table[:, k] = np.ravel_multi_index(moved.T, self.extent)
            else:
                ok = ((moved >= 0) & (moved < extent)).all(axis=1)
                col = np.full(n, -1, dtype=np.int64)
                if ok.any():
                    col[ok] = np.ravel_multi_index(moved[ok].T, self.extent)
                table[:, k] = col
        return table

    def graph_distance(self, sources: Sequence[int], offsets: np.ndarray) -> np.ndarray:
        """Minimal number of kernel jumps needed to reach each site FROM the
        source set, following the given offsets (boundary-aware).  -1 where
        unreachable."""
        # BFS from the sources along reversed offsets gives, at each site x,
        # the minimal jump count of a path x -> sources along the offsets;
        # each step advances the whole frontier through the neighbor table
        back = self.neighbor_table(-np.atleast_2d(np.asarray(offsets)))
        dist = np.full(self.num_sites, -1, dtype=np.int64)
        frontier = np.unique(np.asarray(sources, dtype=np.int64))
        dist[frontier] = 0
        step = 0
        while frontier.size:
            step += 1
            reached = np.unique(back[frontier])
            frontier = reached[(reached >= 0) & (dist[reached] < 0)]
            dist[frontier] = step
        return dist


# ---------------------------------------------------------------------------
# jump kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpKernel:
    """Translation-invariant finite-range single-particle kernel.

    Stored as displacement vectors with one weight each; translation
    invariance and finite range therefore hold by construction.
    """

    offsets: np.ndarray  # int64[n_offsets, d]
    weights: np.ndarray  # float64[n_offsets]

    def __post_init__(self):
        off = np.atleast_2d(np.asarray(self.offsets, dtype=np.int64))
        w = np.asarray(self.weights, dtype=np.float64)
        if off.shape[0] != w.shape[0]:
            raise ModelError("offsets and weights length mismatch")
        if off.shape[0] == 0:
            raise ModelError("kernel needs at least one offset")
        if len({tuple(o) for o in off}) != off.shape[0]:
            raise ModelError("duplicate offsets")
        if any(not o.any() for o in off):
            raise ModelError("null offset not allowed")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.offsets.shape[1]

    @property
    def range(self) -> int:
        """Kernel range R: max Chebyshev norm over supported displacements."""
        return int(np.abs(self.offsets).max())

    @property
    def drift(self) -> np.ndarray:
        return self.weights @ self.offsets

    def reversed(self) -> "JumpKernel":
        """Adjoint kernel p*(i, j) = p(j, i): negated displacements."""
        return JumpKernel(-self.offsets, self.weights.copy())

    def symmetrized_half(self) -> "JumpKernel":
        """Kernel with weights (p(o) + p(-o)) / 2, i.e. (p + p*) / 2."""
        acc: dict[tuple, float] = {}
        for o, w in zip(self.offsets, self.weights):
            acc[tuple(o)] = acc.get(tuple(o), 0.0) + w / 2.0
            acc[tuple(-o)] = acc.get(tuple(-o), 0.0) + w / 2.0
        offs = np.array(sorted(acc), dtype=np.int64)
        return JumpKernel(offs, np.array([acc[tuple(o)] for o in offs]))

    def symmetrization_irreducible(self, lattice: Lattice) -> bool:
        """BFS over offsets and negated offsets reaches every torus residue."""
        probe = Lattice(lattice.extent, TORUS)
        both = np.vstack([self.offsets, -self.offsets])
        dist = probe.graph_distance([0], -both)  # reach FROM site 0
        return bool((dist >= 0).all())


# ---------------------------------------------------------------------------
# rate functions g and b
# ---------------------------------------------------------------------------

def g_identity(k: int) -> float:
    return float(k)


def g_constant(k: int) -> float:
    return 1.0 if k >= 1 else 0.0


def g_capped(cap: int) -> Callable[[int], float]:
    def g(k: int) -> float:
        return float(min(k, cap))
    return g


def g_from_table(values: Sequence[float]) -> Callable[[int], float]:
    vals = [float(v) for v in values]
    if not vals or vals[0] != 0.0:
        raise ModelError("g table must start with g(0)=0")
    def g(k: int) -> float:
        return vals[k] if k < len(vals) else vals[-1]
    return g


@dataclass(frozen=True)
class RateFunction:
    """Misanthrope rate b(n, m) with the associated one-site weight g.

    `family` picks the interpretation: zero_range uses b(n, m) = g(n),
    exclusion restricts occupancies to {0, 1}, misanthrope takes an explicit
    b.  `g_sup` is sup_k g(k) when finite (fugacity domain boundary), None
    when g is unbounded.  Properties of b and g over all of N (`delta`,
    `validate_model`) are scanned on [0, OCCUPANCY_CAP], or [0, 1] for
    exclusion.
    """

    family: str
    g: Callable[[int], float]
    b: Callable[[int, int], float]
    g_sup: float | None = None

    @staticmethod
    def zero_range(g: Callable[[int], float],
                   g_sup: float | None = None) -> "RateFunction":
        def b(n: int, m: int) -> float:
            return g(n)
        return RateFunction(ZERO_RANGE, g, b, g_sup)

    @staticmethod
    def exclusion() -> "RateFunction":
        def b(n: int, m: int) -> float:
            return 1.0 if n >= 1 and m == 0 else 0.0
        return RateFunction(EXCLUSION, g_constant, b)

    @staticmethod
    def misanthrope(b: Callable[[int, int], float], g: Callable[[int], float],
                    g_sup: float | None = None) -> "RateFunction":
        return RateFunction(MISANTHROPE, g, b, g_sup)

    @property
    def target_dependent(self) -> bool:
        """Whether b(n, m) depends on the destination occupancy m."""
        return self.family != ZERO_RANGE

    @property
    def max_site_occupancy(self) -> int | None:
        """Hard per-site bound implied by the family (1 for exclusion)."""
        return 1 if self.family == EXCLUSION else None

    def delta(self) -> float:
        """Lipschitz bound sup_n (b(n+1, 0) - b(n, 0)), scanned up to
        OCCUPANCY_CAP (1 for exclusion)."""
        cap = self.max_site_occupancy or OCCUPANCY_CAP
        return max(self.b(n + 1, 0) - self.b(n, 0) for n in range(cap))

    def b_table(self, cap: int) -> np.ndarray:
        """Dense table b(n, m) for 0 <= n, m <= cap (up to the family's hard
        per-site bound instead, when it has one), as `jump_rates` reads it.
        Its row n = 0 is zero, since an empty site has nothing to move.  A
        negative, infinite or NaN entry is a ModelError: the engine could
        not draw a waiting time from it."""
        cap = cap if self.max_site_occupancy is None \
            else self.max_site_occupancy
        tab = np.empty((cap + 1, cap + 1), dtype=np.float64)
        for n in range(cap + 1):
            for m in range(cap + 1):
                tab[n, m] = self.b(n, m)
        if not (np.isfinite(tab) & (tab >= 0)).all():
            raise ModelError("negative or non-finite jump rate in b table")
        tab[0] = 0.0
        return tab


# ---------------------------------------------------------------------------
# target set and model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetSet:
    """Density-fluctuation event: sum of occupancies over `sites` exceeds k."""

    sites: np.ndarray
    threshold: int

    def __post_init__(self):
        sites = np.unique(np.asarray(self.sites, dtype=np.int64))
        if sites.size == 0:
            raise ModelError("target window must be nonempty")
        if int(self.threshold) < 0:
            raise ModelError("threshold must be nonnegative")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "threshold", int(self.threshold))

    def mask(self, n_sites: int) -> np.ndarray:
        """Indicator of the window sites among `n_sites` sites; a ModelError
        when a window site is negative or not below `n_sites`, so that no
        site wraps around."""
        if self.sites[0] < 0 or self.sites[-1] >= n_sites:
            raise ModelError("target window outside the lattice")
        inside = np.zeros(n_sites, dtype=bool)
        inside[self.sites] = True
        return inside

    def window_sum(self, occupancy: np.ndarray) -> int:
        return int(np.asarray(occupancy)[self.sites].sum())

    def contains(self, occupancy: np.ndarray) -> bool:
        return self.window_sum(occupancy) > self.threshold


@dataclass(frozen=True)
class Model:
    """Lattice + kernel + rate function; immutable and shareable."""

    lattice: Lattice
    kernel: JumpKernel
    rates: RateFunction

    def __post_init__(self):
        if self.kernel.dimension != self.lattice.dimension:
            raise ModelError("kernel dimension does not match lattice")

    def reversed(self) -> "Model":
        return Model(self.lattice, self.kernel.reversed(), self.rates)

    def jump_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Destination and kernel weight of every (site, offset) jump, each
        of shape (num_sites, n_offsets).  A blocked jump points at site 0
        with weight 0, so `jump_rates` gives it rate 0 with no mask."""
        if (self.kernel.weights < 0).any():
            raise ModelError("negative kernel weight")
        nbr = self.lattice.neighbor_table(self.kernel.offsets)
        return (np.maximum(nbr, 0),
                np.where(nbr >= 0, self.kernel.weights, 0.0))


def jump_rates(occ: np.ndarray, nbr: np.ndarray, w: np.ndarray,
               btab: np.ndarray) -> np.ndarray:
    """Rate w(y - x) b(occ_x, occ_y) of every jump of every row of `occ`,
    shape (rows, sites, offsets), from `Model.jump_table` (`nbr`, `w`) and
    `RateFunction.b_table` (`btab`, which must cover every occupancy of
    `occ`).  It is 0 where the jump is blocked or the source site is
    empty."""
    return w * btab[occ[:, :, None], occ[:, nbr]]


# ---------------------------------------------------------------------------
# hypothesis validation
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class ValidationReport:
    checks: list[Check] = field(default_factory=list)
    delta: float = float("nan")
    drift: np.ndarray | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "delta": self.delta,
            "drift": None if self.drift is None else list(map(float, self.drift)),
            "warnings": list(self.warnings),
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


def _check_pairs(report, name, ranges, predicate):
    """Scan predicate over the cartesian product of ranges; witness on fail."""
    for args in np.ndindex(*[len(r) for r in ranges]):
        vals = tuple(r[a] for r, a in zip(ranges, args))
        if not predicate(*vals):
            report.checks.append(Check(
                name, False, "violated at " + str(vals)))
            return
    report.checks.append(Check(name, True))


def validate_model(lattice: Lattice, kernel: JumpKernel,
                   rates: RateFunction) -> ValidationReport:
    """Check every structural hypothesis and report pass/fail with witnesses.

    b and g are quantified over all of N in the definitions; they are scanned
    here on [0, OCCUPANCY_CAP] (1 for the exclusion family).
    """
    rep = ValidationReport()
    cap = rates.max_site_occupancy or OCCUPANCY_CAP
    b, g = rates.b, rates.g

    w = kernel.weights
    rep.checks.append(Check(
        "kernel_weights_nonnegative", bool((w >= 0).all()),
        "" if (w >= 0).all() else f"min weight {w.min()}"))
    norm = float(w.sum())
    rep.checks.append(Check(
        "kernel_normalized", abs(norm - 1.0) <= HYPOTHESIS_TOL,
        "" if abs(norm - 1.0) <= HYPOTHESIS_TOL else f"sum = {norm}"))
    rep.checks.append(Check("kernel_finite_range", True,
                            f"R = {kernel.range}"))
    irr = kernel.symmetrization_irreducible(lattice)
    rep.checks.append(Check("symmetrization_irreducible", irr))
    rep.drift = kernel.drift
    if not rep.drift.any():
        rep.warnings.append(
            "kernel drift is zero; the drift hypothesis is not satisfied "
            "(symmetric runs are still useful for spectral cross-checks)")

    occ = range(cap + 1)
    pos = range(1, cap + 1)
    _check_pairs(rep, "b_vanishes_from_empty", (occ,),
                 lambda m: b(0, m) == 0.0)
    if cap >= 1:
        _check_pairs(rep, "b_nondecreasing_in_source", (range(cap), occ),
                     lambda n, m: b(n + 1, m) >= b(n, m) - HYPOTHESIS_TOL)
        _check_pairs(rep, "b_nonincreasing_in_destination", (occ, range(cap)),
                     lambda n, m: b(n, m + 1) <= b(n, m) + HYPOTHESIS_TOL)
        _check_pairs(
            rep, "b_antisymmetric_part_state_free", (pos, pos),
            lambda n, m: abs((b(n, m) - b(m, n))
                             - (b(n, 0) - b(m, 0))) <= HYPOTHESIS_TOL)
        _check_pairs(
            rep, "b_g_compatible", (pos, pos),
            lambda n, m: abs(b(n, m - 1) * g(m)
                             - b(m, n - 1) * g(n)) <= HYPOTHESIS_TOL)

    rep.delta = rates.delta()
    rep.checks.append(Check("delta_finite", math.isfinite(rep.delta),
                            f"delta = {rep.delta}"))

    gv = [g(k) for k in range(cap + 1)]
    rep.checks.append(Check("g_zero_at_zero", gv[0] == 0.0))
    if cap >= 1:
        rep.checks.append(Check(
            "g_one_at_one", abs(gv[1] - 1.0) <= HYPOTHESIS_TOL,
            f"g(1) = {gv[1]}"))
        mono = all(gv[k + 1] >= gv[k] - HYPOTHESIS_TOL for k in range(cap))
        rep.checks.append(Check("g_nondecreasing", mono))
    return rep
