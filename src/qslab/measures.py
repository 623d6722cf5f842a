"""One-site marginals, product measures, weighted ensembles and their checks.

The marginal at fugacity gamma puts mass proportional to gamma^n / (g(1)...
g(n)) on occupancy n; the exclusion family replaces the series by the exact
Bernoulli law.  Density is inverted to fugacity by bisection on the marginal
mean, which is strictly increasing on the fugacity domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .model import (EXCLUSION, Configuration, JumpKernel, Lattice,
                    RateFunction, TargetSet)

TAIL_TOL = 1e-12
DENSITY_TOL = 1e-10
BOUNDARY_MARGIN = 1e-6


class FugacityError(ValueError):
    """Fugacity at or beyond the domain boundary sup_k g(k)."""


class DensityError(ValueError):
    """Density not reachable inside the admissible fugacity domain."""


def partition_function(gamma: float, g: Callable[[int], float],
                       tol: float = TAIL_TOL, max_terms: int = 200_000):
    """Normalizer Z(gamma) = sum_n gamma^n / (g(1)...g(n)) with a certified
    geometric tail bound; returns (Z, n_max, tail_bound)."""
    if gamma < 0:
        raise FugacityError("fugacity must be nonnegative")
    if gamma == 0.0:
        return 1.0, 0, 0.0
    z = 1.0
    term = 1.0
    n = 0
    while True:
        gnext = g(n + 1)
        # g is nondecreasing, so gamma/g(m) <= ratio for every m > n and the
        # remaining mass is dominated by a geometric series.
        if gnext > 0:
            ratio = gamma / gnext
            if ratio < 1.0:
                tail = term * ratio / (1.0 - ratio)
                if tail <= tol * z:
                    return z, n, tail
        if n >= max_terms:
            raise FugacityError(
                f"partition series did not converge by n={max_terms}; "
                f"gamma={gamma} is at or beyond sup g")
        n += 1
        term *= gamma / gnext
        z += term


@dataclass(frozen=True)
class Marginal:
    """Truncated one-site occupancy law theta_gamma."""

    gamma: float
    probabilities: np.ndarray
    Z: float
    n_max: int
    tail_mass_bound: float

    @staticmethod
    def from_rates(gamma: float, rates: RateFunction,
                   tol: float = TAIL_TOL) -> "Marginal":
        if rates.family == EXCLUSION:
            # Bernoulli marginal: theta(1)/theta(0) = gamma, support {0, 1}.
            p1 = gamma / (1.0 + gamma)
            return Marginal(gamma, np.array([1.0 - p1, p1]), 1.0 + gamma, 1, 0.0)
        z, n_max, tail = partition_function(gamma, rates.g, tol)
        probs = np.empty(n_max + 1)
        term = 1.0
        probs[0] = term
        for n in range(1, n_max + 1):
            term *= gamma / rates.g(n)
            probs[n] = term
        probs /= z
        return Marginal(gamma, probs, z, n_max, tail / z)

    @property
    def mean(self) -> float:
        return float(np.arange(self.probabilities.size) @ self.probabilities)

    def g_mean(self, g: Callable[[int], float]) -> float:
        gv = np.array([g(n) for n in range(self.probabilities.size)])
        return float(gv @ self.probabilities)

    def moment(self, k: int) -> float:
        return float(np.arange(self.probabilities.size, dtype=float) ** k
                     @ self.probabilities)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probabilities)


def upsilon(gamma: float, rates: RateFunction) -> float:
    """Mean occupancy of the marginal at the given fugacity."""
    return Marginal.from_rates(gamma, rates).mean


def _fugacity_ceiling(rates: RateFunction) -> float | None:
    if rates.family == EXCLUSION:
        return None
    if rates.g_sup is None:
        return None
    return (1.0 - BOUNDARY_MARGIN) * rates.g_sup


def invert_density(rho: float, rates: RateFunction,
                   tol: float = DENSITY_TOL) -> float:
    """Fugacity gamma(rho) with marginal mean rho, by bisection.

    Densities that would push the fugacity within a relative margin of
    sup g(k) (or of density 1 for exclusion) are refused.
    """
    if rho < 0:
        raise DensityError("density must be nonnegative")
    if rho == 0.0:
        return 0.0
    if rates.family == EXCLUSION:
        if rho >= 1.0 - BOUNDARY_MARGIN:
            raise DensityError(f"exclusion density {rho} too close to 1")
        return rho / (1.0 - rho)
    ceiling = _fugacity_ceiling(rates)
    hi = 0.5 if ceiling is None else min(0.5, ceiling)
    while True:
        try:
            if upsilon(hi, rates) >= rho - tol:
                break
        except FugacityError:
            # the series itself becomes infeasible this close to sup g
            raise DensityError(
                f"density {rho} pushes the fugacity within the refusal "
                f"margin of sup g = {rates.g_sup}") from None
        if ceiling is not None and ceiling - hi <= 1e-12 * ceiling:
            raise DensityError(
                f"density {rho} not reachable below the fugacity ceiling "
                f"{ceiling} (sup g = {rates.g_sup})")
        # with a finite sup g, approach the ceiling geometrically: the
        # series cost blows up as the boundary is touched
        hi = 2.0 * hi if ceiling is None else 0.5 * (hi + ceiling)
    lo = 0.0
    while hi - lo > 1e-15 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        val = upsilon(mid, rates)
        if abs(val - rho) <= tol:
            return mid
        if val < rho:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ProductMeasure:
    """I.i.d.-site measure with marginal theta_{gamma(rho)}."""

    rho: float
    gamma: float
    marginal: Marginal
    rates: RateFunction

    @staticmethod
    def at_density(rho: float, rates: RateFunction) -> "ProductMeasure":
        gamma = invert_density(rho, rates)
        return ProductMeasure(rho, gamma, Marginal.from_rates(gamma, rates), rates)

    @staticmethod
    def at_fugacity(gamma: float, rates: RateFunction) -> "ProductMeasure":
        marginal = Marginal.from_rates(gamma, rates)
        return ProductMeasure(marginal.mean, gamma, marginal, rates)

    def sample_occupancies(self, lattice: Lattice, rng: np.random.Generator,
                           n: int = 1) -> np.ndarray:
        """n configurations as an int64 array (n, num_sites), inverse-CDF."""
        return self.from_uniforms(rng.random((n, lattice.num_sites)))

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Occupancies of the uniforms `u` (any shape) by the inverse CDF of
        the marginal, as int64: each row of a (n, num_sites) array of
        uniforms is one configuration."""
        return np.searchsorted(self.marginal.cdf(), u,
                               side="right").astype(np.int64)


def sample_product(measure: ProductMeasure, lattice: Lattice,
                   rng: np.random.Generator) -> Configuration:
    return Configuration(measure.sample_occupancies(lattice, rng, 1)[0])


def sample_uniform_fixed_count(lattice: Lattice, n_particles: int,
                               rng: np.random.Generator) -> Configuration:
    """Uniform exclusion configuration with exactly n_particles particles."""
    if not 0 <= n_particles <= lattice.num_sites:
        raise ValueError("particle count outside [0, num_sites]")
    occ = np.zeros(lattice.num_sites, dtype=np.int64)
    occ[rng.choice(lattice.num_sites, size=n_particles, replace=False)] = 1
    return Configuration(occ)


# ---------------------------------------------------------------------------
# weighted ensembles
# ---------------------------------------------------------------------------

class WeightedEnsemble:
    """Weighted empirical measure over configurations.

    Atoms are rows of an integer occupancy matrix; weights are nonnegative
    with at least one strictly positive entry.  Only weight ratios matter.
    """

    def __init__(self, occupancies: np.ndarray, weights: np.ndarray,
                 censor_fraction: float = 0.0):
        occ = np.atleast_2d(np.asarray(occupancies, dtype=np.int64))
        w = np.asarray(weights, dtype=np.float64)
        if occ.shape[0] != w.shape[0]:
            raise ValueError("atom/weight length mismatch")
        if (w < 0).any():
            raise ValueError("negative ensemble weight")
        if not (w > 0).any():
            raise ValueError("ensemble carries no mass")
        self.occupancies = occ
        self.weights = w
        self.normalization = float(w.sum())
        self.censor_fraction = float(censor_fraction)

    @property
    def n_atoms(self) -> int:
        return self.occupancies.shape[0]

    @property
    def num_sites(self) -> int:
        return self.occupancies.shape[1]

    def configurations(self):
        for row in self.occupancies:
            yield Configuration(row)

    def expect(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Weighted mean of fn evaluated on the atom matrix."""
        vals = np.asarray(fn(self.occupancies), dtype=np.float64)
        return float(self.weights @ vals / self.normalization)

    def expect_with_se(self, fn) -> tuple[float, float]:
        vals = np.asarray(fn(self.occupancies), dtype=np.float64)
        wn = self.weights / self.normalization
        mean = float(wn @ vals)
        var = float(np.sum(wn**2 * (vals - mean) ** 2))
        return mean, float(np.sqrt(var))

    def site_means(self) -> np.ndarray:
        return self.weights @ self.occupancies / self.normalization

    def site_histogram(self, site: int, n_max: int) -> np.ndarray:
        """Weighted occupancy distribution at one site, truncated to n_max."""
        occ = np.minimum(self.occupancies[:, site], n_max)
        return np.bincount(occ, weights=self.weights, minlength=n_max + 1) \
            / self.normalization

    def effective_sample_size(self) -> float:
        return float(self.normalization**2 / np.sum(self.weights**2))

    @staticmethod
    def from_samples(occupancies: np.ndarray) -> "WeightedEnsemble":
        occ = np.atleast_2d(occupancies)
        return WeightedEnsemble(occ, np.ones(occ.shape[0]))


def systematic_resample(weights: np.ndarray, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform, n evenly spaced pointers.

    With equal weights and n equal to the atom count this is the identity.
    """
    w = np.asarray(weights, dtype=np.float64)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    pointers = (rng.random() + np.arange(n)) / n
    return np.searchsorted(cdf, pointers, side="right").astype(np.int64)


# ---------------------------------------------------------------------------
# measure-level identity checks
# ---------------------------------------------------------------------------

@dataclass
class CovarianceEstimate:
    covariance: float
    stderr: float
    n_samples: int

    @property
    def z(self) -> float:
        return self.covariance / self.stderr if self.stderr > 0 else 0.0


def fkg_test(measure: ProductMeasure, lattice: Lattice,
             f_inc: Callable[[np.ndarray], np.ndarray],
             g_inc: Callable[[np.ndarray], np.ndarray],
             n_samples: int, rng: np.random.Generator,
             batch: int = 200_000) -> CovarianceEstimate:
    """Monte Carlo covariance of two increasing functions under the product
    measure; FKG asserts it is nonnegative (callers test cov >= -3 sigma)."""
    fs = []
    gs = []
    done = 0
    while done < n_samples:
        m = min(batch, n_samples - done)
        x = measure.sample_occupancies(lattice, rng, m)
        fs.append(np.asarray(f_inc(x), dtype=np.float64))
        gs.append(np.asarray(g_inc(x), dtype=np.float64))
        done += m
    fv = np.concatenate(fs)
    gv = np.concatenate(gs)
    cov = float(np.mean(fv * gv) - fv.mean() * gv.mean())
    centred = (fv - fv.mean()) * (gv - gv.mean())
    se = float(centred.std(ddof=1) / np.sqrt(n_samples))
    return CovarianceEstimate(cov, se, n_samples)


@dataclass
class SizeBiasReport:
    lhs: float
    rhs: float
    diff_stderr: float
    lipschitz_lhs: float      # E[eta_i * phi]
    lipschitz_floor: float    # (gamma / Delta) E[phi o add-one]
    lipschitz_stderr: float
    n_samples: int

    @property
    def identity_z(self) -> float:
        if self.diff_stderr == 0:
            return 0.0
        return (self.lhs - self.rhs) / self.diff_stderr


def size_bias_check(measure: ProductMeasure, lattice: Lattice, site: int,
                    phi: Callable[[np.ndarray], np.ndarray], n_samples: int,
                    rng: np.random.Generator) -> SizeBiasReport:
    """Estimate both sides of the one-site size-bias identity
    E[g(eta_i) phi] = gamma E[phi(eta + delta_i)] on common samples, plus the
    Lipschitz inequality E[eta_i phi] >= (gamma/Delta) E[phi(eta + delta_i)]
    (meaningful for nonnegative phi)."""
    g = measure.rates.g
    gamma = measure.gamma
    delta = measure.rates.delta()
    x = measure.sample_occupancies(lattice, rng, n_samples)
    gvals = np.array([g(k) for k in range(int(x[:, site].max()) + 1)])
    lhs_samples = gvals[x[:, site]] * np.asarray(phi(x), dtype=np.float64)
    x_plus = x.copy()
    x_plus[:, site] += 1
    rhs_samples = gamma * np.asarray(phi(x_plus), dtype=np.float64)
    diff = lhs_samples - rhs_samples
    lip_lhs = x[:, site] * np.asarray(phi(x), dtype=np.float64)
    lip_rhs = (1.0 / delta) * rhs_samples
    lip_diff = lip_lhs - lip_rhs
    n = n_samples
    return SizeBiasReport(
        lhs=float(lhs_samples.mean()),
        rhs=float(rhs_samples.mean()),
        diff_stderr=float(diff.std(ddof=1) / np.sqrt(n)),
        lipschitz_lhs=float(lip_lhs.mean()),
        lipschitz_floor=float(lip_rhs.mean()),
        lipschitz_stderr=float(lip_diff.std(ddof=1) / np.sqrt(n)),
        n_samples=n,
    )


def size_bias_enumerate(measure: ProductMeasure, lattice: Lattice, site: int,
                        phi: Callable[[np.ndarray], np.ndarray],
                        support_cap: int | None = None) -> tuple[float, float]:
    """Both sides of the size-bias identity by exact enumeration of the box.

    phi must vanish when the occupancy at `site` exceeds the marginal
    truncation minus one, otherwise the boundary term of the change of
    variable is lost; callers choose phi accordingly.
    """
    probs = measure.marginal.probabilities
    n_max = probs.size - 1
    cap = n_max if support_cap is None else support_cap
    grids = np.meshgrid(*[np.arange(cap + 1)] * lattice.num_sites,
                        indexing="ij")
    occ = np.stack([gr.ravel() for gr in grids], axis=1).astype(np.int64)
    w = probs[occ].prod(axis=1)
    w /= w.sum()
    g = measure.rates.g
    gvals = np.array([g(k) for k in range(cap + 2)])
    phi_v = np.asarray(phi(occ), dtype=np.float64)
    lhs = float(w @ (gvals[occ[:, site]] * phi_v))
    occ_plus = occ.copy()
    occ_plus[:, site] += 1
    rhs = float(measure.gamma * (w @ np.asarray(phi(occ_plus), dtype=np.float64)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# stochastic domination suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncreasingFunction:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    exact_reference_mean: float


@dataclass
class DominationRow:
    name: str
    ensemble_mean: float
    ensemble_stderr: float
    reference_mean: float

    @property
    def excess_sigmas(self) -> float:
        if self.ensemble_stderr == 0:
            return 0.0 if self.ensemble_mean <= self.reference_mean else np.inf
        return (self.ensemble_mean - self.reference_mean) / self.ensemble_stderr


@dataclass
class DominationReport:
    rows: list[DominationRow] = field(default_factory=list)

    def passed(self, n_sigma: float = 3.0) -> bool:
        return all(r.excess_sigmas <= n_sigma for r in self.rows)


def _window_distribution(marginal: Marginal, n_sites: int) -> np.ndarray:
    """Exact law of the occupancy sum over n_sites i.i.d. marginals."""
    dist = np.array([1.0])
    for _ in range(n_sites):
        dist = np.convolve(dist, marginal.probabilities)
    return dist


def increasing_suite(measure: ProductMeasure, lattice: Lattice,
                     target: TargetSet, kernel: JumpKernel) -> list[IncreasingFunction]:
    """Fixed witness suite: single-site occupancies on and around the target
    window, window sums over the window and its kernel-range dilation, and
    threshold indicators.  Reference means are exact under the product law."""
    suite: list[IncreasingFunction] = []
    rho = measure.marginal.mean
    dil = np.flatnonzero(
        lattice.graph_distance(list(target.sites),
                               np.vstack([kernel.offsets, -kernel.offsets]))
        <= max(1, kernel.range))
    watched = sorted(set(target.sites.tolist()) | set(dil.tolist()))
    for s in watched:
        suite.append(IncreasingFunction(
            f"occupancy[{s}]", lambda x, s=s: x[:, s], rho))
    for name, sites in (("window_sum", target.sites),
                        ("dilated_window_sum", np.array(watched))):
        suite.append(IncreasingFunction(
            name, lambda x, ss=np.asarray(sites): x[:, ss].sum(axis=1),
            rho * len(sites)))
    wdist = _window_distribution(measure.marginal, target.sites.size)
    for m in range(1, target.threshold + 2):
        tail = float(wdist[m:].sum()) if m < wdist.size else 0.0
        suite.append(IncreasingFunction(
            f"window_sum_ge_{m}",
            lambda x, m=m, ss=target.sites: (x[:, ss].sum(axis=1) >= m)
            .astype(float),
            tail))
    return suite


def domination_test(ensemble: WeightedEnsemble, measure: ProductMeasure,
                    suite: Sequence[IncreasingFunction]) -> DominationReport:
    """Check E_ensemble[phi] <= E_reference[phi] for every increasing witness;
    the reference side is exact so only the ensemble noise enters."""
    report = DominationReport()
    for item in suite:
        mean, se = ensemble.expect_with_se(item.fn)
        report.rows.append(DominationRow(
            item.name, mean, se, item.exact_reference_mean))
    return report
