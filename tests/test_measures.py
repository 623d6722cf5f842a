import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslab import rng as rngmod
from qslab.measures import (DensityError, FugacityError, Marginal,
                            ProductMeasure, WeightedEnsemble, domination_test,
                            increasing_suite, invert_density,
                            partition_function, systematic_resample, upsilon)
from qslab.model import Lattice, RateFunction
from qslab import storage

G_FLAT = RateFunction.zero_range(lambda k: 1.0 if k >= 1 else 0.0, g_sup=1.0)
G_LINEAR = RateFunction.zero_range(lambda k: float(k))


class TestPartitionFunction:
    def test_geometric_closed_form(self):
        z, _, tail = partition_function(0.5, G_FLAT.g)
        assert z == pytest.approx(2.0, abs=1e-11)

    def test_poisson_normalizer(self):
        z, _, _ = partition_function(1.0, G_LINEAR.g)
        assert z == pytest.approx(math.e, abs=1e-11)

    def test_zero_fugacity(self):
        assert partition_function(0.0, G_FLAT.g)[0] == 1.0

    def test_fugacity_beyond_sup_g(self):
        with pytest.raises(FugacityError):
            partition_function(1.5, G_FLAT.g)


class TestDensityInversion:
    def test_geometric(self):
        assert invert_density(1.0, G_FLAT) == pytest.approx(0.5, abs=1e-9)

    def test_poisson_identity(self):
        for rho in (0.2, 0.7, 1.9):
            assert invert_density(rho, G_LINEAR) == pytest.approx(rho, abs=1e-9)

    def test_exclusion_bernoulli(self):
        rates = RateFunction.exclusion()
        gamma = invert_density(0.5, rates)
        assert gamma == pytest.approx(1.0)
        assert Marginal.from_rates(gamma, rates).probabilities[1] == \
            pytest.approx(0.5)

    def test_refuses_density_near_supremum(self):
        with pytest.raises(DensityError):
            invert_density(1.0 - 1e-9, RateFunction.exclusion())

    def test_inverse_is_right_inverse_on_grid(self):
        for rates in (G_FLAT, G_LINEAR):
            for rho in np.linspace(0.1, 1.5, 8):
                if rates is G_FLAT and rho > 1.2:
                    continue
                gamma = invert_density(float(rho), rates)
                assert upsilon(gamma, rates) == pytest.approx(rho, abs=1e-9)


class TestMarginal:
    def test_probability_vector(self):
        m = Marginal.from_rates(0.8, G_LINEAR)
        assert m.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert m.tail_mass_bound <= 1e-12
        assert (m.probabilities >= 0).all()

    def test_stationary_g_mean_is_fugacity(self):
        m = Marginal.from_rates(0.8, G_LINEAR)
        gv = np.array([G_LINEAR.g(n) for n in range(m.probabilities.size)])
        assert float(gv @ m.probabilities) == pytest.approx(0.8, abs=1e-10)

    @pytest.mark.parametrize("rates,gamma", [(G_LINEAR, 0.8), (G_FLAT, 0.5)],
                             ids=["g-linear", "g-one"])
    def test_size_bias_balance_pointwise(self, rates, gamma):
        """theta(n) g(n) = gamma theta(n - 1) at every n of the support."""
        m = Marginal.from_rates(gamma, rates)
        theta = m.probabilities
        for n in range(1, theta.size):
            assert theta[n] * rates.g(n) == pytest.approx(
                gamma * theta[n - 1], rel=1e-12)


class TestSampling:
    def test_zero_density_gives_vacuum(self):
        lat = Lattice((50,), "torus")
        meas = ProductMeasure.at_density(0.0, G_LINEAR)
        occ = meas.sample_occupancies(
            lat, rngmod.stream(0, rngmod.SAMPLING, 0), 1)[0]
        assert occ.sum() == 0

    def test_exclusion_density_binomial_ci(self):
        lat = Lattice((100_000,), "torus")
        meas = ProductMeasure.at_density(0.5, RateFunction.exclusion())
        occ = meas.sample_occupancies(lat, rngmod.stream(1, rngmod.SAMPLING, 0))
        # binomial oracle: 3 sigma = 3 sqrt(p(1-p)/n) ~ 0.0047
        assert abs(occ.mean() - 0.5) <= 3 * math.sqrt(0.25 / 100_000)

    def test_geometric_mean_ci(self):
        lat = Lattice((100_000,), "torus")
        meas = ProductMeasure.at_density(1.0, G_FLAT)
        occ = meas.sample_occupancies(lat, rngmod.stream(2, rngmod.SAMPLING, 0))
        # geometric occupancy variance rho (1 + rho) = 2
        assert abs(occ.mean() - 1.0) <= 3 * math.sqrt(2.0 / 100_000)

    def test_sampler_moments_match_marginal(self):
        lat = Lattice((1_000_000,), "torus")
        meas = ProductMeasure.at_density(0.8, G_LINEAR)
        occ = meas.sample_occupancies(
            lat, rngmod.stream(3, rngmod.SAMPLING, 0)).astype(float)
        m = meas.marginal

        def moment(k):
            return float(np.arange(m.probabilities.size, dtype=float) ** k
                         @ m.probabilities)

        var1 = moment(2) - m.mean**2
        assert abs(occ.mean() - m.mean) <= 4 * math.sqrt(var1 / occ.size)
        var2 = moment(4) - moment(2) ** 2
        assert abs((occ**2).mean() - moment(2)) <= \
            4 * math.sqrt(var2 / occ.size)


class TestEnsembles:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedEnsemble(np.zeros((2, 3)), np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            WeightedEnsemble(np.zeros((2, 3)), np.zeros(2))

    def test_expectation_and_marginals(self):
        ens = WeightedEnsemble(np.array([[2, 0], [0, 1]]),
                               np.array([1.0, 3.0]))
        assert ens.expect_with_se(lambda x: x[:, 0])[0] == pytest.approx(0.5)
        assert ens.site_means().tolist() == [0.5, 0.75]

    def test_systematic_resample_identity_on_equal_weights(self):
        gen = rngmod.stream(11, rngmod.RESAMPLE, 0)
        idx = systematic_resample(np.ones(7), 7, gen)
        assert idx.tolist() == list(range(7))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=8),
           st.integers(0, 1000))
    def test_systematic_resample_counts_match_weights(self, weights, salt):
        w = np.asarray(weights)
        n = 5000
        gen = rngmod.stream(salt, rngmod.RESAMPLE, 1)
        idx = systematic_resample(w, n, gen)
        counts = np.bincount(idx, minlength=w.size)
        expect = n * w / w.sum()
        # systematic resampling keeps every count within one of n w_i
        assert (np.abs(counts - expect) <= 1.0 + 1e-9).all()

    def test_save_load_round_trip(self, tmp_path):
        ens = WeightedEnsemble(np.array([[2, 0], [0, 1]]),
                               np.array([1.0, 3.0]), censor_fraction=0.125)
        storage.save_ensemble(ens, tmp_path / "ens")
        back = storage.load_ensemble(tmp_path / "ens")
        assert (back.occupancies == ens.occupancies).all()
        assert back.weights == pytest.approx(ens.weights)
        assert back.censor_fraction == 0.125


class TestDomination:
    def test_fresh_samples_match_reference(self, toy):
        model, target, measure = toy
        occ = measure.sample_occupancies(
            model.lattice, rngmod.stream(12, rngmod.SAMPLING, 0), 20_000)
        ens = WeightedEnsemble(occ, np.ones(occ.shape[0]))
        suite = increasing_suite(measure, model.lattice, target, model.kernel)
        rows = domination_test(ens, measure, suite)
        # equality case: stay within noise on BOTH sides
        assert all(abs(r.excess_sigmas) <= 4 for r in rows)

    def test_conditioned_ensemble_dominated(self, toy):
        """Exact enumeration oracle: conditioning the product law on the
        survivor set must push every increasing statistic down."""
        model, target, measure = toy
        probs = measure.marginal.probabilities
        n_max = probs.size - 1
        grid = np.stack(np.meshgrid(*[np.arange(n_max + 1)] * 3,
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        w = probs[grid].prod(axis=1)
        alive = grid[:, target.sites].sum(axis=1) <= target.threshold
        ens = WeightedEnsemble(grid[alive], w[alive])
        suite = increasing_suite(measure, model.lattice, target, model.kernel)
        rows = domination_test(ens, measure, suite)
        assert all(r.excess_sigmas <= 0 for r in rows)  # exact: no slack
        window = [r for r in rows if r.name == "window_sum"][0]
        assert window.ensemble_mean < window.reference_mean
