import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslab import rng as rngmod
from qslab.measures import (DensityError, FugacityError, Marginal,
                            ProductMeasure, WeightedEnsemble, domination_test,
                            fkg_test, increasing_suite, invert_density,
                            partition_function, sample_uniform_fixed_count,
                            size_bias_check, size_bias_enumerate,
                            systematic_resample, upsilon)
from qslab.model import Configuration, Lattice, RateFunction
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
            partition_function(1.5, G_FLAT.g, max_terms=5000)


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
        assert m.g_mean(G_LINEAR.g) == pytest.approx(0.8, abs=1e-10)


class TestSampling:
    def test_zero_density_gives_vacuum(self):
        lat = Lattice((50,), "torus")
        meas = ProductMeasure.at_density(0.0, G_LINEAR)
        conf = Configuration(meas.sample_occupancies(
            lat, rngmod.stream(0, rngmod.SAMPLING, 0), 1)[0])
        assert conf.total_particles == 0

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
        var1 = m.moment(2) - m.mean**2
        assert abs(occ.mean() - m.mean) <= 4 * math.sqrt(var1 / occ.size)
        var2 = m.moment(4) - m.moment(2) ** 2
        assert abs((occ**2).mean() - m.moment(2)) <= \
            4 * math.sqrt(var2 / occ.size)

    def test_fixed_count_sampler(self):
        lat = Lattice((12,), "torus")
        conf = sample_uniform_fixed_count(
            lat, 5, rngmod.stream(4, rngmod.SAMPLING, 0))
        assert conf.total_particles == 5
        assert set(conf.occupancy.tolist()) <= {0, 1}


class TestFkg:
    def test_same_site_positive_variance(self):
        lat = Lattice((4,), "torus")
        meas = ProductMeasure.at_density(0.7, G_LINEAR)
        est = fkg_test(meas, lat, lambda x: x[:, 0], lambda x: x[:, 0],
                       40_000, rngmod.stream(5, rngmod.SAMPLING, 0))
        assert est.covariance > 0
        assert est.z > 3

    def test_disjoint_sites_independent(self):
        lat = Lattice((4,), "torus")
        meas = ProductMeasure.at_density(0.7, G_LINEAR)
        est = fkg_test(meas, lat, lambda x: x[:, 0], lambda x: x[:, 1],
                       40_000, rngmod.stream(6, rngmod.SAMPLING, 0))
        assert abs(est.covariance) <= 3 * est.stderr

    def test_window_indicator_vs_member_site(self):
        lat = Lattice((3,), "torus")
        meas = ProductMeasure.at_density(0.6, G_LINEAR)
        f = lambda x: (x[:, :2].sum(axis=1) >= 1).astype(float)
        g = lambda x: x[:, 0].astype(float)
        est = fkg_test(meas, lat, f, g, 60_000,
                       rngmod.stream(7, rngmod.SAMPLING, 0))
        # exact small-lattice enumeration oracle for the covariance
        probs = meas.marginal.probabilities
        n_max = probs.size - 1
        grid = np.stack(np.meshgrid(*[np.arange(n_max + 1)] * 3,
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        w = probs[grid].prod(axis=1)
        w /= w.sum()
        fv, gv = f(grid), g(grid)
        exact = float(w @ (fv * gv) - (w @ fv) * (w @ gv))
        assert exact > 0
        assert est.covariance == pytest.approx(exact, abs=3 * est.stderr)
        assert est.covariance >= -3 * est.stderr


class TestSizeBias:
    def test_constant_function_gives_fugacity(self):
        lat = Lattice((4,), "torus")
        meas = ProductMeasure.at_density(1.0, G_FLAT)
        rep = size_bias_check(meas, lat, 1, lambda x: np.ones(len(x)),
                              50_000, rngmod.stream(8, rngmod.SAMPLING, 0))
        assert rep.lhs == pytest.approx(meas.gamma, abs=4 * rep.diff_stderr + 5e-3)
        assert rep.rhs == pytest.approx(meas.gamma)
        assert abs(rep.identity_z) <= 3

    def test_occupancy_window_value(self):
        # geometric marginal at fugacity 1/2: both sides equal
        # gamma (theta(0) + theta(1)) = 0.375 for the indicator of at most
        # two particles at the biased site
        lat = Lattice((4,), "torus")
        meas = ProductMeasure.at_fugacity(0.5, G_FLAT)
        th = meas.marginal.probabilities
        exact = meas.gamma * (th[0] + th[1])
        assert exact == pytest.approx(0.375, abs=1e-12)
        lhs, rhs = size_bias_enumerate(
            meas, lat, 1, lambda x: (x[:, 1] <= 2).astype(float))
        assert lhs == pytest.approx(0.375, abs=1e-12)
        assert rhs == pytest.approx(0.375, abs=1e-12)

    def test_independent_site_function(self):
        lat = Lattice((4,), "torus")
        meas = ProductMeasure.at_density(0.9, G_LINEAR)
        rep = size_bias_check(meas, lat, 0, lambda x: x[:, 2].astype(float),
                              50_000, rngmod.stream(9, rngmod.SAMPLING, 0))
        expected = meas.gamma * meas.rho
        assert abs(rep.identity_z) <= 3
        assert rep.rhs == pytest.approx(expected, rel=0.05)

    def test_enumeration_exact_on_four_sites(self):
        lat = Lattice((4,), "torus")
        meas = ProductMeasure.at_density(1.0, G_FLAT)
        suite = [
            lambda x: (x[:, 1] <= 1).astype(float),
            lambda x: (x[:, 1] <= 2) * np.minimum(x[:, 2], 3).astype(float),
            lambda x: (x.sum(axis=1) <= 2).astype(float),
        ]
        for phi in suite:
            lhs, rhs = size_bias_enumerate(meas, lat, 1, phi)
            assert abs(lhs - rhs) <= 1e-12

    def test_lipschitz_floor_holds(self):
        lat = Lattice((4,), "torus")
        meas = ProductMeasure.at_density(0.8, G_LINEAR)
        rep = size_bias_check(meas, lat, 1,
                              lambda x: (x[:, 1] <= 2).astype(float),
                              50_000, rngmod.stream(10, rngmod.SAMPLING, 0))
        assert rep.lipschitz_lhs >= rep.lipschitz_floor - 3 * rep.lipschitz_stderr


class TestEnsembles:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedEnsemble(np.zeros((2, 3)), np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            WeightedEnsemble(np.zeros((2, 3)), np.zeros(2))

    def test_expectation_and_marginals(self):
        ens = WeightedEnsemble(np.array([[2, 0], [0, 1]]),
                               np.array([1.0, 3.0]))
        assert ens.expect(lambda x: x[:, 0]) == pytest.approx(0.5)
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
        ens = WeightedEnsemble.from_samples(occ)
        suite = increasing_suite(measure, model.lattice, target, model.kernel)
        report = domination_test(ens, measure, suite)
        # equality case: stay within noise on BOTH sides
        assert all(abs(r.excess_sigmas) <= 4 for r in report.rows)

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
        report = domination_test(ens, measure, suite)
        assert report.passed(n_sigma=0.0)  # exact: no slack needed
        window = [r for r in report.rows if r.name == "window_sum"][0]
        assert window.ensemble_mean < window.reference_mean
