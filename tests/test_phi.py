import math

import numpy as np
import pytest

from qslab import rng as rngmod
from qslab.dynamics import run_batch
from qslab.measures import WeightedEnsemble, domination_test, increasing_suite
from qslab.model import (Configuration, JumpKernel, Lattice, Model,
                         RateFunction, TargetSet)
from qslab.phi import (DEFAULT_ESCALATIONS, PhiUndefinedError, SojournPool,
                       cesaro_mixture, phi_apply, phi_direct, phi_iterate,
                       tau_moment_ratio, _power_log_weight, _simulate_to_hits)

from conftest import assert_same_batch, harvest_loop, ratio_site_means

G_LINEAR = RateFunction.zero_range(lambda k: float(k))


def pure_birth_chain():
    """Blocked two-site chain with three particles feeding the window: the
    survivor set is a three-state pure-birth chain with rates 3, 2, 1."""
    lattice = Lattice((2,), "blocked")
    model = Model(lattice, JumpKernel(np.array([[1]]), np.array([1.0])),
                  G_LINEAR)
    target = TargetSet(np.array([1]), 2)
    return model, target


class TestPhiApply:
    def test_one_point_survivor_set(self):
        # two-site exclusion, trap on the right: the only survivor state is
        # (1, 0) with unit exit rate, so the map fixes it and E[tau] = 1
        lattice = Lattice((2,), "blocked")
        model = Model(lattice, JumpKernel(np.array([[1]]), np.array([1.0])),
                      RateFunction.exclusion())
        target = TargetSet(np.array([1]), 0)
        ens = WeightedEnsemble(np.array([[1, 0]]), np.array([1.0]))
        out, stats = phi_apply(ens, model, target, 4000, 40.0, seed=201)
        assert (out.occupancies == [1, 0]).all()
        assert stats.e_tau == pytest.approx(
            1.0, abs=4 * stats.e_tau_stderr)

    def test_pure_birth_hand_oracle(self):
        """Occupation of the 3-state chain solved by hand: weights
        (1/3, 1/2, 1) normalize to (2/11, 3/11, 6/11); E[tau] = 11/6."""
        model, target = pure_birth_chain()
        ens = WeightedEnsemble(np.array([[3, 0]]), np.array([1.0]))
        out, stats = phi_apply(ens, model, target, 30_000, 80.0, seed=203)
        assert stats.e_tau == pytest.approx(11 / 6, abs=4 * stats.e_tau_stderr)
        hist = out.site_histogram(1, 3)
        exact = {0: 2 / 11, 1: 3 / 11, 2: 6 / 11}
        for occ, p in exact.items():
            se = math.sqrt(p * (1 - p) / out.n_atoms)
            assert hist[occ] == pytest.approx(p, abs=5 * se)

    def test_exact_qsd_is_fixed_point(self, toy, toy_qsd_sector):
        model, target, _ = toy
        space, kg, res = toy_qsd_sector
        atoms = space.occupancies[kg.ac_indices]
        mu = WeightedEnsemble(atoms, res.qsd)
        exact_marginals = res.qsd @ atoms
        initials = atoms[np.searchsorted(np.cumsum(res.qsd),
                                         rngmod.stream(205, rngmod.RESAMPLE, 0)
                                         .random(12_000))]
        batch = run_batch(model, target, 12_000, 80.0, seed=205,
                          initials=initials, record_events=True)
        est, se = ratio_site_means(batch, model.lattice.num_sites)
        assert (np.abs(est - exact_marginals) <= 3 * se).all()
        out, _ = phi_apply(mu, model, target, 12_000, 80.0, seed=205)
        assert np.abs(out.site_means() - est).max() <= 4 * se.max()

    def test_all_censored_is_phi_undefined(self, toy):
        model, target, _ = toy
        dead = WeightedEnsemble(np.array([[0, 1, 0]]), np.array([1.0]))
        with pytest.raises(PhiUndefinedError):
            phi_apply(dead, model, target, 64, 1.0, seed=207,
                      max_escalations=1)

    def test_uniform_time_sampling_is_the_wrong_estimator(self):
        """Regression guard for the tempting mistake: drawing one state at a
        uniform time on [0, tau] estimates a different measure entirely."""
        model, target = pure_birth_chain()
        batch = run_batch(model, target, 30_000, 80.0, seed=209,
                          initials=np.tile([3, 0], (30_000, 1)),
                          record_events=True)
        gen = rngmod.stream(209, rngmod.RESAMPLE, 5)
        naive = np.zeros(3)
        count = 0
        for i in np.flatnonzero(batch.hit):
            traj = batch.trajectory(i)
            u = gen.random() * batch.taus[i]
            k = int(np.searchsorted(traj.times, u, side="right"))
            occ1 = 3 - k  # site-1 occupancy after k events is k... site0=3-k
            naive[k] += 1
            count += 1
        naive /= count
        exact = np.array([2 / 11, 3 / 11, 6 / 11])
        # the duration-weighted estimator agrees (see the hand-oracle test);
        # the uniform-time estimator must visibly disagree
        assert np.abs(naive - exact).max() > 0.05

    def test_sojourn_pool_weight_identity(self):
        model, target = pure_birth_chain()
        batch = run_batch(model, target, 500, 80.0, seed=211,
                          initials=np.tile([3, 0], (500, 1)),
                          record_events=True)
        from qslab.phi import _duration_log_weight, _harvest
        pool = _harvest(batch, 0, _duration_log_weight)
        assert pool.total_weight == pytest.approx(
            batch.taus[batch.hit].sum(), rel=1e-12)
        assert pool.censor_fraction == batch.censored_fraction

    @pytest.mark.parametrize("setup", ["toy", "tasep_line"])
    def test_batch_replay_matches_per_trajectory_loop(self, request, setup):
        """The one batch-wide replay gives, bit for bit, the states and
        weights of replaying each trajectory on its own."""
        from qslab.phi import _duration_log_weight, _harvest
        model, target, measure = request.getfixturevalue(setup)
        batch = run_batch(model, target, 300, 20.0, 41, measure=measure,
                          record_events=True)
        assert (batch.hit & (batch.n_events > 0)).sum() > 50
        for weight in (_duration_log_weight, _power_log_weight(3)):
            pool = _harvest(batch, 0, weight)
            occs, logw = harvest_loop(batch, weight)
            assert np.array_equal(pool.occupancies, occs)
            assert np.array_equal(pool.log_weights, logw)


class TestPhiDirect:
    def test_power_weight_formula(self):
        starts = np.array([0.0, 1.0, 2.5])
        ends = np.array([1.0, 2.5, 4.0])
        for n in (1, 2, 3, 7):
            got = np.exp(_power_log_weight(n)(starts, ends))
            want = (ends**n - starts**n) / n
            assert got == pytest.approx(want, rel=1e-12)

    def test_order_one_matches_occupation_map(self, toy):
        """First iterate two ways: the single-pass estimator against the
        duration-weighted map applied to fresh base samples."""
        model, target, measure = toy
        direct, _ = phi_direct(model, target, measure, 1, 25_000, 60.0,
                               seed=213)
        applied, _ = phi_apply(None, model, target, 25_000, 60.0, seed=457,
                               measure=measure)
        batch = run_batch(model, target, 25_000, 60.0, seed=213,
                          measure=measure, record_events=True)
        _, se = ratio_site_means(batch, model.lattice.num_sites)
        gap = np.abs(direct.site_means() - applied.site_means())
        assert (gap <= 6 * se + 0.02).all()

    def test_immortal_mass_does_not_escalate(self, toy):
        """Over half of the toy's base law can never hit; escalation judges
        only the mortal starts, whose tail beyond 30 is far below the limit,
        so the horizon stays (it doubled to 60 while the immortal mass
        counted).  A short horizon still escalates."""
        model, target, measure = toy
        _, stats = phi_direct(model, target, measure, 1, 400, 30.0, seed=227)
        assert stats.t_max_used == 30.0
        assert stats.work.escalations == 0
        assert stats.censor_fraction > 0.5  # the immortal starts
        assert stats.work.trajectories + stats.work.immortal_skipped == 400
        _, stats = phi_direct(model, target, measure, 1, 400, 2.0, seed=227)
        assert stats.t_max_used > 2.0
        assert stats.t_max_used == 2.0 * 2 ** stats.work.escalations
        # the first run simulates the mortal starts and skips the immortal
        # ones; each doubling reruns only the mortal starts still censored
        first = run_batch(model, target, 400, 2.0, 227, measure=measure)
        expected = int(np.count_nonzero(~first.immortal))
        for k in range(stats.work.escalations):
            batch = run_batch(model, target, 400, 2.0 * 2 ** k, 227,
                              measure=measure)
            expected += int(np.count_nonzero(~batch.hit & ~batch.immortal))
        assert stats.work.immortal_skipped == first.immortal.sum() == 217
        assert stats.work.trajectories == expected == 309
        assert stats.work.escalations == 4

    @pytest.mark.parametrize("from_initials", [False, True])
    def test_censored_rerun_equals_full_rerun(self, toy, from_initials):
        """Splicing the reruns of the censored mortal starts into the batch
        gives, bit for bit, the batch a rerun of every start would give."""
        model, target, measure = toy
        initials = None
        if from_initials:
            initials = measure.sample_occupancies(
                model.lattice, rngmod.stream(7, rngmod.SAMPLING, 0), 400)
        batch, work = _simulate_to_hits(
            model, target, initials, None if from_initials else measure, 400,
            2.0, 227, 400 if from_initials else 0, 1, DEFAULT_ESCALATIONS)
        assert work.escalations >= 3
        full = run_batch(model, target, 400, batch.t_max, 227,
                         measure=None if from_initials else measure,
                         initials=initials, record_events=True,
                         base_index=400 if from_initials else 0)
        assert_same_batch(batch, full)

    def test_matches_exact_iterates(self, toy, toy_spectral):
        from qslab.spectral import occupation_vectors
        model, target, measure = toy
        core = toy_spectral["core"]
        occ_states = toy_spectral["occ_core"]
        exact_vs = occupation_vectors(core, toy_spectral["nu_core"], 3)
        for n in (1, 2, 3):
            exact = exact_vs[n - 1] @ occ_states / exact_vs[n - 1].sum()
            batch = run_batch(model, target, 25_000, 60.0, seed=215 + n,
                              measure=measure, record_events=True)
            est, se = ratio_site_means(batch, model.lattice.num_sites,
                                       weight_fn=lambda s, e, n=n:
                                       (e**n - s**n) / n)
            assert (np.abs(est - exact) <= 3 * se).all(), n
            ens, _ = phi_direct(model, target, measure, n, 25_000, 60.0,
                                seed=215 + n)
            assert np.abs(ens.site_means() - est).max() <= 1e-9


class TestPhiIterate:
    def test_zero_iterations(self, toy):
        model, target, measure = toy
        ensembles, log = phi_iterate(model, target, measure, 0, 100, 20.0,
                                     seed=217)
        assert ensembles == [] and log.rows == []

    def test_e_tau_approaches_inverse_rate(self, toy, toy_spectral):
        model, target, measure = toy
        lam = toy_spectral["principal"].decay_rate
        ensembles, log = phi_iterate(model, target, measure, 5, 4000, 60.0,
                                     seed=219, probe_times=(2.0,))
        seq = log.e_tau_sequence()
        assert abs(seq[-1] - 1 / lam) < abs(seq[0] - 1 / lam)
        assert seq[-1] == pytest.approx(1 / lam, rel=0.1)
        # survival probes drift toward the exponential limit
        probes = [r.probes[2.0] for r in log.rows]
        target_p = math.exp(-lam * 2.0)
        assert abs(probes[-1] - target_p) < abs(probes[0] - target_p) + 0.02

    def test_iterates_dominated_by_base(self):
        # needs a lattice large enough that the never-hitting mass of the
        # base law is negligible: conditioning on survival is an increasing
        # event, so on tiny tori the masked iterates sit visibly above the
        # product law and only the growing-volume limit restores domination
        lattice = Lattice((12,), "torus")
        model = Model(lattice, JumpKernel(np.array([[1], [-1]]),
                                          np.array([0.7, 0.3])), G_LINEAR)
        target = TargetSet(np.array([0]), 1)
        from qslab.measures import ProductMeasure
        measure = ProductMeasure.at_density(0.6, G_LINEAR)
        ensembles, _ = phi_iterate(model, target, measure, 3, 3000, 40.0,
                                   seed=221)
        suite = increasing_suite(measure, model.lattice, target, model.kernel)
        for ens in ensembles + [cesaro_mixture(ensembles)]:
            assert domination_test(ens, measure, suite).passed()


class TestCesaro:
    def test_single_ensemble_identity(self):
        ens = WeightedEnsemble(np.array([[1, 0], [0, 2]]),
                               np.array([1.0, 3.0]))
        mix = cesaro_mixture([ens])
        assert mix.site_means() == pytest.approx(ens.site_means())

    def test_equal_pair_is_same_measure(self):
        ens = WeightedEnsemble(np.array([[1, 0], [0, 2]]),
                               np.array([1.0, 3.0]))
        mix = cesaro_mixture([ens, ens])
        assert mix.site_means() == pytest.approx(ens.site_means())
        assert mix.normalization == pytest.approx(1.0)

    def test_component_totals_equal(self):
        a = WeightedEnsemble(np.array([[1, 0]]), np.array([5.0]))
        b = WeightedEnsemble(np.array([[0, 3]]), np.array([0.25]))
        mix = cesaro_mixture([a, b])
        assert mix.weights[0] == pytest.approx(mix.weights[1])


class TestMomentRatio:
    def test_exponential_samples_constant_ratio(self):
        gen = rngmod.stream(223, rngmod.SAMPLING, 0)
        taus = gen.exponential(1.0 / 2.0, 40_000)
        for n in (1, 2, 3):
            est = tau_moment_ratio(taus, n, seed=n)
            assert est.ci[0] <= 0.5 <= est.ci[1]
            assert est.estimate == pytest.approx(0.5, rel=0.1)
            assert not est.unstable

    def test_unstable_high_order_flagged(self):
        gen = rngmod.stream(225, rngmod.SAMPLING, 0)
        taus = gen.exponential(1.0, 60)
        est = tau_moment_ratio(taus, 9, seed=3)
        assert est.unstable

    def test_censored_excluded_and_counted(self):
        taus = np.array([1.0, 2.0, 5.0, 5.0])
        hit = np.array([True, True, False, False])
        est = tau_moment_ratio(taus, 1, hit=hit, seed=4, n_boot=50)
        assert est.n_excluded_censored == 2
        assert est.estimate == pytest.approx(
            (1.0 + 4.0) / (2 * (1.0 + 2.0)))
