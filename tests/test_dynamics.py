import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from qslab import dynamics
from qslab import rng as rngmod
from qslab.dynamics import (run_batch, rw_hitting, second_class_escape,
                            sigma_exit, survival_curve)
from qslab.measures import ProductMeasure, _window_distribution
from qslab.model import JumpKernel, Lattice, Model, RateFunction, TargetSet
from qslab.spectral import tasep_line_survival

from conftest import (_jump_rates_loop, assert_same_batch, killed_loop,
                      second_class_loop, sigma_exit_loop, states_loop,
                      trajectory, work_of)

G_LINEAR = RateFunction.zero_range(lambda k: float(k))


def gamma_tail(k, t):
    """P(Gamma(k, 1) > t) = P(Poisson(t) < k): independent hitting oracle."""
    return sum(math.exp(-t) * t**j / math.factorial(j) for j in range(k))


class TestSimulateKilled:
    def test_initial_inside_target_is_instant(self, toy):
        model, target, _ = toy
        batch = run_batch(model, target, 1, 10.0, 0,
                          initials=np.array([[2, 0, 0]]), record_events=True)
        assert batch.hit[0] and batch.taus[0] == 0.0
        assert trajectory(batch, 0).n_events == 0

    def test_empty_configuration_freezes(self, toy):
        model, target, _ = toy
        res = trajectory(run_batch(model, target, 1, 5.0, 0,
                                   initials=np.array([[0, 0, 0]]),
                                   indices=[1], record_events=True), 0)
        assert not res.hit and res.frozen
        assert res.terminal_time == 5.0

    def test_single_particle_gamma_hitting(self):
        # one particle three unobstructed hops from the trap: tau is a sum
        # of three unit exponentials
        lattice = Lattice((5,), "blocked")
        model = Model(lattice, JumpKernel(np.array([[1]]), np.array([1.0])),
                      RateFunction.exclusion())
        target = TargetSet(np.array([4]), 0)
        initials = np.tile([0, 1, 0, 0, 0], (20_000, 1))
        batch = run_batch(model, target, 20_000, 50.0, seed=77,
                          initials=initials)
        assert batch.hit.all()
        taus = batch.taus
        assert abs(taus.mean() - 3.0) <= 3 * taus.std(ddof=1) / math.sqrt(taus.size)
        for t in (1.0, 3.0, 6.0):
            p = (taus > t).mean()
            oracle = gamma_tail(3, t)
            assert abs(p - oracle) <= 3 * math.sqrt(oracle * (1 - oracle) / taus.size)

    def test_replay_determinism(self, toy):
        model, target, measure = toy
        runs = []
        for _ in range(2):
            gen = rngmod.stream(123, rngmod.TRAJECTORY, 9)
            occ = measure.sample_occupancies(model.lattice, gen, 1)[0]
            runs.append(trajectory(run_batch(model, target, 1, 40.0, 123,
                                             initials=occ[None], indices=[9],
                                             record_events=True), 0))
        a, b = runs
        assert a.terminal_time == b.terminal_time
        assert (a.times == b.times).all()
        assert (a.sources == b.sources).all()
        assert (a.destinations == b.destinations).all()

    def test_trajectory_replay_is_valid(self, toy):
        """Replay invariants: strictly increasing times, every event a
        positive-rate jump from the replayed state (rates from the scalar
        loop reference), no early target entry."""
        model, target, measure = toy
        nbr = model.lattice.neighbor_table(model.kernel.offsets)
        batch = run_batch(model, target, 64, 40.0, seed=3,
                          measure=measure, record_events=True)
        for i in range(batch.taus.size):
            traj = trajectory(batch, i)
            assert (np.diff(traj.times) > 0).all()
            occ = traj.initial.copy()
            for k in range(traj.n_events):
                assert not target.contains(occ)
                src, dst = int(traj.sources[k]), int(traj.destinations[k])
                rates = _jump_rates_loop(occ, nbr, model.kernel.weights,
                                         model.rates.b, src)
                assert sum(r for r, y in zip(rates, nbr[src])
                           if y == dst) > 0
                occ[src] -= 1
                occ[dst] += 1
            if traj.hit:
                assert target.contains(occ)
            assert occ.sum() == traj.initial.sum()

    def test_reverse_uses_transposed_kernel(self):
        # a single particle left of a right-edge trap never hits under the
        # reversed (leftward) kernel
        lattice = Lattice((5,), "blocked")
        model = Model(lattice, JumpKernel(np.array([[1]]), np.array([1.0])),
                      RateFunction.exclusion())
        target = TargetSet(np.array([4]), 0)
        res = trajectory(run_batch(model.reversed(), target, 1, 10.0, 5,
                                   initials=np.array([[0, 0, 1, 0, 0]]),
                                   record_events=True), 0)
        assert not res.hit


class TestBatches:
    def test_worker_count_invariance(self, toy):
        model, target, measure = toy
        one = run_batch(model, target, 200, 20.0, seed=9, measure=measure,
                        workers=1)
        two = run_batch(model, target, 200, 20.0, seed=9, measure=measure,
                        workers=2)
        assert (one.taus == two.taus).all()
        assert (one.hit == two.hit).all()

    def test_recorded_long_trajectories_worker_invariant(self):
        """Recorded trajectories of thousands of events (many blocks of
        draws each) do not depend on the worker count."""
        lattice = Lattice((6,), "torus")
        model = Model(lattice, JumpKernel(np.array([[1], [-1]]),
                                          np.array([0.7, 0.3])), G_LINEAR)
        initials = np.full((8, 6), 3)
        one, two = (run_batch(model, None, 8, 300.0, seed=7,
                              initials=initials, record_events=True,
                              workers=w) for w in (1, 2))
        assert min(ev[0].size for ev in one.events) > 2 * 2048
        for a, b in zip(one.events, two.events):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
        assert np.array_equal(one.finals, two.finals)

    def test_initials_must_hold_n_traj_rows(self, toy):
        model, target, _ = toy
        initials = np.array([[1, 1, 0], [0, 2, 0], [1, 0, 1]])
        for n in (2, 4):
            with pytest.raises(ValueError, match="initials"):
                run_batch(model, target, n, 5.0, 3, initials=initials)
        assert run_batch(model, target, 3, 5.0, 3, initials=initials).taus.size == 3

    def test_conservation_on_torus(self, toy):
        model, target, measure = toy
        batch = run_batch(model, target, 128, 20.0, seed=11,
                          measure=measure, record_events=True)
        for i in range(batch.taus.size):
            traj = trajectory(batch, i)
            assert traj.states()[-1].sum() == traj.initial.sum()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Records each call of the lockstep engine made through `dynamics`:
    its start time and a copy of the starts of the rows it is given."""
    calls = []
    real = dynamics.run_killed

    def recording(occ, *args):
        calls.append((args[7], occ.copy()))  # args[7] is t0
        return real(occ, *args)

    monkeypatch.setattr(dynamics, "run_killed", recording)
    return calls


class TestImmortalStarts:
    """A start whose particle total is at or below the threshold can never
    reach the target; it is classified at t = 0 and never simulated."""

    def test_skipped_without_kernel_call(self, toy, kernel_calls):
        model, target, _ = toy
        res = trajectory(run_batch(model, target, 1, 5.0, 0,
                                   initials=np.array([[0, 1, 0]]),
                                   indices=[2], record_events=True), 0)
        assert not res.hit and res.terminal_time == 5.0
        assert not res.frozen  # one particle keeps a positive rate
        assert res.n_events == 0
        assert kernel_calls == []

    def test_batch_marks_immortal_starts(self, toy, kernel_calls):
        model, target, _ = toy
        initials = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0], [1, 1, 1],
                             [0, 2, 0]])
        batch = run_batch(model, target, 5, 5.0, seed=81, initials=initials,
                          record_events=True)
        assert batch.immortal.tolist() == [True, True, True, False, False]
        assert batch.frozen.tolist()[:3] == [False, True, False]
        assert not batch.hit[:3].any() and (batch.taus[:3] == 5.0).all()
        assert all(batch.events[i][0].size == 0 for i in range(3))
        assert np.array_equal(batch.finals[:3], initials[:3])
        # only the two mortal starts reach the engine, both from t = 0
        assert [t0 for t0, _ in kernel_calls] == [0.0]
        assert np.array_equal(kernel_calls[0][1], initials[3:])

    def test_unkilled_runs_never_skip(self, toy, kernel_calls):
        model, _, _ = toy
        initials = np.array([[0, 1, 0], [0, 0, 0]])
        batch = run_batch(model, None, 2, 5.0, seed=83, initials=initials)
        assert not batch.immortal.any()
        assert [t0 for t0, _ in kernel_calls] == [0.0]
        assert np.array_equal(kernel_calls[0][1], initials)
        assert batch.frozen.tolist() == [False, True]

    def test_recorded_batch_matches_golden(self, toy):
        """Skipping immortal starts leaves every other trajectory
        bit-for-bit as before: the digest of the hit times, the hit flags
        and the events of the mortal starts was taken before the skip
        existed (when immortal starts still ran to t_max)."""
        model, target, measure = toy
        batch = run_batch(model, target, 500, 20.0, seed=31,
                          measure=measure, record_events=True)
        digest = hashlib.sha256()
        digest.update(batch.taus.tobytes())
        digest.update(batch.hit.tobytes())
        for i in np.flatnonzero(~batch.immortal):
            for arr in batch.events[i]:
                digest.update(arr.tobytes())
        assert digest.hexdigest() == ("2fbfedd3ebe8bf29d4430d778ea69487"
                                      "a58d638801df1a61d41ded1b727d0fd8")
        assert batch.immortal.sum() == 280
        assert all(batch.events[i][0].size == 0
                   for i in np.flatnonzero(batch.immortal))

    def test_immortal_share_matches_product_law(self, toy):
        model, target, measure = toy
        n = 20_000
        batch = run_batch(model, target, n, 1e-6, seed=85,
                          measure=measure)
        total_law = _window_distribution(measure.marginal,
                                         model.lattice.num_sites)
        p = total_law[:target.threshold + 1].sum()
        assert abs(batch.immortal.mean() - p) <= 4 * math.sqrt(
            p * (1 - p) / n)


@pytest.fixture(scope="module")
def misanthrope_ring():
    """b(n, m) = n / (1 + m) depends on the destination; three offsets."""
    lattice = Lattice((4,), "torus")
    rates = RateFunction.misanthrope(lambda n, m: n / (1.0 + m),
                                     lambda k: float(k))
    model = Model(lattice, JumpKernel(np.array([[1], [-1], [2]]),
                                      np.array([0.5, 0.3, 0.2])), rates)
    return model, TargetSet(np.array([0]), 2), \
        ProductMeasure.at_density(0.5, G_LINEAR)


class TestEngineOracle:
    """The lockstep engine against the one-trajectory scalar loop of
    conftest.py: same streams, same draws, same float operations."""

    @pytest.mark.parametrize("setup,n,t_max", [
        ("tasep_line", 300, 6.0), ("toy", 400, 20.0),
        ("misanthrope_ring", 200, 10.0)])
    def test_events_bit_identical_to_scalar_loop(self, request, setup, n,
                                                 t_max):
        model, target, measure = request.getfixturevalue(setup)
        batch = run_batch(model, target, n, t_max, 19, measure=measure,
                          record_events=True)
        taus, hit, frozen, finals, events = killed_loop(
            model, target, n, t_max, 19, measure=measure)
        assert np.array_equal(batch.taus, taus)
        assert np.array_equal(batch.hit, hit)
        assert np.array_equal(batch.frozen, frozen)
        assert np.array_equal(batch.finals, finals)
        for mine, ref in zip(batch.events, events):
            for x, y in zip(mine, ref):
                assert x.dtype == y.dtype and np.array_equal(x, y)
        assert hit.any() and (~hit).any()
        assert np.array_equal(batch.n_events, [ev[0].size for ev in events])

    @pytest.mark.parametrize("setup", ["toy", "tasep_line"])
    def test_batched_starts_match_per_row_sampling(self, request, setup):
        """A start is the inverse CDF of its stream's first num_sites
        uniforms: what `sample_occupancies(lattice, stream, 1)` gives."""
        model, target, measure = request.getfixturevalue(setup)
        batch = run_batch(model, target, 120, 1.0, 53, measure=measure,
                          indices=7 + np.arange(120))
        for i in range(batch.taus.size):
            gen = rngmod.stream(53, rngmod.TRAJECTORY, 7 + i)
            assert np.array_equal(
                batch.initials[i],
                measure.sample_occupancies(model.lattice, gen, 1)[0])

    @pytest.mark.parametrize("setup", ["toy", "tasep_line"])
    def test_replay_of_a_batch_matches_per_trajectory_loop(self, request,
                                                          setup):
        """`replay` of a whole batch laid end to end (immortal and instant
        starts with no event included) and `Trajectory.states` match the
        one-event-at-a-time replay of each trajectory."""
        model, target, measure = request.getfixturevalue(setup)
        batch = run_batch(model, target, 200, 10.0, 59, measure=measure,
                          record_events=True)
        assert (batch.n_events == 0).any() and (batch.n_events > 1).any()
        ref = [states_loop(batch.initials[i], *batch.events[i][1:])
               for i in range(batch.taus.size)]
        srcs, dsts = (np.concatenate([ev[k] for ev in batch.events])
                      for k in (1, 2))
        got = dynamics.replay(batch.initials, batch.n_events, srcs, dsts)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.vstack(ref))
        for i in range(batch.taus.size):
            assert np.array_equal(trajectory(batch, i).states(), ref[i])

    def test_draws_match_scalar_draws(self):
        """Keyed blocks of uniforms hold what one-at-a-time draws would give
        from each row's start position on (one not a multiple of 4),
        whatever number each row takes per call."""
        starts = np.array([0, 3, 6])
        draws = dynamics._Draws(
            rngmod.keys(43, rngmod.TRAJECTORY, np.arange(3)), starts)
        got = [[] for _ in starts]
        for step in range(200):
            rows = np.array([r for r in range(3) if (step + r) % 4])
            k = 1 + step % 3
            for r, vals in zip(rows, draws.take(rows, k)):
                got[r].extend(vals)
        for i, vals in enumerate(got):
            ref = rngmod.stream(43, rngmod.TRAJECTORY, i)
            ref.random(starts[i])
            assert vals == [ref.random() for _ in vals]

    def test_categorical_pick_and_float_edge(self):
        rates = np.array([[1.0, 2.0, 0.0, 0.0]] * 4 + [[0.0, 1.0, 0.0, 0.0]])
        cum = np.cumsum(rates, axis=1)
        u = np.array([0.5, 1.0, 2.5, 3.0, 0.0])
        pick, residual = dynamics._categorical(rates, cum, u)
        # u at the total falls back to the last positive category, and a
        # category of rate 0 is never picked
        assert pick.tolist() == [0, 1, 1, 1, 1]
        assert residual.tolist() == [0.5, 0.0, 1.5, 2.0, 0.0]

    def test_unkilled_and_frozen_rows_match_scalar_loop(self, toy):
        model, _, _ = toy
        initials = np.array([[0, 0, 0], [2, 0, 1], [0, 3, 0], [1, 1, 1]])
        batch = run_batch(model, None, 4, 4.0, 23, initials=initials,
                          record_events=True)
        taus, hit, frozen, finals, events = killed_loop(
            model, None, 4, 4.0, 23, initials=initials)
        assert frozen.tolist() == batch.frozen.tolist() == \
            [True, False, False, False]
        assert np.array_equal(batch.finals, finals)
        for mine, ref in zip(batch.events, events):
            for x, y in zip(mine, ref):
                assert np.array_equal(x, y)

    def test_events_counted_recorded_or_not(self, toy):
        model, target, measure = toy
        (rec, work), (bare, bare_work) = (work_of(
            lambda r=r: run_batch(model, target, 300, 20.0, 29,
                                  measure=measure, record_events=r))
            for r in (True, False))
        assert bare.events is None
        assert np.array_equal(rec.n_events, bare.n_events)
        assert np.array_equal(rec.taus, bare.taus)
        assert np.array_equal(rec.finals, bare.finals)
        assert work == bare_work
        assert work.events == sum(ev[0].size for ev in rec.events) > 0
        assert (rec.n_events[rec.immortal] == 0).all()
        assert work.trajectories + work.immortal_skipped == 300


class TestSplits:
    """A trajectory depends only on its stream, its start and t_max."""

    @pytest.mark.parametrize("setup", ["tasep_line", "toy"])
    @pytest.mark.parametrize("record", [False, True])
    def test_batch_is_concatenation_of_base_index_spans(self, request, setup,
                                                        record):
        model, target, measure = request.getfixturevalue(setup)
        whole = run_batch(model, target, 240, 6.0, 37, measure=measure,
                          record_events=record)
        parts = [run_batch(model, target, hi - lo, 6.0, 37, measure=measure,
                           record_events=record,
                           indices=lo + np.arange(hi - lo))
                 for lo, hi in ((0, 1), (1, 100), (100, 240))]
        joined = dynamics.BatchResult(
            *(np.concatenate([getattr(p, name) for p in parts])
              for name in ("taus", "hit", "frozen", "immortal")),
            6.0, np.vstack([p.initials for p in parts]),
            [ev for p in parts for ev in p.events] if record else None,
            np.vstack([p.finals for p in parts]),
            np.concatenate([p.n_events for p in parts]))
        assert_same_batch(whole, joined)

    def test_indices_pick_rows_of_the_whole_batch(self, toy):
        model, target, measure = toy
        initials = measure.sample_occupancies(
            model.lattice, rngmod.stream(3, rngmod.SAMPLING, 0), 200)
        whole = run_batch(model, target, 200, 6.0, 41, initials=initials,
                          record_events=True, indices=7 + np.arange(200))
        rows = np.array([150, 3, 77, 78, 199])
        some = run_batch(model, target, rows.size, 6.0, 41,
                         initials=initials[rows], record_events=True,
                         indices=7 + rows)
        assert np.array_equal(some.initials, initials[rows])
        for name in ("taus", "hit", "frozen", "finals", "n_events"):
            assert np.array_equal(getattr(some, name),
                                  getattr(whole, name)[rows])
        for k, i in enumerate(rows):
            for x, y in zip(some.events[k], whole.events[i]):
                assert np.array_equal(x, y)


class TestReplayProperties:
    @settings(max_examples=25, deadline=None)
    @given(n_sites=st.integers(2, 5), torus=st.booleans(),
           exclusion=st.booleans(), seed=st.integers(0, 2**32),
           threshold=st.integers(-1, 3), data=st.data())
    def test_states_finals_and_split_batches(self, n_sites, torus, exclusion,
                                             seed, threshold, data):
        """states() conserves the total and ends at the engine's final
        occupancy; the window sum stays at or below the threshold until the
        last event, passes it exactly when the trajectory hit, and never
        passes it on a censored one; a batch equals its two halves run on
        their own stream indices."""
        lattice = Lattice((n_sites,), "torus" if torus else "blocked")
        rates = RateFunction.exclusion() if exclusion else G_LINEAR
        model = Model(lattice, JumpKernel(np.array([[1], [-1]]),
                                          np.array([0.7, 0.3])), rates)
        target = None if threshold < 0 else \
            TargetSet(np.array([0]), threshold)
        cap = 1 if exclusion else 3
        initials = np.array(data.draw(st.lists(
            st.lists(st.integers(0, cap), min_size=n_sites,
                     max_size=n_sites), min_size=4, max_size=4)))
        whole = run_batch(model, target, 4, 3.0, seed, initials=initials,
                          record_events=True)
        for i in range(whole.taus.size):
            states = trajectory(whole, i).states()
            assert (states.sum(axis=1) == initials[i].sum()).all()
            assert np.array_equal(states[-1], whole.finals[i])
            if target is not None:
                window = states[:, target.sites].sum(axis=1)
                assert (window[:-1] <= threshold).all()
                assert (window[-1] > threshold) == whole.hit[i]
        halves = [run_batch(model, target, 2, 3.0, seed,
                            initials=initials[lo:lo + 2],
                            record_events=True, indices=lo + np.arange(2))
                  for lo in (0, 2)]
        assert np.array_equal(whole.taus,
                              np.concatenate([h.taus for h in halves]))
        assert np.array_equal(whole.finals,
                              np.vstack([h.finals for h in halves]))
        split = [ev for h in halves for ev in h.events]
        for a, b in zip(whole.events, split):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)


class TestSurvivalCurve:
    def test_nonincreasing_nested_evaluation(self, toy):
        model, target, measure = toy
        curve = survival_curve(model, target, np.linspace(0.0, 6.0, 13),
                               2000, 13, measure=measure)
        assert (np.diff(curve.estimate) <= 0).all()

    def test_at_zero_matches_survivor_mass(self, toy):
        model, target, measure = toy
        curve = survival_curve(model, target, [0.0, 1.0], 20_000, 15,
                               measure=measure)
        probs = measure.marginal.probabilities
        mass = probs[:2].sum()  # window {0}, threshold 1
        assert abs(curve.estimate[0] - mass) <= \
            3 * math.sqrt(mass * (1 - mass) / 20_000)

    def test_line_oracle_pointwise(self, tasep_line):
        model, target, measure = tasep_line
        grid = np.arange(0.5, 8.01, 0.5)
        curve = survival_curve(model, target, grid, 20_000, seed=21,
                               measure=measure)
        oracle = tasep_line_survival(0.5, grid)
        # includes the quoted value at t = 1: 0.5 exp(-0.5) = 0.30327
        assert oracle[1] == pytest.approx(0.5 * math.exp(-0.5))
        se = np.sqrt(oracle * (1 - oracle) / 20_000)
        assert (np.abs(curve.estimate - oracle) <= 3 * se + 1e-12).all()


def supermultiplicativity_slack(model, target, measure, s, t, n_traj, seed,
                                n_boot=200):
    """Monte Carlo slack p(s+t) - p(s) p(t) of the survival probability p
    under the product law, and its bootstrap standard error."""
    curve = survival_curve(model, target, [s, t, s + t], n_traj, seed,
                           measure=measure)
    # censored trajectories survived past the horizon: alive at every probe
    taus = np.where(curve.hit, curve.taus, np.inf)

    def slack_of(arr):
        return (arr > s + t).mean() - (arr > s).mean() * (arr > t).mean()

    boot_gen = rngmod.stream(seed, rngmod.BOOTSTRAP, 0)
    slacks = [slack_of(taus[boot_gen.integers(0, n_traj, n_traj)])
              for _ in range(n_boot)]
    return slack_of(taus), float(np.std(slacks, ddof=1))


class TestSupermultiplicativity:
    def test_monte_carlo_on_torus(self, toy):
        model, target, measure = toy
        slack, se = supermultiplicativity_slack(model, target, measure, 1.0,
                                                2.0, 20_000, seed=31)
        assert slack >= -3.0 * se

    def test_zero_time_trivial(self, toy):
        model, target, measure = toy
        slack, _ = supermultiplicativity_slack(model, target, measure, 0.0,
                                               2.0, 5_000, seed=33)
        # P(tau > t) >= P(tau > t) P(tau > 0) holds with slack
        assert slack >= -1e-12


class TestStationarity:
    def test_occupancy_law_preserved_at_time_five(self):
        """Chi-square of the site-0 occupancy of the unkilled dynamics at
        time 5 against the marginal, tail bins pooled until every expected
        count is at least 5, at the 4-sigma quantile."""
        lattice = Lattice((12,), "torus")
        model = Model(lattice, JumpKernel(np.array([[1], [-1]]),
                                          np.array([0.7, 0.3])), G_LINEAR)
        measure = ProductMeasure.at_density(0.6, G_LINEAR)
        n_traj = 4000
        batch = run_batch(model, None, n_traj, 5.0, 41, measure=measure)
        probs = measure.marginal.probabilities
        kmax = probs.size - 1
        counts = np.bincount(np.minimum(batch.finals[:, 0], kmax),
                             minlength=kmax + 1).astype(float)
        expected = probs * n_traj
        while expected.size > 2 and expected[-1] < 5.0:
            expected[-2] += expected[-1]
            counts[-2] += counts[-1]
            expected, counts = expected[:-1], counts[:-1]
        stat = float(((counts - expected) ** 2 / expected).sum())
        alpha = 2.0 * (1.0 - 0.5 * (1 + math.erf(4.0 / math.sqrt(2))))
        threshold = float(chi2.ppf(1.0 - alpha, counts.size - 1))
        assert stat <= threshold, (stat, threshold)


class TestWalkHitting:
    def test_directed_walk_left_of_trap(self):
        lattice = Lattice((8,), "blocked")
        kernel = JumpKernel(np.array([[1]]), np.array([1.0]))
        assert rw_hitting(lattice, kernel, 5, [6]) == pytest.approx(1.0)

    def test_directed_walk_right_of_trap(self):
        lattice = Lattice((8,), "blocked")
        kernel = JumpKernel(np.array([[1]]), np.array([1.0]))
        assert rw_hitting(lattice, kernel, 7, [6]) == pytest.approx(0.0)

    def test_three_dimensional_exact_quarter(self):
        lattice = Lattice((3, 3, 3), "blocked")
        kernel = JumpKernel(np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                            np.array([0.5, 0.25, 0.25]))
        start = int(np.ravel_multi_index((0, 0, 0), lattice.extent))
        trap = int(np.ravel_multi_index((2, 0, 0), lattice.extent))
        # only the double +x step reaches the trap: exactly 1/4
        assert rw_hitting(lattice, kernel, start, [trap]) == \
            pytest.approx(0.25, abs=1e-10)

    def test_walk_started_on_target_has_hit(self):
        lattice = Lattice((8,), "blocked")
        kernel = JumpKernel(np.array([[1]]), np.array([1.0]))
        assert rw_hitting(lattice, kernel, 6, [6]) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_window_out_of_reach_of_a_closed_class(self):
        # the walk only moves along the second axis, so the rows of the
        # torus without site 0 are closed classes that never reach it
        lattice = Lattice((3, 3), "torus")
        kernel = JumpKernel(np.array([[0, 1]]), np.array([1.0]))
        assert rw_hitting(lattice, kernel, 1, [0]) == pytest.approx(1.0)
        assert rw_hitting(lattice, kernel, 4, [0]) == 0.0


class TestSecondClass:
    def test_unreachable_window_gives_zero_gap(self):
        lattice = Lattice((12,), "blocked")
        model = Model(lattice, JumpKernel(np.array([[1]]), np.array([1.0])),
                      RateFunction.exclusion())
        target = TargetSet(np.array([8]), 0)
        eta0 = [1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        rep = second_class_escape(model, target, eta0, 10, [1.0, 2.0],
                                  1000, seed=61)
        assert rep.walk_hit_probability == pytest.approx(0.0)
        assert rep.epsilon_bound == pytest.approx(1.0)
        assert (rep.gap == 0).all()
        assert rep.order_violations == 0

    def test_gap_bounded_by_walk_hitting(self, toy):
        model, target, _ = toy
        rep = second_class_escape(model, target, [1, 1, 0], 1,
                                  [0.5, 1.0, 2.0], 3000, seed=63)
        assert rep.order_violations == 0
        assert rep.bound_ok()

    @pytest.mark.parametrize("eta0", [[1, -1, 0], [1, 0], [[1, 1, 0]]],
                             ids=["negative", "short", "matrix"])
    def test_start_needs_one_count_per_site(self, toy, eta0):
        model, target, _ = toy
        with pytest.raises(ValueError, match="one nonnegative occupancy"):
            second_class_escape(model, target, eta0, 1, [1.0], 10, seed=1)

    def test_exact_gap_from_sector_pair(self, toy):
        """Coupling estimate against two exact semigroup computations."""
        from qslab.spectral import (FixedTotal, build_killed_generator,
                                    enumerate_states, exact_survival)
        model, target, _ = toy
        rep = second_class_escape(model, target, [1, 1, 0], 1,
                                  [0.5, 1.0, 2.0], 6000, seed=65)
        gaps = []
        for m, occ0 in ((2, [1, 1, 0]), (3, [1, 2, 0])):
            space = enumerate_states(model.lattice, FixedTotal(m))
            kg = build_killed_generator(space, model, target)
            e = np.zeros(kg.dim)
            e[list(kg.ac_indices).index(space.index_of(occ0))] = 1.0
            gaps.append(exact_survival(kg, e, [0.5, 1.0, 2.0]))
        exact_gap = gaps[0] - gaps[1]
        assert (np.abs(rep.gap - exact_gap) <= 3 * rep.gap_stderr + 1e-9).all()


@pytest.mark.parametrize("setup,eta0,site", [
    # exclusion: jumps into the tagged site carry the excess sub-event
    ("excl_ring", [0, 0, 1, 0, 1, 1, 0, 1], 3),
    ("toy", [1, 1, 0], 1),
    # b depends on the destination, and the kernel has range 2
    ("misanthrope_ring", [1, 2, 0, 1], 2),
])
def test_second_class_matches_scalar_loop(request, setup, eta0, site):
    model, target = request.getfixturevalue(setup)[:2]
    grid = [0.5, 1.0, 2.0, 4.0]
    rep = second_class_escape(model, target, eta0, site, grid,
                              300, seed=59)
    tau_eta, tau_zeta = second_class_loop(model, target, eta0, site, 4.0,
                                          300, seed=59)
    alive_eta = tau_eta[None, :] > np.array(grid)[:, None]
    alive_zeta = tau_zeta[None, :] > np.array(grid)[:, None]
    assert np.array_equal(rep.survival_eta, alive_eta.mean(axis=1))
    assert np.array_equal(rep.gap, alive_eta.mean(axis=1)
                          - alive_zeta.mean(axis=1))
    assert rep.order_violations == np.count_nonzero(tau_zeta > tau_eta)
    assert (rep.gap > 0).any()


@pytest.mark.parametrize("setup", ["tasep_line", "toy", "misanthrope_ring"])
def test_sigma_exit_matches_scalar_loop(request, setup):
    """One run to the largest kappa gives, at every kappa of the grid, the
    estimate of a scalar run to that kappa alone."""
    model, target, measure = request.getfixturevalue(setup)
    kappas = [0.2, 0.5, 0.8, 1.3]
    rep = sigma_exit(model, target, measure, kappas, 200, seed=57)
    for k, kappa in enumerate(kappas):
        survived = sigma_exit_loop(model, target, measure, kappa, 200,
                                   seed=57)
        assert rep.estimate[k] == survived.mean()
    assert ((0 < rep.estimate) & (rep.estimate < 1)).all()


def test_couplings_repeat_at_fixed_seed(tasep_line):
    """Both coupling loops read only their per-trajectory streams."""
    model, target, measure = tasep_line
    eta0 = ((np.arange(65) % 2 == 0) & (np.arange(65) < 60)).astype(int)
    reps, works = zip(*(work_of(
        lambda: second_class_escape(model, target, eta0, 61, [0.5, 1.0, 2.0],
                                    40, seed=67)) for _ in range(2)))
    for name in ("t_grid", "gap", "gap_stderr", "survival_eta"):
        assert np.array_equal(getattr(reps[0], name), getattr(reps[1], name))
    assert reps[0].order_violations == reps[1].order_violations
    assert works[0].events == works[1].events > 0
    sig, works = zip(*(work_of(
        lambda: sigma_exit(model, target, measure, [0.8], 60, seed=69))
        for _ in range(2)))
    assert np.array_equal(sig[0].estimate, sig[1].estimate)
    assert np.array_equal(sig[0].deltas, sig[1].deltas)
    assert works[0].events == works[1].events > 0


class TestSigmaExit:
    def test_short_horizon_probability_one(self, toy):
        model, target, measure = toy
        rep = sigma_exit(model, target, measure, [1e-9], 400, seed=71)
        assert rep.estimate[0] == pytest.approx(1.0)
        assert rep.lower_bound[0] == pytest.approx(1.0, abs=1e-6)

    def test_vacuum_never_enters(self, toy):
        model, target, _ = toy
        vacuum = ProductMeasure.at_density(0.0, model.rates)
        rep = sigma_exit(model, target, vacuum, [1.0], 200, seed=73)
        assert rep.estimate[0] == 1.0

    def test_bound_holds_on_ring(self):
        lattice = Lattice((32,), "torus")
        model = Model(lattice, JumpKernel(np.array([[1]]), np.array([1.0])),
                      RateFunction.exclusion())
        target = TargetSet(np.array([0]), 0)
        measure = ProductMeasure.at_density(0.5, model.rates)
        rep = sigma_exit(model, target, measure, [0.5], 1500, seed=75)
        assert 0 < rep.lower_bound[0] < 1
        assert rep.passed()[0]
