import ast
import importlib
import math
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from conftest import (absorbing_core_bfs, enumerate_reference,
                      killed_generator_loop)

from qslab import spectral
from qslab.estimators import SurvivalCurve, fit_decay
from qslab.model import (JumpKernel, Lattice, Model, RateFunction, TargetSet)
from qslab.spectral import (FixedTotal, KilledGenerator, MaxTotal, SolverError,
                            StateSpaceError, TasepCircleOracle, absorbing_core,
                            build_killed_generator, canonical_vector,
                            enumerate_states, exact_survival,
                            hitting_sandwich_check, normalize_density,
                            occupation_vectors, principal_decay,
                            product_vector, qsd_fixed_point_check,
                            rayleigh_quotient, restrict_to_core,
                            tasep_line_survival)

G_LINEAR = RateFunction.zero_range(lambda k: float(k))
# principal decay rate of the asymmetric exclusion ring (window {0, 1},
# threshold 1, MaxTotal(n)) by number of sites: the rates the benchmark's
# exact workload pins
PINNED_DECAY = {
    8: 0.030032362581265425,
    9: 0.022928781120672467,
    11: 0.014604530929000398,
    13: 0.010079494149085804,
}
# fitted decay rate and fit window of the totally asymmetric exclusion ring
# (`tasep_ring`) by (sites, particles), as computed by an independent,
# segmented uniformization: how the exact survival is summed may move the
# rate at rounding level, not the window.  The 16-site half-filled ring is
# the benchmark's defective sector
PINNED_DEFECTIVE = {
    (3, 1): (0.9988531083100773, (750.0, 1000.0)),
    (4, 1): (0.997706222761158, (750.0, 1000.0)),
    (4, 2): (0.9977167522657346, (375.0, 500.0)),
    (6, 4): (0.9977271910162337, (375.0, 500.0)),
    (12, 10): (0.9977579391557637, (375.0, 500.0)),
    (14, 12): (0.9977680034634037, (375.0, 500.0)),
    (16, 14): (0.9977779773255756, (375.0, 500.0)),
    (16, 8): (0.9408144075028257, (93.75, 125.0)),
}


def single_site_chain(rate: float) -> KilledGenerator:
    """1x1 killed generator with pure exit `rate`."""
    lattice = Lattice((2,), "blocked")
    space = enumerate_states(lattice, FixedTotal(1), site_cap=1)
    model = Model(lattice, JumpKernel(np.array([[1]]), np.array([1.0])),
                  RateFunction.exclusion())
    target = TargetSet(np.array([1]), 0)
    kg = build_killed_generator(space, model, target)
    kg.matrix = csr_matrix(np.array([[-rate]]))
    kg.killing = np.array([rate])
    return kg


def tasep_ring(n_sites: int, n_particles: int) -> KilledGenerator:
    """Totally asymmetric exclusion ring with a fixed particle number and
    the trap at the origin: a killed spectrum with one Jordan block."""
    lat = Lattice((n_sites,), "torus")
    model = Model(lat, JumpKernel(np.array([[1]]), np.array([1.0])),
                  RateFunction.exclusion())
    space = enumerate_states(lat, FixedTotal(n_particles), site_cap=1)
    return build_killed_generator(space, model, TargetSet(np.array([0]), 0))


def exclusion_ring_core(n_sites: int) -> KilledGenerator:
    """The `excl_ring` model on n sites, MaxTotal(n), restricted to its
    core."""
    lat = Lattice((n_sites,), "torus")
    model = Model(lat, JumpKernel(np.array([[1], [-1]]), np.array([0.7, 0.3])),
                  RateFunction.exclusion())
    space = enumerate_states(lat, MaxTotal(n_sites), site_cap=1)
    kg = build_killed_generator(space, model, TargetSet(np.array([0, 1]), 1))
    return restrict_to_core(kg)


def one_directional_core() -> KilledGenerator:
    """The totally asymmetric 6-site exclusion ring (window {0, 1},
    threshold 1, MaxTotal(6)) restricted to its core: 41 states in 5
    strongly connected blocks, one of them a cycle, with a Perron pair."""
    lat = Lattice((6,), "torus")
    model = Model(lat, JumpKernel(np.array([[1]]), np.array([1.0])),
                  RateFunction.exclusion())
    space = enumerate_states(lat, MaxTotal(6), site_cap=1)
    kg = build_killed_generator(space, model, TargetSet(np.array([0, 1]), 1))
    return restrict_to_core(kg)


def hand_built(jumps, killing) -> KilledGenerator:
    """Killed generator with jump rate jumps[i][j] from state i to state j
    and the given killing rates, on the first states of a 4-site line with
    one particle (the states only name the rows)."""
    killing = np.asarray(killing, dtype=np.float64)
    rates = np.asarray(jumps, dtype=np.float64)
    lat = Lattice((4,), "blocked")
    space = enumerate_states(lat, FixedTotal(1), site_cap=1)
    matrix = csr_matrix(rates - np.diag(rates.sum(axis=1) + killing))
    return KilledGenerator(space, TargetSet(np.array([3]), 0), matrix,
                           killing, np.arange(killing.size))


def counting_splu(monkeypatch) -> list:
    """Patch the `splu` that spectral imports when it factors; the returned
    list gets one entry per call."""
    calls = []

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)
    monkeypatch.setattr(importlib.import_module("scipy.sparse.linalg"),
                        "splu", counted)
    return calls


@pytest.fixture(scope="module")
def never_killed(toy_spectral, toy, excl_ring):
    """Generators that keep states outside their absorbing core: the toy at
    MaxTotal(20) and MaxTotal(6), the exclusion ring at MaxTotal(8), the
    6-site zero-range and exclusion rings at MaxTotal(1), which hold only
    never-killed states, and the 8-site zero-range ring at FixedTotal(1),
    where no pivot of -L is exactly zero (window {0}, threshold 1 on the
    rings)."""
    model, target, _ = toy
    two_way = JumpKernel(np.array([[1], [-1]]), np.array([0.7, 0.3]))
    window = TargetSet(np.array([0]), 1)
    cases = [
        toy_spectral["kg"],
        build_killed_generator(
            enumerate_states(model.lattice, MaxTotal(6)), model, target),
        excl_ring[4],
    ]
    for rates in (G_LINEAR, RateFunction.exclusion()):
        lat = Lattice((6,), "torus")
        space = enumerate_states(lat, MaxTotal(1),
                                 site_cap=rates.max_site_occupancy)
        cases.append(build_killed_generator(
            space, Model(lat, two_way, rates), window))
    lat = Lattice((8,), "torus")
    cases.append(build_killed_generator(
        enumerate_states(lat, FixedTotal(1)),
        Model(lat, two_way, G_LINEAR), window))
    return cases


def assert_refused(kg: KilledGenerator, solve) -> None:
    """`solve` raises SolverError with the number of states outside the core
    of `kg` and one never-killed survivor state: at most `threshold`
    particles."""
    n_out = int((~absorbing_core(kg)).sum())
    assert n_out > 0
    with pytest.raises(SolverError) as err:
        solve()
    count, example = str(err.value).split(
        " survivor states are not killed almost surely, e.g. ")
    assert int(count) == n_out
    occ = np.array(ast.literal_eval(example))
    assert occ.sum() <= kg.target.threshold
    assert kg.space.index_of(occ) in kg.ac_indices


class TestEnumeration:
    def test_exclusion_counts(self):
        lat = Lattice((4,), "torus")
        assert enumerate_states(lat, FixedTotal(2), site_cap=1).size == 6
        lat6 = Lattice((6,), "torus")
        assert enumerate_states(lat6, FixedTotal(3), site_cap=1).size == 20

    def test_capped_grand_canonical_count(self):
        """The sectors 0..4 of two sites capped at 2 fill the 3 x 3 box."""
        lat = Lattice((2,), "torus")
        assert enumerate_states(lat, MaxTotal(4), site_cap=2).size == 9

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_many_particles_on_few_sites(self, n_sites):
        """A space the state limit admits ranks in memory of the order of
        its sites times its particles: 50,000 uncapped particles on one or
        two sites."""
        total = 50_000
        space = enumerate_states(Lattice((n_sites,), "torus"),
                                 FixedTotal(total))
        assert space.size == total * (n_sites - 1) + 1
        last = (total,) if n_sites == 1 else (total, 0)
        assert space.index_of(last) == space.size - 1
        assert space._rank(np.array([last]) + 1).tolist() == [-1]

    def test_refusal_reports_count(self):
        # binom(20, 10) = 184,756 states of at most 10 particles on 10
        # sites, counted before any is enumerated
        lat = Lattice((10,), "torus")
        with pytest.raises(StateSpaceError, match="184756"):
            enumerate_states(lat, MaxTotal(10))

    def test_index_round_trip(self):
        lat = Lattice((3,), "torus")
        space = enumerate_states(lat, MaxTotal(4))
        for i in (0, 5, space.size - 1):
            assert space.index_of(space.occupancies[i]) == i

    def test_duplicate_free_lexicographic_sectors(self):
        lat = Lattice((3,), "torus")
        space = enumerate_states(lat, MaxTotal(3))
        totals = space.occupancies.sum(axis=1)
        assert (np.diff(totals) >= 0).all()  # sector-major ordering


def _reference_cases():
    """(model, target, constraint, site_cap) spanning the assembly paths:
    sector unions, one sector with several particles per site, exclusion,
    target-dependent b, blocked boundary, two dimensions and a long sparse
    lattice."""
    two_way = JumpKernel(np.array([[1], [-1]]), np.array([0.7, 0.3]))

    def ring(n):
        return Lattice((n,), "torus")

    misanthrope = RateFunction.misanthrope(
        lambda n, m: float(n) / (1.0 + m), lambda k: float(k))
    plane = JumpKernel(np.array([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                       np.array([0.4, 0.2, 0.25, 0.15]))
    line = Lattice((9,), "blocked")
    return {
        "toy-max-total-20": (Model(ring(3), two_way, G_LINEAR),
                             TargetSet(np.array([0]), 1), MaxTotal(20), None),
        "zero-range-fixed-total-5": (Model(ring(5), two_way, G_LINEAR),
                                     TargetSet(np.array([0, 1]), 2),
                                     FixedTotal(5), None),
        "exclusion-ring-fixed-total": (
            Model(ring(8), two_way, RateFunction.exclusion()),
            TargetSet(np.array([0, 1]), 1), FixedTotal(4), 1),
        "misanthrope": (Model(ring(6), two_way, misanthrope),
                        TargetSet(np.array([0]), 2), MaxTotal(5), None),
        # a particle left of the window may jump over it, out of reach for
        # good: such states can kill and still leave the core
        "blocked-line": (Model(line, JumpKernel(np.array([[1], [2]]),
                                                np.array([0.6, 0.4])),
                               RateFunction.exclusion()),
                         TargetSet(np.array([4]), 0), MaxTotal(9), 1),
        "torus-2d": (Model(Lattice((3, 3), "torus"), plane, G_LINEAR),
                     TargetSet(np.array([0, 1]), 2), MaxTotal(4), None),
        "40-sites-max-total-2": (Model(ring(40), two_way, G_LINEAR),
                                 TargetSet(np.array([0]), 1), MaxTotal(2),
                                 None),
    }


REFERENCE_CASES = _reference_cases()


@pytest.fixture(scope="module", params=sorted(REFERENCE_CASES))
def reference_case(request):
    model, target, constraint, site_cap = REFERENCE_CASES[request.param]
    space = enumerate_states(model.lattice, constraint, site_cap=site_cap)
    kg = build_killed_generator(space, model, target)
    return model, target, site_cap, space, kg


class TestAgainstLoopReference:
    """The array-at-a-time exact layer against the loop implementations in
    conftest."""

    def test_enumeration_matches_recursion(self, reference_case):
        model, _, site_cap, space, _ = reference_case
        ref = enumerate_reference(model.lattice.num_sites, space.constraint,
                                  site_cap)
        assert np.array_equal(space.occupancies, ref)

    def test_index_round_trip_and_absent_states(self, reference_case):
        space = reference_case[3]
        assert [space.index_of(row) for row in space.occupancies] == \
            list(range(space.size))
        top = space.occupancies.max()
        absent = [np.full(space.n_sites, top + 1),
                  np.r_[-1, np.ones(space.n_sites - 1, dtype=np.int64)],
                  np.zeros(space.n_sites + 1, dtype=np.int64),
                  np.r_[space.constraint.total + 1,
                        np.zeros(space.n_sites - 1, dtype=np.int64)]]
        if space.constraint.lowest > 0:
            # one particle short of the run, on a site that holds some
            short = space.occupancies[-1].copy()
            short[np.argmax(short)] -= 1
            absent.append(short)
        for occ in absent:
            with pytest.raises(StateSpaceError):
                space.index_of(occ)

    def test_rank_of_a_mixed_batch(self, reference_case):
        """One `_rank` call on the enumeration shuffled among rows with a
        -1, rows above the cap and rows of a total outside the run gives
        each row its index, -1 for the absent ones."""
        space = reference_case[3]
        rng = np.random.default_rng(11)
        occ = space.occupancies
        negative = occ[rng.integers(0, space.size, 50)].copy()
        negative[np.arange(50), rng.integers(0, space.n_sites, 50)] = -1
        over_cap = occ[rng.integers(0, space.size, 50)].copy()
        over_cap[np.arange(50), rng.integers(0, space.n_sites, 50)] = \
            space.occupancies.max() + 1
        wrong_total = occ[rng.integers(0, space.size, 50)].copy()
        wrong_total[:, 0] += space.constraint.total + 1
        if space.constraint.lowest > 0:
            # one particle short of the run, on a site that holds some
            short = occ[rng.integers(0, space.size, 50)].copy()
            short[np.arange(50), np.argmax(short, axis=1)] -= 1
            wrong_total = np.vstack([wrong_total, short])
        batch = np.vstack([occ, negative, over_cap, wrong_total])
        rng.shuffle(batch)
        index = {tuple(row): i for i, row in enumerate(occ.tolist())}
        expected = [index.get(tuple(row), -1) for row in batch.tolist()]
        assert space._rank(batch).tolist() == expected
        assert expected.count(-1) == batch.shape[0] - space.size

    def test_generator_matches_loop(self, reference_case):
        model, target, _, space, kg = reference_case
        mat, killing, ac_indices = killed_generator_loop(space, model, target)
        assert np.array_equal(kg.ac_indices, ac_indices)
        assert np.array_equal(kg.matrix.indptr, mat.indptr)
        assert np.array_equal(kg.matrix.indices, mat.indices)
        ulp = np.spacing(np.maximum(np.abs(kg.matrix.data), np.abs(mat.data)))
        assert (np.abs(kg.matrix.data - mat.data) <= ulp).all()
        assert np.array_equal(kg.killing, killing)

    def test_core_matches_bfs(self, reference_case):
        kg = reference_case[4]
        assert np.array_equal(absorbing_core(kg), absorbing_core_bfs(kg))

    def test_negated_generator_has_m_matrix_signs(self, reference_case):
        """-L has off-diagonal entries <= 0 and row sums equal to the
        killing rates >= 0: the sign pattern that lets `kg.lu` factor with
        diagonal pivots."""
        kg = reference_case[4]
        neg = (-kg.matrix).tocoo()
        off = neg.row != neg.col
        assert (neg.data[off] <= 0).all()
        assert (kg.killing >= 0).all()
        diag = neg.diagonal()
        rows = np.asarray(neg.sum(axis=1)).ravel()
        assert (np.abs(rows - kg.killing) <= 1e-12 * (1.0 + diag)).all()


class TestKilledGenerator:
    def test_row_sums_equal_negative_killing(self, toy_spectral):
        kg = toy_spectral["kg"]
        rows = np.asarray(kg.matrix.sum(axis=1)).ravel()
        assert np.allclose(rows, -kg.killing, atol=1e-12)
        assert ((kg.killing > 0) == (rows < -1e-12)).all()
        off = kg.matrix - csr_matrix(
            (kg.matrix.diagonal(), (range(kg.dim), range(kg.dim))),
            shape=kg.matrix.shape)
        assert (off.data >= 0).all()

    def test_hand_built_two_site_chain(self):
        """Two-site chain on the sectors 0..3 cross-checked against a hand
        enumeration."""
        lat = Lattice((2,), "torus")
        model = Model(lat, JumpKernel(np.array([[1]]), np.array([1.0])),
                      G_LINEAR)
        target = TargetSet(np.array([0]), 1)
        space = enumerate_states(lat, MaxTotal(3))
        kg = build_killed_generator(space, model, target)
        # survivors: eta(0) <= 1, in sector-major lexicographic order
        # jumps 0->1 and 1->0 both exist on the 2-torus via the +1 offset
        states = [tuple(s) for s in space.occupancies[kg.ac_indices]]
        assert states == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (0, 3),
                          (1, 2)]
        idx = {s: i for i, s in enumerate(states)}
        dense = np.zeros((7, 7))

        def add(a, b, r):
            dense[idx[a], idx[b]] += r
            dense[idx[a], idx[a]] -= r

        add((0, 1), (1, 0), 1.0)
        add((1, 0), (0, 1), 1.0)
        add((0, 2), (1, 1), 2.0)
        add((1, 1), (0, 2), 1.0)
        add((0, 3), (1, 2), 3.0)
        add((1, 2), (0, 3), 1.0)
        # the move 1->0 from (1,1) and from (1,2) makes eta(0)=2: killed
        dense[idx[(1, 1)], idx[(1, 1)]] -= 1.0
        dense[idx[(1, 2)], idx[(1, 2)]] -= 2.0
        assert np.allclose(kg.matrix.toarray(), dense, atol=1e-14)

    def test_space_above_the_family_bound_refused(self):
        """An exclusion generator needs a space enumerated with site_cap=1."""
        lat = Lattice((4,), "torus")
        model = Model(lat, JumpKernel(np.array([[1]]), np.array([1.0])),
                      RateFunction.exclusion())
        with pytest.raises(StateSpaceError, match="per-site bound 1"):
            build_killed_generator(enumerate_states(lat, MaxTotal(3)), model,
                                   TargetSet(np.array([0]), 1))

    def test_sector_spaces_have_no_suppression(self, toy_spectral):
        """A toy site holding k particles sends one out at rate g(k) = k
        (kernel weights 0.7 + 0.3), and no jump is cut from a run of
        sectors, so each exit rate is the particle number."""
        kg, space = toy_spectral["kg"], toy_spectral["space"]
        exits = -kg.matrix.diagonal()
        assert np.allclose(exits, space.occupancies[kg.ac_indices].sum(axis=1),
                           rtol=1e-14, atol=0)

    def test_stationary_vector_invariant_on_sector(self, toy):
        """Unkilled sector generator kills the canonical stationary vector."""
        model, _, _ = toy
        space = enumerate_states(model.lattice, FixedTotal(3))
        trivial = TargetSet(np.array([0]), 10**6)  # unreachable: no killing
        kg = build_killed_generator(space, model, trivial)
        nu = canonical_vector(space, model.rates.g)
        assert np.abs(nu @ kg.matrix.toarray()).max() <= 1e-14


class TestPrincipalDecay:
    def test_single_state(self):
        kg = single_site_chain(2.5)
        res = principal_decay(kg)
        assert res.decay_rate == pytest.approx(2.5)
        assert res.qsd.tolist() == [1.0]

    def test_toy_residuals(self, toy_spectral):
        res = toy_spectral["principal"]
        kg = toy_spectral["core"]
        assert not res.defective
        assert res.right_residual <= 1e-10
        assert res.left_residual <= 1e-10
        assert (res.qsd >= 0).all()
        # self-residual of the left pair under the assembled matrix
        resid = res.qsd @ kg.matrix.toarray() + res.decay_rate * res.qsd
        assert np.abs(resid).max() <= 1e-9

    def test_defective_ring_fits_unit_rate(self):
        lat = Lattice((6,), "torus")
        model = Model(lat, JumpKernel(np.array([[1]]), np.array([1.0])),
                      RateFunction.exclusion())
        space = enumerate_states(lat, FixedTotal(3), site_cap=1)
        kg = build_killed_generator(space, model, TargetSet(np.array([0]), 0))
        res = principal_decay(kg)
        assert res.defective
        assert res.decay_rate == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("n_sites,n_particles", sorted(PINNED_DEFECTIVE))
    def test_jordan_block_rings_are_defective(self, n_sites, n_particles):
        """Every state is its own strongly connected block and N - m states
        share the exit rate 1 on one path, so the rate 1 is one Jordan
        block: no Perron pair exists and the rate is a survival fit.  The
        fitted rate lies in the window bias band [1 - (N - m - 1)/t_lo, 1]
        of the closed-form 1.
        The fit runs on the fixed grid linspace(500, 1000, 9) / max(1,
        largest exit rate) and its window ends on the last grid point.  The
        rate stays within 1e-12 of its pinned value and the window is the
        pinned one."""
        kg = tasep_ring(n_sites, n_particles)
        res = principal_decay(kg)
        assert res.defective
        assert res.qsd is None and res.right_vector is None
        unif = 1.0 / max(1.0, float(-kg.matrix.diagonal().min()))
        grid = np.linspace(500.0, 1000.0, 9) * unif
        assert res.fit_window[1] == 1000.0 * unif
        assert res.fit_window[0] in grid.tolist()
        bias = (n_sites - n_particles - 1) / res.fit_window[0]
        assert 1.0 - bias - 1e-8 <= res.decay_rate <= 1.0 + 1e-8
        rate, window = PINNED_DEFECTIVE[n_sites, n_particles]
        assert res.decay_rate == pytest.approx(rate, rel=1e-12, abs=0)
        assert res.fit_window == window

    @pytest.mark.parametrize("n_sites", sorted(PINNED_DECAY))
    def test_exclusion_rings_match_pinned_rates(self, n_sites):
        res = principal_decay(exclusion_ring_core(n_sites))
        assert not res.defective
        assert res.decay_rate == pytest.approx(PINNED_DECAY[n_sites],
                                               rel=1e-9, abs=0)
        assert res.right_residual <= 1e-10
        assert res.left_residual <= 1e-10

    def test_two_state_core(self):
        """One particle on a blocked 3-site line, jumps +1 at 0.6 and +2 at
        0.4, trap at the right end.  In enumeration order (the particle at
        1, then at 0) L = [[-0.6, 0], [0.6, -1]], so the rate is 0.6, the
        QSD sits next to the trap and the right vector is proportional to
        (2, 3)."""
        lat = Lattice((3,), "blocked")
        model = Model(lat, JumpKernel(np.array([[1], [2]]),
                                      np.array([0.6, 0.4])),
                      RateFunction.exclusion())
        space = enumerate_states(lat, FixedTotal(1), site_cap=1)
        kg = build_killed_generator(space, model, TargetSet(np.array([2]), 0))
        occ = space.occupancies[kg.ac_indices]
        assert occ.tolist() == [[0, 1, 0], [1, 0, 0]]
        res = principal_decay(kg)
        assert not res.defective
        assert res.decay_rate == pytest.approx(0.6, rel=1e-14)
        assert res.qsd == pytest.approx([1.0, 0.0], abs=1e-14)
        assert res.right_vector == pytest.approx(
            np.array([2.0, 3.0]) / math.sqrt(13.0), rel=1e-14)

    def test_never_killed_sectors_give_rate_zero(self, never_killed):
        """Without the core restriction the survivor set keeps the sectors
        of at most `threshold` particles.  They are never killed: their
        block of L has no killing and no jump out of it, so its rows sum to
        zero and 0 is an eigenvalue of L.  The exact solves take only a
        generator that is its own core, so `principal_decay` raises
        SolverError naming how many states lie outside the core and one of
        them instead of returning that rate."""
        for kg in never_killed:
            totals = kg.space.occupancies[kg.ac_indices].sum(axis=1)
            small = totals <= kg.target.threshold
            assert small.any()
            assert (kg.killing[small] == 0).all()
            block = kg.matrix[small]
            assert block[:, ~small].count_nonzero() == 0
            row_sums = block[:, small] @ np.ones(small.sum())
            assert np.abs(row_sums).max() \
                <= 1e-12 * np.abs(block.diagonal()).max()
            assert_refused(kg, lambda: principal_decay(kg))

    def test_one_factorization_serves_decay_and_fixed_point(
            self, excl_ring, monkeypatch):
        calls = []

        def counting(module, label):
            def counting_splu(matrix, *args, **kwargs):
                calls.append(label)
                return splu(matrix, *args, **kwargs)
            monkeypatch.setattr(module, "splu", counting_splu)

        # spectral imports `splu` from scipy.sparse.linalg when it factors,
        # so the name patched there is the one it calls
        counting(importlib.import_module("scipy.sparse.linalg"), "spectral")
        # ARPACK's own factorization of A - sigma I, which a shift-inverse
        # handed to it replaces
        counting(importlib.import_module(
            "scipy.sparse.linalg._eigen.arpack.arpack"), "arpack")
        model, target, measure, space, kg = excl_ring
        core = restrict_to_core(kg)
        res = principal_decay(core)
        chk = qsd_fixed_point_check(core, res.qsd)
        assert calls == ["spectral"]
        assert chk["l1_distance"] <= 1e-12
        nu_full = product_vector(space, measure.marginal)
        calls.clear()
        first = rayleigh_quotient(model, target, space, nu_full)
        assert calls == ["spectral"]
        second = rayleigh_quotient(model, target, space, nu_full)
        assert (first.decay_rate, eigen_residual(first)) \
            == (second.decay_rate, eigen_residual(second))


class TestJordanChain:
    """A core whose strongly connected blocks are single states and whose
    smallest exit rate is shared by states on one path is defective by its
    graph: `principal_decay` factors nothing and runs no eigensolve."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a solve ran on the graph path")
        for module, name in (("scipy.sparse.linalg", "splu"),
                             ("scipy.sparse.linalg", "eigs"),
                             ("scipy.linalg", "eig")):
            monkeypatch.setattr(importlib.import_module(module), name,
                                refused)

    @pytest.mark.parametrize("n_sites,n_particles", sorted(PINNED_DEFECTIVE))
    def test_rings_take_no_solve(self, n_sites, n_particles, no_solve):
        kg = tasep_ring(n_sites, n_particles)
        res = principal_decay(kg)
        assert "lu" not in kg.__dict__
        assert res.defective
        assert res.jordan_block == n_sites - n_particles
        assert math.isnan(res.right_residual)
        assert math.isnan(res.left_residual)

    @pytest.mark.parametrize("n_sites,n_particles", sorted(PINNED_DEFECTIVE))
    def test_rings_match_the_solved_path(self, n_sites, n_particles,
                                         monkeypatch):
        """With the graph test off, the LU and Arnoldi reject the pair and
        the same fit runs: the rate, window and block count are the same
        bits."""
        graph = principal_decay(tasep_ring(n_sites, n_particles))
        monkeypatch.setattr(spectral, "_jordan_chain", lambda *args: 0)
        kg = tasep_ring(n_sites, n_particles)
        solved = principal_decay(kg)
        assert "lu" in kg.__dict__
        assert solved.defective and solved.jordan_block is None
        assert (graph.decay_rate, graph.fit_window,
                graph.strongly_connected_components) \
            == (solved.decay_rate, solved.fit_window,
                solved.strongly_connected_components)

    def test_chain_test_on_hand_built_graphs(self):
        """States 0 -> 1 -> 2 at unit rates, 2 killed at rate 1: one chain
        of three minimal states.  Cutting the jump 1 -> 2 for killing leaves
        2 on no path with 0 and 1; a unique minimum and a block of two
        states are not read off the graph either."""
        chain = hand_built([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [0, 0, 1])
        assert spectral._jordan_chain(chain.matrix, 3) == 3
        split = hand_built([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [0, 1, 1])
        assert spectral._jordan_chain(split.matrix, 3) == 0
        unique = hand_built([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [1, 0, 2])
        assert spectral._jordan_chain(unique.matrix, 3) == 0
        cycle = hand_built([[0, 1, 0], [1, 0, 1], [0, 0, 0]], [0, 0, 2])
        assert spectral._jordan_chain(cycle.matrix, 2) == 0

    def test_chain_plus_an_unrelated_minimal_state_is_factored(
            self, monkeypatch):
        """States 0 -> 1 and an unrelated 2 share the exit rate 1 and 3
        leaves faster: the rate 1 has Jordan blocks of sizes 2 and 1, so
        the graph does not decide and the core is factored.  Its component
        {0, 1, 3} is one Jordan block by its own graph, so the whole core
        is solved, and each of its two components is factored once."""
        kg = hand_built([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                         [2, 0, 0, 0]], [0, 1, 1, 0])
        calls = counting_splu(monkeypatch)
        res = principal_decay(kg)
        assert calls == [(3, 3), (1, 1)]
        assert res.jordan_block is None
        assert res.certificate["components_solved"] == 2

    def test_outside_the_core_raises_as_the_lu_does(self):
        """The 6-ring with 3 particles and its killing taken away: the
        graph test still fires on the matrix, and the core check refuses
        with the text of `kg.lu`."""
        kg, twin = tasep_ring(6, 3), tasep_ring(6, 3)
        for k in (kg, twin):
            k.killing = np.zeros(k.dim)
        assert spectral._jordan_chain(kg.matrix, kg.dim) == 3
        with pytest.raises(SolverError) as graph:
            principal_decay(kg)
        with pytest.raises(SolverError) as lu:
            twin.lu
        assert str(graph.value) == str(lu.value)
        assert "lu" not in kg.__dict__


def whole_core_pair(kg: KilledGenerator):
    """The Perron pair of `kg` solved on the whole core with one LU."""
    L = kg.matrix.tocsc()
    pair, _, _ = spectral._perron_pair(L, spectral._m_matrix_lu((-L).tocsc()))
    return pair


def counting_lu(monkeypatch) -> list:
    """Patch `spectral._m_matrix_lu`; the returned list gets the size of
    every matrix it factors."""
    calls = []
    kept = spectral._m_matrix_lu

    def counted(a):
        calls.append(a.shape[0])
        return kept(a)
    monkeypatch.setattr(spectral, "_m_matrix_lu", counted)
    return calls


class TestComponents:
    """A core of several weakly connected components (one per particle
    number on a `MaxTotal` space) is solved on its slowest component; the
    others are certified slower by Collatz-Wielandt lower bounds."""

    @pytest.mark.parametrize("n_sites", sorted(PINNED_DECAY))
    def test_rings_match_the_whole_core(self, n_sites):
        kg = exclusion_ring_core(n_sites)
        res = principal_decay(kg)
        lam, right, left = whole_core_pair(kg)
        assert res.decay_rate == pytest.approx(lam, rel=1e-12, abs=0)
        assert res.decay_rate == pytest.approx(PINNED_DECAY[n_sites],
                                               rel=1e-9, abs=0)
        assert np.abs(res.qsd - left).max() <= 1e-10
        assert np.abs(res.right_vector / np.linalg.norm(res.right_vector)
                      - right / np.linalg.norm(right)).max() <= 1e-10
        cert = res.certificate
        assert cert["components"] == n_sites - 2
        assert cert["components_at_minimum"] == 1
        assert cert["next_rate_lower_bound"] > res.decay_rate
        assert res.to_dict()["components_solved"] == cert["components_solved"]

    def test_certified_bound_is_below_every_other_rate(self):
        """Each sector of the 9-site ring solved alone: the least of the
        others lies between the rate and the certified lower bound."""
        kg = exclusion_ring_core(9)
        res = principal_decay(kg)
        lu = kg.lu
        rates = sorted(
            spectral._perron_pair(lu.block(c).tocsc(), lu.factor(c))[0][0]
            for c in range(len(lu.members)))
        assert rates[0] == res.decay_rate
        bound = res.certificate["next_rate_lower_bound"]
        assert res.decay_rate < bound <= rates[1]

    def test_toy_matches_the_whole_core(self, toy_spectral):
        kg, res = toy_spectral["core"], toy_spectral["principal"]
        lam, right, left = whole_core_pair(kg)
        assert res.decay_rate == pytest.approx(lam, rel=1e-12, abs=0)
        assert np.abs(res.qsd - left).max() <= 1e-10
        assert np.abs(res.right_vector - right).max() <= 1e-10
        assert res.certificate["components"] == 19
        # the QSD lives on the two-particle sector alone
        totals = toy_spectral["occ_core"].sum(axis=1)
        assert (res.qsd[totals != 2] == 0).all()
        assert (res.right_vector[totals != 2] == 0).all()

    def test_thirteen_site_ring_factors_one_sector(self, monkeypatch):
        """The 13-site ring's core holds 6,130 states in 11 sectors; only
        the 77 states of two particles are factored, by `principal_decay`
        and by the fixed-point check of its QSD together."""
        kg = exclusion_ring_core(13)
        calls = counting_lu(monkeypatch)
        res = principal_decay(kg)
        chk = qsd_fixed_point_check(kg, res.qsd)
        assert (kg.dim, calls) == (6130, [77])
        assert res.certificate == {
            "components": 11, "components_solved": 1,
            "next_rate_lower_bound": res.certificate["next_rate_lower_bound"],
            "components_at_minimum": 1}
        assert chk["l1_distance"] <= 1e-12

    def test_identical_blocks_are_a_tie(self):
        """Two copies of the block 0 <-> 1 (rates 1 and 0.5, 1 killed at
        rate 1): no lower bound of one can clear the other's rate, so both
        are solved and the tie is reported."""
        kg = hand_built([[0, 1, 0, 0], [0.5, 0, 0, 0],
                         [0, 0, 0, 1], [0, 0, 0.5, 0]], [0, 1, 0, 1])
        res = principal_decay(kg)
        lam, _, left = whole_core_pair(hand_built([[0, 1], [0.5, 0]], [0, 1]))
        assert res.decay_rate == pytest.approx(lam, rel=1e-14)
        assert res.certificate == {
            "components": 2, "components_solved": 2,
            "next_rate_lower_bound": res.decay_rate,
            "components_at_minimum": 2}
        assert res.qsd.sum() == pytest.approx(1.0)

    def test_a_wrong_candidate_is_overruled(self, monkeypatch):
        """State 0 alone is killed at rate 0.5; state 2 jumps to 1 at rate
        0.3 and 1 is killed at rate 10.  The largest ratio of the second
        component stays near 10, so the first is the candidate, but the
        lower bounds of the second tend to 1/E_2[tau] < 0.5, never clear
        it, and the second is solved too: its rate 0.3 wins."""
        kg = hand_built([[0, 0, 0], [0, 0, 0], [0, 0.3, 0]], [0.5, 10, 0])
        sizes = []
        kept = spectral._perron_pair

        def counted(L, lu):
            sizes.append(L.shape[0])
            return kept(L, lu)
        monkeypatch.setattr(spectral, "_perron_pair", counted)
        res = principal_decay(kg)
        assert sizes == [1, 2]
        assert res.decay_rate == pytest.approx(0.3, rel=1e-14)
        assert res.certificate["components_solved"] == 2
        assert res.certificate["next_rate_lower_bound"] == 0.5
        assert res.qsd[0] == 0.0 and res.right_vector[0] == 0.0

    def test_one_component_keeps_its_bits(self, monkeypatch):
        """The 8-site ring's four-particle sector (55 core states) is one
        component: it is factored whole and its rate is the parent's bits,
        with a report that has no certificate."""
        lat = Lattice((8,), "torus")
        model = Model(lat, JumpKernel(np.array([[1], [-1]]),
                                      np.array([0.7, 0.3])),
                      RateFunction.exclusion())
        space = enumerate_states(lat, FixedTotal(4), site_cap=1)
        kg = restrict_to_core(build_killed_generator(
            space, model, TargetSet(np.array([0, 1]), 1)))
        calls = counting_lu(monkeypatch)
        res = principal_decay(kg)
        assert calls == [55]
        assert res.decay_rate == 0.1295748205597042
        lam, right, left = whole_core_pair(kg)
        assert (res.decay_rate, res.right_vector.tolist(), res.qsd.tolist()) \
            == (lam, right.tolist(), left.tolist())
        assert res.certificate is None
        assert sorted(res.to_dict()) == [
            "decay_rate", "defective", "fit_window", "left_residual",
            "right_residual", "strongly_connected_components"]

    def test_sixteen_site_ring_solves_one_sector(self, monkeypatch):
        """The 16-site ring at MaxTotal(16) has 49,135 core states, whose
        one LU took 38 s and 1.26 GB.  Only its two-particle sector is
        factored now, and the rate is that sector's, solved alone."""
        lat = Lattice((16,), "torus")
        model = Model(lat, JumpKernel(np.array([[1], [-1]]),
                                      np.array([0.7, 0.3])),
                      RateFunction.exclusion())
        target = TargetSet(np.array([0, 1]), 1)
        sector = principal_decay(restrict_to_core(build_killed_generator(
            enumerate_states(lat, FixedTotal(2), site_cap=1), model,
            target)))
        kg = restrict_to_core(build_killed_generator(
            enumerate_states(lat, MaxTotal(16), site_cap=1), model, target))
        calls = counting_lu(monkeypatch)
        start = time.process_time()
        res = principal_decay(kg)
        chk = qsd_fixed_point_check(kg, res.qsd)
        elapsed = time.process_time() - start
        assert kg.dim == 49135
        assert calls == [sector.qsd.size]
        assert res.decay_rate == pytest.approx(sector.decay_rate, rel=1e-12,
                                               abs=0)
        assert chk["l1_distance"] <= 1e-12
        assert elapsed < 2.0


class TestMMatrixLu:
    """`spectral._m_matrix_lu` orders by minimum degree with diagonal pivots
    on a symmetric pattern and is plain `splu` on any other."""

    def test_symmetric_pattern_fills_less(self, excl_ring):
        a = (-restrict_to_core(excl_ring[4]).matrix).tocsc()
        ours, plain = spectral._m_matrix_lu(a), splu(a)
        assert ours.L.nnz + ours.U.nnz < plain.L.nnz + plain.U.nnz

    def test_one_directional_pattern_takes_plain_splu(self, monkeypatch):
        core = one_directional_core()
        pattern = core.matrix != 0
        assert (pattern != pattern.T).nnz > 0
        kept = principal_decay(core)
        assert (core.dim, kept.strongly_connected_components,
                kept.defective) == (41, 5, False)
        assert kept.decay_rate == pytest.approx(0.08379700963224423,
                                                rel=1e-12, abs=0)
        monkeypatch.setattr(spectral, "_m_matrix_lu", splu)
        assert principal_decay(one_directional_core()).to_dict() \
            == kept.to_dict()


class TestExactSurvival:
    def test_time_zero_is_initial_mass(self, toy_spectral):
        kg = toy_spectral["core"]
        nu = toy_spectral["nu_core"]
        assert exact_survival(kg, nu, 0.0) == pytest.approx(nu.sum())

    def test_single_state_exponential(self):
        kg = single_site_chain(1.7)
        assert exact_survival(kg, np.ones(1), 1.0) == \
            pytest.approx(math.exp(-1.7), abs=1e-12)

    def test_monotone_in_time(self, toy_spectral):
        vals = exact_survival(toy_spectral["core"], toy_spectral["nu_core"],
                              np.linspace(0, 8, 17))
        assert np.all(np.diff(vals) <= 1e-12)

    def test_log_mode_matches_direct(self, toy_spectral):
        kg = toy_spectral["core"]
        nu = toy_spectral["nu_core"]
        ts = [0.5, 2.0, 7.0]
        direct = exact_survival(kg, nu, ts)
        logs = exact_survival(kg, nu, ts, return_log=True)
        assert np.exp(logs) == pytest.approx(direct, rel=1e-10)

    def test_supermultiplicative_from_product_law(self, toy_spectral):
        """Exact twin of the paper's supermultiplicativity: started from the
        product law on the survivor set, p(s + t) >= p(s) p(t)."""
        kg = toy_spectral["kg"]
        nu = toy_spectral["nu_full"][kg.ac_indices]
        for s in (0.0, 0.5, 1.0, 2.0, 5.0):
            for t in (0.5, 1.0, 2.0, 5.0, 10.0):
                p_s, p_t, p_st = exact_survival(kg, nu, [s, t, s + t])
                assert p_st >= p_s * p_t, (s, t)
        assert exact_survival(kg, nu, [1.0, 2.0, 3.0]) == pytest.approx(
            [0.8009, 0.7347, 0.6898], abs=1e-4)

    def test_log_mode_far_past_underflow(self):
        """Against closed forms where plain survival underflows to 0: the
        two-state core of `test_two_state_core` from the uniform law,
        log S(t) = log(1.25 e^{-0.6 t} - 0.25 e^{-t}), and a single state
        killed at rate 1.7, where the uniformized mass is exactly 0 after
        one step and log S(t) = -1.7 t."""
        lat = Lattice((3,), "blocked")
        model = Model(lat, JumpKernel(np.array([[1], [2]]),
                                      np.array([0.6, 0.4])),
                      RateFunction.exclusion())
        space = enumerate_states(lat, FixedTotal(1), site_cap=1)
        kg = build_killed_generator(space, model, TargetSet(np.array([2]), 0))
        ts = np.array([1500.0, 2000.0])
        uniform = np.full(2, 0.5)
        assert (exact_survival(kg, uniform, ts) == 0.0).all()
        closed = math.log(1.25) - 0.6 * ts + np.log1p(-0.2 * np.exp(-0.4 * ts))
        assert exact_survival(kg, uniform, ts, return_log=True) \
            == pytest.approx(closed, rel=0, abs=1e-9)
        assert exact_survival(single_site_chain(1.7), np.ones(1), 1000.0,
                              return_log=True) \
            == pytest.approx(-1700.0, rel=1e-14)

    def test_initial_must_be_a_measure(self, toy_spectral):
        kg = toy_spectral["core"]
        with pytest.raises(SolverError, match="no mass"):
            exact_survival(kg, np.zeros(kg.dim), 1.0)
        signed = np.ones(kg.dim)
        signed[0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            exact_survival(kg, signed, 1.0, return_log=True)

    def test_circle_two_method_agreement(self):
        lat = Lattice((6,), "torus")
        model = Model(lat, JumpKernel(np.array([[1]]), np.array([1.0])),
                      RateFunction.exclusion())
        space = enumerate_states(lat, FixedTotal(3), site_cap=1)
        kg = build_killed_generator(space, model, TargetSet(np.array([0]), 0))
        oracle = TasepCircleOracle(6, 3)
        nu = canonical_vector(space, model.rates.g)[kg.ac_indices]
        ts = np.array([0.5, 1.0, 2.0, 4.0, 10.0])
        assert np.abs(exact_survival(kg, nu, ts)
                      - oracle.mixture_survival(ts)).max() <= 1e-10


class TestQsdFixedPoint:
    def test_eigenvector_is_fixed(self, toy_spectral):
        res = toy_spectral["principal"]
        chk = qsd_fixed_point_check(toy_spectral["core"], res.qsd)
        assert chk["l1_distance"] <= 1e-10
        assert chk["expected_tau"] == pytest.approx(1.0 / res.decay_rate,
                                                    rel=1e-9)

    def test_stationary_restriction_is_not_fixed(self, toy_spectral):
        nu = toy_spectral["nu_core"] / toy_spectral["nu_core"].sum()
        chk = qsd_fixed_point_check(toy_spectral["core"], nu)
        assert chk["l1_distance"] > 1e-3

    def test_single_state_fixed(self):
        kg = single_site_chain(3.0)
        chk = qsd_fixed_point_check(kg, np.ones(1))
        assert chk["l1_distance"] == pytest.approx(0.0)

    def test_dead_sector_solve_reported(self, never_killed):
        for kg in never_killed:
            assert_refused(kg, lambda: occupation_vectors(
                kg, np.ones(kg.dim) / kg.dim, 1))


class TestSandwich:
    def test_single_state_equality(self):
        kg = single_site_chain(1.0)
        nu = np.array([0.25])  # survivor mass under the ambient law
        rep = hitting_sandwich_check(kg, nu, np.array([4.0]), np.array([4.0]),
                                     1.0, [0.5, 1.0, 2.0])
        # fg is constant on a point mass: relative entropy log(fg/Z) = 0;
        # survival sits at nu(A^c) e^{-t}, below the unit upper bound
        assert rep.entropy == pytest.approx(math.log(4.0))
        assert rep.holds()

    def test_toy_exact_sandwich(self, toy_qsd_sector, toy):
        model, target, measure = toy
        space, kg, res = toy_qsd_sector
        nu_full = canonical_vector(space, model.rates.g)
        nu = nu_full[kg.ac_indices]
        f = normalize_density(res.qsd / nu, nu)
        g = normalize_density(res.right_vector, nu)
        rep = hitting_sandwich_check(kg, nu, f, g, res.decay_rate,
                                     [0.5, 1, 2, 4, 8])
        assert rep.fg_mass >= 1.0 - 1e-12
        assert rep.holds()
        assert (rep.survival <= np.exp(-res.decay_rate * rep.t_grid)
                + 1e-12).all()


def symmetrized_core(model, target, space) -> KilledGenerator:
    """The killed generator of the symmetrized-half kernel on its core: the
    chain whose Dirichlet quotients `rayleigh_quotient` minimizes."""
    sym = Model(model.lattice, model.kernel.symmetrized_half(), model.rates)
    return restrict_to_core(build_killed_generator(space, sym, target))


def eigen_residual(res) -> float:
    """The larger of the two residuals of a `principal_decay` result."""
    return max(res.right_residual, res.left_residual)


def dirichlet_quotient(kgs: KilledGenerator, nu_full: np.ndarray,
                       f: np.ndarray) -> float:
    """-<f, L f>_nu / <f, f>_nu for f on the states of `kgs`."""
    nu = nu_full[kgs.ac_indices]
    return -float((nu * f) @ (kgs.matrix @ f)) / float(nu @ f**2)


class TestRayleigh:
    def test_trial_indicator_gives_exit_rate(self, toy_qsd_sector, toy):
        model, target, _ = toy
        space, _, _ = toy_qsd_sector
        nu_full = canonical_vector(space, model.rates.g)
        rep = rayleigh_quotient(model, target, space, nu_full)
        kgs = symmetrized_core(model, target, space)
        trial = np.zeros(kgs.dim)
        trial[0] = 1.0
        quotient = dirichlet_quotient(kgs, nu_full, trial)
        assert quotient == pytest.approx(-kgs.matrix.diagonal()[0])
        assert quotient >= rep.decay_rate
        assert eigen_residual(rep) <= 1e-10

    def test_classical_bound_on_asymmetric_ring(self, excl_ring):
        """The symmetrized chain on its core: the never-killed sectors of at
        most one particle would give a rounding-level 0 (about -4e-16)."""
        model, target, measure, space, kg = excl_ring
        core = restrict_to_core(kg)
        res = principal_decay(core)
        nu_full = product_vector(space, measure.marginal)
        rep = rayleigh_quotient(model, target, space, nu_full)
        assert rep.decay_rate == pytest.approx(0.024409620960173406,
                                               rel=1e-9)
        assert res.decay_rate - rep.decay_rate > 0

    def test_classical_bound_on_toy_core(self, toy_spectral, toy):
        """The toy at MaxTotal(20) under its canonical weights: lambda_s
        would be -8.9e-16 on every survivor state."""
        model, target, _ = toy
        space = toy_spectral["space"]
        rep = rayleigh_quotient(
            model, target, space, canonical_vector(space, model.rates.g))
        assert rep.decay_rate == pytest.approx(0.21922359359558508,
                                               rel=1e-9)
        assert toy_spectral["principal"].decay_rate - rep.decay_rate \
            == pytest.approx(0.011470314404189, rel=1e-9)

    def test_quotient_minimum_attained(self, excl_ring):
        """lambda_s lies below the quotient of random functions and is the
        quotient of the bottom eigenvector of the dense D^(1/2) (-L)
        D^(-1/2)."""
        model, target, measure, space, _ = excl_ring
        nu_full = product_vector(space, measure.marginal)
        rep = rayleigh_quotient(model, target, space, nu_full)
        kgs = symmetrized_core(model, target, space)
        rng = np.random.default_rng(0)
        for _ in range(5):
            trial = rng.random(kgs.dim)
            assert dirichlet_quotient(kgs, nu_full, trial) \
                >= rep.decay_rate - 1e-12
        d = np.sqrt(nu_full[kgs.ac_indices])
        dense = -d[:, None] * kgs.matrix.toarray() / d[None, :]
        bottom = np.linalg.eigh(0.5 * (dense + dense.T))[1][:, 0]
        assert dirichlet_quotient(kgs, nu_full, bottom / d) \
            == pytest.approx(rep.decay_rate, rel=1e-9)

    def test_repeat_calls_are_bit_identical(self, excl_ring):
        model, target, measure, space, _ = excl_ring
        nu_full = product_vector(space, measure.marginal)
        first, second = (rayleigh_quotient(model, target, space, nu_full)
                         for _ in range(2))
        assert first.decay_rate == second.decay_rate
        assert eigen_residual(first) == eigen_residual(second)
        assert eigen_residual(first) <= 1e-10

    def test_single_survivor_state(self):
        # one particle on a blocked pair, trap on the right: the symmetrized
        # walk leaves the survivor state (1, 0) at rate 1/2, into the trap
        lattice = Lattice((2,), "blocked")
        model = Model(lattice, JumpKernel(np.array([[1]]), np.array([1.0])),
                      RateFunction.exclusion())
        space = enumerate_states(lattice, FixedTotal(1), site_cap=1)
        target = TargetSet(np.array([1]), 0)
        nu_full = np.ones(space.size)
        rep = rayleigh_quotient(model, target, space, nu_full)
        assert rep.decay_rate == 0.5
        assert eigen_residual(rep) == 0.0
        kgs = symmetrized_core(model, target, space)
        assert dirichlet_quotient(kgs, nu_full, np.ones(1)) == 0.5

    def test_non_reversible_measure_raises(self, excl_ring):
        model, target, _, space, _ = excl_ring
        nu_full = np.random.default_rng(3).uniform(0.5, 1.5, space.size)
        with pytest.raises(SolverError, match="not reversible"):
            rayleigh_quotient(model, target, space, nu_full)

    def test_defective_core_raises(self, excl_ring, monkeypatch):
        """A survival fit is no quotient: without a Perron pair the
        quotient is refused."""
        model, target, measure, space, _ = excl_ring
        nu_full = product_vector(space, measure.marginal)
        solve = spectral.principal_decay

        def no_perron_pair(kg):
            res = solve(kg)
            res.defective, res.right_vector, res.qsd = True, None, None
            return res
        monkeypatch.setattr(spectral, "principal_decay", no_perron_pair)
        with pytest.raises(SolverError, match="no Perron pair"):
            rayleigh_quotient(model, target, space, nu_full)


class TestAbsorbingCore:
    def test_dead_sectors_masked(self, toy_spectral):
        kg = toy_spectral["kg"]
        core = absorbing_core(kg)
        occ = kg.space.occupancies[kg.ac_indices]
        totals = occ.sum(axis=1)
        # window {0} with threshold 1 needs at least two particles
        assert (core == (totals >= 2)).all()


class TestLineOracle:
    def test_values(self):
        assert tasep_line_survival(0.5, 0.0) == pytest.approx(0.5)
        assert tasep_line_survival(0.5, 2.0) == \
            pytest.approx(0.5 * math.exp(-1.0))
        assert tasep_line_survival(0.5, 200.0) < 1e-40


class TestCircleOracle:
    def test_gap_one_survival(self):
        oracle = TasepCircleOracle(6, 3)
        occ = np.array([0, 1, 0, 1, 0, 1])
        assert oracle.chi(occ) == 1
        for t in (0.3, 1.0, 4.0):
            assert oracle.survival(occ, t) == pytest.approx(math.exp(-t))

    def test_origin_occupied_never_survives(self):
        oracle = TasepCircleOracle(6, 3)
        occ = np.array([1, 1, 0, 1, 0, 0])
        assert oracle.survival(occ, 0.0) == 0.0

    def test_chi_distribution_normalized(self):
        oracle = TasepCircleOracle(6, 3)
        dist = oracle.chi_distribution()
        assert dist.sum() == pytest.approx(1.0, abs=1e-14)
        assert dist[0] == pytest.approx(0.5)

    def test_ring_rate_fit_is_one_not_density(self):
        oracle = TasepCircleOracle(6, 3)
        ts = np.linspace(1e7, 2e7, 9)
        fit = fit_decay(SurvivalCurve.from_log(
            ts, oracle.log_mixture_survival(ts)))
        assert abs(fit.lambda_hat - 1.0) <= 1e-6
        assert abs(fit.lambda_hat - 0.5) > 0.1

    def test_reversed_conditioning_concentrates_on_packed_block(self):
        """Long-time conditioned likelihood under the transposed kernel
        matches the binomial-weighted packed configuration."""
        N, m = 6, 3
        oracle = TasepCircleOracle(N, m)
        lat = Lattice((N,), "torus")
        fwd = Model(lat, JumpKernel(np.array([[1]]), np.array([1.0])),
                    RateFunction.exclusion())
        rev = fwd.reversed()
        space = enumerate_states(lat, FixedTotal(m), site_cap=1)
        kg = build_killed_generator(space, rev, TargetSet(np.array([0]), 0))
        nu = canonical_vector(space, rev.rates.g)[kg.ac_indices]
        occs = space.occupancies[kg.ac_indices]

        def ratios(t):
            mix = exact_survival(kg, nu, t)
            out = np.empty(kg.dim)
            for row in range(kg.dim):
                e = np.zeros(kg.dim)
                e[row] = 1.0
                out[row] = exact_survival(kg, e, t) / mix
            return out

        r100, r200 = ratios(100.0), ratios(200.0)
        packed = np.array([oracle.yaglom_ratio(occ) for occ in occs])
        assert (packed > 0).sum() == 1  # a single surviving profile
        hot = packed > 0
        # the packed block approaches binom(N, m) from below (1/t corrections)
        assert r200[hot] == pytest.approx(packed[hot], rel=0.05)
        assert abs(r200[hot] - packed[hot]) < abs(r100[hot] - packed[hot])
        # every other configuration drains toward zero
        assert (r200[~hot] < r100[~hot]).all()
        assert r200[~hot].max() < 0.3
