import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslab.model import (JumpKernel, Lattice, Model, ModelError,
                         RateFunction, TargetSet, jump_rates, validate_model)

from conftest import graph_distance_bfs


def tasep_kernel():
    return JumpKernel(np.array([[1]]), np.array([1.0]))


def rate_of(occ, i, j, lattice, kernel, rates):
    """Rate of the jump i -> j of occupancy row `occ` under the model's one
    rate rule, summed over the offsets that lead there."""
    nbr, w = Model(lattice, kernel, rates).jump_table()
    occ = np.asarray(occ, dtype=np.int64)[None]
    per_offset = jump_rates(occ, nbr, w, rates.b_table(int(occ.max())))[0, i]
    return float(per_offset[nbr[i] == j].sum())


class TestLattice:
    def test_torus_wraps(self):
        nbr = Lattice((4,), "torus").neighbor_table(np.array([[1], [-1]]))
        assert nbr[3, 0] == 0
        assert nbr[0, 1] == 3

    def test_blocked_edge_has_no_destination(self):
        nbr = Lattice((4,), "blocked").neighbor_table(np.array([[1], [-1]]))
        assert nbr[3, 0] == -1
        assert nbr[0, 1] == -1
        assert nbr[2, 0] == 3

    def test_num_sites(self):
        assert Lattice((4, 3), "torus").num_sites == 12

    def test_bad_extent_rejected(self):
        with pytest.raises(ModelError):
            Lattice((0, 3))

    def test_graph_distance_directed(self):
        lat = Lattice((5,), "blocked")
        dist = lat.graph_distance([4], np.array([[1]]))
        assert list(dist) == [4, 3, 2, 1, 0]
        # the +1 kernel cannot reach a window on the left
        dist_left = lat.graph_distance([0], np.array([[1]]))
        assert dist_left[0] == 0 and (dist_left[1:] == -1).all()

    @pytest.mark.parametrize("boundary", ["blocked", "torus"])
    @pytest.mark.parametrize("sources", [[0], [7, 20], [11, 12, 17]])
    def test_graph_distance_matches_site_by_site_bfs(self, boundary,
                                                     sources):
        lat = Lattice((5, 6), boundary)
        offsets = np.array([[1, 0], [0, 2]])
        assert np.array_equal(lat.graph_distance(sources, offsets),
                              graph_distance_bfs(lat, sources, offsets))


class TestKernel:
    def test_tasep_hypotheses(self):
        lat = Lattice((6,), "torus")
        rep = validate_model(lat, tasep_kernel(), RateFunction.exclusion())
        names = {c.name: c.passed for c in rep.checks}
        assert names["kernel_normalized"]
        assert names["symmetrization_irreducible"]
        assert rep.drift @ rep.drift == pytest.approx(1.0)
        assert not rep.warnings

    def test_unnormalized_weights_fail(self):
        lat = Lattice((6,), "torus")
        kernel = JumpKernel(np.array([[1], [-1]]), np.array([0.6, 0.3]))
        rep = validate_model(lat, kernel, RateFunction.exclusion())
        assert not rep.ok
        assert any(c.name == "kernel_normalized" and not c.passed
                   for c in rep.checks)

    def test_zero_drift_warns(self):
        lat = Lattice((6,), "torus")
        kernel = JumpKernel(np.array([[1], [-1]]), np.array([0.5, 0.5]))
        rep = validate_model(lat, kernel, RateFunction.exclusion())
        assert rep.ok
        assert rep.warnings

    def test_reducible_symmetrization_detected(self):
        lat = Lattice((4, 4), "torus")
        kernel = JumpKernel(np.array([[2, 0]]), np.array([1.0]))
        rep = validate_model(lat, kernel, RateFunction.exclusion())
        assert any(c.name == "symmetrization_irreducible" and not c.passed
                   for c in rep.checks)

    def test_reversed_negates_offsets(self):
        k = JumpKernel(np.array([[1], [2]]), np.array([0.75, 0.25]))
        rk = k.reversed()
        assert (rk.offsets == -k.offsets).all()
        assert rk.drift == pytest.approx(-k.drift)

    def test_symmetrized_half(self):
        k = tasep_kernel().symmetrized_half()
        assert k.offsets.tolist() == [[-1], [1]]
        assert k.weights == pytest.approx([0.5, 0.5])


class TestRates:
    def test_capped_g_lipschitz_constant(self):
        g = lambda k: float(min(k, 3))
        rates = RateFunction.zero_range(g, g_sup=3.0)
        # independent oracle: direct scan of increments
        increments = [g(k + 1) - g(k) for k in range(64)]
        assert rates.delta() == pytest.approx(max(increments)) == 1.0

    def test_exclusion_delta_is_one(self):
        assert RateFunction.exclusion().delta() == 1.0

    def test_zero_range_hypotheses_pass(self):
        lat = Lattice((4,), "torus")
        rates = RateFunction.zero_range(lambda k: float(k))
        rep = validate_model(lat, tasep_kernel(), rates)
        assert rep.ok

    def test_crowding_misanthrope_fails_state_free_condition(self):
        # b(n, m) = g(n) / (m + 1) is a legal rate but not in the
        # product-invariant class: the validator must witness it
        rates = RateFunction.misanthrope(
            lambda n, m: n / (m + 1.0), lambda k: float(k))
        lat = Lattice((4,), "torus")
        rep = validate_model(lat, tasep_kernel(), rates)
        bad = {c.name for c in rep.checks if not c.passed}
        assert "b_antisymmetric_part_state_free" in bad

    def test_b_table_matches_callable(self):
        rates = RateFunction.zero_range(lambda k: float(k) ** 1)
        tab = rates.b_table(5)
        assert tab.shape == (6, 6)
        assert tab[3, 2] == 3.0
        assert (tab[0] == 0).all()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_b_table_refuses_non_finite_rates(self, bad):
        """A NaN rate gives NaN waiting times, which never pass the horizon,
        and an infinite one waiting times of 0: the table refuses both, as
        it refuses a negative rate."""
        rates = RateFunction.misanthrope(
            lambda n, m: bad if (n, m) == (2, 1) else float(n),
            lambda k: float(k))
        with pytest.raises(ModelError, match="non-finite jump rate"):
            rates.b_table(3)


class TestConfigurationOps:
    """Occupancy rows: the target event and the jump-rate rule."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=3, max_size=6),
           st.sampled_from(["zero_range", "exclusion"]),
           st.sampled_from(["torus", "blocked"]))
    def test_particle_conservation(self, occ, family, boundary):
        """Every jump of positive rate leaves a particle to move and, under
        exclusion, an empty destination: moving it keeps the occupancies
        nonnegative (at most 1 under exclusion) and the total fixed."""
        occ = np.array(occ, dtype=np.int64)
        rates = RateFunction.exclusion() if family == "exclusion" \
            else RateFunction.zero_range(lambda k: float(k))
        if family == "exclusion":
            occ = np.minimum(occ, 1)
        model = Model(Lattice((occ.size,), boundary),
                      JumpKernel(np.array([[1], [-2]]), np.array([0.6, 0.4])),
                      rates)
        nbr, w = model.jump_table()
        r = jump_rates(occ[None], nbr, w, rates.b_table(max(occ.sum(), 1)))[0]
        for i, o in zip(*np.nonzero(r > 0)):
            moved = occ.copy()
            moved[i] -= 1
            moved[nbr[i, o]] += 1
            assert moved.sum() == occ.sum()
            assert moved.min() >= 0
            assert family != "exclusion" or moved.max() <= 1

    def test_in_target_examples(self):
        assert TargetSet(np.array([0]), 0).contains(np.array([1]))
        t = TargetSet(np.array([0, 1]), 3)
        assert not t.contains(np.array([2, 1]))
        assert t.contains(np.array([2, 2]))

    def test_jump_rate_zero_range(self):
        lat = Lattice((2,), "blocked")
        rates = RateFunction.zero_range(lambda k: float(k))
        assert rate_of([3, 0], 0, 1, lat, tasep_kernel(), rates) == 3.0

    def test_jump_rate_exclusion_occupied_target(self):
        lat = Lattice((2,), "blocked")
        assert rate_of([1, 1], 0, 1, lat, tasep_kernel(),
                       RateFunction.exclusion()) == 0.0

    def test_jump_rate_crowding_misanthrope(self):
        lat = Lattice((2,), "blocked")
        rates = RateFunction.misanthrope(
            lambda n, m: n / (m + 1.0), lambda k: float(k))
        assert rate_of([2, 1], 0, 1, lat, tasep_kernel(), rates) \
            == pytest.approx(1.0)

    def test_jump_rate_out_of_range(self):
        lat = Lattice((4,), "blocked")
        rates = RateFunction.zero_range(lambda k: float(k))
        assert rate_of([1, 0, 0, 0], 0, 2, lat, tasep_kernel(), rates) == 0.0

    def test_blocked_jump_and_empty_site_have_rate_zero(self):
        """A blocked jump points at site 0 with weight 0; the b table's row
        n = 0 is zero even where b itself is not."""
        model = Model(Lattice((3,), "blocked"),
                      JumpKernel(np.array([[1], [-1]]), np.array([0.7, 0.3])),
                      RateFunction.misanthrope(lambda n, m: 1.0 + n,
                                               lambda k: float(k)))
        nbr, w = model.jump_table()
        assert nbr.tolist() == [[1, 0], [2, 0], [0, 1]]
        assert w.tolist() == [[0.7, 0.0], [0.7, 0.3], [0.0, 0.3]]
        r = jump_rates(np.array([[2, 0, 1]]), nbr, w, model.rates.b_table(2))
        assert r[0].tolist() == [[0.7 * 3.0, 0.0], [0.0, 0.0], [0.0, 0.6]]

    def test_exclusion_table_sized_to_hard_cap(self):
        assert RateFunction.exclusion().b_table(5).tolist() == [[0.0, 0.0],
                                                                [1.0, 0.0]]

    def test_negative_kernel_weight_refused(self):
        model = Model(Lattice((3,), "torus"),
                      JumpKernel(np.array([[1], [-1]]), np.array([1.5, -0.5])),
                      RateFunction.exclusion())
        with pytest.raises(ModelError, match="negative kernel weight"):
            model.jump_table()

    @pytest.mark.parametrize("sites", [[-1], [0, 3]])
    def test_mask_refuses_sites_off_the_lattice(self, sites):
        """A negative site would index from the end; one past the last site
        has no entry."""
        with pytest.raises(ModelError, match="outside the lattice"):
            TargetSet(np.array(sites), 1).mask(3)


class TestAttractiveness:
    @pytest.mark.parametrize("rates", [
        RateFunction.zero_range(lambda k: float(k)),
        RateFunction.zero_range(lambda k: float(min(k, 3))),
        RateFunction.exclusion(),
    ])
    def test_monotone_in_both_arguments(self, rates):
        cap = 1 if rates.family == "exclusion" else 12
        for n in range(cap):
            for m in range(cap + 1):
                assert rates.b(n + 1, m) >= rates.b(n, m)
        for n in range(cap + 1):
            for m in range(cap):
                assert rates.b(n, m + 1) <= rates.b(n, m)
