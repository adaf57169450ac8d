import numpy as np
import pytest

from edgeprompt.data import CSBMParams
from edgeprompt.errors import ConfigError
from edgeprompt.graph import Graph
from edgeprompt.theory import (
    Theorem1Witness,
    csbm_expected_distance,
    lemma1_coefficient,
    theorem1_construct_witness,
    theorem1_max_ratio,
    theorem1_verify,
    theorem2_equivalence_check,
    theorem2_random_trials,
)

from conftest import random_connected_graph


def params_82(n=100, dim=2, sep=1.0):
    mu1 = np.zeros(dim)
    mu2 = np.zeros(dim)
    mu1[0], mu2[0] = sep / 2.0, -sep / 2.0
    return CSBMParams(mu1, mu2, p=0.8, q=0.2, n_per_class=n)


class TestExpectedDistance:
    def test_equal_probabilities_give_zero(self):
        params = CSBMParams([1.0], [0.0], p=0.5, q=0.5, n_per_class=4)
        assert csbm_expected_distance(params) == 0.0

    def test_closed_form_example(self):
        # |0.8 - 0.2| / (0.8 + 0.2) * 1.0
        assert csbm_expected_distance(params_82(sep=1.0)) == pytest.approx(0.6)

    def test_undefined_when_no_edges_possible(self):
        params = CSBMParams([1.0], [0.0], p=0.0, q=0.0, n_per_class=4)
        with pytest.raises(ZeroDivisionError):
            csbm_expected_distance(params)

    def test_monte_carlo_agreement(self):
        # unprompted simulated distance vs the closed form, 2000-node graphs
        params = params_82(n=1000, sep=1.0)
        witness = theorem1_construct_witness(params, 1.5)
        report = theorem1_verify(params, witness, n_trials=6, seed=3)
        analytic = csbm_expected_distance(params)
        se = max(report.empirical_unprompted_half_width / 1.96, 1e-6)
        assert abs(report.empirical_unprompted - analytic) < 3.0 * se + 1e-3


class TestMaxRatio:
    def test_example_values(self):
        assert theorem1_max_ratio(0.8, 0.2) == pytest.approx(7.0 / 3.0)
        assert theorem1_max_ratio(0.5, 0.0) == pytest.approx(2.0)
        assert theorem1_max_ratio(0.5, 0.4) == pytest.approx(6.0)

    def test_equal_probabilities_flagged_unbounded(self):
        assert theorem1_max_ratio(0.3, 0.3) == np.inf


class TestWitnessConstruction:
    def test_extreme_ratio_saturates_scores(self):
        w = theorem1_construct_witness(params_82(), 7.0 / 3.0)
        assert w.b11 == pytest.approx(1.0)
        assert w.b22 == pytest.approx(0.0)

    def test_ratio_near_one_equalizes_scores(self):
        # in the T -> 1+ limit the two intra-class scores coincide
        w = theorem1_construct_witness(params_82(), 1.0 + 1e-12)
        assert w.b11 == pytest.approx(w.b22, abs=1e-9)

    def test_worked_example(self):
        w = theorem1_construct_witness(params_82(), 2.0)
        assert w.b11 == pytest.approx(0.75)
        assert w.b22 == pytest.approx(0.0)
        assert w.b12 == w.b21 == 0.5

    def test_out_of_range_error_quotes_bound(self):
        with pytest.raises(ConfigError, match="2.33"):
            theorem1_construct_witness(params_82(), 3.0)
        with pytest.raises(ConfigError):
            theorem1_construct_witness(params_82(), 1.0)

    def test_grid_sweep_satisfies_constraint(self):
        for p in (0.3, 0.6, 0.9):
            for q in (0.1, 0.4, 0.8):
                if p == q:
                    continue
                t_max = theorem1_max_ratio(p, q)
                params = CSBMParams([1.0], [-1.0], p=p, q=q, n_per_class=4)
                for frac in (0.25, 0.6, 1.0):
                    t = 1.0 + frac * (t_max - 1.0)
                    w = theorem1_construct_witness(params, t)
                    assert 0.0 <= w.b11 <= 1.0 and 0.0 <= w.b22 <= 1.0
                    assert w.b11 - w.b22 == pytest.approx((t - 1) * (p - q) / p)

    def test_anchors_are_the_class_means(self):
        params = params_82(dim=3, sep=2.0)
        w = theorem1_construct_witness(params, 1.5)
        np.testing.assert_array_equal(w.anchors[0], params.mu1)
        np.testing.assert_array_equal(w.anchors[1], params.mu2)


class TestTheorem1Verify:
    def test_ratio_tracks_target(self):
        params = params_82(n=500, sep=1.0)
        for target in (1.5, 2.0):
            w = theorem1_construct_witness(params, target)
            report = theorem1_verify(params, w, n_trials=8, seed=1)
            assert report.passed
            assert abs(report.ratio_mean - target) <= 0.05

    def test_equal_scores_give_ratio_one(self):
        params = params_82(n=400)
        w = Theorem1Witness(np.stack([params.mu1, params.mu2]),
                            b11=0.4, b22=0.4, b12=0.5, b21=0.5, target_ratio=1.0)
        report = theorem1_verify(params, w, n_trials=6, seed=2,
                                 tolerance=0.05)
        assert report.ratio_mean == pytest.approx(1.0, abs=0.02)

    def test_zero_anchors_give_ratio_one(self):
        params = params_82(n=400)
        w = Theorem1Witness(np.zeros((2, 2)), b11=0.9, b22=0.1, b12=0.5, b21=0.5,
                            target_ratio=1.0)
        report = theorem1_verify(params, w, n_trials=6, seed=4)
        assert report.ratio_mean == pytest.approx(1.0, abs=0.02)

    def test_half_width_shrinks_with_node_count(self):
        w = theorem1_construct_witness(params_82(sep=1.0), 2.0)
        small = theorem1_verify(params_82(n=200, sep=1.0), w, n_trials=12, seed=5)
        big = theorem1_verify(params_82(n=800, sep=1.0), w, n_trials=12, seed=5)
        assert big.ratio_half_width < small.ratio_half_width

    def test_band_contains_target_across_seeds(self):
        params = params_82(n=500, sep=1.0)
        w = theorem1_construct_witness(params, 1.8)
        for seed in range(5):
            report = theorem1_verify(params, w, n_trials=6, seed=seed)
            assert abs(report.ratio_mean - 1.8) <= report.tolerance

    def test_block_simulation_matches_explicit_loop(self):
        # same rng stream, dense-block algebra vs a per-node python loop
        from edgeprompt.theory import _pair_prompts, _simulate_distances

        params = params_82(n=30, sep=1.0)
        w = theorem1_construct_witness(params, 1.7)
        e = _pair_prompts(w)
        fast = _simulate_distances(np.random.default_rng(42), params, e)

        rng = np.random.default_rng(42)
        n = 30
        u1 = np.triu(rng.random((n, n)) < params.p, k=1)
        u2 = np.triu(rng.random((n, n)) < params.p, k=1)
        cross = rng.random((n, n)) < params.q
        x1 = rng.normal(size=(n, 2)) + params.mu1
        x2 = rng.normal(size=(n, 2)) + params.mu2
        adj = np.zeros((2 * n, 2 * n), dtype=bool)
        adj[:n, :n] = u1 | u1.T
        adj[n:, n:] = u2 | u2.T
        adj[:n, n:] = cross
        adj[n:, :n] = cross.T
        x = np.concatenate([x1, x2])
        labels = np.repeat([0, 1], n)
        h_plain = np.zeros_like(x)
        h_prompt = np.zeros_like(x)
        keep = np.zeros(2 * n, dtype=bool)
        for i in range(2 * n):
            nbrs = np.flatnonzero(adj[i])
            if nbrs.size == 0:
                continue
            keep[i] = True
            h_plain[i] = x[nbrs].mean(axis=0)
            prompted = [x[j] + e[(labels[i], labels[j])] for j in nbrs]
            h_prompt[i] = np.mean(prompted, axis=0)
        m0, m1 = keep & (labels == 0), keep & (labels == 1)
        slow = (
            float(np.linalg.norm(h_plain[m0].mean(axis=0) - h_plain[m1].mean(axis=0))),
            float(np.linalg.norm(h_prompt[m0].mean(axis=0) - h_prompt[m1].mean(axis=0))),
        )
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_report_dict_is_json_friendly(self):
        import dataclasses
        import json

        params = params_82()
        w = theorem1_construct_witness(params, 1.5)
        report = theorem1_verify(params, w, n_trials=3, seed=0)
        json.dumps(dataclasses.asdict(report))


class TestLemma1Coefficient:
    def test_three_nodes_one_edge(self):
        g = Graph(3, [(0, 1)], np.zeros((3, 1)))
        assert lemma1_coefficient(g, 0.0) == pytest.approx(2.5)

    def test_two_nodes_one_edge(self):
        g = Graph(2, [(0, 1)], np.zeros((2, 1)))
        assert lemma1_coefficient(g, 0.0) == pytest.approx(2.0)

    def test_triangle_with_epsilon(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)], np.zeros((3, 1)))
        assert lemma1_coefficient(g, 0.5) == pytest.approx(1.75)

    def test_edgeless_graph_divides_by_zero(self):
        g = Graph(3, [], np.zeros((3, 1)))
        with pytest.raises(ZeroDivisionError):
            lemma1_coefficient(g, 0.0)


class TestTheorem2:
    def test_zero_prompt_zero_residual(self, rng):
        g = random_connected_graph(rng, 5, feature_dim=3)
        w = rng.uniform(-1, 1, (3, 2))
        residual = theorem2_equivalence_check(g, np.zeros((1, 3)), 0.0, w)
        assert residual == 0.0

    def test_random_graph_residual_tiny(self, rng):
        g = random_connected_graph(rng, 6, feature_dim=3)
        p_hat = rng.uniform(-1, 1, (1, 3))
        w = rng.uniform(-1, 1, (3, 4))
        for eps in (0.0, 0.5):
            assert theorem2_equivalence_check(g, p_hat, eps, w) < 1e-9

    def test_detuned_coefficient_fails(self, rng):
        g = random_connected_graph(rng, 6, feature_dim=3)
        p_hat = rng.uniform(0.5, 1, (1, 3))
        w = rng.uniform(0.5, 1, (3, 2))
        bad = theorem2_equivalence_check(g, p_hat, 0.0, w, coefficient_scale=1.1)
        assert bad > 1e-3

    # trials 0 once ended in a ValueError from max([]), nodes 1 in one
    # from rng.integers ("low >= high")
    @pytest.mark.parametrize("n_trials,max_nodes", [(0, 20), (-1, 20), (3, 1), (3, -2)])
    def test_trials_and_nodes_checked(self, n_trials, max_nodes):
        with pytest.raises(ConfigError):
            theorem2_random_trials(n_trials=n_trials, max_nodes=max_nodes)

    def test_trials_report(self):
        report = theorem2_random_trials(n_trials=30, max_nodes=12, seed=0)
        assert report.passed
        assert report.max_residual < 1e-9
        assert report.min_control_residual > 1e-3
        assert report.n_trials == 30
