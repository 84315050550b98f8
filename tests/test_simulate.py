"""Monte Carlo samplers: exactness, uniformity, and the determinism contract."""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chisquare

from depbounds import graphcomb as gc
from depbounds import simulate as sim
from depbounds.graphcomb import Graph

P_VALUE_FLOOR = 1e-4


def row_counts(bits):
    """How often each distinct row of a 0/1 array occurs."""
    _, counts = np.unique(bits, axis=0, return_counts=True)
    return counts


class TestSampleGnp:
    def test_p_zero_and_one(self):
        rng = np.random.default_rng(1)
        assert not sim._gnp_edges(6, 0.0, rng, 20).any()
        full = sim._gnp_edges(6, 1.0, rng, 20)
        assert full.all()
        complete = gc.neighbour_masks(Graph.complete(6).adjacency())
        assert np.array_equal(gc.edge_masks(6, full), np.broadcast_to(
            complete, (20, 6, 1)))

    def test_uniform_over_all_graphs(self):
        # G(4, 1/2) puts equal mass on all 64 labelled graphs
        bits = sim._gnp_edges(4, 0.5, np.random.default_rng(0), 6400)
        counts = row_counts(bits)
        assert len(counts) == 64
        _, p = chisquare(counts)
        assert p > P_VALUE_FLOOR


class TestSampleGnm:
    def test_edge_count_exact(self):
        bits = sim._gnm_edges(7, 9, np.random.default_rng(0), 200)
        assert bits.shape == (200, 21)
        assert np.all(bits.sum(axis=1) == 9)

    def test_uniform_over_edge_sets(self):
        # G(5, 4) is uniform over the C(10,4) = 210 four-edge graphs
        bits = sim._gnm_edges(5, 4, np.random.default_rng(0), 21000)
        counts = row_counts(bits)
        assert len(counts) == 210
        _, p = chisquare(counts)
        assert p > P_VALUE_FLOOR

    def test_batch_model_matches_exact_tail(self):
        # isolated-vertex tail of G(6,5) against the rational oracle
        from depbounds.graphcomb import gnm_isolated_exact_tail

        model = sim.GnmIsolated(6, 5)
        res = sim.empirical_tail(model, 2, reps=40000, seed=11)
        exact = float(gnm_isolated_exact_tail(6, 5, 2))
        assert res.ci_low <= exact <= res.ci_high


class TestOrientationParity:
    def test_single_edge_complementary(self):
        model = sim.OrientationParity(Graph.from_edge_list(2, [(0, 1)]))
        # exactly one endpoint has in-degree 1
        assert np.all(model.batch(np.random.default_rng(0), 30) == 1)

    def test_empty_graph(self):
        model = sim.OrientationParity(Graph.empty(5))
        assert np.all(model.batch(np.random.default_rng(0), 30) == 0)

    def test_k4_parity_sum_is_even(self):
        # in-degrees sum to the edge count 6, so the parity sum is even
        model = sim.OrientationParity(Graph.complete(4))
        stats = model.batch(np.random.default_rng(3), 2000)
        assert np.all(stats % 2 == 0)

    def test_k4_three_vertex_parities_uniform(self):
        # parities of any 3 of the 4 vertices are independent fair bits
        g = Graph.complete(4)
        edges = sorted(g.edges)
        rng = np.random.default_rng(17)
        counts = np.zeros(8, dtype=int)
        reps = 8000
        flips = rng.random((reps, len(edges))) < 0.5
        indeg = np.zeros((reps, 4), dtype=np.int64)
        for j, (u, v) in enumerate(edges):
            indeg[:, v] += ~flips[:, j]
            indeg[:, u] += flips[:, j]
        par = indeg % 2
        codes = par[:, 0] * 4 + par[:, 1] * 2 + par[:, 2]
        for c in codes:
            counts[c] += 1
        _, p = chisquare(counts)
        assert p > P_VALUE_FLOOR


class TestMartingaleDiff:
    def test_range_constraint_held_surely(self):
        p_vec = np.array([0.1, 0.5, 0.9, 0.3, 0.7])
        for kernel, fn in sim.MDS_KERNELS.items():
            y = fn(np.random.default_rng(0), 2000, p_vec)
            assert y.shape == (2000, 5)
            assert np.all(y >= -p_vec - 1e-12)
            assert np.all(y <= 1.0 - p_vec + 1e-12)

    def test_conditional_mean_zero_statistically(self):
        model = sim.MartingaleDiff(8, (0.3,) * 8, kernel="polya-style")
        stats = model.batch(np.random.default_rng(5), 20000)
        # E[sum Y_i] = 0; each |Y_i| <= 3/8 so the sum has std <= ~1.1
        assert abs(stats.mean()) < 5 * 1.1 / math.sqrt(20000)

    def test_independent_centered_mean(self):
        model = sim.MartingaleDiff(6, (0.4,) * 6, kernel="independent-centered")
        stats = model.batch(np.random.default_rng(9), 20000)
        assert abs(stats.mean()) < 0.05


def ustat(n, d, kernel, **kw):
    base = "gnp" if kernel == "triangle-indicator" else "uniform"
    return sim.UStat(n, d, kernel, base, tuple(kw.items()))


class TestUStat:
    def test_all_below_c1_is_total_count(self):
        stats = ustat(6, 2, "all-below", c=1.0).batch(
            np.random.default_rng(0), 50)
        assert np.all(stats == math.comb(6, 2))

    def test_all_below_mean(self):
        model = sim.UStat(6, 2, "all-below", "uniform", (("c", 0.5),))
        stats = model.batch(np.random.default_rng(1), 40000)
        want = math.comb(6, 2) * 0.5**2
        assert stats.mean() == pytest.approx(want, abs=0.1)

    def test_triangle_indicator_matches_graph_count(self):
        # the same stream gives the same edge bits; count their triangles
        # by direct iteration over vertex triples
        model = ustat(6, 3, "triangle-indicator", p=0.5)
        for seed in range(5):
            stats = model.batch(np.random.default_rng(seed), 40)
            bits = sim._gnp_edges(6, 0.5, np.random.default_rng(seed), 40)
            index = {pq: i for i, pq in enumerate(combinations(range(6), 2))}
            want = [
                sum(
                    all(row[index[pq]] for pq in combinations(t, 2))
                    for t in combinations(range(6), 3)
                )
                for row in bits
            ]
            assert stats.tolist() == want

    def test_threshold_sum_extremes(self):
        rng = np.random.default_rng(0)
        assert np.all(
            ustat(4, 2, "threshold-sum", theta=0.0).batch(rng, 20)
            == math.comb(4, 2)
        )
        assert np.all(ustat(4, 2, "threshold-sum", theta=5.0).batch(rng, 20) == 0)

    def test_unknown_kernel_error(self):
        with pytest.raises(ValueError):
            ustat(6, 2, "mystery").batch(np.random.default_rng(0), 5)


# empirical_tail(model, t, 4096, seed=1).dumps() of the models that the
# graph-mc benchmark workload simulates, pinned so that a change to a
# sampler or a subgraph kernel cannot move a seeded result unnoticed
GOLDEN = [
    (sim.GnpIsolated(30, 0.1), 2.0,
     "empirical_tail=0.41259765625\nci_low=0.3873444712296998\n"
     "ci_high=0.43817505299383036\nseed=1\nsum_mean=1.42724609375\n"),
    (sim.GnpTriangles(30, 0.05), 1.0,
     "empirical_tail=0.3818359375\nci_low=0.3569717395183092\n"
     "ci_high=0.40713849366644206\nseed=1\nsum_mean=0.539306640625\n"),
    (sim.Gnp4Cliques(20, 0.3), 4.0,
     "empirical_tail=0.38232421875\nci_low=0.3574530309171023\n"
     "ci_high=0.4076319526598392\nseed=1\nsum_mean=3.597412109375\n"),
    (sim.GnmIsolated(30, 40), 4.0,
     "empirical_tail=0.06787109375\nci_low=0.05561972260600448\n"
     "ci_high=0.08173531124743083\nseed=1\nsum_mean=1.68701171875\n"),
    (sim.GnmTriangles(20, 40), 15.0,
     "empirical_tail=0.066650390625\nci_low=0.05450954935008331\n"
     "ci_high=0.08040880217703342\nseed=1\nsum_mean=10.03955078125\n"),
    (sim.MartingaleDiff(20, (0.3,) * 20), 0.5,
     "empirical_tail=0.29150390625\nci_low=0.2684185497006735\n"
     "ci_high=0.31536308538482166\nseed=1\nsum_mean=0.017160397355979597\n"),
    (sim.UStat(40, 2, "all-below", "uniform", (("c", 0.5),)), 200.0,
     "empirical_tail=0.450439453125\nci_low=0.4248472469822182\n"
     "ci_high=0.476215487241267\nseed=1\nsum_mean=196.55078125\n"),
]


@pytest.mark.parametrize("model,t,tail", GOLDEN,
                         ids=[type(m).__name__ for m, _, _ in GOLDEN])
def test_golden_graph_mc_models(model, t, tail):
    got = sim.empirical_tail(model, t, 4096, seed=1).dumps()
    assert got == f"replications=4096\nthreshold={t!r}\n" + tail


class TestEmpiricalTail:
    def test_threshold_at_or_below_min_gives_one(self):
        model = sim.GnpIsolated(8, 0.2)
        res = sim.empirical_tail(model, 0, reps=500, seed=0)
        assert res.empirical_tail == 1.0
        assert res.ci_high == 1.0

    def test_ci_brackets_point_estimate(self):
        model = sim.GnpTriangles(7, 0.4)
        res = sim.empirical_tail(model, 3, reps=5000, seed=2)
        assert res.ci_low <= res.empirical_tail <= res.ci_high

    def test_deterministic_across_runs_and_threads(self):
        model = sim.GnmTriangles(7, 10)
        base = sim.empirical_tail(model, 4, reps=10000, seed=42, threads=1)
        for threads in (2, 4):
            again = sim.empirical_tail(
                model, 4, reps=10000, seed=42, threads=threads
            )
            assert again.dumps() == base.dumps()
        repeat = sim.empirical_tail(model, 4, reps=10000, seed=42, threads=1)
        assert repeat.dumps() == base.dumps()

    def test_seed_changes_result(self):
        model = sim.GnpIsolated(10, 0.3)
        a = sim.empirical_tail(model, 3, reps=3000, seed=0)
        b = sim.empirical_tail(model, 3, reps=3000, seed=1)
        assert a.dumps() != b.dumps()

    def test_partial_final_chunk(self):
        # reps not a multiple of the chunk size still covers every draw
        model = sim.GnpIsolated(6, 0.5)
        res = sim.empirical_tail(model, 0, reps=sim.CHUNK_SIZE + 7, seed=0)
        assert res.replications == sim.CHUNK_SIZE + 7
        assert res.empirical_tail == 1.0

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            sim.empirical_tail(sim.GnpIsolated(5, 0.5), 1, reps=0, seed=0)

    def test_sum_mean_tracks_expectation(self):
        # E[isolated vertices in G(10, 0.3)] = 10 * 0.7^9
        model = sim.GnpIsolated(10, 0.3)
        res = sim.empirical_tail(model, 3, reps=30000, seed=7)
        assert res.sum_mean == pytest.approx(10 * 0.7**9, abs=0.05)


class TestExactBinomialCI:
    def test_zero_successes(self):
        lo, hi = sim.exact_binomial_ci(0, 100)
        assert lo == 0.0
        assert 0.0 < hi < 0.1

    def test_all_successes(self):
        lo, hi = sim.exact_binomial_ci(100, 100)
        assert hi == 1.0
        assert 0.9 < lo < 1.0

    def test_coverage_against_exact_binomial(self):
        # interval inversion: the CI contains p whenever the observed count
        # is not in the extreme alpha/2 tails of Bin(n, p)
        from fractions import Fraction

        n, p = 50, 0.2
        # total probability of non-coverage is below the 0.001 budget
        pmf = [
            float(
                Fraction(math.comb(n, i)) * Fraction(1, 5) ** i
                * Fraction(4, 5) ** (n - i)
            )
            for i in range(n + 1)
        ]
        noncover = sum(
            pmf[k]
            for k in range(n + 1)
            if not sim.exact_binomial_ci(k, n)[0] <= p <= sim.exact_binomial_ci(k, n)[1]
        )
        assert noncover <= 0.001 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            sim.exact_binomial_ci(5, 4)
