"""Monte Carlo samplers: exactness, uniformity, and the determinism contract."""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import betaincinv
from scipy.stats import chi2, chisquare

from depbounds import graphcomb as gc
from depbounds import simulate as sim
from depbounds.graphcomb import Graph

P_VALUE_FLOOR = 1e-4


class RecordingModel:
    """``model`` run one batch per chunk, recording each batch's chunk
    index (its stream's spawn key) and thread.  ``pause`` sleeps in each
    batch, letting the other threads claim chunks; with ``fail_first`` the
    first batch raises and the others wait for it before running."""

    whole_chunks = True

    def __init__(self, model, pause=0.0, fail_first=False):
        self.model, self.pause, self.fail_first = model, pause, fail_first
        self.chunks, self.threads = [], []
        self.lock = threading.Lock()
        self.raised = threading.Event()

    def batch(self, rng, size):
        with self.lock:
            first = not self.chunks
            self.chunks.append(rng.bit_generator.seed_seq.spawn_key[0])
            self.threads.append(threading.get_ident())
        if self.fail_first:
            if first:
                self.raised.set()
                raise RuntimeError("batch failed")
            assert self.raised.wait(10)
        time.sleep(self.pause)
        return self.model.batch(rng, size)


def row_counts(bits):
    """How often each distinct row of a 0/1 array occurs."""
    _, counts = np.unique(bits, axis=0, return_counts=True)
    return counts


def plane_bits(planes, size):
    """(size, rows) bools: row r holds bit r of every row of ``planes``."""
    bits = np.unpackbits(planes.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :size].T.astype(bool)


class CountingRng:
    """A generator whose bit generator records the size of every raw word
    draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []
        self.bit_generator = self

    def random_raw(self, size):
        words = self.rng.bit_generator.random_raw(size)
        self.sizes.append(words.size)
        return words


class TestBernoulliPlanes:
    """``_bernoulli_planes`` draws bits with P(bit = 1) exactly p."""

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_p_outside_the_unit_interval_is_refused(self, p):
        with pytest.raises(ValueError, match="p must be in"):
            sim._bernoulli_planes(np.random.default_rng(1), 2, 2, p)

    def test_dyadic_p_takes_one_level_per_digit(self):
        # 3/8 = 0.011 in binary: three levels, one word per word at most
        rng = CountingRng(2)
        planes = sim._bernoulli_planes(rng, 20, 50, 3 / 8)
        assert len(rng.sizes) <= 3 and max(rng.sizes) <= 1000
        freq = np.bitwise_count(planes).sum() / (64 * planes.size)
        assert abs(freq - 3 / 8) < 5 * math.sqrt(3 / 8 * 5 / 8 / (64 * planes.size))
        # p = 1/2 takes exactly one word per plane word
        rng = CountingRng(2)
        sim._bernoulli_planes(rng, 20, 50, 0.5)
        assert rng.sizes == [1000]

    @pytest.mark.parametrize("size", [0, 1, 64, 1000])
    def test_level_words_are_the_integers_words(self, size):
        # a level's random words are those of integers(0, 2^64), and both
        # leave the generator at the same state
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        want = ref.integers(0, 1 << 64, size, dtype=np.uint64)
        undecided, ones = sim._level(rng, 0, np.full(size, sim._ALL_ONES))
        np.testing.assert_array_equal(undecided, want)
        assert ones is None and rng.random() == ref.random()

    @pytest.mark.parametrize("p,ones", [(5e-324, 0), (1 - 2**-53, 64 * 4000)])
    def test_extreme_p_terminates(self, p, ones):
        # 5e-324 has 1074 binary digits and 1 - 2^-53 fifty-three ones; a
        # bit other than the likely one has probability about 1e-16 here
        planes = sim._bernoulli_planes(np.random.default_rng(3), 40, 100, p)
        assert np.bitwise_count(planes).sum() == ones

    def test_frequency_at_one_tenth(self):
        planes = sim._bernoulli_planes(np.random.default_rng(4), 125, 1250, 0.1)
        bits = 64 * planes.size
        assert bits >= 10**7
        ones = int(np.bitwise_count(planes).sum())
        assert abs(ones - bits * 0.1) <= 5 * math.sqrt(bits * 0.1 * 0.9)

    def test_no_correlation_within_or_across_words(self):
        p = 0.3
        planes = sim._bernoulli_planes(np.random.default_rng(5), 100, 1000, p)
        bits = np.unpackbits(planes.view(np.uint8), bitorder="little")
        bits = bits.reshape(-1, 64)
        # every bit position has frequency p: 64 degrees of freedom
        words = len(bits)
        ones = bits.sum(axis=0)
        stat = ((ones - words * p) ** 2 / (words * p * (1 - p))).sum()
        assert chi2.sf(stat, 64) > P_VALUE_FLOOR
        # pairs of bits, neighbours in a word and in adjacent words, fall
        # in the four cells as independent bits do
        cells = np.array([(1 - p) ** 2, (1 - p) * p, p * (1 - p), p * p])
        for first, second in ((bits[:, 0::2], bits[:, 1::2]),
                              (bits[0::2], bits[1::2])):
            pairs = np.bincount((2 * first + second).ravel(), minlength=4)
            _, pvalue = chisquare(pairs, cells * pairs.sum())
            assert pvalue > P_VALUE_FLOOR


class TestSampleGnp:
    def test_p_zero_and_one(self):
        # the empty and the complete graphs, exactly, with no draw: every
        # bit of the 15 planes, padding too, is 0 or 1
        for p, word in ((0.0, 0), (1.0, 2**64 - 1)):
            rng = np.random.default_rng(1)
            before = rng.bit_generator.state
            planes = sim._gnp_planes(6, p, rng, 20)
            assert rng.bit_generator.state == before
            assert planes.dtype == np.uint64
            assert np.array_equal(planes, np.full((15, 1), word, dtype=np.uint64))

    def test_uniform_over_all_graphs(self):
        # G(4, 1/2) puts equal mass on all 64 labelled graphs
        planes = sim._gnp_planes(4, 0.5, np.random.default_rng(0), 6400)
        counts = row_counts(plane_bits(planes, 6400))
        assert len(counts) == 64
        _, p = chisquare(counts)
        assert p > P_VALUE_FLOOR

    def test_triangles_match_graph_count(self):
        # the same stream gives the same edge planes; count the triangles
        # of their decoded edge bits by direct iteration over vertex triples
        model = sim.GnpTriangles(6, 0.5)
        index = {pq: i for i, pq in enumerate(zip(*gc._pair_vertices(6)))}
        for seed in range(5):
            stats = model.batch(np.random.default_rng(seed), 40)
            planes = sim._gnp_planes(6, 0.5, np.random.default_rng(seed), 40)
            want = [
                sum(
                    all(row[index[pq]] for pq in combinations(t, 2))
                    for t in combinations(range(6), 3)
                )
                for row in plane_bits(planes, 40)
            ]
            assert stats.tolist() == want


def floyd_reference(n, m, rng, size):
    """(size, C(n,2)) edge bits, in plane row order, of Floyd's algorithm
    run on a Python set per replication, on the draws ``_gnm_planes``
    makes: per block of ``_plane_rows(n)`` replications, one integer per
    replication at each step j = N-k .. N-1 (k = min(m, N - m)); the set
    holds the absent edges when m > N/2."""
    pairs = math.comb(n, 2)
    k = min(m, pairs - m)
    dtype = np.uint16 if pairs <= 1 << 16 else np.uint32
    bits = np.zeros((size, pairs), dtype=bool)
    rows = sim._plane_rows(n)
    for start in range(0, size, rows):
        lanes = [set() for _ in range(min(rows, size - start))]
        for j in range(pairs - k, pairs):
            draws = rng.integers(0, j + 1, len(lanes), dtype=dtype).tolist()
            for chosen, t in zip(lanes, draws):
                chosen.add(j if t in chosen else t)
        for r, chosen in enumerate(lanes):
            bits[start + r, sorted(chosen)] = True
    return bits if k == m else ~bits


class TestSampleGnm:
    def test_edge_count_exact(self):
        # m = 0, m = N, the Floyd and the complement side; 200 graphs end
        # in a partial word
        for m in (0, 9, 15, 21):
            planes = sim._gnm_planes(7, m, np.random.default_rng(m), 200)
            assert planes.shape == (21, 4)
            bits = plane_bits(planes, 200)
            assert np.all(bits.sum(axis=1) == m)

    @pytest.mark.parametrize("n,m,size", [
        (30, 40, 300), (20, 40, 300), (5, 10, 300), (4, 1, 300),
        (30, 435, 300), (6, 0, 300), (6, 12, 300), (20, 150, 64),
        (50, 30, 3500)])
    def test_same_bits_as_a_python_floyd(self, n, m, size):
        # m = N, m = 0, m > N/2, partial last words; n = 50 draws its
        # 3500 graphs in two blocks
        got = plane_bits(sim._gnm_planes(n, m, np.random.default_rng(5), size), size)
        want = floyd_reference(n, m, np.random.default_rng(5), size)
        assert np.array_equal(got, want)

    def test_uniform_over_edge_sets(self):
        # G(5, m) is uniform over the C(10, m) graphs with m edges: 210 at
        # m = 4, and 120 at m = 7, which draws the 3 absent edges
        for m in (4, 7):
            planes = sim._gnm_planes(5, m, np.random.default_rng(0), 21000)
            counts = row_counts(plane_bits(planes, 21000))
            assert len(counts) == math.comb(10, m)
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
    return sim.UStat(n, d, kernel, tuple(kw.items()))


def bit_sliced(model):
    """Whether ``model`` shares each draw among the replications of a
    block: the Bernoulli planes, 64 replications a word, and G(n,m)'s
    Floyd steps, one integer per replication."""
    shared = (sim.GnpIsolated, sim.GnpTriangles, sim.Gnp4Cliques,
              sim.DegreeParity, sim.GnmIsolated, sim.GnmTriangles)
    return isinstance(model, shared) or (
        isinstance(model, sim.UStat) and model.kernel == "all-below")


class TestUStat:
    def test_all_below_c1_is_total_count(self):
        stats = ustat(6, 2, "all-below", c=1.0).batch(
            np.random.default_rng(0), 50)
        assert np.all(stats == math.comb(6, 2))

    def test_all_below_mean(self):
        model = sim.UStat(6, 2, "all-below", (("c", 0.5),))
        stats = model.batch(np.random.default_rng(1), 40000)
        want = math.comb(6, 2) * 0.5**2
        assert stats.mean() == pytest.approx(want, abs=0.1)

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

    @staticmethod
    def all_below_by_gather(below, d):
        """The all-below count by gathering every d-subset of the
        coordinates, ``below`` saying which are at or below c."""
        tuples = np.array(list(combinations(range(below.shape[1]), d)))
        return np.all(below[:, tuples], axis=2).sum(axis=1).astype(float)

    @pytest.mark.parametrize("c", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n,d", [(1, 1), (6, 2), (9, 9), (12, 3), (40, 2)])
    def test_all_below_count_equals_the_gather(self, n, d, c):
        # the same stream gives the same planes of Bernoulli(c) bits
        model = ustat(n, d, "all-below", c=c)
        for seed in range(3):
            got = model.batch(np.random.default_rng(seed), 700)
            planes = sim._bernoulli_planes(np.random.default_rng(seed), n, 11, c)
            want = self.all_below_by_gather(plane_bits(planes, 700), d)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


# repr(empirical_tail(model, t, 4096, seed=1)) of the models that the
# graph-mc benchmark workload simulates, pinned so that a change to a
# sampler or a subgraph kernel cannot move a seeded result unnoticed
GOLDEN = [
    (sim.GnpIsolated(30, 0.1), 2.0,
     "empirical_tail=0.398193359375, ci_low=0.3731094128867263, "
     "ci_high=0.42365496323763036, seed=1, sum_mean=1.401611328125)"),
    (sim.GnpTriangles(30, 0.05), 1.0,
     "empirical_tail=0.37158203125, ci_low=0.34687081625938765, "
     "ci_high=0.39676966093475313, seed=1, sum_mean=0.5048828125)"),
    (sim.Gnp4Cliques(20, 0.3), 4.0,
     "empirical_tail=0.3818359375, ci_low=0.35697173951828853, "
     "ci_high=0.40713849366646343, seed=1, sum_mean=3.5400390625)"),
    (sim.GnmIsolated(30, 40), 4.0,
     "empirical_tail=0.061767578125, ci_low=0.05008150277006037, "
     "ci_high=0.0750901785728716, seed=1, sum_mean=1.6591796875)"),
    (sim.GnmTriangles(20, 40), 15.0,
     "empirical_tail=0.070068359375, ci_low=0.05762104136778475, "
     "ci_high=0.08412003413830495, seed=1, sum_mean=10.07666015625)"),
    (sim.MartingaleDiff(20, (0.3,) * 20), 0.5,
     "empirical_tail=0.29150390625, ci_low=0.268418549700657, "
     "ci_high=0.3153630853848382, seed=1, sum_mean=0.017160397355979597)"),
    (sim.UStat(40, 2, "all-below", (("c", 0.5),)), 200.0,
     "empirical_tail=0.447265625, ci_low=0.4216960622293547, "
     "ci_high=0.47303078881650634, seed=1, sum_mean=196.55908203125)"),
]


@pytest.mark.parametrize("model,t,tail", GOLDEN,
                         ids=[type(m).__name__ for m, _, _ in GOLDEN])
def test_golden_graph_mc_models(model, t, tail):
    got = repr(sim.empirical_tail(model, t, 4096, seed=1))
    assert got == f"SimResult(replications=4096, threshold={t!r}, " + tail


# 1000 replications end in a partial 64-bit word; n = 70 spans two words
# of the neighbour masks the kernels used when these were first recorded
PINNED = [
    (sim.DegreeParity(12), 6.0,
     "empirical_tail=0.696, ci_low=0.646272352518569, "
     "ci_high=0.7427347147814197, seed=1, sum_mean=5.872)"),
    (sim.GnpTriangles(70, 0.05), 7.0,
     "empirical_tail=0.509, ci_low=0.4565691589143479, "
     "ci_high=0.5612935584780193, seed=1, sum_mean=6.854)"),
    (sim.Gnp4Cliques(24, 0.3), 8.0,
     "empirical_tail=0.42, ci_low=0.3689060412384378, "
     "ci_high=0.4723144445280944, seed=1, sum_mean=7.734)"),
    (sim.GnmTriangles(20, 40), 12.0,
     "empirical_tail=0.294, ci_low=0.2477959425978892, "
     "ci_high=0.3433500974647093, seed=1, sum_mean=9.967)"),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("model,t,tail", PINNED,
                         ids=[type(m).__name__ for m, _, _ in PINNED])
def test_pinned_partial_word_models(model, t, tail, threads):
    got = repr(sim.empirical_tail(model, t, 1000, seed=1, threads=threads))
    assert got == f"SimResult(replications=1000, threshold={t!r}, " + tail


class TestBatchBytes:
    MODELS = [
        sim.GnpIsolated(30, 0.1),
        sim.GnpTriangles(30, 0.05),
        sim.Gnp4Cliques(20, 0.3),
        sim.GnmIsolated(30, 40),
        sim.GnmTriangles(70, 400),
        sim.DegreeParity(12),
        sim.OrientationParity(Graph.complete(8)),
        sim.MartingaleDiff(20, (0.3,) * 20),
        sim.UStat(12, 3, "all-below", (("c", 0.5),)),
        sim.UStat(10, 2, "threshold-sum", (("theta", 1.2),)),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_bounds_the_batch_peak(self, model):
        """batch_bytes names an array the batch really allocates, and the
        batch's peak traced memory stays within a small multiple of it."""
        size = 512
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            model.batch(rng, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        need = model.batch_bytes(size)
        assert need <= peak <= 4 * need + (1 << 20)

    def test_chunk_sizes_of_oversized_models(self):
        # a graph model's largest array is its chunk's edge planes, C(n,2)
        # rows of CHUNK_SIZE / 64 words (a G(n,m) model's bool block of 64
        # replications is an eighth of that), or the triangle kernels'
        # three pair rows of every triple
        assert sim.GnpIsolated(3000, 0.1).batch_bytes(sim.CHUNK_SIZE) == (
            8 * math.comb(3000, 2) * (sim.CHUNK_SIZE // 64))
        assert sim.GnmIsolated(3000, 10).batch_bytes(sim.CHUNK_SIZE) == (
            8 * math.comb(3000, 2) * (sim.CHUNK_SIZE // 64))
        assert sim.GnmTriangles(100, 10).batch_bytes(1) == 24 * math.comb(100, 3)
        # up to n = 45 a G(n,m) chunk's bool array of edge bits, a byte per
        # edge and replication, is drawn whole and is its largest array
        assert sim.GnmIsolated(30, 40).batch_bytes(sim.CHUNK_SIZE) == (
            math.comb(30, 2) * sim.CHUNK_SIZE)
        threshold_sum = sim.UStat(200, 4, "threshold-sum", (("theta", 2.0),))
        assert threshold_sum.batch_bytes(sim.CHUNK_SIZE) == (
            8 * sim.CHUNK_SIZE * 4 * math.comb(200, 4))
        # all-below counts the bits of its n planes and gathers nothing
        all_below = sim.UStat(200, 4, "all-below", (("c", 0.5),))
        assert all_below.batch_bytes(sim.CHUNK_SIZE) == (
            8 * 200 * (sim.CHUNK_SIZE // 64))
        for model in self.MODELS:
            assert model.batch_bytes(sim.CHUNK_SIZE) <= sim.CHUNK_BYTES_MAX

    def test_largest_graph_models_within_the_limit(self):
        """gnp-isolated, gnm-isolated and degree-parity run up to n = 2048,
        and the triangle and 4-clique models up to n = 646."""
        largest = [
            (lambda n: sim.GnpIsolated(n, 0.1), 2048),
            (lambda n: sim.GnmIsolated(n, 10), 2048),
            (sim.DegreeParity, 2048),
            (lambda n: sim.GnpTriangles(n, 0.1), 646),
            (lambda n: sim.GnmTriangles(n, 10), 646),
            (lambda n: sim.Gnp4Cliques(n, 0.1), 646),
        ]
        for build, n in largest:
            for size, fits in ((n, True), (n + 1, False)):
                need = build(size).batch_bytes(sim.CHUNK_SIZE)
                assert (need <= sim.CHUNK_BYTES_MAX) == fits, (build, size)


class TestBlocks:
    """``empirical_tail`` draws each chunk in blocks of rows."""

    MODELS = TestBatchBytes.MODELS + [
        sim.MartingaleDiff(20, (0.3,) * 20, "independent-centered"),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_blocks_are_the_rows_of_one_batch(self, model):
        """Each batch of a model that draws floats draws one
        rng.random((size, k)) and replication r reads row r, so batches
        drawn one after another from one stream are the rows of one whole
        batch.  This holds for the stepwise models too, which
        empirical_tail draws whole.  The bit-sliced models share each
        random word among 64 replications, and the G(n,m) models each
        Floyd step's draw among a block's replications: empirical_tail
        draws each of their chunks, at most CHUNK_SIZE replications, as one
        batch, and only that is checked for them."""
        if bit_sliced(model):
            for size in (1, 63, 65, sim.CHUNK_SIZE):
                whole = model.batch(np.random.default_rng(size), size)
                drawn = sim._batch_blocks(model, np.random.default_rng(size), size)
                assert np.array_equal(drawn, whole)
            return
        rows = gc.block_rows(model.batch_bytes(1))
        for size in sorted({1, rows - 1, rows + 1, sim.CHUNK_SIZE}):
            whole = model.batch(np.random.default_rng(size), size)
            rng = np.random.default_rng(size)
            blocks = np.concatenate([
                model.batch(rng, min(rows, size - start))
                for start in range(0, size, rows)
            ])
            assert blocks.dtype == whole.dtype
            assert np.array_equal(blocks, whole)
            drawn = sim._batch_blocks(model, np.random.default_rng(size), size)
            assert np.array_equal(drawn, whole)

    def test_block_rows(self):
        assert gc.block_rows(1) == gc.BLOCK_BYTES
        assert gc.block_rows(gc.BLOCK_BYTES // 100) == 100
        # a few rows per block would repeat each call's fixed cost
        assert gc.block_rows(gc.BLOCK_BYTES) == gc.MIN_BLOCK_ROWS
        threshold_sum = sim.UStat(20, 4, "threshold-sum", (("theta", 2.0),))
        assert sim._block_rows(threshold_sum) == gc.MIN_BLOCK_ROWS

    def test_stepwise_models_draw_chunks_whole(self):
        """Models whose batch loops in Python over steps or edges would
        repeat the loop in every block; they take one batch per chunk."""
        stepwise = [
            sim.MartingaleDiff(5000, (0.3,) * 5000, "polya-style"),
            sim.OrientationParity(Graph.complete(64)),
        ]
        for model in stepwise:
            # by its bytes alone the chunk would split into blocks
            assert gc.block_rows(model.batch_bytes(1)) < sim.CHUNK_SIZE
            assert sim._block_rows(model) == sim.CHUNK_SIZE
        independent = sim.MartingaleDiff(5000, (0.3,) * 5000,
                                         "independent-centered")
        assert sim._block_rows(independent) == gc.block_rows(8 * 5000)

    PEAK_MODELS = [
        sim.GnmIsolated(30, 40),
        sim.GnpTriangles(30, 0.05),
        sim.Gnp4Cliques(20, 0.3),
        sim.GnmTriangles(20, 40),
    ]

    @staticmethod
    def peak(model, reps):
        """Peak traced memory of one empirical_tail call."""
        tracemalloc.start()
        try:
            sim.empirical_tail(model, 1, reps, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("model", PEAK_MODELS,
                             ids=lambda m: type(m).__name__)
    def test_chunk_peak_is_about_one_block(self, model):
        """A chunk holds the edge planes, a kernel's buffer and gathered
        rows, each at most about BLOCK_BYTES, and a G(n,m) model's bool
        block of edge bits, a byte per edge and replication (3.4
        BLOCK_BYTES at n = 30), so 8 BLOCK_BYTES leaves room for numpy's
        temporaries.  Whole-chunk float batches peaked at 18-29 MiB here."""
        assert self.peak(model, sim.CHUNK_SIZE) < 8 * gc.BLOCK_BYTES

    @pytest.mark.parametrize("model", PEAK_MODELS,
                             ids=lambda m: type(m).__name__)
    def test_workspace_does_not_grow_with_chunks(self, model):
        """Every chunk frees what it allocates before the next one."""
        one = self.peak(model, sim.CHUNK_SIZE)
        assert self.peak(model, 3 * sim.CHUNK_SIZE) <= 1.1 * one


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
        # a G(n,m) model draws floats; the other two are bit-sliced
        for model in (sim.GnmTriangles(7, 10), sim.GnpTriangles(7, 0.3),
                      sim.UStat(12, 3, "all-below", (("c", 0.37),))):
            base = sim.empirical_tail(model, 4, reps=10000, seed=42, threads=1)
            for threads in (2, 4):
                again = sim.empirical_tail(
                    model, 4, reps=10000, seed=42, threads=threads
                )
                assert repr(again) == repr(base)
            repeat = sim.empirical_tail(model, 4, reps=10000, seed=42, threads=1)
            assert repr(repeat) == repr(base)

    def test_seed_changes_result(self):
        model = sim.GnpIsolated(10, 0.3)
        a = sim.empirical_tail(model, 3, reps=3000, seed=0)
        b = sim.empirical_tail(model, 3, reps=3000, seed=1)
        assert repr(a) != repr(b)

    def test_partial_final_chunk(self):
        # reps not a multiple of the chunk size still covers every draw
        model = sim.GnpIsolated(6, 0.5)
        res = sim.empirical_tail(model, 0, reps=sim.CHUNK_SIZE + 7, seed=0)
        assert res.replications == sim.CHUNK_SIZE + 7
        assert res.empirical_tail == 1.0

    def test_reps_validation(self):
        for reps in (0, -1, 2.5, 4096.0, True, "10", None):
            with pytest.raises(ValueError, match="reps"):
                sim.empirical_tail(sim.GnpIsolated(5, 0.5), 1, reps=reps, seed=0)
        for threads in (0, -3, 2.5, "2", None, True):
            with pytest.raises(ValueError, match="threads"):
                sim.empirical_tail(sim.GnpIsolated(5, 0.5), 1, reps=10,
                                   seed=0, threads=threads)
        res = sim.empirical_tail(sim.GnpIsolated(5, 0.5), 1, reps=np.int64(10),
                                 seed=0, threads=np.int64(2))
        assert res.replications == 10

    def test_caller_runs_chunks_beside_one_worker(self):
        """At two threads the batches run on the caller and at most one
        other thread, every chunk once, and no thread outlives the call."""
        model = RecordingModel(sim.GnpTriangles(12, 0.3), pause=0.01)
        before = threading.active_count()
        res = sim.empirical_tail(model, 3, reps=4 * sim.CHUNK_SIZE, seed=5,
                                 threads=2)
        assert threading.active_count() == before
        assert sorted(model.chunks) == [0, 1, 2, 3]
        assert threading.get_ident() in model.threads
        assert len(set(model.threads)) <= 2
        plain = sim.empirical_tail(sim.GnpTriangles(12, 0.3), 3,
                                   reps=4 * sim.CHUNK_SIZE, seed=5)
        assert repr(res) == repr(plain)

    def test_one_thread_runs_every_chunk_on_the_caller(self):
        model = RecordingModel(sim.GnpIsolated(10, 0.3))
        before = threading.active_count()
        sim.empirical_tail(model, 3, reps=3 * sim.CHUNK_SIZE + 5, seed=1)
        assert threading.active_count() == before
        assert model.chunks == [0, 1, 2, 3]
        assert set(model.threads) == {threading.get_ident()}

    def test_importing_simulate_starts_no_thread(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import threading, depbounds.simulate; "
             "print(threading.active_count())"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failing_chunk_reaches_the_caller(self, threads):
        """The first batch raises; the error reaches the caller, no thread
        claims a chunk after it, and none starts after the call returns."""
        model = RecordingModel(sim.GnpIsolated(10, 0.3), pause=0.02,
                               fail_first=True)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="batch failed"):
            sim.empirical_tail(model, 3, reps=8 * sim.CHUNK_SIZE, seed=0,
                               threads=threads)
        started = len(model.chunks)
        assert 1 <= started <= threads
        assert threading.active_count() == before
        time.sleep(0.1)
        assert len(model.chunks) == started

    def test_many_threads_claim_every_chunk_once(self):
        """More threads than CPUs and a short switch interval: each chunk
        is claimed by exactly one thread, and the result is unchanged."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sim, "CHUNK_SIZE", 256)
                model = RecordingModel(sim.GnpIsolated(8, 0.3))
                res = sim.empirical_tail(model, 2, reps=40 * 256, seed=9,
                                         threads=8)
                again = sim.empirical_tail(sim.GnpIsolated(8, 0.3), 2,
                                           reps=40 * 256, seed=9)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(model.chunks) == list(range(40))
        assert repr(res) == repr(again)

    def test_sum_mean_tracks_expectation(self):
        # E[isolated vertices in G(10, 0.3)] = 10 * 0.7^9
        model = sim.GnpIsolated(10, 0.3)
        res = sim.empirical_tail(model, 3, reps=30000, seed=7)
        assert res.sum_mean == pytest.approx(10 * 0.7**9, abs=0.05)


@lru_cache(maxsize=1)
def all_graph_laws(n):
    """{kernel: table} over all 2^C(n,2) graphs on n labelled vertices:
    entry (m, k) of a kernel's table counts the graphs with m edges whose
    count is k.  Graph i has the edge of plane e iff bit e of i is set, so
    its edge count is the popcount of i."""
    from depbounds.verify import _all_graph_planes

    pairs = math.comb(n, 2)
    edges = np.bitwise_count(np.arange(1 << pairs, dtype=np.uint64))
    laws = {}
    for kernel in (gc.triangle_count, gc.clique4_count):
        counts = np.concatenate([
            kernel(n, _all_graph_planes(n, start, 4096), 64 * 4096)
            for start in range(0, (1 << pairs) // 64, 4096)
        ])
        table = np.zeros((pairs + 1, counts.max() + 1), dtype=np.int64)
        np.add.at(table, (edges, counts), 1)
        laws[kernel] = table
    return laws


class TestCalibration:
    """Samplers against exact tails: the 0.999 Clopper-Pearson interval of
    ``empirical_tail`` must cover the exact P[statistic >= t].

    There are 11 checks: ustat all-below (3), gnm-isolated (2),
    gnm-triangles (2), gnp-isolated, gnp-triangles, gnp-4cliques and
    degree-parity (1 each).  An unbiased sampler misses with probability
    at most 0.001 per check, at most 0.011 for any of the 11, so a miss on these seeds (fixed before
    the first run) points at the sampler, not at chance.  A biased sampler
    that a bound still dominates fails here.
    """

    @staticmethod
    def covers(model, t, exact, reps, seed):
        res = sim.empirical_tail(model, t, reps=reps, seed=seed)
        assert res.ci_low <= exact <= res.ci_high, (res, exact)

    @pytest.mark.parametrize("model,kernel,t,seed", [
        (sim.GnpTriangles(7, 0.3), gc.triangle_count, 2, 74),
        (sim.Gnp4Cliques(7, 0.45), gc.clique4_count, 1, 75),
    ], ids=["GnpTriangles", "Gnp4Cliques"])
    def test_gnp_counts_on_seven_vertices(self, model, kernel, t, seed):
        # all 2^21 graphs by edge count m, mixed by m ~ Bin(21, p)
        table = all_graph_laws(7)[kernel]
        p = model.p
        exact = math.fsum(
            p**m * (1 - p) ** (21 - m) * int(table[m, t:].sum())
            for m in range(22)
        )
        self.covers(model, t, exact, 200_000, seed)

    def test_degree_parity(self):
        # the odd-degree vertices of G(n, 1/2) are a uniform even-size set:
        # k of them with probability C(n, k) / 2^(n-1) for even k
        n, t = 9, 6
        exact = sum(math.comb(n, k) for k in range(t, n + 1, 2)) / 2 ** (n - 1)
        assert exact == 93 / 256
        self.covers(sim.DegreeParity(n), t, exact, 200_000, seed=76)

    @pytest.mark.parametrize("n,d,c,t", [(12, 3, 0.5, 56.0), (40, 2, 0.5, 200.0),
                                         (9, 9, 0.9, 1.0)])
    def test_ustat_all_below(self, n, d, c, t):
        # X = C(B, d) with B ~ Bin(n, c)
        exact = sum(
            math.comb(n, b) * c**b * (1 - c) ** (n - b)
            for b in range(n + 1) if math.comb(b, d) >= t
        )
        self.covers(ustat(n, d, "all-below", c=c), t, exact, 100_000, seed=71)

    @pytest.mark.parametrize("n,m,t", [(30, 40, 4), (20, 15, 6)])
    def test_gnm_isolated(self, n, m, t):
        exact = float(gc.gnm_isolated_exact_tail(n, m, t))
        self.covers(sim.GnmIsolated(n, m), t, exact, 100_000, seed=72)

    @pytest.mark.parametrize("m,t,seed", [(8, 2, 77), (14, 10, 78)])
    def test_gnm_triangles_on_seven_vertices(self, m, t, seed):
        # all C(21, m) graphs with m edges are equally likely; m = 14 draws
        # the 7 absent edges
        table = all_graph_laws(7)[gc.triangle_count]
        exact = int(table[m, t:].sum()) / math.comb(21, m)
        self.covers(sim.GnmTriangles(7, m), t, exact, 200_000, seed)

    def test_gnp_isolated(self):
        # G(n, p) given its edge count m is G(n, m), and m ~ Bin(C(n,2), p)
        n, p, t = 30, 0.1, 1
        pairs = math.comb(n, 2)
        exact = math.fsum(
            math.comb(pairs, m) * p**m * (1 - p) ** (pairs - m)
            * float(gc.gnm_isolated_exact_tail(n, m, t))
            for m in range(pairs + 1)
        )
        assert exact == pytest.approx(0.73960, abs=5e-6)
        self.covers(sim.GnpIsolated(n, p), t, exact, 200_000, seed=73)


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

    @pytest.mark.parametrize("level", [1.5, -1.0, 0.0, 1.0, float("nan")])
    def test_rejects_level_outside_open_unit_interval(self, level):
        # 1.5 gave (nan, nan) and -1 the inverted (1.0, 0.0)
        with pytest.raises(ValueError, match="level must be in"):
            sim.exact_binomial_ci(1, 2, level=level)

    @staticmethod
    def tail_times_2000(n, x, js):
        """(2000 P(Bin(n, x) in js), 1) as integers, exactly: x is taken
        at its rational value, so the pair compares with alpha/2 = 1/2000
        at level 0.999 with no rounding."""
        u, d = x.as_integer_ratio()
        total = sum(math.comb(n, j) * u**j * (d - u) ** (n - j) for j in js)
        return 2000 * total, d**n

    def test_contains_exact_interval_and_is_tight(self):
        """Every k at n <= 60: the exact Clopper-Pearson ends solve
        P(Bin(n, lo) >= k) = 1/2000 and P(Bin(n, hi) <= k) = 1/2000.  Each
        returned end has its tail at most 1/2000, and moving it inwards
        by 1e-12 relative makes the tail exceed 1/2000."""
        for n in range(1, 61):
            for k in range(n + 1):
                lo, hi = sim.exact_binomial_ci(k, n)
                if k > 0:
                    above = range(k, n + 1)
                    tail, one = self.tail_times_2000(n, lo, above)
                    assert tail <= one, (k, n, "lo")
                    tail, one = self.tail_times_2000(n, lo * (1 + 1e-12), above)
                    assert tail > one, (k, n, "lo loose")
                if k < n:
                    below = range(k + 1)
                    tail, one = self.tail_times_2000(n, hi, below)
                    assert tail <= one, (k, n, "hi")
                    tail, one = self.tail_times_2000(n, hi * (1 - 1e-12), below)
                    assert tail > one, (k, n, "hi loose")

    @pytest.mark.parametrize("n", [1, 7, 60, 4096, 10**5, 10**6])
    def test_matches_scipy_betaincinv(self, n):
        """scipy is a reference here only: both ends agree with
        betaincinv within 1e-10 relative for reps up to 10^6."""
        alpha = 1.0 - sim.CI_LEVEL
        ks = {0, 1, 2, 3, 10, n // 100, n // 7, n // 3, n // 2, n - 3, n - 1, n}
        for k in sorted(k for k in ks if 0 <= k <= n):
            lo, hi = sim.exact_binomial_ci(k, n)
            want_lo = 0.0 if k == 0 else betaincinv(k, n - k + 1, alpha / 2.0)
            want_hi = 1.0 if k == n else betaincinv(k + 1, n - k, 1.0 - alpha / 2.0)
            assert lo == pytest.approx(want_lo, rel=1e-10, abs=0.0), (k, n)
            assert hi == pytest.approx(want_hi, rel=1e-10, abs=0.0), (k, n)

    @pytest.mark.parametrize("a,b", [(1, 1), (3, 10**6), (9, 10**6), (10, 10**6),
                                     (40, 4057), (2048, 2049), (500000, 500001)])
    def test_log_beta_has_no_cancellation(self, a, b):
        """lgamma(a) + lgamma(b) - lgamma(a + b) loses about 2e-9 at
        (3, 10^6); the interval's log-beta keeps a few ulps of its size."""
        with mpmath.workdps(40):
            want = mpmath.log(mpmath.beta(a, b))
        got = sim._log_beta(a, b)
        assert abs(got - want) <= 8 * 2.0**-52 * abs(want) + 1e-15
        assert sim._log_beta(b, a) == got
