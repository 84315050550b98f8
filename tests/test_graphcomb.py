"""Graph lemmas, exact independence number and the G(n,m) rational bounds."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from depbounds import graphcomb as gc
from depbounds.graphcomb import Graph


def random_graph(rng, n, p):
    pairs = list(combinations(range(n), 2))
    bits = rng.random(len(pairs)) < p
    return Graph.from_edge_list(n, [pq for pq, b in zip(pairs, bits) if b])


def brute_force_counts(g):
    """Subgraph counts by direct iteration over all triples/quadruples."""
    adj = g.adjacency()
    tri = sum(
        1
        for u, v, w in combinations(range(g.n), 3)
        if adj[u, v] and adj[u, w] and adj[v, w]
    )
    quad = sum(
        1
        for q in combinations(range(g.n), 4)
        if all(adj[a, b] for a, b in combinations(q, 2))
    )
    return tri, quad


def union_reference(g):
    """(triangle-edge union size, 4-clique-triangle union size) from the
    explicit sets of triangles and 4-cliques."""
    adj = g.adjacency()
    tris = [
        t for t in combinations(range(g.n), 3)
        if all(adj[a, b] for a, b in combinations(t, 2))
    ]
    quads = [
        q for q in combinations(range(g.n), 4)
        if all(adj[a, b] for a, b in combinations(q, 2))
    ]
    edges = {e for t in tris for e in combinations(t, 2)}
    faces = {t for q in quads for t in combinations(q, 3)}
    return len(edges), len(faces)


def masks_of(g):
    return gc.neighbour_masks(g.adjacency())


def kernel_counts(masks):
    """(isolated, triangles, triangle-edge union, 4-cliques,
    4-clique-triangle union) of each graph of a batch, as int arrays."""
    j, r = gc.triangle_count(masks)
    k, rt = gc.clique4_count(masks)
    return np.stack([gc.isolated_count(masks), j, r, k, rt], axis=-1)


def brute_force_alpha(g):
    adj = g.adjacency()
    best = 0
    for mask in range(1 << g.n):
        verts = [v for v in range(g.n) if mask >> v & 1]
        if all(not adj[u, v] for u, v in combinations(verts, 2)):
            best = max(best, len(verts))
    return best


class TestGraphBasics:
    def test_normalization_and_validation(self):
        g = Graph.from_edge_list(4, [(2, 1), (1, 2), (0, 3)])
        assert g.edges == frozenset({(1, 2), (0, 3)})
        with pytest.raises(ValueError):
            Graph.from_edge_list(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edge_list(3, [(0, 3)])

    def test_serialization_round_trip(self, tmp_path):
        g = random_graph(np.random.default_rng(0), 9, 0.4)
        path = tmp_path / "g.txt"
        g.save(path)
        assert Graph.load(path) == g

    def test_loads_requires_header(self):
        with pytest.raises(ValueError):
            Graph.loads("0 1\n1 2\n")


class TestCounts:
    def test_empty_graph(self):
        assert kernel_counts(masks_of(Graph.empty(7))).tolist() == [7, 0, 0, 0, 0]

    def test_complete_k5(self):
        assert kernel_counts(masks_of(Graph.complete(5))).tolist() == [
            0, 10, 10, 5, 10
        ]

    def test_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            g = random_graph(rng, 8, float(rng.random()))
            iso, tri, _, quad, _ = kernel_counts(masks_of(g)).tolist()
            assert (tri, quad) == brute_force_counts(g)
            deg = g.adjacency().sum(axis=0)
            assert iso == int((deg == 0).sum())


class TestMaskKernel:
    """The neighbour-mask kernels against direct enumeration."""

    @staticmethod
    def reference(g):
        deg = g.adjacency().sum(axis=0)
        tri, quad = brute_force_counts(g)
        edges, faces = union_reference(g)
        return [int((deg == 0).sum()), tri, edges, quad, faces]

    @pytest.mark.parametrize("n", list(range(1, 31)) + [65, 70])
    def test_random_graphs(self, n):
        rng = np.random.default_rng(n)
        # the references enumerate all C(n,4) quadruples: one sparse graph
        # for the two-word sizes
        ps = [0.2] if n > 64 else [0.2, 0.5, 0.9]
        for p in ps:
            g = random_graph(rng, n, p)
            masks = masks_of(g)
            assert masks.shape == (n, -(-n // 64))
            assert kernel_counts(masks).tolist() == self.reference(g)

    @staticmethod
    def int_mask_words(g):
        """``Graph.neighbor_masks()`` (one Python int per vertex) split
        into 64-bit words, low word first: no packing code involved."""
        words = -(-g.n // 64)
        return np.array(
            [[m >> (64 * w) & (1 << 64) - 1 for w in range(words)]
             for m in g.neighbor_masks()],
            dtype=np.uint64,
        ).reshape(g.n, words)

    def test_edge_masks_match_graph_masks(self):
        """Both packers against the Python-int masks, at word and byte
        boundaries and for batches of every rank."""
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 70,
                  127, 128, 129, 130, 139):
            pairs = list(combinations(range(n), 2))
            for shape in [(), (3,), (2, 3)]:
                bits = rng.random(shape + (len(pairs),)) < rng.uniform(0.1, 0.9)
                graphs = [
                    Graph.from_edge_list(
                        n, [pq for pq, b in zip(pairs, row) if b])
                    for row in bits.reshape(math.prod(shape), len(pairs))
                ]
                want = np.array([self.int_mask_words(g) for g in graphs])
                want = want.reshape(shape + want.shape[1:])
                adj = np.array([g.adjacency() for g in graphs])
                for got in (gc.edge_masks(n, bits),
                            gc.neighbour_masks(adj.reshape(shape + (n, n)))):
                    assert got.dtype == np.uint64
                    assert got.shape == shape + (n, -(-n // 64))
                    assert np.array_equal(got, want)

    @staticmethod
    def loop_codegrees(masks):
        """The codegree masks one vertex v at a time, pairs (v, u) with
        u < v in order, masked by an explicit one-vertex mask of u."""
        n, words = masks.shape[-2:]
        vertex = gc.neighbour_masks(np.eye(n, dtype=bool))
        blocks = []
        for v in range(1, n):
            row = masks[..., v, None, :]
            common = row & masks[..., :v, :]
            blocks.append(common * (row & vertex[:v]).any(axis=-1)[..., None])
        return np.concatenate(blocks, axis=-2)

    @pytest.mark.parametrize("n", [2, 3, 20, 30, 63, 64, 65, 70, 130])
    def test_codegree_gather_equals_the_loop(self, n):
        rng = np.random.default_rng(n)
        bits = rng.random((2, 3, math.comb(n, 2))) < 0.4
        masks = gc.edge_masks(n, bits)
        want = self.loop_codegrees(masks)
        assert np.array_equal(gc._codegrees(masks), want)
        scratch = {}
        for rows in (3, 1, 3):  # the buffers shrink, then grow back
            assert np.array_equal(gc._codegrees(masks[0, :rows], scratch),
                                  want[0, :rows])

    def test_edge_masks_without_scratch_are_new_arrays(self):
        rng = np.random.default_rng(2)
        bits = rng.random((2, 4, 45)) < 0.5
        first = gc.edge_masks(10, bits[0])
        kept = first.copy()
        second = gc.edge_masks(10, bits[1])
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert first.flags.writeable and second.flags.writeable

    def test_padded_batch_of_mixed_sizes(self):
        # graphs of 1..66 vertices padded with isolated vertices to 70:
        # padding changes the isolated count only
        rng = np.random.default_rng(11)
        graphs = [random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
                  for n in (1, 4, 5, 12, 30, 66)]
        masks = np.zeros((len(graphs), 70, 2), dtype=np.uint64)
        for i, g in enumerate(graphs):
            m = masks_of(g)
            masks[i, :g.n, :m.shape[-1]] = m
        got = kernel_counts(masks)
        for g, row in zip(graphs, got.tolist()):
            want = self.reference(g)
            want[0] += 70 - g.n
            assert row == want


class TestUnionLemmas:
    def test_triangle_free(self):
        g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert gc.triangle_union_edges(g) == (0, 0)

    def test_k4_tight(self):
        j, r = gc.triangle_union_edges(Graph.complete(4))
        assert (j, r) == (4, 6)
        assert r == 3 * j / (4 - 2)

    def test_clique_free(self):
        g = Graph.from_edge_list(5, [(0, 1), (1, 2), (0, 2)])
        assert gc.clique4_union_triangles(g) == (0, 0)

    def test_k5_tight(self):
        k, r = gc.clique4_union_triangles(Graph.complete(5))
        assert (k, r) == (5, 10)
        assert r == 4 * k / (5 - 3)

    def test_exhaustive_n5(self):
        pairs = list(combinations(range(5), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edge_list(
                5, [pq for i, pq in enumerate(pairs) if mask >> i & 1]
            )
            j, r = gc.triangle_union_edges(g)
            assert r * (5 - 2) >= 3 * j
            k, rt = gc.clique4_union_triangles(g)
            assert rt * (5 - 3) >= 4 * k

    def test_random_large_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(4, 31))
            g = random_graph(rng, n, float(rng.random()))
            j, r = gc.triangle_union_edges(g)
            assert r * (n - 2) >= 3 * j
            k, rt = gc.clique4_union_triangles(g)
            assert rt * (n - 3) >= 4 * k

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gc.triangle_union_edges(Graph.empty(2))
        with pytest.raises(ValueError):
            gc.clique4_union_triangles(Graph.empty(3))


class TestIndependenceNumber:
    def test_empty_and_complete(self):
        assert gc.independence_number(Graph.empty(9)) == 9
        assert gc.independence_number(Graph.complete(9)) == 1

    def test_cycle_c7(self):
        g = Graph.from_edge_list(7, [(i, (i + 1) % 7) for i in range(7)])
        assert gc.independence_number(g) == 3
        assert brute_force_alpha(g) == 3

    def test_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, float(rng.random()))
            assert gc.independence_number(g) == brute_force_alpha(g)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            gc.independence_number(Graph.empty(31))


class TestGnpConstants:
    def test_isolated_small_p(self):
        _, gamma = gc.gnp_rate("isolated", 10, 1e-9)
        assert gamma == pytest.approx(1.0, abs=1e-6)

    def test_triangles_n5(self):
        _, gamma = gc.gnp_rate("triangles", 5, 0.5)
        assert gamma == pytest.approx(0.5, rel=1e-12)

    def test_counts(self):
        assert gc.gnp_rate("isolated", 7, 0.5)[0] == 7
        assert gc.gnp_rate("triangles", 7, 0.5)[0] == 35
        assert gc.gnp_rate("cliques4", 7, 0.5)[0] == 35

    def test_isolated_moment_condition(self):
        # the proof's moment requirement: every j-subset of vertices is
        # simultaneously isolated with probability at most gamma^j
        for n in range(3, 9):
            for p in (0.1, 0.5, 0.9):
                _, g = gc.gnp_rate("isolated", n, p)
                for j in range(1, n + 1):
                    prob = (1 - p) ** (math.comb(j, 2) + j * (n - j))
                    assert prob <= g**j + 1e-12

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            gc.gnp_rate("isolated", 10, 0.0)
        with pytest.raises(ValueError):
            gc.gnp_rate("cliques4", 3, 0.5)
        with pytest.raises(ValueError):
            gc.gnp_rate("pentagons", 10, 0.5)


def exact_gnm_triangle_tail(n, m, t):
    """Exact P[triangle count of G(n,m) >= t] by enumerating all graphs."""
    pairs = list(combinations(range(n), 2))
    hits = total = 0
    for mask_pairs in combinations(range(len(pairs)), m):
        g = Graph.from_edge_list(n, [pairs[i] for i in mask_pairs])
        total += 1
        if gc.triangle_count(masks_of(g))[0] >= t:
            hits += 1
    return Fraction(hits, total)


class TestGnmBounds:
    def test_isolated_t1_invalid(self):
        tb = gc.gnm_isolated_bound(8, 10, 1)
        assert not tb.is_valid
        assert "too small" in tb.invalid_reason

    def test_isolated_vs_exact_oracle(self):
        for n, m in [(8, 10), (7, 6), (6, 4)]:
            for t in range(2, n + 1):
                tb = gc.gnm_isolated_bound(n, m, t)
                assert tb.is_valid
                exact = gc.gnm_isolated_exact_tail(n, m, t)
                assert tb.bound >= float(exact) - 1e-12

    def test_isolated_exact_tail_is_probability(self):
        # the inclusion-exclusion oracle against direct enumeration
        n, m = 6, 5
        pairs = list(combinations(range(n), 2))
        for t in range(0, n + 1):
            hits = total = 0
            for mask_pairs in combinations(range(len(pairs)), m):
                g = Graph.from_edge_list(n, [pairs[i] for i in mask_pairs])
                total += 1
                if gc.isolated_count(masks_of(g)) >= t:
                    hits += 1
            assert gc.gnm_isolated_exact_tail(n, m, t) == Fraction(hits, total)

    def test_isolated_m0(self):
        # with no edges every vertex is isolated; the k=1 term is
        # C(n,1)/C(t,1) = n/t >= 1, so the bound clamps to 1
        tb = gc.gnm_isolated_bound(6, 0, 4)
        assert tb.is_valid
        assert tb.bound == 1.0

    def test_triangles_t_range(self):
        assert not gc.gnm_triangles_bound(6, 9, 1).is_valid
        assert not gc.gnm_triangles_bound(6, 9, 21).is_valid

    def test_triangles_vs_exhaustive_oracle(self):
        n, m = 6, 9
        for t in (3, 6, 10):
            tb = gc.gnm_triangles_bound(n, m, t)
            assert tb.is_valid
            assert tb.bound >= float(exact_gnm_triangle_tail(n, m, t)) - 1e-12

    def test_triangles_t2_k1_is_markov(self):
        n, m, t = 6, 9, 2
        n2, n3 = math.comb(n, 2), math.comb(n, 3)
        markov = Fraction(n3) * Fraction(
            math.comb(n2 - 3, m - 3), math.comb(n2, m)
        ) / t
        tb = gc.gnm_triangles_bound(n, m, t)
        k1_term = float(markov)
        # the reported minimum never exceeds the k=1 Markov term
        assert tb.bound <= k1_term + 1e-12

    def test_integer_minimum_matches_fractions(self):
        # the Fraction minimum over k as a reference: the same log_bound
        # and the same (first) minimizing k at every n, m, t with n <= 9
        def reference(t, denom, numerator):
            terms = [Fraction(numerator(k), math.comb(t, k) * denom)
                     for k in range(1, t)]
            best = min(terms)
            if best == 0:
                log_value = -math.inf
            else:
                log_value = min(0.0, math.log(best.numerator)
                                - math.log(best.denominator))
            return log_value, terms.index(best) + 1

        def triangles(n, m):
            n2, n3 = math.comb(n, 2), math.comb(n, 3)

            def numerator(k):
                forced = 3 * k // (n - 2)
                return (math.comb(n3, k) * math.comb(n2 - forced, m - forced)
                        if m >= forced else 0)
            return numerator

        for n in range(3, 10):
            n2 = math.comb(n, 2)
            for m in range(n2 + 1):
                denom = math.comb(n2, m)
                for t in range(2, n + 1):
                    tb = gc.gnm_isolated_bound(n, m, t)
                    want = reference(t, denom, lambda k: math.comb(n, k)
                                     * math.comb(math.comb(n - k, 2), m))
                    assert (tb.log_bound, tb.params["k"]) == want, (n, m, t)
                for t in range(2, math.comb(n, 3) + 1):
                    tb = gc.gnm_triangles_bound(n, m, t)
                    want = reference(t, denom, triangles(n, m))
                    assert (tb.log_bound, tb.params["k"]) == want, (n, m, t)

    def test_forced_edges_zero_term(self):
        # when m is below the forced edge count every such k contributes 0
        tb = gc.gnm_triangles_bound(6, 2, 12)
        assert tb.is_valid
        assert tb.bound == 0.0
