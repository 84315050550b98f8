"""Graph lemmas, the subgraph-count kernels and the G(n,m) rational bounds."""

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


def adjacency(g):
    """The boolean adjacency matrix of ``g``."""
    a = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges:
        a[u, v] = a[v, u] = True
    return a


def brute_force_counts(g):
    """Subgraph counts by direct iteration over all triples/quadruples."""
    adj = adjacency(g)
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
    adj = adjacency(g)
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


def edge_bits(g):
    """The edge bits of ``g`` in ``combinations(range(n), 2)`` order."""
    return np.array([pq in g.edges for pq in combinations(range(g.n), 2)],
                    dtype=bool)


def planes_of(*graphs):
    """Edge planes of a batch of graphs on one vertex count."""
    bits = np.array([edge_bits(g) for g in graphs]).reshape(len(graphs), -1)
    return gc.edge_planes(graphs[0].n, bits)


def kernel_counts(n, planes, size):
    """(isolated, triangles, triangle-edge union, 4-cliques,
    4-clique-triangle union, odd-degree vertices) of each graph of a batch,
    as int arrays."""
    return np.stack([
        gc.isolated_count(n, planes, size),
        gc.triangle_count(n, planes, size),
        gc.triangle_union_size(n, planes, size),
        gc.clique4_count(n, planes, size),
        gc.clique4_union_size(n, planes, size),
        gc.odd_degree_count(n, planes, size),
    ], axis=-1)


def counts_of(g):
    """``kernel_counts`` of the one-graph batch ``g``."""
    return kernel_counts(g.n, planes_of(g), 1)[0]


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
        assert counts_of(Graph.empty(7)).tolist() == [7, 0, 0, 0, 0, 0]

    def test_complete_k5(self):
        assert counts_of(Graph.complete(5)).tolist() == [0, 10, 10, 5, 10, 0]

    def test_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            g = random_graph(rng, 8, float(rng.random()))
            iso, tri, _, quad, _, _ = counts_of(g).tolist()
            assert (tri, quad) == brute_force_counts(g)
            deg = adjacency(g).sum(axis=0)
            assert iso == int((deg == 0).sum())


class TestMaskKernel:
    """The edge-plane kernels against direct enumeration."""

    @staticmethod
    def reference(g):
        deg = adjacency(g).sum(axis=0)
        tri, quad = brute_force_counts(g)
        edges, faces = union_reference(g)
        return [int((deg == 0).sum()), tri, edges, quad, faces,
                int((deg % 2).sum())]

    @pytest.mark.parametrize("n", list(range(1, 31)) + [65, 70])
    def test_random_graphs(self, n):
        rng = np.random.default_rng(n)
        # the references enumerate all C(n,4) quadruples: one sparse graph
        # for the largest sizes
        ps = [0.2] if n > 64 else [0.2, 0.5, 0.9]
        graphs = [random_graph(rng, n, p) for p in ps]
        planes = planes_of(*graphs)
        assert planes.dtype == np.uint64
        assert planes.shape == (math.comb(n, 2), 1)
        assert kernel_counts(n, planes, len(graphs)).tolist() == [
            self.reference(g) for g in graphs]

    def test_edge_planes_match_graph_edges(self):
        """The packer against planes built from Python ints: bit r of row
        v(v-1)/2 + u is edge uv of graph r, at word and byte boundaries
        of the pairs and of the graphs."""
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 70,
                  127, 128, 129, 130, 139):
            pairs = list(combinations(range(n), 2))
            for size in (1, 63, 64, 65, 130):
                bits = rng.random((size, len(pairs))) < rng.uniform(0.1, 0.9)
                words = -(-size // 64)
                want = np.zeros((len(pairs), words), dtype=np.uint64)
                for k, (u, v) in enumerate(pairs):
                    row = sum(1 << int(r) for r in np.flatnonzero(bits[:, k]))
                    want[v * (v - 1) // 2 + u] = [
                        row >> (64 * w) & (1 << 64) - 1 for w in range(words)]
                got = gc.edge_planes(n, bits)
                assert got.dtype == np.uint64
                assert np.array_equal(got, want)

    @staticmethod
    def loop_codegrees(n, planes):
        """Per graph, the pairs uv that are edges with a common neighbour,
        one third vertex w at a time, with pair rows from the colex
        formula and no table."""
        u, v = np.array(list(combinations(range(n), 2)), dtype=np.int64).T
        common = np.zeros((len(u), planes.shape[1]), dtype=np.uint64)
        for w in range(n):
            keep = (u != w) & (v != w)
            uw = np.maximum(u, w) * (np.maximum(u, w) - 1) // 2 + np.minimum(u, w)
            vw = np.maximum(v, w) * (np.maximum(v, w) - 1) // 2 + np.minimum(v, w)
            common[keep] |= planes[uw[keep]] & planes[vw[keep]]
        common &= planes[v * (v - 1) // 2 + u]
        bits = np.unpackbits(common.view(np.uint8), axis=-1, bitorder="little")
        return bits.sum(axis=0, dtype=np.int64)

    @pytest.mark.parametrize("n", [2, 3, 20, 30, 63, 64, 65, 70, 130])
    def test_codegree_gather_equals_the_loop(self, n, monkeypatch):
        """The triangle-union kernel gathers every pair's common
        neighbours through a table with a zero plane for the pairs {w, w};
        the loop builds them pair row by pair row."""
        rng = np.random.default_rng(n)
        size = 70
        planes = gc.edge_planes(n, rng.random((size, math.comb(n, 2))) < 0.4)
        want = self.loop_codegrees(n, planes)[:size]
        assert np.array_equal(gc.triangle_union_size(n, planes, size), want)
        # blocks of a few rows: many spans, many adder-tree passes
        monkeypatch.setattr(gc, "BLOCK_BYTES", 8 * planes.shape[1] * 3)
        assert np.array_equal(gc.triangle_union_size(n, planes, size), want)

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 4097])
    def test_padding_bits_never_count(self, size):
        """Batches that fill their last word or not: the bits past
        ``size`` stay zero, and set to one they change no count (the
        isolated kernel's NOT sets them)."""
        n = 6
        rng = np.random.default_rng(size)
        graphs = [random_graph(rng, n, float(rng.uniform(0.05, 0.95)))
                  for _ in range(size)]
        planes = planes_of(*graphs)
        assert planes.shape == (15, -(-size // 64))
        pad = np.uint64(0) if size % 64 == 0 else ~np.uint64((1 << size % 64) - 1)
        assert not (planes[:, -1] & pad).any()
        want = [self.reference(g) for g in graphs]
        assert kernel_counts(n, planes, size).tolist() == want
        planes[:, -1] |= pad
        assert kernel_counts(n, planes, size).tolist() == want

    def test_padded_batch_of_mixed_sizes(self):
        # graphs of 1..66 vertices as prefixes of 70-vertex planes, their
        # other vertices isolated, in two words; the planes come from the
        # colex formula.  Padding changes the isolated count only.
        rng = np.random.default_rng(11)
        sizes = [1, 4, 5, 12, 30, 66] + [int(x) for x in rng.integers(1, 13, 64)]
        graphs = [random_graph(rng, n, float(rng.uniform(0.1, 0.6)))
                  for n in sizes]
        planes = np.zeros((math.comb(70, 2), 2), dtype=np.uint64)
        for i, g in enumerate(graphs):
            for u, v in g.edges:
                planes[v * (v - 1) // 2 + u, i // 64] |= np.uint64(1 << i % 64)
        got = kernel_counts(70, planes, len(graphs))
        for g, row in zip(graphs, got.tolist()):
            want = self.reference(g)
            want[0] += 70 - g.n
            assert row == want

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_graph_planes_match_the_bit_indices(self, n):
        """Plane e of the exhaustive lemma check holds bit e of each graph
        index, for whole ranges of words and for a block in the middle."""
        from depbounds.verify import _all_graph_planes

        pairs = math.comb(n, 2)
        words = -(-(1 << pairs) // 64)
        for start, count in [(0, words), (words // 3, max(1, words // 4))]:
            got = _all_graph_planes(n, start, count)
            index = 64 * start + np.arange(64 * count)
            bits = (index[:, None] >> np.arange(pairs)) & 1
            want = np.packbits(np.ascontiguousarray(bits.T, dtype=bool),
                               axis=-1, bitorder="little")
            assert np.array_equal(got, want.view("<u8"))

    def test_exhaustive_planes_count_every_graph(self):
        """All 1024 graphs on 5 vertices through the closed-form planes,
        graph i having the pair of plane e iff bit e of i is set."""
        from depbounds.verify import _all_graph_planes

        pairs = [(u, v) for v in range(5) for u in range(v)]  # colex order
        got = kernel_counts(5, _all_graph_planes(5, 0, 16), 1024)
        for i, row in enumerate(got.tolist()):
            g = Graph.from_edge_list(
                5, [pq for e, pq in enumerate(pairs) if i >> e & 1])
            assert row == self.reference(g)

    @pytest.mark.parametrize("rows", [1, 2, 3, 63, 64, 65, 1000])
    @pytest.mark.parametrize("block_rows", [1, 3, 64, 100, 4096])
    def test_vertical_count_equals_the_unpacked_sum(self, rows, block_rows,
                                                    monkeypatch):
        """The adder tree's per-bit sums of rows fed a few at a time, for
        buffers of one row, of odd sizes and of whole multiples of 64, over
        one flush or several.  The tree sums in the buffer, so the running
        sum must hold no view of it, and ``bit_counts`` must sum a copy of
        its input."""
        monkeypatch.setattr(gc, "BLOCK_BYTES", 8 * 3 * block_rows)
        rng = np.random.default_rng(rows)
        planes = rng.integers(0, 2**64, size=(rows, 3), dtype=np.uint64)
        want = np.unpackbits(planes.view(np.uint8), axis=-1,
                             bitorder="little").sum(axis=0)
        tally = gc._Tally(3, rows)
        for lo, hi in tally.spans(rows, 2):
            tally.rows(hi - lo)[...] = planes[lo:hi]
        got = tally.counts(190)
        assert got.dtype == np.int64
        assert np.array_equal(got, want[:190])
        assert not any(np.shares_memory(d, tally.buffer)
                       for d in tally.digits)
        kept = planes.copy()
        assert np.array_equal(gc.bit_counts(planes, 190), want[:190])
        assert np.array_equal(planes, kept)


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


def all_gnm_planes(n, m):
    """(edge planes, count) of all graphs on n vertices with m edges."""
    pairs = math.comb(n, 2)
    bits = np.zeros((math.comb(pairs, m), pairs), dtype=bool)
    for row, edges in zip(bits, combinations(range(pairs), m)):
        row[list(edges)] = True
    return gc.edge_planes(n, bits), len(bits)


def exact_gnm_triangle_tail(n, m, t):
    """Exact P[triangle count of G(n,m) >= t] by enumerating all graphs."""
    planes, total = all_gnm_planes(n, m)
    hits = int((gc.triangle_count(n, planes, total) >= t).sum())
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
        planes, total = all_gnm_planes(n, m)
        isolated = gc.isolated_count(n, planes, total)
        for t in range(0, n + 1):
            hits = int((isolated >= t).sum())
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
