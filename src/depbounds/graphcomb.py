"""Combinatorial lemmas and derived constants for the random-graph bounds:
triangle/4-clique edge-union lower bounds, the moment rates for G(n,p)
counting problems and the exact G(n,m) isolated-vertex tail.  The G(n,m)
bounds are in :mod:`depbounds.bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

# re-exported for callers that reach the G(n,m) bounds through this module
from .bounds import gnm_isolated_bound, gnm_triangles_bound

__all__ = [
    "Graph",
    "BLOCK_BYTES",
    "edge_planes",
    "bit_counts",
    "isolated_count",
    "odd_degree_count",
    "triangle_count",
    "clique4_count",
    "triangle_union_size",
    "clique4_union_size",
    "triangle_union_edges",
    "clique4_union_triangles",
    "gnp_rate",
    "gnm_isolated_bound",
    "gnm_triangles_bound",
    "gnm_isolated_exact_tail",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count n={self.n} is negative")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    @classmethod
    def from_edge_list(cls, n: int, pairs) -> "Graph":
        return cls(n=n, edges=frozenset((u, v) for u, v in pairs))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n=n, edges=frozenset(combinations(range(n), 2)))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n=n)

    # -- edge-list text format: header "n <count>", one "u v" per line ---

    def dumps(self) -> str:
        lines = [f"n {self.n}"]
        for u, v in sorted(self.edges):
            lines.append(f"{u} {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Graph":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("n "):
            raise ValueError('edge-list must start with a header "n <count>"')
        n = int(lines[0].split()[1])
        pairs = []
        for ln in lines[1:]:
            u, v = ln.split()
            pairs.append((int(u), int(v)))
        return cls.from_edge_list(n, pairs)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path) -> "Graph":
        with open(path) as fh:
            return cls.loads(fh.read())


# ---------------------------------------------------------------------------
# subgraph counts over a batch of graphs, 64 graphs per machine word
#
# A batch of ``size`` graphs on n vertices is held as edge planes: a
# (C(n,2), W) uint64 array, W = ceil(size / 64), with one row per vertex
# pair u < v in colex order (by v, then u: pair uv is row v(v-1)/2 + u).
# Bit r % 64 of word r // 64 of row uv says whether graph r has the edge
# uv, so one AND of two rows intersects two edges in 64 graphs per word
# (bit-slicing).  The pairs inside vertices 0..w-1 are the first C(w,2)
# rows, so a graph on fewer vertices joins a batch as a prefix, its other
# pairs zero.  The bits of graphs size..64W-1 in the last word are padding:
# every kernel takes ``size`` and counts only the graphs below it.
#
# A kernel builds one plane per candidate subgraph (a triangle's is the AND
# of its three edges' planes) and sums the planes bit by bit with a
# carry-save adder tree (``_Tally``).  It builds them in blocks of rows
# whose gathered arrays hold about BLOCK_BYTES, which stay in a core's L2
# cache next to the planes they read; the index tables it gathers by are
# built on first use and hold at most 3 C(n,3) entries.
#
# The simulate models draw their rows in blocks of about BLOCK_BYTES too
# (``block_rows``), of at least MIN_BLOCK_ROWS rows, since below that the
# fixed cost of each call (numpy dispatch, small temporaries) outweighs
# what the smaller arrays save.

BLOCK_BYTES = 1 << 19
MIN_BLOCK_ROWS = 64


def block_rows(row_bytes: int) -> int:
    """Rows per block when one row's largest array takes ``row_bytes``."""
    return max(MIN_BLOCK_ROWS, BLOCK_BYTES // max(1, row_bytes))


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=8)
def _pair_vertices(n: int) -> tuple:
    """(u, v) of every pair u < v in colex order."""
    v, u = np.tril_indices(n, -1)
    return _read_only(u, v)


@lru_cache(maxsize=8)
def _lex_rows(n: int) -> np.ndarray:
    """For each pair in colex order, its index in ``combinations(range(n),
    2)`` order."""
    u, v = _pair_vertices(n)
    return _read_only(u * (2 * n - u - 1) // 2 + v - u - 1)[0]


# the O(n^3) tables: fewer of them are kept
@lru_cache(maxsize=4)
def _triple_pairs(n: int) -> tuple:
    """(ab, ac, bc): the plane rows of the three pairs of every triple
    a < b < c in colex order, where triple abc comes at C(c,3) + row ab."""
    c = np.repeat(np.arange(n), [math.comb(c, 2) for c in range(n)])
    ab = np.arange(c.size) - c * (c - 1) * (c - 2) // 6
    a, b = (vertex[ab] for vertex in _pair_vertices(n))
    top = c * (c - 1) // 2
    return _read_only(ab, top + a, top + b)


@lru_cache(maxsize=8)
def _neighbours(n: int) -> np.ndarray:
    """(n, n) plane row of the pair {v, w}, and C(n,2), one past the last
    row, where v = w: the row of a zero plane appended to the planes."""
    v = np.arange(n)
    hi, lo = np.maximum.outer(v, v), np.minimum.outer(v, v)
    rows = hi * (hi - 1) // 2 + lo
    np.fill_diagonal(rows, math.comb(n, 2))
    return _read_only(rows)[0]


def edge_planes(n: int, bits) -> np.ndarray:
    """Edge planes of the graphs whose edge bits, in the order of
    ``combinations(range(n), 2)``, are the rows of ``bits`` (size,
    C(n,2))."""
    bits = np.asarray(bits, dtype=bool)
    size = len(bits)
    words = -(-size // 64)
    # rows of whole words make one packbits of the flat array the row-wise
    # pack, and the flat pack runs several times faster than axis=-1
    colex = bits.T[_lex_rows(n)]
    if size % 64:
        spread = np.zeros((len(colex), 64 * words), dtype=bool)
        spread[:, :size] = colex
        colex = spread
    packed = np.packbits(colex, axis=None, bitorder="little")
    return packed.view("<u8").reshape(len(colex), words)


def _add(xs: list, ys: list) -> list:
    """Sum of two bit-sliced numbers, each a list of digit arrays (lowest
    first, all of one shape): digit by digit with ripple carry."""
    if len(xs) < len(ys):
        xs, ys = ys, xs
    out, carry = [], None
    for j, x in enumerate(xs):
        y = ys[j] if j < len(ys) else None
        if y is None:
            y, carry = carry, None
        if y is None:
            out.append(x)
            continue
        s, c = x ^ y, x & y
        if carry is not None:
            c |= carry & s
            s ^= carry
        out.append(s)
        carry = c
    if carry is not None and carry.any():
        out.append(carry)
    return out


def _halve(digits: list) -> list:
    """Adds the first half of the rows of a bit-sliced number (``digits``,
    lowest first, of one even row count) to the second half in place, by
    ripple carry: returns the digits of the sum, views of half the rows of
    each input digit, and of the last one's other half for a nonzero top
    carry."""
    half = len(digits[0]) // 2
    carry = None
    out = []
    for d in digits:
        x, y = d[:half], d[half:]
        x ^= y
        y |= x
        y ^= x  # y: the old x & y
        if carry is not None:
            x ^= carry
            carry |= x
            carry ^= x  # carry & ~(the sum digit): carry & (old x ^ y)
            y |= carry
        out.append(x)
        carry = y
    if carry.any():
        out.append(carry)
    return out


def _adder_tree(planes) -> list:
    """The digits, lowest first, of the bit-sliced sum of the rows of
    ``planes`` (k >= 1 rows), which it overwrites: halves of the rows are
    added in place until one row is left, the last row of an odd count set
    aside and added at the end."""
    digits, odd = [planes], []
    while len(digits[0]) > 1:
        if len(digits[0]) % 2:
            odd.append([d[-1:] for d in digits])
            digits = [d[:-1] for d in digits]
        digits = _halve(digits)
    for rest in odd:
        digits = _add(digits, rest)
    # the digits may still be views of ``planes``, which the caller reuses
    return [d.copy() for d in digits]


def _unpack(digits: list, words: int) -> np.ndarray:
    """(64 words,) int64 values of a bit-sliced number of (1, words)
    digits."""
    count = np.zeros(64 * words, dtype=np.int64)
    for j, digit in enumerate(digits):
        bits = np.unpackbits(digit.view(np.uint8), bitorder="little")
        count += bits.astype(np.int64) << j
    return count


class _Tally:
    """Per-graph sum of the planes of a kernel's ``candidates`` subgraphs.

    ``rows(k)`` lends k rows of a buffer of about BLOCK_BYTES (or of all
    the candidates, when they take less).  When it fills up, the adder tree
    sums its rows in the buffer itself, and the sum joins a bit-sliced
    running sum, which ``counts`` unpacks once.  The rows are padded with
    zero rows to a multiple of 64, so that the tree's first six levels
    halve an even number of rows.
    """

    def __init__(self, words: int, candidates: int):
        self.block = max(1, BLOCK_BYTES // (8 * words))
        self.capacity = min(self.block, -(-candidates // 64) * 64)
        self.buffer = np.empty((self.capacity, words), dtype=np.uint64)
        self.used = 0
        self.digits = []

    def spans(self, rows: int, width: int = 1) -> list:
        """(lo, hi) pieces of range(rows), each with ``width`` gathered
        rows per candidate fitting the buffer."""
        step = max(1, self.block // width)
        return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]

    def rows(self, k: int) -> np.ndarray:
        if self.used + k > self.capacity:
            self._flush()
        self.used += k
        return self.buffer[self.used - k : self.used]

    def _flush(self):
        if self.used:
            rows = min(self.capacity, -(-self.used // 64) * 64)
            self.buffer[self.used : rows] = 0
            self.digits = _add(self.digits, _adder_tree(self.buffer[:rows]))
            self.used = 0

    def counts(self, size: int) -> np.ndarray:
        self._flush()
        return _unpack(self.digits, self.buffer.shape[1])[:size]


def _triangles(planes, ab, ac, bc, out):
    """Planes of the triples with pair rows ``ab``, ``ac``, ``bc``: set
    where all three pairs are edges."""
    np.take(planes, ab, axis=0, out=out)
    out &= np.take(planes, ac, axis=0)
    out &= np.take(planes, bc, axis=0)


def _with_zero_row(planes) -> np.ndarray:
    """The planes with a zero plane appended, the row ``_neighbours`` gives
    the pairs {v, v}."""
    return np.concatenate([planes, np.zeros((1, planes.shape[1]), np.uint64)])


def _vertex_count(n, planes, size, reduce, invert=False):
    """Per graph, the number of vertices whose incident planes ``reduce``
    (a ufunc) sets a bit for, or leaves it clear with ``invert``.  The
    pairs uw with u < w are the w rows from C(w,2) on, so each w adds one
    slice of the planes into vertex w and, row by row, into u = 0..w-1."""
    reduced = np.zeros((n, planes.shape[1]), dtype=np.uint64)
    for w in range(1, n):
        below = planes[w * (w - 1) // 2 : w * (w + 1) // 2]
        reduce.reduce(below, axis=0, out=reduced[w])
        reduce(reduced[:w], below, out=reduced[:w])
    if invert:
        np.invert(reduced, out=reduced)
    return bit_counts(reduced, size)


def bit_counts(planes, size: int) -> np.ndarray:
    """Per replication r < size, the number of rows of ``planes`` (k, W)
    whose bit r is set."""
    tally = _Tally(planes.shape[1], len(planes))
    for lo, hi in tally.spans(len(planes)):
        tally.rows(hi - lo)[...] = planes[lo:hi]
    return tally.counts(size)


def isolated_count(n: int, planes, size: int) -> np.ndarray:
    """Isolated vertices of each graph: NOT of the OR of the incident
    planes."""
    return _vertex_count(n, planes, size, np.bitwise_or, invert=True)


def odd_degree_count(n: int, planes, size: int) -> np.ndarray:
    """Odd-degree vertices of each graph: the XOR of the incident planes."""
    return _vertex_count(n, planes, size, np.bitwise_xor)


def triangle_count(n: int, planes, size: int) -> np.ndarray:
    """Triangles of each graph: P[uv] & P[uw] & P[vw] over all triples."""
    ab, ac, bc = _triple_pairs(n)
    tally = _Tally(planes.shape[1], len(ab))
    for lo, hi in tally.spans(len(ab)):
        _triangles(planes, ab[lo:hi], ac[lo:hi], bc[lo:hi], tally.rows(hi - lo))
    return tally.counts(size)


def clique4_count(n: int, planes, size: int) -> np.ndarray:
    """4-cliques of each graph, by their largest vertex x: the triangles of
    the link of x, the graph on 0..x-1 whose edges uv make a triangle uvx.
    The link's planes are the triangle planes of the triples with largest
    vertex x, rows C(x,3) on, one per pair below x in pair order."""
    words = planes.shape[1]
    tally = _Tally(words, math.comb(n, 4))
    ab, ac, bc = _triple_pairs(n)
    for x in range(3, n):
        first, pairs = math.comb(x, 3), math.comb(x, 2)
        link = np.empty((pairs, words), dtype=np.uint64)
        for lo, hi in tally.spans(pairs):
            rows = slice(first + lo, first + hi)
            _triangles(planes, ab[rows], ac[rows], bc[rows], link[lo:hi])
        for lo, hi in tally.spans(first):
            _triangles(link, ab[lo:hi], ac[lo:hi], bc[lo:hi], tally.rows(hi - lo))
    return tally.counts(size)


def triangle_union_size(n: int, planes, size: int) -> np.ndarray:
    """Edge count of the union of each graph's triangles' edge sets: the
    edges uv with P[uw] & P[vw] set for some third vertex w, the OR over
    all w with a zero plane standing in for the pairs {u, u}, {v, v}."""
    u, v = _pair_vertices(n)
    tally = _Tally(planes.shape[1], len(u))
    padded, neighbours = _with_zero_row(planes), _neighbours(n)
    for lo, hi in tally.spans(len(u), n):
        common = np.take(padded, neighbours[:, u[lo:hi]], axis=0)
        common &= np.take(padded, neighbours[:, v[lo:hi]], axis=0)
        out = tally.rows(hi - lo)
        np.bitwise_or.reduce(common, axis=0, out=out)
        out &= planes[lo:hi]
    return tally.counts(size)


def clique4_union_size(n: int, planes, size: int) -> np.ndarray:
    """Triangle count of the union of each graph's 4-cliques' triangle
    sets: the triangles abc with P[ax] & P[bx] & P[cx] set for some fourth
    vertex x, the OR over all x with a zero plane for x in abc."""
    ab, ac, bc = _triple_pairs(n)
    u, v = _pair_vertices(n)
    tally = _Tally(planes.shape[1], len(ab))
    padded, neighbours = _with_zero_row(planes), _neighbours(n)
    for lo, hi in tally.spans(len(ab), n):
        rows = slice(lo, hi)
        common = np.take(padded, neighbours[:, u[ab[rows]]], axis=0)
        common &= np.take(padded, neighbours[:, v[ab[rows]]], axis=0)
        common &= np.take(padded, neighbours[:, v[ac[rows]]], axis=0)
        out = tally.rows(hi - lo)
        _triangles(planes, ab[rows], ac[rows], bc[rows], out)
        out &= np.bitwise_or.reduce(common, axis=0)
    return tally.counts(size)


# ---------------------------------------------------------------------------
# extremal lemmas


def _one_graph_planes(g: Graph) -> np.ndarray:
    """Edge planes of the one-graph batch ``g``."""
    return edge_planes(g.n, [[pq in g.edges for pq in combinations(range(g.n), 2)]])


def triangle_union_edges(g: Graph) -> tuple:
    """(triangle count j, edge count of the union of triangle edge-sets).

    The union always carries at least 3j/(n-2) edges.
    """
    if g.n < 3:
        raise ValueError(f"need n >= 3, got {g.n}")
    planes = _one_graph_planes(g)
    return (int(triangle_count(g.n, planes, 1)[0]),
            int(triangle_union_size(g.n, planes, 1)[0]))


def clique4_union_triangles(g: Graph) -> tuple:
    """(4-clique count k, triangle count of the union of their triangle sets).

    The union always carries at least 4k/(n-3) triangles.
    """
    if g.n < 4:
        raise ValueError(f"need n >= 4, got {g.n}")
    planes = _one_graph_planes(g)
    return (int(clique4_count(g.n, planes, 1)[0]),
            int(clique4_union_size(g.n, planes, 1)[0]))


# ---------------------------------------------------------------------------
# G(n,p) rates and G(n,m) exact bounds


def gnp_rate(kind: str, n: int, p: float) -> tuple:
    """(count N, rate gamma) of the G(n,p) counting bounds.

    'isolated':  N = n,       gamma = (1-p)^((n-1)/2)
    'triangles': N = C(n,3),  gamma = p^(3/(n-2))
    'cliques4':  N = C(n,4),  gamma = p^(12/((n-2)(n-3)))
    """
    if kind not in ("isolated", "triangles", "cliques4"):
        raise ValueError(f"unknown kind {kind!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    least = 4 if kind == "cliques4" else 3
    if n < least:
        raise ValueError(f"need n >= {least}")
    if kind == "isolated":
        return n, (1.0 - p) ** ((n - 1) / 2.0)
    if kind == "triangles":
        return math.comb(n, 3), p ** (3.0 / (n - 2))
    return math.comb(n, 4), p ** (12.0 / ((n - 2) * (n - 3)))


def _graphs_no_isolated(r: int, m: int) -> int:
    """Number of labelled graphs on r vertices with m edges, no isolated vertex."""
    total = 0
    for i in range(r + 1):
        pairs = math.comb(r - i, 2)
        if pairs < m:
            continue
        total += (-1) ** i * math.comb(r, i) * math.comb(pairs, m)
    return total


def gnm_isolated_exact_tail(n: int, m: int, t: int) -> Fraction:
    """Exact P[isolated vertices in G(n,m) >= t] by inclusion-exclusion."""
    denom = math.comb(math.comb(n, 2), m)
    count = 0
    for j in range(t, n + 1):
        count += math.comb(n, j) * _graphs_no_isolated(n - j, m)
    return Fraction(count, denom)
