"""Combinatorial lemmas and derived constants for the random-graph bounds:
triangle/4-clique edge-union lower bounds, exact independence number, the
moment rates for G(n,p) counting problems and the exact G(n,m) isolated-
vertex tail.  The G(n,m) bounds are in :mod:`depbounds.bounds`.
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

MAX_EXACT_MIS_N = 30

__all__ = [
    "Graph",
    "neighbour_masks",
    "edge_masks",
    "BLOCK_BYTES",
    "isolated_count",
    "triangle_count",
    "clique4_count",
    "triangle_union_edges",
    "clique4_union_triangles",
    "independence_number",
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

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=bool)
        for u, v in self.edges:
            a[u, v] = a[v, u] = True
        return a

    def neighbor_masks(self) -> list:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

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
# subgraph counts over a batch of graphs
#
# A batch of graphs on n vertices is held as neighbour masks: a (..., n, W)
# uint64 array, W = ceil(n / 64), whose row v is the little-endian
# ``np.packbits`` of row v of the adjacency matrix, so bit u % 64 of word
# u // 64 says whether u ~ v.  Graphs of different sizes share a batch by
# padding with isolated vertices, which no triangle or clique touches.
#
# Callers split large batches into blocks of graphs whose largest array
# holds about BLOCK_BYTES, and may pass every kernel of a block one
# ``scratch`` dict.  The kernels then write their arrays into buffers kept
# in it (see _buffer), so a caller that reuses the dict for block after
# block allocates no large array once the first block has grown them.
# All of a block's arrays then stay allocated together: its uniforms, edge
# bits, adjacency and masks and two or three codegree-sized arrays, three
# to six times its largest array (a chunk of the simulate models peaks at
# 2.8-5.6 BLOCK_BYTES).  BLOCK_BYTES sizes the largest array so that this
# whole working set, 1.4-2.8 MiB, stays near a core's 2 MiB L2 cache.  A
# block keeps at least MIN_BLOCK_ROWS rows, since below that the fixed cost
# of each call (numpy dispatch, small temporaries) outweighs what the
# smaller arrays save.

BLOCK_BYTES = 1 << 19
MIN_BLOCK_ROWS = 64


def block_rows(row_bytes: int) -> int:
    """Rows per block when one row's largest array takes ``row_bytes``."""
    return max(MIN_BLOCK_ROWS, BLOCK_BYTES // max(1, row_bytes))


def edge_bytes(n: int, size: int, codegrees: bool = False) -> int:
    """Bytes of the (size, C(n,2)) float64 edge uniforms of ``size`` graphs
    on n vertices, or with ``codegrees`` of their (size, C(n,2),
    ceil(n/64)) uint64 codegree masks, the largest array of the triangle
    and 4-clique kernels."""
    return 8 * size * math.comb(n, 2) * (-(-n // 64) if codegrees else 1)


def _buffer(scratch, key, shape, dtype) -> np.ndarray:
    """An uninitialised array of ``shape`` and ``dtype``: a view of the
    buffer ``scratch[key]``, grown when it is too small, or a new array
    when ``scratch`` is None.  Views of one key alias each other, so a
    kernel gives every array it still reads its own key."""
    if scratch is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buf = scratch.get(key)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = scratch[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


@lru_cache(maxsize=8)
def _edge_source(n: int) -> np.ndarray:
    """(n, 8 ceil(n/8)) index of adjacency entry (u, v) into the edge bits
    with a False entry prepended: 1 + the index of edge uv, and 0 on the
    diagonal and in the columns that fill each row to whole bytes."""
    u, v = np.triu_indices(n, 1)
    source = np.zeros((n, -(-n // 8) * 8), dtype=np.intp)
    source[u, v] = source[v, u] = np.arange(1, len(u) + 1)
    source.flags.writeable = False
    return source


@lru_cache(maxsize=8)
def _pairs(n: int) -> tuple:
    """(v, u, word, shift) of the vertex pairs u < v, ordered by v then u:
    the pair's two vertices, and the flat (v, u // 64) index into a graph's
    (n, W) masks and the bit u % 64 there that says whether uv is an
    edge."""
    words = -(-n // 64)
    v, u = np.tril_indices(n, -1)
    pairs = (v, u, v * words + u // 64, (u % 64).astype(np.uint64))
    for index in pairs:
        index.flags.writeable = False
    return pairs


def neighbour_masks(adj, scratch=None) -> np.ndarray:
    """Neighbour masks of boolean adjacency matrices of shape (..., n, n).
    Rows may carry False columns past n, up to a whole number of bytes."""
    adj = np.asarray(adj, dtype=bool)
    n, width = adj.shape[-2:]
    nbytes = -(-n // 8)
    if width < 8 * nbytes:
        filled = np.zeros(adj.shape[:-1] + (8 * nbytes,), dtype=bool)
        filled[..., :width] = adj
        adj = filled
    # rows of whole bytes make one packbits of the flat array the row-wise
    # pack, and the flat pack runs several times faster than axis=-1
    words = _buffer(scratch, "words", adj.shape[:-1] + (-(-n // 64) * 8,),
                    np.uint8)
    words[..., nbytes:] = 0
    words[..., :nbytes] = np.packbits(adj, axis=None, bitorder="little").reshape(
        adj.shape[:-1] + (nbytes,)
    )
    return words.view("<u8")


def edge_masks(n: int, bits, scratch=None) -> np.ndarray:
    """Neighbour masks of graphs given as edge bits of shape (..., C(n,2)),
    in the order of ``combinations(range(n), 2)``."""
    bits = np.asarray(bits, dtype=bool)
    # adjacency entry (u, v) is padded[_edge_source(n)[u, v]]; np.take
    # returns a C-ordered array (fancy indexing would not), which packbits
    # reads several times faster; mode="clip" writes straight into ``out``
    # where mode="raise" would fill a temporary first
    source = _edge_source(n)
    padded = _buffer(scratch, "padded", bits.shape[:-1] + (bits.shape[-1] + 1,),
                     bool)
    padded[..., 0] = False
    padded[..., 1:] = bits
    adj = _buffer(scratch, "adjacency", bits.shape[:-1] + source.shape, bool)
    np.take(padded, source, axis=-1, out=adj, mode="clip")
    return neighbour_masks(adj, scratch)


def _codegrees(masks, scratch=None):
    """Common-neighbour masks of every vertex pair (v, u), u < v, that is an
    edge, and zero masks for the other pairs, as little-endian words.
    Pairs are ordered by v then u, so the pairs inside vertices 0..w-1
    come first."""
    n, words = masks.shape[-2:]
    v, u, word, shift = _pairs(n)
    shape = masks.shape[:-2] + (len(v), words)
    common = _buffer(scratch, "common", shape, np.dtype("<u8"))
    np.take(masks, u, axis=-2, out=common, mode="clip")
    rows_v = np.take(masks, v, axis=-2, mode="clip",
                     out=_buffer(scratch, "gather", shape, np.uint64))
    common &= rows_v
    # bit u of row v, 1 where uv is an edge and 0 elsewhere, gathered into
    # the buffer of rows_v, which is no longer read
    edge = np.take(masks.reshape(masks.shape[:-2] + (n * words,)), word,
                   axis=-1, mode="clip",
                   out=_buffer(scratch, "gather", shape[:-1], np.uint64))
    np.right_shift(edge, shift, out=edge)
    edge &= np.uint64(1)
    common *= edge[..., None]
    return common


def _set_bits(masks, scratch=None) -> np.ndarray:
    """Total set bits over the last two axes, (..., k, W) -> (...)."""
    counts = _buffer(scratch, "bit_counts", masks.shape, np.uint8)
    return np.bitwise_count(masks, out=counts).sum(axis=(-2, -1), dtype=np.int64)


def isolated_count(masks) -> np.ndarray:
    """Number of isolated vertices (all-zero rows) of each graph."""
    return (~masks.any(axis=-1)).sum(axis=-1)


def triangle_count(masks, scratch=None) -> tuple:
    """(triangle count, edge count of the union of the triangles' edge
    sets) of each graph.

    An edge lies in codegree-many triangles, so the triangle count is the
    codegree sum over edges divided by 3, and the union holds the edges of
    positive codegree.
    """
    common = _codegrees(masks, scratch)
    return _set_bits(common, scratch) // 3, common.any(axis=-1).sum(axis=-1)


def clique4_count(masks, scratch=None) -> tuple:
    """(4-clique count, triangle count of the union of the 4-cliques'
    triangle sets) of each graph.

    A triangle lies in as many 4-cliques as it has common neighbours, so
    the 4-clique count is the sum of those over triangles divided by 4, and
    the union holds the triangles with a common neighbour.  Triangles are
    visited by their largest vertex w, one vertex at a time.
    """
    n = masks.shape[-2]
    common = _codegrees(masks, scratch)
    count = np.zeros(masks.shape[:-2], dtype=np.int64)
    union = np.zeros(masks.shape[:-2], dtype=np.int64)
    for w in range(2, n):
        pair = common[..., : w * (w - 1) // 2, :]  # the pairs u < v < w
        # common neighbours of u, v and w, kept where uvw is a triangle,
        # that is where bit w of the pair's common neighbours is set: bit
        # w % 8 of byte w // 8 of the little-endian words
        extend = _buffer(scratch, "extend", pair.shape, np.uint64)
        np.bitwise_and(pair, masks[..., w, None, :], out=extend)
        triangle = pair.view(np.uint8)[..., w // 8] >> np.uint8(w % 8)
        triangle &= np.uint8(1)
        extend *= triangle[..., None]
        count += _set_bits(extend, scratch)
        union += extend.any(axis=-1).sum(axis=-1)
    return count // 4, union


# ---------------------------------------------------------------------------
# extremal lemmas


def triangle_union_edges(g: Graph) -> tuple:
    """(triangle count j, edge count of the union of triangle edge-sets).

    The union always carries at least 3j/(n-2) edges.
    """
    if g.n < 3:
        raise ValueError(f"need n >= 3, got {g.n}")
    j, r = triangle_count(neighbour_masks(g.adjacency()))
    return int(j), int(r)


def clique4_union_triangles(g: Graph) -> tuple:
    """(4-clique count k, triangle count of the union of their triangle sets).

    The union always carries at least 4k/(n-3) triangles.
    """
    if g.n < 4:
        raise ValueError(f"need n >= 4, got {g.n}")
    k, r = clique4_count(neighbour_masks(g.adjacency()))
    return int(k), int(r)


# ---------------------------------------------------------------------------
# independence number


def independence_number(g: Graph) -> int:
    """Exact maximum independent-set size by branch and bound.

    Branches on a maximum-degree vertex of the remaining subgraph and
    prunes with the trivial remaining-vertex-count upper bound.
    """
    if g.n > MAX_EXACT_MIS_N:
        raise ValueError(f"exact search capped at n={MAX_EXACT_MIS_N}, got {g.n}")
    masks = g.neighbor_masks()
    full = (1 << g.n) - 1

    # greedy start: repeatedly take a minimum-degree vertex
    best = 0
    avail = full
    while avail:
        cands = [v for v in range(g.n) if avail >> v & 1]
        v = min(cands, key=lambda u: bin(masks[u] & avail).count("1"))
        best += 1
        avail &= ~(masks[v] | (1 << v))

    def search(avail: int, size: int):
        nonlocal best
        count = bin(avail).count("1")
        if size + count <= best:
            return
        if count == 0:
            best = max(best, size)
            return
        cands = [v for v in range(g.n) if avail >> v & 1]
        v = max(cands, key=lambda u: bin(masks[u] & avail).count("1"))
        if masks[v] & avail == 0:
            # isolated in the remaining subgraph: always take it
            search(avail & ~(1 << v), size + 1)
            return
        search(avail & ~(masks[v] | (1 << v)), size + 1)
        search(avail & ~(1 << v), size)

    search(full, 0)
    return best


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
