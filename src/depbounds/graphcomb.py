"""Combinatorial lemmas and derived constants for the random-graph bounds:
triangle/4-clique edge-union lower bounds, exact independence number, the
moment rates for G(n,p) counting problems and the exact G(n,m) bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .bounds import TailBound, _clamp, _invalid, check_n
from .numkernel import NEG_INF

MAX_EXACT_MIS_N = 30

__all__ = [
    "Graph",
    "neighbour_masks",
    "edge_masks",
    "isolated_count",
    "triangle_count",
    "clique4_count",
    "triangle_union_edges",
    "clique4_union_triangles",
    "independence_number",
    "gnp_constants",
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


def neighbour_masks(adj) -> np.ndarray:
    """Neighbour masks of boolean adjacency matrices of shape (..., n, n)."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[-1]
    packed = np.packbits(adj, axis=-1, bitorder="little")
    pad = [(0, 0)] * (adj.ndim - 1) + [(0, -(-n // 64) * 8 - packed.shape[-1])]
    return np.pad(packed, pad).view("<u8")


def edge_masks(n: int, bits) -> np.ndarray:
    """Neighbour masks of graphs given as edge bits of shape (..., C(n,2)),
    in the order of ``combinations(range(n), 2)``."""
    bits = np.asarray(bits, dtype=bool)
    # adjacency entry (u, v) is padded[1 + index of edge uv] and the
    # diagonal reads padded[0], which is False; np.take returns a C-ordered
    # array (fancy indexing would not), which packbits reads several times
    # faster
    u, v = np.triu_indices(n, 1)
    source = np.zeros((n, n), dtype=np.intp)
    source[u, v] = source[v, u] = np.arange(1, len(u) + 1)
    padded = np.zeros(bits.shape[:-1] + (len(u) + 1,), dtype=bool)
    padded[..., 1:] = bits
    return neighbour_masks(np.take(padded, source, axis=-1))


def _codegrees(masks):
    """Common-neighbour masks of every vertex pair (v, u), u < v, that is an
    edge, and zero masks for the other pairs.  Pairs are ordered by v then
    u, so the pairs inside vertices 0..w-1 come first."""
    n, words = masks.shape[-2:]
    vertex = neighbour_masks(np.eye(n, dtype=bool))  # the one-vertex masks
    common = np.empty(masks.shape[:-2] + (n * (n - 1) // 2, words), np.uint64)
    for v in range(1, n):
        row = masks[..., v, None, :]
        block = common[..., v * (v - 1) // 2: v * (v + 1) // 2, :]
        np.bitwise_and(row, masks[..., :v, :], out=block)
        block *= (row & vertex[:v]).any(axis=-1)[..., None]
    return common


def _set_bits(masks) -> np.ndarray:
    """Total set bits over the last two axes, (..., k, W) -> (...)."""
    return np.bitwise_count(masks).sum(axis=(-2, -1), dtype=np.int64)


def isolated_count(masks) -> np.ndarray:
    """Number of isolated vertices (all-zero rows) of each graph."""
    return (~masks.any(axis=-1)).sum(axis=-1)


def triangle_count(masks) -> tuple:
    """(triangle count, edge count of the union of the triangles' edge
    sets) of each graph.

    An edge lies in codegree-many triangles, so the triangle count is the
    codegree sum over edges divided by 3, and the union holds the edges of
    positive codegree.
    """
    common = _codegrees(masks)
    return _set_bits(common) // 3, common.any(axis=-1).sum(axis=-1)


def clique4_count(masks) -> tuple:
    """(4-clique count, triangle count of the union of the 4-cliques'
    triangle sets) of each graph.

    A triangle lies in as many 4-cliques as it has common neighbours, so
    the 4-clique count is the sum of those over triangles divided by 4, and
    the union holds the triangles with a common neighbour.  Triangles are
    visited by their largest vertex w, one vertex at a time.
    """
    n = masks.shape[-2]
    vertex = neighbour_masks(np.eye(n, dtype=bool))
    common = _codegrees(masks)
    count = np.zeros(masks.shape[:-2], dtype=np.int64)
    union = np.zeros(masks.shape[:-2], dtype=np.int64)
    for w in range(2, n):
        pair = common[..., : w * (w - 1) // 2, :]  # the pairs u < v < w
        # common neighbours of u, v and w, kept where uvw is a triangle
        extend = pair & masks[..., w, None, :]
        extend *= (pair & vertex[w]).any(axis=-1)[..., None]
        count += _set_bits(extend)
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


def gnp_constants(kind: str, n: int, p: float) -> float:
    """Rate gamma for the G(n,p) counting bounds.

    'isolated':  gamma = (1-p)^((n-1)/2),  count N = n
    'triangles': gamma = p^(3/(n-2)),      count N = C(n,3)
    'cliques4':  gamma = p^(12/((n-2)(n-3))), count N = C(n,4)
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    if kind == "isolated":
        if n < 3:
            raise ValueError("need n >= 3")
        return (1.0 - p) ** ((n - 1) / 2.0)
    if kind == "triangles":
        if n < 3:
            raise ValueError("need n >= 3")
        return p ** (3.0 / (n - 2))
    if kind == "cliques4":
        if n < 4:
            raise ValueError("need n >= 4")
        return p ** (12.0 / ((n - 2) * (n - 3)))
    raise ValueError(f"unknown kind {kind!r}")


def gnp_count(kind: str, n: int) -> int:
    """Number of summands N for each G(n,p) counting bound."""
    if kind == "isolated":
        return n
    if kind == "triangles":
        return math.comb(n, 3)
    if kind == "cliques4":
        return math.comb(n, 4)
    raise ValueError(f"unknown kind {kind!r}")


def _log_fraction(frac: Fraction) -> float:
    if frac == 0:
        return NEG_INF
    return math.log(frac.numerator) - math.log(frac.denominator)


def gnm_isolated_bound(n: int, m: int, t: int) -> TailBound:
    """Tail bound on the number of isolated vertices in G(n,m).

    min over 0<k<t of C(n,k) C(C(n-k,2), m) / (C(t,k) C(C(n,2), m)),
    evaluated in exact rational arithmetic.
    """
    method = "gnm-isolated"
    if bad := check_n(method, n, t):
        return bad
    if not 1 <= t <= n:
        return _invalid(method, "t outside [1, n]")
    if m > math.comb(n, 2) or m < 0:
        return _invalid(method, "m outside [0, C(n,2)]")
    if t == 1:
        return _invalid(method, "t too small: empty minimization range")
    denom_graphs = math.comb(math.comb(n, 2), m)
    best, best_k = None, None
    for k in range(1, t):
        pairs_left = math.comb(n - k, 2)
        if pairs_left < m:
            term = Fraction(0)
        else:
            term = Fraction(
                math.comb(n, k) * math.comb(pairs_left, m),
                math.comb(t, k) * denom_graphs,
            )
        if best is None or term < best:
            best, best_k = term, k
    params = {"k": best_k}
    return TailBound(method, _clamp(_log_fraction(best), params), params)


def gnm_triangles_bound(n: int, m: int, t: int) -> TailBound:
    """Tail bound on the number of triangles in G(n,m).

    min over 0<k<t of
    C(C(n,3),k) C(C(n,2)-floor(3k/(n-2)), m-floor(3k/(n-2)))
      / (C(t,k) C(C(n,2), m)),
    exact rational arithmetic, floor exactly as displayed.
    """
    method = "gnm-triangles"
    if bad := check_n(method, n, t):
        return bad
    n3 = math.comb(n, 3)
    if not 2 <= t <= n3:
        return _invalid(method, "t outside {2,...,C(n,3)}")
    if m > math.comb(n, 2) or m < 0:
        return _invalid(method, "m outside [0, C(n,2)]")
    n2 = math.comb(n, 2)
    denom_graphs = math.comb(n2, m)
    best, best_k = None, None
    for k in range(1, t):
        forced = (3 * k) // (n - 2)
        if m < forced:
            # no m-edge graph contains the forced edges
            term = Fraction(0)
        else:
            term = Fraction(
                math.comb(n3, k) * math.comb(n2 - forced, m - forced),
                math.comb(t, k) * denom_graphs,
            )
        if best is None or term < best:
            best, best_k = term, k
    params = {"k": best_k}
    return TailBound(method, _clamp(_log_fraction(best), params), params)


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
