"""Monte Carlo generators for the dependence models and an empirical tail
estimator with exact binomial confidence intervals.

Reproducibility contract: every sampler takes an explicit seed, and
``empirical_tail`` derives an independent child stream for each fixed-size
chunk of replications from (seed, chunk index).  The result is therefore a
pure function of (model, t, reps, seed), identical for any degree of
parallelism.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.special import betaincinv

from .graphcomb import (
    Graph,
    count_4cliques,
    count_isolated,
    count_triangles,
)

CHUNK_SIZE = 4096
CI_LEVEL = 0.999

__all__ = [
    "SimResult",
    "GnpIsolated",
    "GnpTriangles",
    "Gnp4Cliques",
    "GnmIsolated",
    "GnmTriangles",
    "OrientationParity",
    "DegreeParity",
    "MartingaleDiff",
    "UStat",
    "sample_gnp",
    "sample_gnm",
    "sample_orientation_parity",
    "sample_martingale_diff",
    "sample_ustat",
    "empirical_tail",
    "exact_binomial_ci",
    "MDS_KERNELS",
]


# ---------------------------------------------------------------------------
# single-draw samplers


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
    )


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """One Erdos-Renyi G(n,p) draw; independent edge indicators."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p outside [0,1]: {p}")
    rng = np.random.default_rng(seed)
    pairs = list(combinations(range(n), 2))
    bits = rng.random(len(pairs)) < p
    return Graph.from_edge_list(n, [e for e, b in zip(pairs, bits) if b])


def sample_gnm(n: int, m: int, seed: int) -> Graph:
    """One uniform draw among labelled graphs with n vertices and m edges."""
    pairs = list(combinations(range(n), 2))
    if not 0 <= m <= len(pairs):
        raise ValueError(f"m={m} outside [0, {len(pairs)}]")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=m, replace=False)
    return Graph.from_edge_list(n, [pairs[i] for i in chosen])


def sample_orientation_parity(g: Graph, seed: int) -> np.ndarray:
    """In-degree parities after orienting every edge uniformly at random."""
    rng = np.random.default_rng(seed)
    indeg = np.zeros(g.n, dtype=np.int64)
    edges = sorted(g.edges)
    flips = rng.random(len(edges)) < 0.5
    for (u, v), flip in zip(edges, flips):
        indeg[v if not flip else u] += 1
    return indeg % 2


# -- martingale difference kernels ------------------------------------------


def _mds_independent_centered(rng, n, p_vec):
    bits = rng.random(n) < p_vec
    return bits.astype(float) - p_vec


def _mds_polya_style(rng, n, p_vec):
    """Dependent martingale differences with exact range constraints.

    Step i takes value kappa_i*(1-pi_i) with probability pi_i and
    -kappa_i*pi_i otherwise, where pi_i is an urn fraction of the past
    up-moves mapped into [0.2, 0.8].  The conditional mean is identically
    zero and kappa_i is sized so -p_i <= Y_i <= 1-p_i holds surely.
    """
    y = np.empty(n)
    ups = 0
    for i in range(n):
        pi = 0.2 + 0.6 * (1 + ups) / (2 + i)
        kappa = min(p_vec[i], 1.0 - p_vec[i]) / 0.8
        up = rng.random() < pi
        y[i] = kappa * (1.0 - pi) if up else -kappa * pi
        ups += int(up)
    return y


MDS_KERNELS = {
    "independent-centered": _mds_independent_centered,
    "polya-style": _mds_polya_style,
}


def sample_martingale_diff(n: int, p_vector, kernel: str, seed: int) -> np.ndarray:
    """One martingale-difference trajectory with -p_i <= Y_i <= 1-p_i surely."""
    p_vec = np.asarray(p_vector, dtype=float)
    if p_vec.shape != (n,):
        raise ValueError(f"p_vector must have length {n}")
    if np.any(p_vec <= 0.0) or np.any(p_vec >= 1.0):
        raise ValueError("all p_i must lie strictly inside (0,1)")
    try:
        fn = MDS_KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel!r}; available: {sorted(MDS_KERNELS)}"
        ) from None
    return fn(np.random.default_rng(seed), n, p_vec)


# -- U-statistic kernels ----------------------------------------------------


def _ustat_tuples(n: int, d: int) -> np.ndarray:
    return np.array(list(combinations(range(n), d)), dtype=np.int64)


def _ustat_value(u: np.ndarray, d: int, kernel: str, **kw) -> float:
    tuples = _ustat_tuples(len(u), d)
    if kernel == "all-below":
        mask = u <= kw["c"]
        return float(np.all(mask[tuples], axis=1).sum())
    if kernel == "threshold-sum":
        return float((u[tuples].sum(axis=1) >= kw["theta"]).sum())
    raise ValueError(f"unknown U-statistic kernel {kernel!r}")


def sample_ustat(n: int, d: int, kernel: str, base: str, seed: int, **kw) -> float:
    """One U-statistic realization X = sum over d-subsets of F(xi_(i1..id)).

    Kernels on the 'uniform' base: 'all-below' (F = prod 1[u_i <= c],
    mean c^d) and 'threshold-sum' (F = 1[sum u >= theta]).  The
    'triangle-indicator' kernel runs directly on a G(n, p) graph with
    d = 3 potential edges per vertex triple; X is its triangle count.
    """
    if n % d != 0:
        raise ValueError(f"d={d} does not divide n={n}")
    rng = np.random.default_rng(seed)
    if kernel == "triangle-indicator":
        if base != "gnp":
            raise ValueError("triangle-indicator requires the 'gnp' base")
        g = sample_gnp(n, kw["p"], seed)
        return float(count_triangles(g))
    if base != "uniform":
        raise ValueError(f"unknown base distribution {base!r}")
    return _ustat_value(rng.random(n), d, kernel, **kw)


# ---------------------------------------------------------------------------
# models with vectorized batch statistics


def _pair_index(n: int):
    pairs = list(combinations(range(n), 2))
    idx = {e: i for i, e in enumerate(pairs)}
    return pairs, idx


def _edge_bits_stat_gnp(n, p, rng, size, stat):
    e = math.comb(n, 2)
    bits = rng.random((size, e)) < p
    return stat(n, bits)


def _edge_bits_stat_gnm(n, m, rng, size, stat):
    e = math.comb(n, 2)
    order = np.argsort(rng.random((size, e)), axis=1)
    bits = np.zeros((size, e), dtype=bool)
    rows = np.repeat(np.arange(size), m)
    bits[rows, order[:, :m].ravel()] = True
    return stat(n, bits)


def _stat_isolated(n, bits):
    pairs, _ = _pair_index(n)
    inc = np.zeros((len(pairs), n), dtype=np.int64)
    for i, (u, v) in enumerate(pairs):
        inc[i, u] = inc[i, v] = 1
    deg = bits.astype(np.int64) @ inc
    return (deg == 0).sum(axis=1).astype(float)


def _stat_triangles(n, bits):
    _, idx = _pair_index(n)
    total = np.zeros(bits.shape[0], dtype=np.int64)
    for (u, v, w) in combinations(range(n), 3):
        total += bits[:, idx[(u, v)]] & bits[:, idx[(u, w)]] & bits[:, idx[(v, w)]]
    return total.astype(float)


def _stat_4cliques(n, bits):
    _, idx = _pair_index(n)
    total = np.zeros(bits.shape[0], dtype=np.int64)
    for quad in combinations(range(n), 4):
        present = np.ones(bits.shape[0], dtype=bool)
        for e in combinations(quad, 2):
            present &= bits[:, idx[e]]
        total += present
    return total.astype(float)


@dataclass(frozen=True)
class GnpIsolated:
    n: int
    p: float

    def batch(self, rng, size):
        return _edge_bits_stat_gnp(self.n, self.p, rng, size, _stat_isolated)


@dataclass(frozen=True)
class GnpTriangles:
    n: int
    p: float

    def batch(self, rng, size):
        return _edge_bits_stat_gnp(self.n, self.p, rng, size, _stat_triangles)


@dataclass(frozen=True)
class Gnp4Cliques:
    n: int
    p: float

    def batch(self, rng, size):
        return _edge_bits_stat_gnp(self.n, self.p, rng, size, _stat_4cliques)


@dataclass(frozen=True)
class GnmIsolated:
    n: int
    m: int

    def batch(self, rng, size):
        return _edge_bits_stat_gnm(self.n, self.m, rng, size, _stat_isolated)


@dataclass(frozen=True)
class GnmTriangles:
    n: int
    m: int

    def batch(self, rng, size):
        return _edge_bits_stat_gnm(self.n, self.m, rng, size, _stat_triangles)


@dataclass(frozen=True)
class OrientationParity:
    """Sum of in-degree parities under a uniform random orientation."""

    graph: Graph

    def batch(self, rng, size):
        edges = sorted(self.graph.edges)
        flips = rng.random((size, len(edges))) < 0.5
        indeg = np.zeros((size, self.graph.n), dtype=np.int64)
        for j, (u, v) in enumerate(edges):
            indeg[:, v] += ~flips[:, j]
            indeg[:, u] += flips[:, j]
        return (indeg % 2).sum(axis=1).astype(float)


@dataclass(frozen=True)
class DegreeParity:
    """Sum of degree parities of a G(n, 1/2) random graph."""

    n: int

    def batch(self, rng, size):
        e = math.comb(self.n, 2)
        bits = rng.random((size, e)) < 0.5
        pairs, _ = _pair_index(self.n)
        deg = np.zeros((size, self.n), dtype=np.int64)
        for j, (u, v) in enumerate(pairs):
            deg[:, u] += bits[:, j]
            deg[:, v] += bits[:, j]
        return (deg % 2).sum(axis=1).astype(float)


@dataclass(frozen=True)
class MartingaleDiff:
    """Sum of a bounded martingale difference sequence."""

    n: int
    p_vector: tuple
    kernel: str = "polya-style"

    def batch(self, rng, size):
        fn = MDS_KERNELS[self.kernel]
        p_vec = np.asarray(self.p_vector, dtype=float)
        if self.kernel == "independent-centered":
            bits = rng.random((size, self.n)) < p_vec
            return (bits - p_vec).sum(axis=1)
        return np.array(
            [fn(rng, self.n, p_vec).sum() for _ in range(size)]
        )


@dataclass(frozen=True)
class UStat:
    n: int
    d: int
    kernel: str = "all-below"
    base: str = "uniform"
    kernel_args: tuple = field(default_factory=tuple)  # (("c", 0.5), ...)

    def batch(self, rng, size):
        kw = dict(self.kernel_args)
        if self.kernel == "triangle-indicator":
            e = math.comb(self.n, 2)
            bits = rng.random((size, e)) < kw["p"]
            return _stat_triangles(self.n, bits)
        tuples = _ustat_tuples(self.n, self.d)
        u = rng.random((size, self.n))
        if self.kernel == "all-below":
            mask = u <= kw["c"]
            return np.all(mask[:, tuples], axis=2).sum(axis=1).astype(float)
        if self.kernel == "threshold-sum":
            return (
                (u[:, tuples].sum(axis=2) >= kw["theta"]).sum(axis=1).astype(float)
            )
        raise ValueError(f"unknown U-statistic kernel {self.kernel!r}")


# ---------------------------------------------------------------------------
# empirical tail estimation


@dataclass(frozen=True)
class SimResult:
    replications: int
    threshold: float
    empirical_tail: float
    ci_low: float
    ci_high: float
    seed: int
    sum_mean: float

    def dumps(self) -> str:
        """key=value record, one line per field."""
        return (
            f"replications={self.replications}\n"
            f"threshold={self.threshold!r}\n"
            f"empirical_tail={self.empirical_tail!r}\n"
            f"ci_low={self.ci_low!r}\n"
            f"ci_high={self.ci_high!r}\n"
            f"seed={self.seed}\n"
            f"sum_mean={self.sum_mean!r}\n"
        )


def exact_binomial_ci(successes: int, trials: int, level: float = CI_LEVEL):
    """Two-sided Clopper-Pearson interval; no normal approximation."""
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    alpha = 1.0 - level
    if successes == 0:
        lo = 0.0
    else:
        lo = float(betaincinv(successes, trials - successes + 1, alpha / 2.0))
    if successes == trials:
        hi = 1.0
    else:
        hi = float(
            betaincinv(successes + 1, trials - successes, 1.0 - alpha / 2.0)
        )
    return lo, hi


def empirical_tail(model, t: float, reps: int, seed: int,
                   threads: int = 1) -> SimResult:
    """Empirical P[statistic >= t] with an exact 0.999 confidence interval.

    Chunks of replications draw from child streams keyed by (seed, chunk
    index), so the result does not depend on the number of threads.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    chunks = [
        (c, min(CHUNK_SIZE, reps - c * CHUNK_SIZE))
        for c in range((reps + CHUNK_SIZE - 1) // CHUNK_SIZE)
    ]

    def run(chunk):
        c, size = chunk
        stats = model.batch(_chunk_rng(seed, c), size)
        return int((stats >= t - 1e-12).sum()), float(stats.sum())

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(chunk) for chunk in chunks]

    hits = sum(r[0] for r in results)
    total = math.fsum(r[1] for r in results)
    lo, hi = exact_binomial_ci(hits, reps)
    return SimResult(
        replications=reps,
        threshold=float(t),
        empirical_tail=hits / reps,
        ci_low=lo,
        ci_high=hi,
        seed=seed,
        sum_mean=total / reps,
    )
