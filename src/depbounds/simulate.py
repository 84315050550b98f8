"""Monte Carlo generators for the dependence models and an empirical tail
estimator with exact binomial confidence intervals.

Every model samples in batches: ``model.batch(rng, size)`` returns the
statistic of ``size`` independent replications.  The graph models count
subgraphs with the neighbour-mask kernels of ``graphcomb``.

Reproducibility contract: every batch draws from an explicit generator, and
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

from . import graphcomb as gc

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
    "empirical_tail",
    "exact_binomial_ci",
    "MDS_KERNELS",
]


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
    )


# ---------------------------------------------------------------------------
# batch samplers: every model draws `size` replications at once


def _gnp_edges(n, p, rng, size):
    """(size, C(n,2)) edge bits of G(n,p), in ``combinations`` order."""
    return rng.random((size, math.comb(n, 2))) < p


def _gnm_edges(n, m, rng, size):
    """(size, C(n,2)) edge bits of uniform graphs with exactly m edges."""
    e = math.comb(n, 2)
    order = np.argsort(rng.random((size, e)), axis=1)
    bits = np.zeros((size, e), dtype=bool)
    rows = np.repeat(np.arange(size), m)
    bits[rows, order[:, :m].ravel()] = True
    return bits


# -- martingale difference kernels: (size, n) arrays of Y values ------------


def _mds_independent_centered(rng, size, p_vec):
    bits = rng.random((size, len(p_vec))) < p_vec
    return bits - p_vec


def _mds_polya_style(rng, size, p_vec):
    """Dependent martingale differences with exact range constraints.

    Step i takes value kappa_i*(1-pi_i) with probability pi_i and
    -kappa_i*pi_i otherwise, where pi_i is an urn fraction of the past
    up-moves mapped into [0.2, 0.8].  The conditional mean is identically
    zero and kappa_i is sized so -p_i <= Y_i <= 1-p_i holds surely.
    Replication r uses the uniforms of row r, step by step.
    """
    u = rng.random((size, len(p_vec)))
    y = np.empty_like(u)
    ups = np.zeros(size, dtype=np.int64)
    for i, p in enumerate(p_vec):
        pi = 0.2 + 0.6 * (1 + ups) / (2 + i)
        kappa = min(p, 1.0 - p) / 0.8
        up = u[:, i] < pi
        y[:, i] = np.where(up, kappa * (1.0 - pi), -kappa * pi)
        ups += up
    return y


MDS_KERNELS = {
    "independent-centered": _mds_independent_centered,
    "polya-style": _mds_polya_style,
}


# ---------------------------------------------------------------------------
# models


def _ustat_tuples(n: int, d: int) -> np.ndarray:
    return np.array(list(combinations(range(n), d)), dtype=np.int64)


@dataclass(frozen=True)
class GnpIsolated:
    n: int
    p: float

    def batch(self, rng, size):
        bits = _gnp_edges(self.n, self.p, rng, size)
        return gc.isolated_count(gc.edge_masks(self.n, bits)).astype(float)


@dataclass(frozen=True)
class GnpTriangles:
    n: int
    p: float

    def batch(self, rng, size):
        bits = _gnp_edges(self.n, self.p, rng, size)
        return gc.triangle_count(gc.edge_masks(self.n, bits))[0].astype(float)


@dataclass(frozen=True)
class Gnp4Cliques:
    n: int
    p: float

    def batch(self, rng, size):
        bits = _gnp_edges(self.n, self.p, rng, size)
        return gc.clique4_count(gc.edge_masks(self.n, bits))[0].astype(float)


@dataclass(frozen=True)
class GnmIsolated:
    n: int
    m: int

    def batch(self, rng, size):
        bits = _gnm_edges(self.n, self.m, rng, size)
        return gc.isolated_count(gc.edge_masks(self.n, bits)).astype(float)


@dataclass(frozen=True)
class GnmTriangles:
    n: int
    m: int

    def batch(self, rng, size):
        bits = _gnm_edges(self.n, self.m, rng, size)
        return gc.triangle_count(gc.edge_masks(self.n, bits))[0].astype(float)


@dataclass(frozen=True)
class OrientationParity:
    """Sum of in-degree parities under a uniform random orientation."""

    graph: gc.Graph

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
        masks = gc.edge_masks(self.n, _gnp_edges(self.n, 0.5, rng, size))
        degree = np.bitwise_count(masks).sum(axis=-1)
        return (degree % 2).sum(axis=1).astype(float)


@dataclass(frozen=True)
class MartingaleDiff:
    """Sum of a bounded martingale difference sequence."""

    n: int
    p_vector: tuple
    kernel: str = "polya-style"

    def batch(self, rng, size):
        p_vec = np.asarray(self.p_vector, dtype=float)
        return MDS_KERNELS[self.kernel](rng, size, p_vec).sum(axis=1)


@dataclass(frozen=True)
class UStat:
    """U-statistic X = sum over d-subsets of F(xi_(i1..id)).

    Kernels on the 'uniform' base: 'all-below' (F = prod 1[u_i <= c],
    mean c^d) and 'threshold-sum' (F = 1[sum u >= theta]).  The
    'triangle-indicator' kernel runs directly on a G(n, p) graph with
    d = 3 potential edges per vertex triple; X is its triangle count.
    """

    n: int
    d: int
    kernel: str = "all-below"
    base: str = "uniform"
    kernel_args: tuple = field(default_factory=tuple)  # (("c", 0.5), ...)

    def batch(self, rng, size):
        kw = dict(self.kernel_args)
        if self.kernel == "triangle-indicator":
            bits = _gnp_edges(self.n, kw["p"], rng, size)
            return gc.triangle_count(gc.edge_masks(self.n, bits))[0].astype(float)
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
