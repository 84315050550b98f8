"""Monte Carlo generators for the dependence models and an empirical tail
estimator with exact binomial confidence intervals.

Every model samples in batches: ``model.batch(rng, size)`` returns the
statistic of ``size`` independent replications.  The graph models count
subgraphs with the bit-sliced kernels of ``graphcomb``, 64 replications per
machine word.

Reproducibility contract: every batch draws from an explicit generator, and
``empirical_tail`` derives an independent child stream for each fixed-size
chunk of replications from (seed, chunk index) and draws each chunk the
same way on any thread.  The result is therefore a pure function of
(model, t, reps, seed), identical for any degree of parallelism.

The bit-sliced models (the G(n,p) models, ``DegreeParity`` and the
all-below ``UStat``) draw their Bernoulli bits straight into planes, 64
replications per word (``_bernoulli_planes``).  The G(n,m) models draw
their edge sets by Floyd's algorithm, one bounded integer per replication
and step, into a bool array laid out as the planes and packed into them
(``_gnm_planes``).  Either way every draw serves a whole block of
replications, so a batch is not the concatenation of smaller ones: these
are ``whole_chunks`` models, and a chunk of theirs is never split.  Every
other model's batch draws exactly one ``rng.random((size, k))`` array and
replication r reads row r of it, so batches drawn one after another from
one stream get the rows of one whole batch, and no result depends on how a
chunk is split.  Such a chunk is drawn as consecutive blocks of rows, each
block's largest array holding about ``graphcomb.BLOCK_BYTES``, except by
the other ``whole_chunks`` models, which take one batch per chunk: they
loop in Python over steps or edges, a cost each block would repeat.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import graphcomb as gc
from .numkernel import _log_beta

CHUNK_SIZE = 4096
CI_LEVEL = 0.999
# the largest array one whole CHUNK_SIZE batch would allocate, which caps
# a model's size: the CLI refuses models above it before anything is drawn
# (empirical_tail draws each chunk in smaller blocks)
CHUNK_BYTES_MAX = 1 << 30

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


# -- exact Bernoulli bits, 64 per word ---------------------------------------

_ALL_ONES = np.uint64(2**64 - 1)
# words per block of the dense levels, whose arrays hold one block each:
# 64 KiB, an eighth of BLOCK_BYTES
_LEVEL_WORDS = gc.BLOCK_BYTES // 64
# levels drawn over every word of a block: after them about one word in
# five still holds an undecided bit, and those words are listed
_DENSE_LEVELS = 8


def _level(rng, digit, undecided):
    """One level of ``_bernoulli_planes``: each undecided bit draws a random
    bit, and where that is 0 (U's digit differs from p's) the bit is decided
    to ``digit``.  Returns (the bits still undecided, the bits decided to 1
    or None); both may reuse ``undecided``'s memory.  The words are the bit
    generator's raw output, the words ``rng.integers(0, 1 << 64, size,
    dtype=np.uint64)`` gives without its fixed cost per call."""
    r = rng.bit_generator.random_raw(undecided.size)
    if not digit:
        undecided &= r
        return undecided, None
    np.bitwise_and(undecided, r, out=r)
    np.bitwise_xor(undecided, r, out=undecided)
    return r, undecided


def _bernoulli_planes(rng, rows, words, p):
    """(rows, words) uint64 array of i.i.d. bits with P(bit = 1) exactly p.

    Each bit compares a uniform U = 0.u1u2... with p = 0.d1d2... (p's
    binary digits, from ``p.as_integer_ratio()``) one digit at a time and
    is 1 iff U < p: at level i, u_i differs from d_i with probability 1/2,
    and then the bit is d_i; otherwise level i + 1 decides it.  When p's
    digits run out, the bits left undecided have U >= p and are 0.  A
    level draws one random word for every word that still holds an
    undecided bit, so its 64 bits are decided side by side, where one bit
    alone would take 2 random bits on average (Knuth & Yao 1976).  The
    first ``_DENSE_LEVELS`` levels run block by block over every word;
    the words still undecided after them are listed, and the later levels
    run over that list alone, shortened level by level: about 8.5 draws
    per word in all, and exactly one at p = 1/2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return np.full((rows, words), _ALL_ONES if p else 0, dtype=np.uint64)
    num, den = float(p).as_integer_ratio()
    digits = [num >> k & 1 for k in range(den.bit_length() - 2, -1, -1)]
    dense, sparse = digits[:_DENSE_LEVELS], digits[_DENSE_LEVELS:]
    planes = np.zeros(rows * words, dtype=np.uint64)
    listed = []
    for lo in range(0, planes.size, _LEVEL_WORDS):
        out = planes[lo : lo + _LEVEL_WORDS]
        undecided = np.full(out.size, _ALL_ONES)
        for digit in dense:
            undecided, ones = _level(rng, digit, undecided)
            if ones is not None:
                out |= ones
        if sparse:
            live = np.flatnonzero(undecided)
            listed.append((live + lo, undecided[live]))
    if sparse:
        where = np.concatenate([w for w, _ in listed])
        undecided = np.concatenate([u for _, u in listed])
        for digit in sparse:
            if not where.size:
                break
            undecided, ones = _level(rng, digit, undecided)
            if ones is not None:
                planes[where] |= ones
            live = np.flatnonzero(undecided)
            where, undecided = where[live], undecided[live]
    return planes.reshape(rows, words)


def _gnp_planes(n, p, rng, size):
    """Edge planes of ``size`` G(n,p) graphs, every edge bit Bernoulli(p)."""
    return _bernoulli_planes(rng, math.comb(n, 2), -(-size // 64), p)


def _plane_rows(n) -> int:
    """Replications per block of a G(n,m) model's edge bits: a multiple of
    64 whose planes, C(n,2) bits per replication, fill about
    ``graphcomb.BLOCK_BYTES``, so a chunk of a graph up to n = 45 is one
    block."""
    return gc.block_rows(math.comb(n, 2) // 8) // 64 * 64


def _floyd_words(pairs, m, rng, cols):
    """(pairs, words) uint64 edge planes of ``cols`` uniform graphs with
    exactly m of their ``pairs`` edges, bit r of row e set iff graph r has
    edge e, bits past ``cols`` clear.

    With k = min(m, pairs - m), Floyd's algorithm (Bentley & Floyd, CACM
    30(9), 1987) draws a uniform k-set of rows for every graph at once:
    step j = pairs-k, ..., pairs-1 draws t uniform on 0..j and takes t, or
    j where t is taken already.  Row j is empty before step j, so it
    receives that test's result before bit t is set (a graph with t = j
    sets row j then).  When m > pairs/2 the k-set is the absent edges.
    The bits go into a (pairs, 64 words) bool array laid out as the planes,
    which packs into them.
    """
    k = min(m, pairs - m)
    dtype = np.uint16 if pairs <= 1 << 16 else np.uint32
    words = -(-cols // 64)
    bits = np.zeros((pairs, 64 * words), dtype=bool)
    flat = bits.reshape(-1)
    lanes = np.arange(cols)
    at = np.empty(cols, dtype=np.intp)
    for j in range(pairs - k, pairs):
        t = rng.integers(0, j + 1, cols, dtype=dtype)
        np.multiply(t, 64 * words, out=at, dtype=np.intp)
        at += lanes
        bits[j, :cols] = flat[at]
        flat[at] = True
    if k < m:
        drawn = bits[:, :cols]
        np.logical_not(drawn, out=drawn)
    return np.packbits(flat, bitorder="little").view("<u8").reshape(pairs, words)


def _gnm_planes(n, m, rng, size):
    """Edge planes of ``size`` G(n,m) graphs, drawn by ``_floyd_words`` in
    blocks of ``_plane_rows(n)`` graphs, each into its own words (one
    block is returned as drawn, with no copy).  Edges are numbered by
    plane row, not in ``combinations`` order: relabelling the edges keeps
    G(n,m) uniform."""
    pairs = math.comb(n, 2)
    rows = _plane_rows(n)
    if size <= rows:
        return _floyd_words(pairs, m, rng, size)
    planes = np.empty((pairs, -(-size // 64)), dtype=np.uint64)
    for start in range(0, size, rows):
        block = _floyd_words(pairs, m, rng, min(rows, size - start))
        planes[:, start // 64 : start // 64 + block.shape[1]] = block
    return planes


def _gnp_bytes(n, size, triples=False) -> int:
    """Bytes of the largest array a G(n,p) batch allocates: its edge
    planes, one row of C(n,2) words per 64 graphs, or, with ``triples``,
    the three pair rows of every triple that the triangle kernels gather
    by, if that is larger."""
    planes = 8 * math.comb(n, 2) * -(-size // 64)
    return max(planes, 24 * math.comb(n, 3)) if triples else planes


def _gnm_bytes(n, size, triples=False) -> int:
    """Bytes of the largest array a G(n,m) batch allocates: a block's bool
    array, C(n,2) bytes per replication padded to whole words, or, if
    larger, the edge planes or the triangle kernels' triple table."""
    block = math.comb(n, 2) * 64 * -(-min(size, _plane_rows(n)) // 64)
    return max(block, _gnp_bytes(n, size, triples))


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
    Replication r uses the uniforms of row r, step by step, and its
    differences overwrite them.
    """
    u = rng.random((size, len(p_vec)))
    ups = np.zeros(size, dtype=np.int64)
    for i, p in enumerate(p_vec):
        pi = 0.2 + 0.6 * (1 + ups) / (2 + i)
        kappa = min(p, 1.0 - p) / 0.8
        up = u[:, i] < pi
        u[:, i] = np.where(up, kappa * (1.0 - pi), -kappa * pi)
        ups += up
    return u


MDS_KERNELS = {
    "independent-centered": _mds_independent_centered,
    "polya-style": _mds_polya_style,
}


# ---------------------------------------------------------------------------
# models


# the U-statistic tables are cached: a chunk's blocks would otherwise
# rebuild them once per block
@lru_cache(maxsize=8)
def _ustat_tuples(n: int, d: int) -> np.ndarray:
    tuples = np.array(list(combinations(range(n), d)), dtype=np.int64)
    tuples.flags.writeable = False
    return tuples


@lru_cache(maxsize=8)
def _ustat_subset_counts(n: int, d: int) -> np.ndarray:
    """C(b, d) for b = 0..n as floats; C(n, d) must lie in the float range."""
    counts = np.array([float(math.comb(b, d)) for b in range(n + 1)])
    counts.flags.writeable = False
    return counts


# The graph models run their kernel once over the planes of a whole chunk
# (see _block_rows).


@dataclass(frozen=True)
class GnpIsolated:
    n: int
    p: float
    whole_chunks = True

    def batch(self, rng, size):
        planes = _gnp_planes(self.n, self.p, rng, size)
        return gc.isolated_count(self.n, planes, size).astype(float)

    def batch_bytes(self, size):
        """Bytes of the largest array ``batch(rng, size)`` allocates."""
        return _gnp_bytes(self.n, size)


@dataclass(frozen=True)
class GnpTriangles:
    n: int
    p: float
    whole_chunks = True

    def batch(self, rng, size):
        planes = _gnp_planes(self.n, self.p, rng, size)
        return gc.triangle_count(self.n, planes, size).astype(float)

    def batch_bytes(self, size):
        return _gnp_bytes(self.n, size, triples=True)


@dataclass(frozen=True)
class Gnp4Cliques:
    n: int
    p: float
    whole_chunks = True

    def batch(self, rng, size):
        planes = _gnp_planes(self.n, self.p, rng, size)
        return gc.clique4_count(self.n, planes, size).astype(float)

    def batch_bytes(self, size):
        return _gnp_bytes(self.n, size, triples=True)


@dataclass(frozen=True)
class GnmIsolated:
    n: int
    m: int
    whole_chunks = True

    def batch(self, rng, size):
        planes = _gnm_planes(self.n, self.m, rng, size)
        return gc.isolated_count(self.n, planes, size).astype(float)

    def batch_bytes(self, size):
        return _gnm_bytes(self.n, size)


@dataclass(frozen=True)
class GnmTriangles:
    n: int
    m: int
    whole_chunks = True

    def batch(self, rng, size):
        planes = _gnm_planes(self.n, self.m, rng, size)
        return gc.triangle_count(self.n, planes, size).astype(float)

    def batch_bytes(self, size):
        return _gnm_bytes(self.n, size, triples=True)


@dataclass(frozen=True)
class OrientationParity:
    """Sum of in-degree parities under a uniform random orientation."""

    graph: gc.Graph
    # batch() loops in Python over the edges (see _block_rows)
    whole_chunks = True

    def batch(self, rng, size):
        edges = sorted(self.graph.edges)
        flips = rng.random((size, len(edges))) < 0.5
        indeg = np.zeros((size, self.graph.n), dtype=np.int64)
        for j, (u, v) in enumerate(edges):
            indeg[:, v] += ~flips[:, j]
            indeg[:, u] += flips[:, j]
        return (indeg % 2).sum(axis=1).astype(float)

    def batch_bytes(self, size):
        return 8 * size * max(len(self.graph.edges), self.graph.n)


@dataclass(frozen=True)
class DegreeParity:
    """Sum of degree parities of a G(n, 1/2) random graph."""

    n: int
    whole_chunks = True

    def batch(self, rng, size):
        planes = _gnp_planes(self.n, 0.5, rng, size)
        return gc.odd_degree_count(self.n, planes, size).astype(float)

    def batch_bytes(self, size):
        return _gnp_bytes(self.n, size)


@dataclass(frozen=True)
class MartingaleDiff:
    """Sum of a bounded martingale difference sequence."""

    n: int
    p_vector: tuple
    kernel: str = "polya-style"

    @property
    def whole_chunks(self):
        """Whether batch() loops in Python over the n steps."""
        return self.kernel == "polya-style"

    def batch(self, rng, size):
        p_vec = np.asarray(self.p_vector, dtype=float)
        return MDS_KERNELS[self.kernel](rng, size, p_vec).sum(axis=1)

    def batch_bytes(self, size):
        return 8 * size * self.n


@dataclass(frozen=True)
class UStat:
    """U-statistic X = sum over d-subsets of F(u_i1, ..., u_id) of n
    independent uniforms.

    Kernels: 'all-below' (F = prod 1[u_i <= c], mean c^d) and
    'threshold-sum' (F = 1[sum u >= theta]).  The triangle count of
    G(n, p), a U-statistic of the edge bits, is ``GnpTriangles``.
    """

    n: int
    d: int
    kernel: str = "all-below"
    kernel_args: tuple = field(default_factory=tuple)  # (("c", 0.5), ...)

    @property
    def whole_chunks(self):
        """Whether batch() draws bit-sliced planes, 64 replications per
        word."""
        return self.kernel == "all-below"

    def batch(self, rng, size):
        kw = dict(self.kernel_args)
        if self.kernel == "all-below":
            # coordinate i of replication r is at or below c with
            # probability c: bit r of row i; the d-subsets inside the B
            # coordinates at or below c number exactly C(B, d)
            planes = _bernoulli_planes(rng, self.n, -(-size // 64), kw["c"])
            return _ustat_subset_counts(self.n, self.d)[gc.bit_counts(planes, size)]
        if self.kernel == "threshold-sum":
            u = rng.random((size, self.n))
            tuples = _ustat_tuples(self.n, self.d)
            return (
                (u[:, tuples].sum(axis=2) >= kw["theta"]).sum(axis=1).astype(float)
            )
        raise ValueError(f"unknown U-statistic kernel {self.kernel!r}")

    def batch_bytes(self, size):
        if self.kernel == "all-below":
            return 8 * self.n * -(-size // 64)  # the planes
        # the uniforms gathered at every d-subset, d C(n, d) >= n of them
        return 8 * size * self.d * math.comb(self.n, self.d)


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


# ---------------------------------------------------------------------------
# the Clopper-Pearson interval, on the standard library

_EPS = 2.0 ** -52
_TINY = 1e-300


def _beta_cf(a: int, b: int, x: float):
    """(f, terms) with I_x(a, b) = x^a (1 - x)^b f / (a B(a, b)), by the
    modified Lentz method on the continued fraction of DLMF 8.17.22.  At
    x < (a + 1) / (a + b + 2) it converges in at most a few dozen terms,
    far below the cap of 10^4."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    f = d = 1.0 / (d if abs(d) > _TINY else _TINY)
    for m in range(1, 10_001):
        m2 = a + 2 * m
        coef = m * (b - m) * x / ((m2 - 1) * m2)
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = 1.0 + coef / c
        c = c if abs(c) > _TINY else _TINY
        f *= d * c
        coef = -(a + m) * (a + b + m) * x / (m2 * (m2 + 1))
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = 1.0 + coef / c
        c = c if abs(c) > _TINY else _TINY
        f *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    return f, m


def _log_beta_cdf(a: int, b: int, x: float, log_beta: float):
    """(ln I_x(a, b), its derivative in x, an estimate of its rounding error).

    The error estimate allows a few ulps for each term of the exponent and
    of the continued fraction; the tests check the roots it leads to
    against exact rational tails and against scipy.
    """
    log_x, log_y = math.log(x), math.log1p(-x)
    log_front = a * log_x + b * log_y - log_beta
    # B(a, b) <= 1, so every term of the exponent is at most 0
    err = _EPS * (4.0 * (-a * log_x - b * log_y - log_beta) + 16.0)
    if x * (a + b + 2) < a + 1:
        f, terms = _beta_cf(a, b, x)
        err += 8.0 * _EPS * terms
        return log_front + math.log(f / a), a / (x * (1.0 - x) * f), err
    # the complement converges fast here; 1 - x rounds by an ulp of x
    f, terms = _beta_cf(b, a, 1.0 - x)
    upper = math.exp(log_front) * f / b
    slope = upper * b / (f * x * (1.0 - x) * (1.0 - upper))
    err = (err + 8.0 * _EPS * terms) * upper / (1.0 - upper) + _EPS * slope
    return math.log1p(-upper), slope, err


def _beta_quantile_below(a: int, b: int, p: float) -> float:
    """A float x at most the root of I_x(a, b) = p, within about an ulp
    plus the rounding error of I_x; integers a, b >= 1 and 0 < p < 1/2.

    Newton's method on g(x) = ln I_x(a, b) - ln p starts from the normal
    approximation of Abramowitz & Stegun 26.5.22 (with 26.2.23 for the
    normal quantile).  The beta density is log-concave for a, b >= 1, so
    g is concave and increasing: a Newton step never passes the root from
    the left, and after at most one step from the right the iterates rise
    to it.  The last step's end is lowered by twice the error in x that
    the rounding error of g allows, and by one ulp, so that the exact
    I_x(a, b) at the result is at most p.
    """
    t = math.sqrt(-2.0 * math.log(p))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    lam = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2 * a - 1) + 1.0 / (2 * b - 1))
    w = z * math.sqrt(h + lam) / h - (1.0 / (2 * b - 1) - 1.0 / (2 * a - 1)) * (
        lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = 1.0 / (1.0 + b / a * math.exp(2.0 * w))
    log_beta, log_p = _log_beta(a, b), math.log(p)
    for _ in range(200):
        g, slope, err = _log_beta_cdf(a, b, x, log_beta)
        step, tol = (g - log_p) / slope, err / slope
        if abs(step) <= tol + 4.0 * _EPS * x:
            return math.nextafter(x - step - 2.0 * tol, 0.0)
        # only a first step from the right can leave (0, 1), past 0
        x = x - step if step < x else 0.5 * x
    raise ArithmeticError(f"no beta quantile found for a={a}, b={b}, p={p}")


def exact_binomial_ci(successes: int, trials: int, level: float = CI_LEVEL):
    """Two-sided Clopper-Pearson interval; no normal approximation.

    The ends solve I_lo(k, n - k + 1) = alpha/2 and
    I_(1-hi)(n - k, k + 1) = alpha/2 (k successes in n trials, alpha =
    1 - level), each rounded outwards, so the interval contains the exact
    one.  hi is 1 - x for a root x that is near 1 when k is small, so it
    keeps x's absolute precision of about 1e-16.
    """
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    k, n, half_alpha = successes, trials, (1.0 - level) / 2.0
    lo = 0.0 if k == 0 else _beta_quantile_below(k, n - k + 1, half_alpha)
    if k == n:
        return lo, 1.0
    return lo, math.nextafter(1.0 - _beta_quantile_below(n - k, k + 1, half_alpha), 2.0)


def _block_rows(model) -> int:
    """Rows per block of ``model``'s chunks: enough to fill about
    ``graphcomb.BLOCK_BYTES`` of its largest array, and at least
    ``graphcomb.MIN_BLOCK_ROWS``.  A ``whole_chunks`` model draws its
    chunks whole: a bit-sliced or G(n,m) model shares each draw among the
    replications of a block and counts over the edge planes of the whole
    chunk, and the others loop in Python over their steps or edges in
    every batch, a fixed cost each block would repeat and its smaller
    arrays do not repay."""
    if getattr(model, "whole_chunks", False):
        return CHUNK_SIZE
    return gc.block_rows(model.batch_bytes(1))


def _batch_blocks(model, rng, size):
    """``model.batch(rng, size)``, drawn in blocks of ``_block_rows(model)``
    rows."""
    rows = _block_rows(model)
    return np.concatenate([
        model.batch(rng, min(rows, size - start))
        for start in range(0, size, rows)
    ])


def _run_chunks(run, chunks: int, threads: int) -> None:
    """``run(c)`` for every chunk c < ``chunks``, on the calling thread and
    ``min(threads, chunks) - 1`` workers, each claiming the next chunk from
    one shared counter.  Once a chunk raises, no thread claims another; the
    pool is joined before the error reaches the caller, so no chunk runs
    after this returns.  The caller takes chunks rather than wait for the
    workers: each worker thread gets a malloc arena of its own, which keeps
    its freed blocks, so every thread beyond the caller adds to the
    process's peak memory."""
    workers = min(threads, chunks) - 1
    if workers < 1:
        for c in range(chunks):
            run(c)
        return
    lock = threading.Lock()
    claimed, failed = 0, False

    def claim_loop():
        nonlocal claimed, failed
        while True:
            with lock:
                if failed or claimed == chunks:
                    return
                c, claimed = claimed, claimed + 1
            try:
                run(c)
            except BaseException:
                failed = True
                raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(claim_loop) for _ in range(workers)]
        claim_loop()
        for future in futures:
            future.result()


def empirical_tail(model, t: float, reps: int, seed: int,
                   threads: int = 1) -> SimResult:
    """Empirical P[statistic >= t] with an exact 0.999 confidence interval.

    Chunks of replications draw from child streams keyed by (seed, chunk
    index), so the result does not depend on the number of threads.
    """
    for name, value in (("reps", reps), ("threads", threads)):
        if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
                or value < 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    sizes = [min(CHUNK_SIZE, reps - start)
             for start in range(0, reps, CHUNK_SIZE)]
    results = [None] * len(sizes)

    def run(c):
        stats = _batch_blocks(model, _chunk_rng(seed, c), sizes[c])
        results[c] = int((stats >= t - 1e-12).sum()), float(stats.sum())

    _run_chunks(run, len(sizes), threads)
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
