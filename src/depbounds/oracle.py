"""Exact small-instance machinery: explicit joint distributions, the
subset-weight decomposition of a sum of [0,1] variables, the induced
distribution on {0,...,n}, the convex-function tail bound E f(Z)/f(t) over
exponentials f(x) = exp(h*x), and the averaged-binomial ordering checks.

Everything here is a ground-truth oracle: sizes are capped (2^n
enumeration at n <= 20) and computations are exact up to float rounding.

The soundness and sandwich sweeps of ``verify`` read the tails of their
Bernoulli laws from the suffix sums of the laws of Z that ``law_tables``
gives for a group, equal to ``exact_tail`` up to rounding; ``exact_tail``
stays the oracle for one law, [0,1]-valued ones included.

Subset moments are whole-array transforms over the subset lattice.  For a
Bernoulli law the outcome pmf (a ``bincount`` of the atom bitmasks) is
E[Z_A] itself, its superset-sum (zeta) transform is E[prod_{i in A} X_i]
and the law of Z is a ``bincount`` of the atom sizes: O(n 2^n) however
many atoms the law has.  Other laws are broadcast over their atoms, in
chunks that keep each (atoms, 2^n) block near 8 MB.

A ``JointDist`` is one law, the oracle the tests check the sweeps
against.  It is never changed after construction: its ``xs`` and ``ws``
are neither reassigned nor written.  On that assumption
``is_bernoulli``, ``means()`` and, for a Bernoulli law, ``outcome_pmf``
are computed on first use and kept, the arrays read-only.  The subset
transforms start from a copy of the pmf, so every caller gets a fresh
writable array.

The sweeps build no ``JointDist``: ``law_tables`` builds the laws of one
n straight into arrays of outcome pmfs, laws of Z and means, one row per
law, each row bit for bit what a ``JointDist`` of the law's atoms gives.

``averaged_binomial_checks`` takes all vectors of a sweep in one call:
their Poisson-binomial DPs, closed-form binomial pmfs, tilt sums and tails
run over zero-padded rows.  Each tilt sum ln sum_j q_j e^(hj) is shifted
by its largest term, so it needs no general log-sum-exp.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .numkernel import (
    NEG_INF,
    PoissonBinomialSpec,
    _log_binom_row,
    _poisson_binom_rows,
    poisson_binom_dist,
)
from .bounds import ProductBound, SplitBound, TailBound, _clamp, _invalid, check_n

MAX_ENUM_N = 20

# entries of one (atoms, 2^n) block on the non-Bernoulli paths
_CHUNK_ENTRIES = 1 << 20

__all__ = [
    "JointDist",
    "ZDist",
    "zeta_decomposition",
    "z_distribution",
    "exact_tail",
    "dephoeff_bound",
    "averaged_binomial_checks",
    # the exact pmf of independent trials, from numkernel
    "poisson_binom_dist",
    "law_tables",
    "subset_product_moments",
    "subset_zeta_moments",
    "subset_sizes",
]

# ---------------------------------------------------------------------------
# joint distributions


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class JointDist:
    """Finite joint distribution of n dependent [0,1]-valued variables.

    ``xs`` is an (m, n) array of support points, ``ws`` the matching
    probability weights (summing to 1 within 1e-12).  Neither is reassigned
    or written after construction: ``is_bernoulli``, ``means()`` and
    ``outcome_pmf`` are computed once per law.
    """

    n: int
    xs: np.ndarray
    ws: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ws = np.asarray(self.ws, dtype=float)
        if self.xs.ndim != 2 or self.xs.shape[1] != self.n:
            raise ValueError(f"support must be (m, {self.n}), got {self.xs.shape}")
        if self.ws.shape != (self.xs.shape[0],):
            raise ValueError("one weight per atom required")
        # written so that NaN fails each test
        if not np.all((self.xs >= 0.0) & (self.xs <= 1.0)):
            raise ValueError("xs: coordinates must be numbers in [0,1]")
        if not np.all(self.ws >= 0.0):
            raise ValueError("ws: weights must be nonnegative numbers")
        total = math.fsum(self.ws)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"ws: weights sum to {total}, not 1")

    @cached_property
    def is_bernoulli(self) -> bool:
        return bool(np.all((self.xs == 0.0) | (self.xs == 1.0)))

    @cached_property
    def _means(self) -> np.ndarray:
        return _read_only(self.ws @ self.xs)

    def means(self) -> np.ndarray:
        """E[X_i] for every i, one read-only array per law."""
        return self._means

    @cached_property
    def outcome_pmf(self) -> np.ndarray:
        """P[X = 1_A] for every A of a Bernoulli law (bitmask indexed), one
        read-only array per law."""
        masks = self.xs.astype(np.int64) @ (1 << np.arange(self.n, dtype=np.int64))
        return _read_only(np.bincount(masks, weights=self.ws, minlength=1 << self.n))


@dataclass
class ZDist:
    """Distribution on {0,...,n} induced by the subset-weight decomposition."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        # written so that NaN fails each test
        if not np.all(self.probs >= -1e-15):
            raise ValueError("probs: probabilities must be nonnegative numbers")
        total = math.fsum(self.probs)
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"probs: probabilities sum to {total}, not 1")

    @property
    def n(self) -> int:
        return len(self.probs) - 1

    def mean(self) -> float:
        return float(np.arange(self.n + 1) @ self.probs)


# ---------------------------------------------------------------------------
# decomposition and induced distribution


def zeta_decomposition(x) -> np.ndarray:
    """Subset weights prod_{i in A} x_i * prod_{i not in A} (1-x_i).

    Returns an array of length 2^n indexed by bitmask (bit i set means
    i in A), or one such row per row of a 2-D ``x``.  The weights sum to 1
    and their size-weighted sums recover sum(x); both identities hold by
    construction.
    """
    x = np.asarray(x, dtype=float)
    _check_cap(x.shape[-1])
    # written so that NaN fails it
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("coordinates must be numbers in [0,1]")
    rows = np.atleast_2d(x)
    return _lattice_products(1.0 - rows, rows).reshape(*x.shape[:-1], -1)


def z_distribution(dist: JointDist) -> ZDist:
    """Law of Z on {0,...,n}: P[Z=j] = sum over |A|=j of E[zeta_A].

    The size-j subset sums of the zeta weights of a point x are exactly
    the Poisson-binomial pmf of the coordinates of x, so the atoms go
    through one DP convolution together rather than a 2^n enumeration;
    a Bernoulli atom is a point mass at its number of ones, so a Bernoulli
    law's Z is a ``bincount`` of its atom sizes, in atom order.
    """
    _check_cap(dist.n)
    if dist.is_bernoulli:
        sizes = dist.xs.sum(axis=1).astype(np.int64)
        return ZDist(np.bincount(sizes, weights=dist.ws, minlength=dist.n + 1))
    return ZDist(_atom_sum(dist, _poisson_binom_rows, dist.n + 1))


def exact_tail(dist: JointDist, t: float) -> float:
    """Ground truth P[sum X_i >= t] by direct enumeration of the support."""
    sums = dist.xs.sum(axis=1)
    return float(dist.ws[sums >= t - 1e-12].sum())


# ---------------------------------------------------------------------------
# the convex-function bound over exponential tilts


def dephoeff_bound(zdist: ZDist, t: float) -> TailBound:
    """Tail bound E[f(Z)] / f(t) at the best f(x) = exp(h*x), h > 0; always
    an upper bound on P[sum X_i >= t].  ln E[exp(hZ)] - h*t is convex in h,
    with slope the h-tilted mean of Z minus t and curvature its h-tilted
    variance: its root is bracketed by doubling from h = 1 and found by
    Newton steps inside the bracket, a step that would leave it being a
    bisection (``params["h"]``).
    Past the top s < n of Z's support the tilt runs off to h = inf, leaving
    ln P[Z = s] at t = s and -inf for t > s.
    """
    method = "convex-family"
    if bad := check_n(method, zdist.n, t):
        return bad
    if t <= zdist.mean():
        return _invalid(method, "t <= mean")
    if t >= zdist.n:
        return _invalid(method, "t >= n")
    top = int(np.flatnonzero(zdist.probs > 0.0)[-1])
    if t >= top:
        log_top = math.log(zdist.probs[top]) if t == top else NEG_INF
        return TailBound(method, log_top, {"h": math.inf})
    with np.errstate(divide="ignore"):  # ln 0 = -inf drops a zero mass
        log_q = np.log(zdist.probs[: top + 1])
    down = np.arange(-top, 1)

    def tilt(h):
        """(shift, total, mean, variance) of the tilted weights
        q_j e^(h(j - s)), each divided by the largest, e^shift with shift =
        max ln q_j + h(j - s), so that each is at most 1 and a subnormal
        q_j costs no precision."""
        terms = log_q + h * down
        shift = float(terms.max())
        w = np.exp(terms - shift)
        total = float(w.sum())
        mean = float(w @ down) / total
        dev = down - mean
        return shift, total, top + mean, float(w @ (dev * dev)) / total

    # the tilted mean is exact to a few ulps of s: a root to that level is
    # optimal to second order
    tol = 8.0 * np.finfo(float).eps * top
    lo, h = 0.0, 1.0
    shift, total, mean, var = tilt(h)
    while mean < t:
        lo, h = h, 2.0 * h
        shift, total, mean, var = tilt(h)
    hi = h
    while abs(mean - t) > tol:
        lo, hi = (h, hi) if mean < t else (lo, h)
        h = h - (mean - t) / var if var > 0.0 else lo
        if not lo < h < hi:
            h = 0.5 * (lo + hi)
            if not lo < h < hi:  # lo and hi are adjacent floats
                break
        shift, total, mean, var = tilt(h)
    params = {"h": h}
    log_bound = shift + math.log(total) + h * (top - t)
    return TailBound(method, _clamp(log_bound, params), params)


# ---------------------------------------------------------------------------
# classical orderings


# entries of one padded block of ``averaged_binomial_checks`` (512 KB of
# floats): small enough to stay in cache and add little to peak memory,
# large enough that a block costs far more than its numpy calls
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(costs):
    """Consecutive ranges (start, stop) over rows of the given ``costs``
    (entries per row) whose block, every row padded to the largest cost in
    it, holds at most ``_BLOCK_ENTRIES`` entries; each range has at least
    one row."""
    start = 0
    while start < len(costs):
        stop, top = start + 1, costs[start]
        while (stop < len(costs)
               and (stop + 1 - start) * max(top, costs[stop]) <= _BLOCK_ENTRIES):
            top = max(top, costs[stop])
            stop += 1
        yield start, stop
        start = stop


def averaged_binomial_checks(specs: Sequence[PoissonBinomialSpec], hs=()):
    """Compare each vector of independent trials in ``specs`` with
    Bin(n, pbar), at every tilt and every valid threshold, in blocks of
    vectors.

    Returns two bool arrays with one row per vector.  ``exp_ok``, (m,
    len(hs)): E[exp(h*H(p_1..p_n))] <= E[exp(h*Bin(n, pbar))] for each h
    in ``hs`` (h > 0).  ``tail_ok``, (m, N + 1) for the largest n = N:
    entry b is P[sum B_i >= b] >= P[Bin(n, pbar) >= b] for the valid
    thresholds 0 <= b <= floor(n*pbar), and True past them.  Exact up to
    float rounding: the trials' pmfs come from the O(n^2) dynamic program
    on zero-padded rows (a p = 0 step leaves a pmf exactly unchanged),
    each Bin(n, pbar) from its closed form in O(n), and each side's
    ln E[exp(hZ)] from ``_tilt_sums``, shifted by its largest term.
    """
    hs = np.asarray(hs, dtype=float)
    if not np.all(hs > 0.0):
        raise ValueError(f"h must be positive, got {hs}")
    if not specs:
        raise ValueError("need at least one vector of trials")
    ns = [spec.n for spec in specs]
    exp_ok = np.empty((len(specs), hs.size), dtype=bool)
    tail_ok = np.ones((len(specs), max(ns) + 1), dtype=bool)
    # longest first: a block is as wide as its first vector, and the DP
    # skips each row once its own trials are done
    order = sorted(range(len(specs)), key=lambda r: -ns[r])
    # blocks bound the (2, rows, tilts, n + 1) arrays of the tilt sums
    costs = [2 * max(hs.size, 1) * (ns[r] + 1) for r in order]
    for start, stop in _row_blocks(costs):
        rows = order[start:stop]
        exp_ok[rows], block = _averaged_binomial_block([specs[r] for r in rows], hs)
        tail_ok[rows, : block.shape[1]] = block
    return exp_ok, tail_ok


def _averaged_binomial_block(specs, hs):
    """``averaged_binomial_checks`` on one block, padded to its largest n."""
    both = _averaged_binomial_pmfs(specs)
    lhs_exp, rhs_exp = _tilt_sums(both, hs)
    lhs_tail, rhs_tail = np.cumsum(both[..., ::-1], axis=-1)[..., ::-1]
    j = np.arange(both.shape[-1])
    limit = np.array([[math.floor(spec.n * spec.mean)] for spec in specs])
    return lhs_exp <= rhs_exp + 1e-12, (lhs_tail >= rhs_tail - 1e-12) | (j > limit)


def _averaged_binomial_pmfs(specs):
    """The pmfs of each vector's trials and of its Bin(n, pbar), zero-padded
    to the largest n + 1: shape (2, len(specs), N + 1)."""
    width = max(spec.n for spec in specs) + 1
    lhs = _poisson_binom_rows(
        np.array([spec.ps + (0.0,) * (width - 1 - spec.n) for spec in specs])
    )
    n = np.array([[spec.n] for spec in specs])
    pbar = [spec.mean for spec in specs]
    j = np.arange(width)
    rhs = np.zeros_like(lhs)
    inner = [r for r, p in enumerate(pbar) if 0.0 < p < 1.0]
    if inner:
        sizes, which = np.unique(n[inner, 0], return_inverse=True)
        coef = np.full((sizes.size, width), NEG_INF)
        for row, size in zip(coef, sizes.tolist()):
            row[: size + 1] = _log_binom_row(size)
        log_p = np.array([[math.log(pbar[r]), math.log1p(-pbar[r])] for r in inner])
        masses = np.exp(
            coef[which] + j * log_p[:, :1] + (n[inner] - j) * log_p[:, 1:]
        )
        # rounding j ln(p) + (n - j) ln(1 - p) leaves the masses a total
        # up to ~4e-13 off 1 at n = 10^4, near the 1e-12 slack; dividing by
        # the total removes that common part
        rhs[inner] = masses / masses.sum(axis=1, keepdims=True)
    for r, p in enumerate(pbar):
        if not 0.0 < p < 1.0:  # a point mass at 0 or n, where the log form has log(0)
            rhs[r, round(p) * specs[r].n] = 1.0
    return np.stack((lhs, rhs))


def _tilt_sums(pmfs, hs):
    """ln sum_j q_j e^(hj) for every pmf q along the last axis of ``pmfs``
    and every h of ``hs``: shape ``pmfs.shape[:-1] + hs.shape``.

    Each sum is shifted by its largest term ln q_j + hj, so every term is
    at most 1, the largest exactly 1, and the sum lies in [1, n + 1]:
    nothing overflows at large h, and a subnormal q_j costs no precision.
    """
    with np.errstate(divide="ignore"):  # ln 0 = -inf drops a zero mass
        terms = np.log(pmfs)[..., None, :] + hs[:, None] * np.arange(pmfs.shape[-1])
    top = terms.max(axis=-1, keepdims=True)
    terms -= top
    return top[..., 0] + np.log(np.exp(terms, out=terms).sum(axis=-1))


# ---------------------------------------------------------------------------
# subset-moment transforms (bitmask indexed, n <= 20)


def _check_cap(n: int):
    if n > MAX_ENUM_N:
        raise ValueError(f"n={n} exceeds cap {MAX_ENUM_N}")


@lru_cache(maxsize=8)
def subset_sizes(n: int) -> np.ndarray:
    """|A| for every subset A of {0,...,n-1} (bitmask indexed), by doubling;
    one read-only array per n."""
    sizes = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        sizes = np.concatenate([sizes, sizes + 1])
    return _read_only(sizes)


def _lattice_products(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row-wise prod_{i in A} hi_i * prod_{i not in A} lo_i for every A.

    ``hi`` is (m, n) and ``lo`` is (m, n), or None for all ones; the result
    is (m, 2^n), bitmask indexed.  Built by doubling in place: step i writes
    the sets containing i from the first 2^i columns times hi_i, then
    scales those columns by lo_i.
    """
    m, n = hi.shape
    out = np.empty((m, 1 << n))
    out[:, 0] = 1.0
    for i in range(n):
        half = 1 << i
        np.multiply(out[:, :half], hi[:, i : i + 1], out=out[:, half : 2 * half])
        if lo is not None:
            out[:, :half] *= lo[:, i : i + 1]
    return out


def _atom_sum(dist: JointDist, per_atom, width: int) -> np.ndarray:
    """sum_k w_k per_atom(x_k) for a row function ``per_atom`` of the given
    output width, in chunks of atoms."""
    rows = max(1, _CHUNK_ENTRIES // width)
    out = np.zeros(width)
    for s in range(0, len(dist.ws), rows):
        out += dist.ws[s : s + rows] @ per_atom(dist.xs[s : s + rows])
    return out


def subset_product_moments(dist: JointDist) -> np.ndarray:
    """E[prod_{i in A} X_i] for every subset A (bitmask indexed).

    For a Bernoulli law this is the superset sum of the outcome pmf, one
    pass per coordinate over a (-1, 2, 2^i) view.
    """
    _check_cap(dist.n)
    if not dist.is_bernoulli:
        return _atom_sum(dist, lambda xs: _lattice_products(None, xs), 1 << dist.n)
    return _superset_sums(dist.outcome_pmf.copy())


def _superset_sums(table: np.ndarray) -> np.ndarray:
    """In place along the last axis, of length 2^n and bitmask indexed:
    entry A becomes the sum of the entries of all B containing A, by one
    pass per coordinate over a (..., 2, 2^i) view.  Returns ``table``."""
    for i in range(table.shape[-1].bit_length() - 1):
        pairs = table.reshape(*table.shape[:-1], -1, 2, 1 << i)
        pairs[..., 0, :] += pairs[..., 1, :]
    return table


def subset_zeta_moments(dist: JointDist) -> np.ndarray:
    """E[Z_A] for every subset A (bitmask indexed); for a Bernoulli law the
    outcome pmf itself."""
    _check_cap(dist.n)
    if dist.is_bernoulli:
        return dist.outcome_pmf.copy()
    return _atom_sum(dist, lambda xs: _lattice_products(1.0 - xs, xs), 1 << dist.n)


def law_tables(n: int, draws: Sequence) -> tuple:
    """(pmfs, z_laws, means) of the Bernoulli laws ``draws`` on n
    coordinates, 1 <= n <= 12, one row per draw: a (laws, 2^n) table of
    outcome pmfs P[X = 1_A] (bitmask indexed, bit i set means X_i = 1), a
    (laws, n + 1) table of laws of Z and a (laws, n) table of means E[X_i].
    The laws are built together, straight into the tables.

    A draw is one of:

    - an array q of n rates in [0, 1], the law of independent
      Bernoulli(q_i), over all 2^n outcomes;
    - a (constraint, seed) pair, a law drawn by its own generator
      ``default_rng(seed)``, so that the laws do not depend on each other
      and each is deterministic given its seed.  With constraint None the
      law has 2..16 atoms at distinct outcomes with Dirichlet weights.
      With a :class:`ProductBound` or :class:`SplitBound` it is a Dirichlet
      mixture of 2..5 product-Bernoulli laws, over all 2^n outcomes, whose
      rates are drawn from [0, gamma] or [1 - delta, gamma].  Such a law
      meets the constraint by construction, so nothing is checked: each
      product component meets every cap (E[prod_A X] = prod_A p_i <=
      gamma^|A|, and E[Z_A] = prod_A p_i prod_{not A} (1 - p_i) <=
      gamma^|A| delta^(n-|A|)), and the caps are linear in the law, so the
      mixture meets them too.  An infeasible constraint is refused before
      its law is drawn;
    - a (masks, weights) pair, a law with one atom at each bitmask of
      ``masks`` (they may repeat) and the weights.  These are checked:
      every mask in [0, 2^n), one weight per mask, every weight a
      nonnegative number and their total positive and finite.

    One ``_lattice_products`` call covers the mixture components of every
    constrained draw and one ``zeta_decomposition`` every rate vector.
    Each row is bit for bit what a ``JointDist`` of the law's atoms gives
    (``outcome_pmf``, ``z_distribution`` and ``means()``), since summed in
    another order it would round differently: the weights are divided by
    their ``math.fsum``, a mixture adds its components in order, a law
    given by atoms (unconstrained or masks) is added into its rows in atom
    order, the other laws of Z are one ``bincount`` in bitmask order, and
    the means are ``w @ xs`` over the law's own atoms (for a mixture its
    outcomes of positive weight, for a rate vector all outcomes).
    """
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 12:
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    outcomes = 1 << n
    # the rows of each kind, and what each kind's rows are built from
    mixtures, products, atoms = [], [], []
    rates, lows, spans, mixes = [], [], [], []
    masks, weights = [], []
    for l, draw in enumerate(draws):
        if isinstance(draw, np.ndarray):
            products.append(l)
            continue
        first, second = draw
        if isinstance(first, (list, tuple, np.ndarray)):
            atoms.append(l)
            masks.append(np.asarray(first))
            weights.append(np.asarray(second, dtype=float))
            continue
        if isinstance(first, ProductBound):
            if not 0.0 <= first.gamma <= 1.0:
                raise ValueError(f"ProductBound gamma must be in [0, 1], got {first.gamma}")
            lo, hi = 0.0, first.gamma
        elif isinstance(first, SplitBound):
            lo, hi = 1.0 - first.delta, first.gamma
        elif first is not None:
            raise TypeError(f"unsupported constraint {type(first).__name__}")
        rng = np.random.default_rng(second)
        if first is None:
            m = int(rng.integers(2, min(16, outcomes) + 1))
            atoms.append(l)
            masks.append(rng.choice(outcomes, size=m, replace=False))
            weights.append(_dirichlet(rng, m))
        else:
            comps = int(rng.integers(2, 6))
            mixtures.append(l)
            rates.append(rng.random((comps, n)))
            lows.append(lo)
            spans.append(hi - lo)
            mixes.append(_dirichlet(rng, comps))
    pmfs = np.zeros((len(draws), outcomes))
    if mixtures:
        pmfs[mixtures] = _mixture_rows(rates, lows, spans, mixes)
    if products:
        pmfs[products] = zeta_decomposition(np.array([draws[l] for l in products]))
    dense = mixtures + products
    totals = np.ones(len(draws))
    totals[dense] = [math.fsum(memoryview(pmfs[l])) for l in dense]
    pmfs /= totals[:, None]
    bins = (np.arange(len(draws)) * (n + 1))[:, None] + subset_sizes(n)
    z_laws = np.bincount(bins.ravel(), weights=pmfs.ravel(), minlength=len(draws) * (n + 1))
    z_laws = z_laws.reshape(len(draws), n + 1)
    support, means = _outcomes(n), np.empty((len(draws), n))
    for l in mixtures:
        row = pmfs[l]
        if row.all():
            means[l] = row @ support
        else:  # a mixture's atoms are its outcomes of positive weight
            nonzero = np.flatnonzero(row)
            means[l] = row[nonzero] @ support[nonzero]
    for l in products:
        means[l] = pmfs[l] @ support
    if atoms:
        _add_atoms(n, atoms, masks, weights, pmfs, z_laws, means)
    return pmfs, z_laws, means


def _mixture_rows(rates: list, lows: list, spans: list, mixes: list) -> np.ndarray:
    """The outcome probabilities, not yet normalized, of mixture l of
    product-Bernoulli laws with the rates lows[l] + spans[l] * rates[l]
    (rates[l] being uniform draws, one row per component) and the weights
    mixes[l], one row per mixture: all components are expanded by one
    ``_lattice_products`` call, and each mixture adds its weighted rows in
    order, as a per-slice sum does."""
    counts = np.array([len(mix) for mix in mixes])
    rates = (np.repeat(lows, counts)[:, None]
             + np.repeat(spans, counts)[:, None] * np.concatenate(rates))
    terms = _lattice_products(1.0 - rates, rates)
    terms *= np.concatenate(mixes)[:, None]
    starts = np.cumsum(counts) - counts
    rows = terms[starts]
    for c in range(1, counts.max()):
        more = counts > c
        rows[more] += terms[starts[more] + c]
    return rows


def _add_atoms(n, laws, masks, weights, pmfs, z_laws, means):
    """Fill the rows ``laws`` of ``pmfs``, ``z_laws`` and ``means``, all
    zero in the first two, with the laws whose atoms are the bitmasks
    ``masks[i]`` and the weights ``weights[i]``: each weight divided by its
    law's ``math.fsum`` and added into its rows in atom order.  Checks what
    it is given, as ``law_tables`` states."""
    counts = [len(m) for m in masks]
    if counts != [len(w) for w in weights]:
        raise ValueError("one weight per atom required")
    flat = np.concatenate(masks).astype(np.int64, copy=False)
    ws = np.concatenate(weights)
    if bad := flat[(flat < 0) | (flat >= 1 << n)].tolist():
        raise ValueError(f"mask {bad[0]} is outside [0, 2^{n})")
    if not np.all(ws >= 0.0):  # written so that NaN fails it
        raise ValueError("ws: weights must be nonnegative numbers")
    ends = np.cumsum(counts).tolist()
    totals = [math.fsum(memoryview(ws[a:b])) for a, b in zip([0] + ends, ends)]
    for total in totals:
        if not 0.0 < total < math.inf:
            raise ValueError(f"ws: weights sum to {total}, not a positive number")
    ws /= np.repeat(totals, counts)
    rows = np.repeat(laws, counts)
    np.add.at(pmfs, (rows, flat), ws)
    np.add.at(z_laws, (rows, subset_sizes(n)[flat]), ws)
    for l, a, b in zip(laws, [0] + ends, ends):
        means[l] = ws[a:b] @ _outcomes(n)[flat[a:b]]


def _dirichlet(rng, m: int) -> np.ndarray:
    """``rng.dirichlet(np.ones(m))``, drawn and scaled as numpy draws it: m
    standard exponentials times 1 / their sum, added in order in plain
    floats (builtin ``sum`` compensates float items from CPython 3.12 on)."""
    draws = rng.standard_exponential(m)
    total = 0.0
    for x in draws.tolist():
        total += x
    draws *= 1.0 / total
    return draws


@lru_cache(maxsize=8)
def _outcomes(n: int) -> np.ndarray:
    """The (2^n, n) 0/1 float support of all outcomes, row A holding bit i
    of A in column i; one read-only array per n."""
    return _read_only(((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float))
