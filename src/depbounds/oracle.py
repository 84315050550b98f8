"""Exact small-instance machinery: explicit joint distributions, the
subset-weight decomposition of a sum of [0,1] variables, the induced
distribution on {0,...,n}, the convex-function tail bound E f(Z)/f(t) over
exponentials f(x) = exp(h*x), and the averaged-binomial ordering checks.

Everything here is a ground-truth oracle: sizes are capped (2^n
enumeration at n <= 20) and computations are exact up to float rounding.

The soundness and sandwich sweeps of ``verify`` read the tails of a
Bernoulli law from one per-law table, ``tail_lookup``, whose entries equal
``exact_tail`` bit for bit; ``exact_tail`` stays the oracle for other laws.

Subset moments are whole-array transforms over the subset lattice.  For a
Bernoulli law the outcome pmf (a ``bincount`` of the atom bitmasks) is
E[Z_A] itself, its superset-sum (zeta) transform is E[prod_{i in A} X_i]
and the law of Z is a ``bincount`` of the atom sizes: O(n 2^n) however
many atoms the law has.  Other laws are broadcast over their atoms, in
chunks that keep each (atoms, 2^n) block near 8 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .numkernel import (
    NEG_INF,
    PoissonBinomialSpec,
    _binom_pmf_log_vec,
    _poisson_binom_rows,
    logsumexp,
    poisson_binom_dist,
)
from .bounds import ProductBound, SplitBound, TailBound, _clamp, _invalid

MAX_ENUM_N = 20

# entries of one (atoms, 2^n) block on the non-Bernoulli paths
_CHUNK_ENTRIES = 1 << 20

__all__ = [
    "JointDist",
    "ZDist",
    "default_h_grid",
    "zeta_decomposition",
    "z_distribution",
    "exact_tail",
    "tail_lookup",
    "dephoeff_bound",
    "averaged_binomial_checks",
    "random_joint_dist",
    "subset_product_moments",
    "subset_zeta_moments",
    "subset_sizes",
]

# ---------------------------------------------------------------------------
# joint distributions


@dataclass
class JointDist:
    """Finite joint distribution of n dependent [0,1]-valued variables.

    ``xs`` is an (m, n) array of support points, ``ws`` the matching
    probability weights (summing to 1 within 1e-12).
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
        if np.any(self.xs < 0.0) or np.any(self.xs > 1.0):
            raise ValueError("coordinates must lie in [0,1]")
        if np.any(self.ws < 0.0):
            raise ValueError("weights must be nonnegative")
        total = math.fsum(self.ws)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")

    @cached_property
    def is_bernoulli(self) -> bool:
        return bool(np.all((self.xs == 0.0) | (self.xs == 1.0)))

    def means(self) -> np.ndarray:
        return self.ws @ self.xs

    @property
    def mean_rate(self) -> float:
        """Average coordinate mean p = (1/n) sum E[X_i]."""
        return float(self.means().mean())

    @classmethod
    def from_masks(cls, n: int, masks, ws) -> "JointDist":
        """Bernoulli law with one atom per bitmask (bit i set means X_i = 1);
        the weights are renormalized to sum to 1."""
        masks = np.asarray(masks, dtype=np.int64)
        xs = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        ws = np.asarray(ws, dtype=float)
        return cls(n=n, xs=xs, ws=ws / math.fsum(ws))


@dataclass
class ZDist:
    """Distribution on {0,...,n} induced by the subset-weight decomposition."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if np.any(self.probs < -1e-15):
            raise ValueError("negative probability")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total}, not 1")

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
    i in A).  The weights sum to 1 and their size-weighted sums recover
    sum(x); both identities hold by construction.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n > MAX_ENUM_N:
        raise ValueError(f"n={n} exceeds the 2^n enumeration cap {MAX_ENUM_N}")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("coordinates must lie in [0,1]")
    return _lattice_products(1.0 - x[None, :], x[None, :])[0]


def z_distribution(dist: JointDist) -> ZDist:
    """Law of Z on {0,...,n}: P[Z=j] = sum over |A|=j of E[zeta_A].

    The size-j subset sums of the zeta weights of a point x are exactly
    the Poisson-binomial pmf of the coordinates of x, so the atoms go
    through one DP convolution together rather than a 2^n enumeration;
    a Bernoulli atom is a point mass at its number of ones.
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


def tail_lookup(dist: JointDist):
    """P[sum X_i >= t] of a Bernoulli law as a function of finite t, equal
    bit for bit to ``exact_tail(dist, t)``.

    Every atom sum is an integer, so ``sums >= t - 1e-12`` selects the same
    atoms as ``sums >= j`` at j = ceil(t - 1e-12) clamped to [0, n + 1];
    the tail at each such j is computed on its first lookup only.
    """
    if not dist.is_bernoulli:
        raise ValueError("tail_lookup needs a Bernoulli law; use exact_tail")
    sums = dist.xs.sum(axis=1)
    tails = {}

    def tail(t: float) -> float:
        j = min(max(math.ceil(t - 1e-12), 0), dist.n + 1)
        if j not in tails:
            tails[j] = float(dist.ws[sums >= j].sum())
        return tails[j]

    return tail


# ---------------------------------------------------------------------------
# the convex-function bound over exponential tilts


def default_h_grid(center: float, span: float = 8.0, size: int = 512) -> np.ndarray:
    """Geometric grid of tilts around (and containing) a closed-form optimizer."""
    center = max(center, 1e-9)
    grid = center * np.geomspace(1.0 / span, span, size)
    # an odd-size geomspace would hit the center only up to rounding;
    # include it exactly so closed-form optima are reproduced
    return np.sort(np.append(grid, center))


def dephoeff_bound(zdist: ZDist, t: float, h_grid) -> TailBound:
    """Best tail bound E[f(Z)] / f(t) over f(x) = exp(h*x), h in ``h_grid``.

    The infimum over all increasing convex functions is not computable;
    the reported value is the best tilt on the grid (``params["h"]``) and
    is always an upper bound on P[sum X_i >= t].
    """
    method = "convex-family"
    mean = zdist.mean()
    if t <= mean:
        return _invalid(method, "t <= mean")
    if t >= zdist.n:
        return _invalid(method, "t >= n")
    h = np.asarray(h_grid, dtype=float)
    if h.size == 0:
        return _invalid(method, "empty tilt grid")
    with np.errstate(divide="ignore"):
        logp = np.where(zdist.probs > 0.0, np.log(zdist.probs), NEG_INF)
    vals = logsumexp(logp + h[:, None] * np.arange(zdist.n + 1), axis=1) - h * t
    idx = int(np.argmin(vals))
    params = {"h": float(h[idx])}
    return TailBound(method, _clamp(float(vals[idx]), params), params)


# ---------------------------------------------------------------------------
# classical orderings


def averaged_binomial_checks(ps: PoissonBinomialSpec, hs=(), bs=()):
    """Compare independent trials ps with Bin(n, pbar) at every tilt and
    every threshold, building each of the two pmfs once.

    Returns two bool arrays: E[exp(h*H(p_1..p_n))] <= E[exp(h*Bin(n, pbar))]
    for each h in ``hs`` (h > 0), and P[sum B_i >= b] >= P[Bin(n, pbar) >= b]
    for each b in ``bs`` (0 <= b <= n*pbar).  Exact up to float rounding:
    the trials' pmf comes from the O(n^2) dynamic program, Bin(n, pbar)'s
    from its closed form in O(n).
    """
    n, pbar = ps.n, ps.mean
    hs = np.asarray(hs, dtype=float)
    bs = np.asarray(bs, dtype=np.int64)
    if np.any(hs <= 0.0):
        raise ValueError(f"h must be positive, got {hs}")
    if np.any((bs < 0) | (bs > n * pbar + 1e-12)):
        raise ValueError(f"b={bs} outside [0, n*pbar={n * pbar}]")
    lhs_dist = poisson_binom_dist(ps)
    if 0.0 < pbar < 1.0:
        # rounding j ln(p) + (n - j) ln(1 - p) leaves the masses a total
        # up to ~4e-13 off 1 at n = 10^4, near the 1e-12 slack; dividing by
        # the total removes that common part
        rhs_dist = np.exp(_binom_pmf_log_vec(n, pbar))
        rhs_dist /= rhs_dist.sum()
    else:  # a point mass at 0 or n, where the log form has log(0)
        rhs_dist = np.zeros(n + 1)
        rhs_dist[round(pbar) * n] = 1.0
    # both sides in one call, in log scale so large h stays finite
    lhs, rhs = logsumexp(
        hs[:, None] * np.arange(n + 1), axis=-1,
        b=np.stack((lhs_dist, rhs_dist))[:, None],
    )
    lhs_tail = np.cumsum(lhs_dist[::-1])[::-1]
    rhs_tail = np.cumsum(rhs_dist[::-1])[::-1]
    return lhs <= rhs + 1e-12, lhs_tail[bs] >= rhs_tail[bs] - 1e-12


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
    sizes.flags.writeable = False
    return sizes


def _lattice_products(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row-wise prod_{i in A} hi_i * prod_{i not in A} lo_i for every A.

    ``lo`` and ``hi`` are (m, n); the result is (m, 2^n), bitmask indexed.
    """
    out = np.ones((lo.shape[0], 1))
    for i in range(lo.shape[1]):
        out = np.concatenate([out * lo[:, i : i + 1], out * hi[:, i : i + 1]], axis=1)
    return out


def _atom_sum(dist: JointDist, per_atom, width: int) -> np.ndarray:
    """sum_k w_k per_atom(x_k) for a row function ``per_atom`` of the given
    output width, in chunks of atoms."""
    rows = max(1, _CHUNK_ENTRIES // width)
    out = np.zeros(width)
    for s in range(0, len(dist.ws), rows):
        out += dist.ws[s : s + rows] @ per_atom(dist.xs[s : s + rows])
    return out


def _outcome_pmf(dist: JointDist) -> np.ndarray:
    """P[X = 1_A] for every A of a Bernoulli law (bitmask indexed)."""
    masks = dist.xs.astype(np.int64) @ (1 << np.arange(dist.n, dtype=np.int64))
    return np.bincount(masks, weights=dist.ws, minlength=1 << dist.n)


def subset_product_moments(dist: JointDist) -> np.ndarray:
    """E[prod_{i in A} X_i] for every subset A (bitmask indexed).

    For a Bernoulli law this is the superset sum of the outcome pmf, one
    pass per coordinate over a (-1, 2, 2^i) view.
    """
    _check_cap(dist.n)
    if not dist.is_bernoulli:
        return _atom_sum(
            dist, lambda xs: _lattice_products(np.ones_like(xs), xs), 1 << dist.n
        )
    moments = _outcome_pmf(dist)
    for i in range(dist.n):
        pairs = moments.reshape(-1, 2, 1 << i)
        pairs[:, 0, :] += pairs[:, 1, :]
    return moments


def subset_zeta_moments(dist: JointDist) -> np.ndarray:
    """E[Z_A] for every subset A (bitmask indexed); for a Bernoulli law the
    outcome pmf itself."""
    _check_cap(dist.n)
    if dist.is_bernoulli:
        return _outcome_pmf(dist)
    return _atom_sum(dist, lambda xs: _lattice_products(1.0 - xs, xs), 1 << dist.n)


def random_joint_dist(n: int, profile_constraint=None, seed: int = 0) -> JointDist:
    """Seeded generator of Bernoulli joint distributions, 1 <= n <= 12.

    Unconstrained, the law has 2..16 atoms at distinct outcomes with
    Dirichlet weights.  With a :class:`ProductBound` or :class:`SplitBound`
    constraint it is a Dirichlet mixture of 2..5 product-Bernoulli laws,
    expanded over all 2^n outcomes, whose rates are drawn from [0, gamma]
    or [1 - delta, gamma].  Such a law meets the constraint by
    construction, so nothing is checked: each product component meets
    every cap (E[prod_A X] = prod_A p_i <= gamma^|A|, and E[Z_A] =
    prod_A p_i prod_{not A} (1 - p_i) <= gamma^|A| delta^(n-|A|)), and
    the caps are linear in the law, so the mixture meets them too.  An
    infeasible constraint is refused before anything is drawn.
    Deterministic given the seed.
    """
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 12:
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    if isinstance(profile_constraint, ProductBound):
        if not 0.0 <= profile_constraint.gamma <= 1.0:
            raise ValueError(
                f"ProductBound gamma must be in [0, 1], got {profile_constraint.gamma}"
            )
        lo, hi = 0.0, profile_constraint.gamma
    elif isinstance(profile_constraint, SplitBound):
        lo, hi = 1.0 - profile_constraint.delta, profile_constraint.gamma
    elif profile_constraint is not None:
        raise TypeError(f"unsupported constraint {type(profile_constraint).__name__}")
    rng = np.random.default_rng(seed)
    if profile_constraint is None:
        m = int(rng.integers(2, min(16, 1 << n) + 1))
        masks = rng.choice(1 << n, size=m, replace=False)
        return JointDist.from_masks(n, masks, rng.dirichlet(np.ones(m)))
    comps = int(rng.integers(2, 6))
    rates = lo + (hi - lo) * rng.random((comps, n))
    mix = rng.dirichlet(np.ones(comps))
    outcome_probs = (mix[:, None] * _lattice_products(1.0 - rates, rates)).sum(axis=0)
    masks = np.nonzero(outcome_probs > 0.0)[0]
    return JointDist.from_masks(n, masks, outcome_probs[masks])
