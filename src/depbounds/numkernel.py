"""Numerically stable log-space primitives.

Everything probability-valued in this package lives on the natural-log
scale: a "log-prob" is a float <= 0, with ``-inf`` standing for probability
zero.  Conversion back to linear scale clamps into [0, 1].

The scalar primitives use only :mod:`math`; the array kernels import numpy
in their own bodies, so the closed-form evaluators that use this module
never load it.

A sum of exponentials is shifted by its largest term, ln sum_i e^(a_i) =
a* + ln sum_i e^(a_i - a*), so no term exceeds 1 and none overflows:
``binom_tail_log`` and ``bounds._log_sum_exp`` add the shifted terms with
``math.fsum``, the averaged-binomial tilt sums of :mod:`oracle` on arrays.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

NEG_INF = float("-inf")

__all__ = [
    "NEG_INF",
    "BinomialSpec",
    "PoissonBinomialSpec",
    "kl_divergence",
    "log_binom_coeff",
    "binom_pmf_log",
    "binom_tail_log",
    "poisson_binom_dist",
    "binomial_median_lb_grid",
    "to_prob",
]


def to_prob(log_value: float) -> float:
    """exp of a log-prob, clamped into [0, 1]."""
    if log_value == NEG_INF:
        return 0.0
    return min(1.0, math.exp(min(log_value, 0.0)))


class BinomialSpec:
    """Binomial trial count n >= 1 and success probability p in (0,1)."""

    __slots__ = ("n", "p")

    def __init__(self, n: int, p: float):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0,1), got {p}")
        self.n, self.p = n, p


class PoissonBinomialSpec:
    """Per-trial success probabilities, each in [0,1]."""

    __slots__ = ("ps",)

    def __init__(self, ps: tuple):
        self.ps = ps = tuple(float(p) for p in ps)
        if len(ps) < 1:
            raise ValueError("need at least one trial probability")
        for p in ps:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"trial probability {p} outside [0,1]")

    @property
    def n(self) -> int:
        return len(self.ps)

    @property
    def mean(self) -> float:
        return math.fsum(self.ps) / len(self.ps)


def kl_divergence(q: float, p: float) -> float:
    """Kullback-Leibler divergence D(q||p) for q, p strictly inside (0,1).

    Endpoints are rejected rather than extended by continuity; callers
    that rely on the 0*log(0) convention must handle it themselves.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be strictly inside (0,1), got {q}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be strictly inside (0,1), got {p}")
    # log1p keeps the (1-q)/(1-p) term accurate near the upper endpoint
    value = q * (math.log(q) - math.log(p)) + (1.0 - q) * (
        math.log1p(-q) - math.log1p(-p)
    )
    return max(value, 0.0)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) ln x - x + ln sqrt(2 pi)) for x >= 10, by
    Stirling's series to its x^-13 term; the next term is below 3e-17."""
    r = 1.0 / (x * x)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r * (
        1 / 1188 - r * (691 / 360360 - r / 156)))))) / x


def _stirling_log_beta(p, q, xp=math):
    """ln B(p, q) for reals 10 <= p <= q, where the large terms of
    Stirling's series cancel in closed form; ``xp`` is :mod:`math` for
    floats or numpy for arrays."""
    corr = _stirling_tail(p) + _stirling_tail(q) - _stirling_tail(p + q)
    r = p / (p + q)
    return (_LOG_SQRT_2PI - 0.5 * xp.log(q) + corr + (p - 0.5) * xp.log(r)
            + q * xp.log1p(-r))


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for integers a, b >= 1, or reals a, b > 0 with
    max(a, b) >= 10, to a few ulps of its own size.

    lgamma(a) + lgamma(b) - lgamma(a + b) cancels when one argument is
    large: at a = 3, b = 10^6 the error of each lgamma, about 2e-9, is
    the error of the result.  For p = min(a, b) >= 10 it is Stirling's
    closed form.  Below, for integers B(p, q) = (p - 1)! / (q (q + 1) ...
    (q + p - 1)) with the product exact; for a real p it is lgamma(p)
    minus lgamma(q + p) - lgamma(q) by the difference of Stirling's
    series at q and q + p.
    """
    p, q = min(a, b), max(a, b)
    if p >= 10:
        return _stirling_log_beta(p, q)
    if p % 1 == q % 1 == 0:
        return math.lgamma(p) - math.log(math.prod(range(int(q), int(q + p))))
    return (math.lgamma(p) - (q - 0.5) * math.log1p(p / q) - p * math.log(q + p)
            + p - _stirling_tail(q + p) + _stirling_tail(q))


def log_binom_coeff(n: int, k: int) -> float:
    """ln C(n,k) for integers 0 <= k <= n (integral floats too): the exact
    integer's log while min(k, n - k) < 10, else -ln(n + 1) minus
    ln B(k + 1, n - k + 1), where a difference of lgammas would cancel."""
    if not 0 <= k <= n or n % 1 or k % 1:
        raise ValueError(f"need integers 0 <= k <= n, got n={n}, k={k}")
    n, k = int(n), int(min(k, n - k))
    if k < 10:
        return math.log(math.comb(n, k))
    return -math.log(n + 1) - _log_beta(k + 1, n - k + 1)


def log_gen_binom_coeff(x: float, k: int) -> float:
    """ln of the generalized binomial coefficient C(x,k) = x!/(k!(x-k)!)
    for real x > k - 1.

    A difference of lgammas would cancel at large x.  While k < 10 it is
    the log of an exact integer ratio: with x = a/b, C(x,k) =
    prod_{i<k} (a - i b) / (b^k k!).  Larger k take -ln(x + 1) minus
    ln B(k + 1, x - k + 1).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if x <= k - 1:
        raise ValueError(f"top argument {x} must exceed k-1={k - 1}")
    if k < 10:
        a, b = float(x).as_integer_ratio()
        return math.log(math.prod(a - i * b for i in range(k))) - math.log(
            b**k * math.factorial(k)
        )
    return -math.log(x + 1) - _log_beta(k + 1, x - k + 1)


def binom_pmf_log(spec: BinomialSpec, j: int) -> float:
    """ln P[Bin(n,p) = j]."""
    n, p = spec.n, spec.p
    if j < 0 or j > n:
        raise ValueError(f"j={j} outside {{0,...,{n}}}")
    return (
        log_binom_coeff(n, j) + j * math.log(p) + (n - j) * math.log1p(-p)
    )


def _log_binom_row(n: int) -> np.ndarray:
    """ln C(n, j) for j = 0..n, built the way ``log_binom_coeff`` builds it
    for j <= n/2 and mirrored."""
    import numpy as np

    half = [math.log(math.comb(n, k)) for k in range(min(n // 2, 9) + 1)]
    if n >= 20:  # below, every k is < 10
        k = np.arange(10.0, n // 2 + 1)
        half = np.concatenate(
            (half, -math.log(n + 1) - _stirling_log_beta(k + 1, n - k + 1, np))
        )
    return np.concatenate((half, half[n // 2 - 1 + n % 2 :: -1]))


def _binom_pmf_log_vec(n: int, p: float) -> np.ndarray:
    """ln P[Bin(n,p) = j] for j = 0..n."""
    import numpy as np

    j = np.arange(n + 1)
    return _log_binom_row(n) + j * math.log(p) + (n - j) * math.log1p(-p)


def binom_tail_log(spec: BinomialSpec, j: int) -> float:
    """ln P[Bin(n,p) >= j] by direct log-sum-exp over the upper terms,
    shifted by the largest.

    Never computed as 1 - cdf, so deep tails keep full relative accuracy.
    """
    n = spec.n
    if j < 0 or j > n:
        raise ValueError(f"j={j} outside {{0,...,{n}}}")
    if j == 0:
        return 0.0
    terms = _binom_pmf_log_vec(n, spec.p)[j:]
    top = float(terms.max())
    return min(0.0, top + math.log(math.fsum(map(math.exp, (terms - top).tolist()))))


def poisson_binom_dist(spec: PoissonBinomialSpec) -> np.ndarray:
    """Exact pmf of the number of successes in independent non-identical trials.

    Dynamic-programming convolution in linear scale; the only linear-scale
    computation in the package (log-space convolution buys nothing at
    these sizes).
    """
    import numpy as np

    return _poisson_binom_rows(np.array([spec.ps]))[0]


def _poisson_binom_rows(ps: np.ndarray) -> np.ndarray:
    """Row-wise Poisson-binomial pmfs: (m, n) trial probabilities -> (m, n+1).

    One DP step per trial, in place and vectorized over the rows.  A step
    with p = 0 leaves a pmf exactly unchanged, so step i stops at the last
    row with a nonzero p_i: zero-padded rows in order of decreasing length
    cost only their own trials.
    """
    import numpy as np

    m, n = ps.shape
    probs = np.zeros((m, n + 1))
    probs[:, 0] = 1.0
    nonzero = ps != 0.0
    rows = np.where(nonzero.any(axis=0), m - np.argmax(nonzero[::-1], axis=0), 0)
    for i, k in enumerate(rows.tolist()):
        p = ps[:k, i : i + 1]
        head = probs[:k, : i + 1]
        moved = head * p
        head *= 1.0 - p
        probs[:k, 1 : i + 2] += moved
    return probs


def binomial_median_lb_grid(ns, ps) -> np.ndarray:
    """For every n of ``ns`` and every p of a grid: True iff
    P[Bin(n,p) >= np - 1] >= 1/2, from the exact distribution; the result
    has shape ``np.shape(ns) + np.shape(ps)``.

    Linear scale is safe because the verdict compares with 1/2: each tail
    is within about max(ns) eps of its value (``_binomial_median_tails``).
    """
    return _binomial_median_tails(ns, ps) >= 0.5 - 1e-12


def _binomial_median_tails(ns, ps) -> np.ndarray:
    """P[Bin(n, p) >= j0], j0 = max(0, ceil(np - 1)), for every n of ``ns``
    and p of ``ps``, in shape ``np.shape(ns) + np.shape(ps)``.

    One walk over n = 0..max(ns), vectorised over p; S_n ~ Bin(n, p), q =
    1 - p.  j0 rises by 0 or 1 a step (p < 1), and b_n = P[S_n = j0] moves
    by one exact ratio, (n + 1) q / (n + 1 - j0) where j0 stays and
    (n + 1) p / (j0 + 1) where it rises.  T_n = P[S_n >= j0] gains
    p P[S_n = j0 - 1] = q b_n j0 / (n + 1 - j0) where j0 stays and loses
    q b_n where it rises: a sum of steps of at most 1 from T_0 = 1, never
    1 - cdf, so each tail is within about max(ns) eps.  Work and memory are
    O(max(ns) len(ps)).
    """
    import numpy as np

    ns = np.asarray(ns, dtype=np.int64)
    ps = np.asarray(ps, dtype=float)
    if not np.all(ns >= 1):
        raise ValueError(f"n must be >= 1, got {ns}")
    if not np.all((ps > 0.0) & (ps < 1.0)):
        raise ValueError(f"p must be in (0,1), got {ps}")
    p = ps.ravel()
    q = 1.0 - p
    n = np.arange(ns.max(initial=0) + 1)[:, None]
    j0 = np.maximum(np.ceil(n * p - 1.0 - 1e-12), 0.0)
    # step n -> m = n + 1 from j = j0[n]; the tables b and T are built in
    # place, so at most four (N + 1, P) arrays are alive at once
    j, m = j0[:-1], n[1:]
    rises = j0[1:] > j
    b, tails = np.ones(j0.shape), np.ones(j0.shape)
    ratio, step = b[1:], tails[1:]
    np.subtract(m, j, out=ratio)  # n + 1 - j0 until it holds the ratio
    np.divide(j, ratio, out=step)  # each step over q b_n
    step[rises] = -1.0
    np.divide(m * q, ratio, out=ratio)
    np.divide(m * p, j0[1:], out=ratio, where=rises)
    np.cumprod(b, axis=0, out=b)
    step *= b[:-1]
    step *= q
    np.cumsum(tails, axis=0, out=tails)
    return tails[ns].reshape(ns.shape + ps.shape)
