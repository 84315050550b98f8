"""Evaluators for the tail bounds, one per theorem-stated inequality.

Every evaluator takes the sum-scale threshold ``t`` (the event is
``sum >= t``, except the martingale and U-statistic families where ``t``
is per-variable, as in their statements) and returns a :class:`TailBound`
carrying the log-scale value, the optimizer parameters actually used and
a structured validity verdict.  Hypothesis violations are never warnings:
they produce ``Invalid`` with the violated clause named, and no value.

Every evaluator runs on the standard library alone: the two refined ones
sum at most n + 1 binomial terms with ``math.fsum``, and the G(n,m) bounds
decide their minimum in integers.
"""

from __future__ import annotations

import math

from .numkernel import (
    NEG_INF,
    BinomialSpec,
    binom_pmf_log,
    kl_divergence,
    log_binom_coeff,
    log_gen_binom_coeff,
    to_prob,
)

__all__ = [
    "TailBound",
    "MeanOnly",
    "ProductBound",
    "SplitBound",
    "SymmetricMoments",
    "UStatParams",
    "DependencyGraphParams",
    "hoeffding_bound",
    "ik_bound",
    "linial_luria_bound",
    "expfunct_bound",
    "bincoupling_bound",
    "mcdiarmid_bound",
    "mcdiarmid_refined_bound",
    "kwise_bound",
    "kwise_bernoulli_bound",
    "sss_bound",
    "depgraph_bound",
    "ustat_bound",
    "ustat_refined_bound",
    "gnm_isolated_bound",
    "gnm_triangles_bound",
    "eps_to_t",
    "t_to_eps",
    "check_n",
]


# ---------------------------------------------------------------------------
# result and profile types


class TailBound:
    __slots__ = ("method", "log_bound", "params", "invalid_reason")

    def __init__(self, method: str, log_bound: float | None,
                 params: dict | None = None, invalid_reason: str | None = None):
        self.method, self.log_bound = method, log_bound
        self.params = {} if params is None else params
        self.invalid_reason = invalid_reason

    @property
    def is_valid(self) -> bool:
        return self.invalid_reason is None

    @property
    def bound(self) -> float:
        """Linear-scale value, clamped into [0,1]."""
        if not self.is_valid:
            raise ValueError(f"invalid bound: {self.invalid_reason}")
        return to_prob(self.log_bound)

    def __repr__(self):
        if self.is_valid:
            return f"TailBound({self.method}, log_bound={self.log_bound:.6g})"
        return f"TailBound({self.method}, Invalid({self.invalid_reason!r}))"


def _invalid(method: str, reason: str) -> TailBound:
    return TailBound(method=method, log_bound=None, invalid_reason=reason)


def check_n(method: str, n, threshold) -> TailBound | None:
    """Invalid unless n is a positive integer and the threshold a number.

    Every evaluator that takes a summand count n calls this first; the CLI
    calls it before converting a threshold, which divides by n.
    """
    if n % 1 != 0:
        return _invalid(method, "n not an integer")
    if n < 1:
        return _invalid(method, "n < 1")
    if threshold != threshold:
        return _invalid(method, "threshold is NaN")
    return None


def _check_integer(method: str, name: str, value) -> TailBound | None:
    """Invalid naming ``name`` unless ``value`` is an integer; NaN and the
    infinities are not.  Each evaluator with an integer parameter besides
    n calls this after ``check_n``."""
    if not value % 1 == 0:
        return _invalid(method, f"{name} not an integer")
    return None


def _clamp(log_value: float, params: dict) -> float:
    if log_value > 0.0:
        params["clamped"] = True
        return 0.0
    return log_value


class MeanOnly:
    """Only the average mean p is known."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        self.p = p


class ProductBound:
    """E[prod_{i in A} X_i] <= gamma^|A| for every subset A."""

    __slots__ = ("gamma",)

    def __init__(self, gamma: float):
        self.gamma = gamma


class SplitBound:
    """E[Z_A] <= gamma^|A| * delta^(n-|A|) for every subset A.

    Feasibility forces gamma + delta >= 1; infeasible pairs are rejected.
    """

    __slots__ = ("gamma", "delta")

    def __init__(self, gamma: float, delta: float):
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0,1), got {gamma}")
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must be in (0,1], got {delta}")
        if gamma + delta < 1.0:
            raise ValueError(f"gamma + delta = {gamma + delta} < 1 is infeasible")
        self.gamma, self.delta = gamma, delta


class SymmetricMoments:
    """Exact symmetric moments S_k = sum_{|A|=k} E[prod_{i in A} X_i]."""

    __slots__ = ("s",)

    def __init__(self, s: dict):
        if s.get(0, 1.0) != 1.0 and not math.isclose(s[0], 1.0):
            raise ValueError("S_0 must equal 1")
        self.s = s


class UStatParams:
    """Parameters of a U-statistic sum over d-subsets of n i.i.d. variables."""

    __slots__ = ("n", "d", "p")

    def __init__(self, n: int, d: int, p: float):
        if d < 1 or n < 1:
            raise ValueError("n and d must be positive")
        if n % 1 or d % 1:
            raise ValueError(f"n and d must be integers, got n={n}, d={d}")
        if n % d != 0:
            raise ValueError(f"d={d} does not divide n={n}")
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0,1), got {p}")
        self.n, self.d, self.p = int(n), int(d), p

    @property
    def k(self) -> int:
        return self.n // self.d

    @property
    def n_d(self) -> int:
        return math.comb(self.n - 1, self.d - 1)


class DependencyGraphParams:
    __slots__ = ("n", "alpha")

    def __init__(self, n: int, alpha: int):
        if alpha % 1:
            raise ValueError(f"independence number must be an integer, got {alpha}")
        if not 1 <= alpha <= n:
            raise ValueError(f"independence number {alpha} outside [1, {n}]")
        self.n, self.alpha = n, alpha


# ---------------------------------------------------------------------------
# threshold conversions


def eps_to_t(n: int, base: float, eps: float) -> float:
    """Sum-scale threshold t = n*base*(1+eps)."""
    return n * base * (1.0 + eps)


def t_to_eps(n: int, base: float, t: float) -> float:
    return t / (n * base) - 1.0


# ---------------------------------------------------------------------------
# core evaluators


def _log_hoeffding(n: int, p: float, t: float) -> float:
    """ln H(n,p,t) via the product closed form."""
    return (
        t * math.log(p)
        + (n - t) * math.log1p(-p)
        + t * (math.log(n - t) - math.log(t))
        + n * (math.log(n) - math.log(n - t))
    )


def hoeffding_bound(n: int, p: float, t: float) -> TailBound:
    """Optimal exponential-moment bound for independent [0,1] summands.

    Returns ln H(n,p,t) = -n*D(t/n || p); valid for np < t < n.
    """
    method = "hoeffding"
    if bad := check_n(method, n, t):
        return bad
    if not 0.0 < p < 1.0:
        return _invalid(method, "p outside (0,1)")
    if t <= n * p:
        return _invalid(method, "t <= np")
    if t >= n:
        return _invalid(method, "t >= n")
    q = t / n
    log_bound = -n * kl_divergence(q, p)
    h_opt = math.log(t * (1.0 - p)) - math.log((n - t) * p)
    params = {
        "h": h_opt,
        "eps": t_to_eps(n, p, t),
        "closed_form": _log_hoeffding(n, p, t),
        "provenance": "closed-form",
    }
    return TailBound(method, _clamp(log_bound, params), params)


def ik_bound(n: int, gamma: float, eps: float, c: float = 1.0) -> TailBound:
    """Covariance-condition bound c * exp(-n*D(gamma(1+eps)||gamma)).

    The default c=1 is sound only for Bernoulli 0/1 inputs; the general
    [0,1] constant is unknown, so the result is annotated accordingly
    unless the caller overrides c.
    """
    method = "ik"
    if bad := check_n(method, n, eps):
        return bad
    if not 0.0 < gamma < 1.0:
        return _invalid(method, "gamma outside (0,1)")
    if not c >= 1.0:
        return _invalid(method, "c < 1")
    if eps <= 0.0:
        return _invalid(method, "eps <= 0")
    if eps >= 1.0 / gamma - 1.0 or gamma * (1.0 + eps) >= 1.0:
        return _invalid(method, "eps >= 1/gamma - 1")
    log_bound = math.log(c) - n * kl_divergence(gamma * (1.0 + eps), gamma)
    params = {
        "eps": eps,
        "c": c,
        "t": eps_to_t(n, gamma, eps),
        "soundness": "Bernoulli-only" if c == 1.0 else "general",
    }
    return TailBound(method, _clamp(log_bound, params), params)


def _profile_log_sk(profile, n: int, k: int) -> float | None:
    """ln S_k from a moment profile, or None if the profile cannot supply it
    (S_k not given, or a negative or NaN moment)."""
    if isinstance(profile, SymmetricMoments):
        log_c, x, power = 0.0, profile.s.get(k), 1
    elif isinstance(profile, ProductBound):
        log_c, x, power = log_binom_coeff(n, k), profile.gamma, k
    elif isinstance(profile, MeanOnly) and k == 1:
        log_c, x, power = 0.0, n * profile.p, 1
    else:
        return None
    if x is None or not x >= 0.0:
        return None
    return log_c + power * math.log(x) if x > 0.0 else NEG_INF


def linial_luria_bound(n: int, beta_n: int, k: int, profile) -> TailBound:
    """Symmetric-moment bound S_k / C(beta_n, k) for Bernoulli indicators,
    0 < k <= beta_n: C(Z, k) >= C(beta_n, k) >= 1 once Z >= beta_n."""
    method = "linial-luria"
    if bad := (check_n(method, n, beta_n) or _check_integer(method, "beta_n", beta_n)
               or _check_integer(method, "k", k)):
        return bad
    if not 0 < beta_n <= n:
        return _invalid(method, "beta_n outside (0, n]")
    if not 0 < k <= beta_n:
        return _invalid(method, "k not in (0, beta_n]")
    log_sk = _profile_log_sk(profile, n, k)
    if log_sk is None:
        return _invalid(method, f"profile cannot supply S_{k}")
    if log_sk == NEG_INF:
        return TailBound(method, NEG_INF, {"k": k})
    params = {"k": k, "beta_n": beta_n}
    log_bound = log_sk - log_binom_coeff(beta_n, k)
    return TailBound(method, _clamp(log_bound, params), params)


def expfunct_bound(n: int, gamma: float, delta: float, t: float) -> TailBound:
    """Product-split bound gamma^t delta^(n-t) ((n-t)/t)^t (n/(n-t))^n.

    Requires E[Z_A] <= gamma^|A| delta^(n-|A|) for all subsets A, which
    forces gamma + delta >= 1.  Params carry the KL-with-correction form,
    which the closed form never exceeds.
    """
    method = "expfunct"
    if bad := check_n(method, n, t):
        return bad
    if not 0.0 < gamma < 1.0:
        return _invalid(method, "gamma outside (0,1)")
    if not 0.0 < delta <= 1.0:
        return _invalid(method, "delta outside (0,1]")
    if gamma + delta < 1.0:
        return _invalid(method, "gamma + delta < 1")
    if t <= n * gamma:
        return _invalid(method, "t <= n*gamma")
    if t >= n:
        return _invalid(method, "t >= n")
    eps = t_to_eps(n, gamma, t)
    log_closed = (
        t * math.log(gamma)
        + (n - t) * math.log(delta)
        + t * (math.log(n - t) - math.log(t))
        + n * (math.log(n) - math.log(n - t))
    )
    q = t / n
    log_kl_form = -n * (
        kl_divergence(q, gamma) - (1.0 - q) * (math.log(delta) - math.log1p(-gamma))
    )
    h_opt = math.log(t * delta) - math.log((n - t) * gamma)
    params = {
        "eps": eps,
        "h": h_opt,
        "kl_form": min(0.0, log_kl_form),
    }
    return TailBound(method, _clamp(log_closed, params), params)


def bincoupling_bound(n: int, p: float, t: float) -> TailBound:
    """Factor-2 coupling bound 2*exp(-n*D(p(1+eps0)||p)) with t-1 = np(1+eps0).

    The coupling argument inherits the covariance condition at rate p, so
    soundness requires E[prod_{i in A} X_i] <= p^|A|.
    """
    method = "bincoupling"
    if bad := check_n(method, n, t):
        return bad
    if not 0.0 < p < 1.0:
        return _invalid(method, "p outside (0,1)")
    if t <= n * p + 1.0:
        return _invalid(method, "t <= np+1")
    if t >= n:
        return _invalid(method, "t >= n")
    eps0 = (t - 1.0 - n * p) / (n * p)
    q = p * (1.0 + eps0)
    if q >= 1.0:
        return _invalid(method, "t-1 >= n")
    log_bound = math.log(2.0) - n * kl_divergence(q, p)
    params = {"eps0": eps0}
    return TailBound(method, _clamp(log_bound, params), params)


def mcdiarmid_bound(n: int, p: float, t: float) -> TailBound:
    """Martingale-difference bound H_m(n,p,t) = exp(-n*D(p+t||p)).

    Here t is per-variable: the event is sum(Y_i) >= n*t with
    -p_i <= Y_i <= 1-p_i and p the average of the p_i.
    """
    method = "mcdiarmid"
    if bad := check_n(method, n, t):
        return bad
    if not 0.0 < p < 1.0:
        return _invalid(method, "p outside (0,1)")
    if t <= 0.0:
        return _invalid(method, "t <= 0")
    if t >= 1.0 - p or p + t >= 1.0:
        return _invalid(method, "t >= 1-p")
    log_bound = -n * kl_divergence(p + t, p)
    params = {"foolproof": -2.0 * n * t * t}
    return TailBound(method, _clamp(log_bound, params), params)


def _log_sum_exp(values: list) -> float:
    """ln sum(exp(v)) of finite values: shifted by the largest, whose term
    is exactly 1, so fsum gives the rest correctly rounded for log1p."""
    top = max(values)
    return top + math.log1p(math.fsum([-1.0, *(math.exp(v - top) for v in values)]))


def _mds_h_threshold(p: float) -> float:
    """Lower t-threshold below which the optimal h drops to <= 1."""
    return p * (1.0 - p) * (math.e - 1.0) / (1.0 - p + math.e * p)


def mcdiarmid_refined_bound(n: int, p: float, t: float) -> TailBound:
    """Missing-factor refinement of the martingale-difference bound.

    Valid when n(p+t) is a positive integer and t is large enough that the
    optimal exponential tilt h exceeds 1.  Always at most the plain bound.
    """
    method = "mcdiarmid-refined"
    if bad := check_n(method, n, t):
        return bad
    n = int(n)
    if not 0.0 < p < 1.0:
        return _invalid(method, "p outside (0,1)")
    if t >= 1.0 - p:
        return _invalid(method, "t >= 1-p")
    if t <= 0.0:
        return _invalid(method, "t <= 0")
    ell_real = n * (p + t)
    ell = round(ell_real)
    if abs(ell_real - ell) > 1e-9 or ell < 1:
        return _invalid(method, "n(p+t) not a positive integer")
    if ell <= n * p or ell >= n:
        return _invalid(method, "n(p+t) outside (np, n)")
    if t <= _mds_h_threshold(p):
        return _invalid(method, "t too small: h <= 1")
    h = math.log((t + p) * (1.0 - p)) - math.log(p * (1.0 - p - t))
    missing = (1.0 + h) / math.exp(h)
    spec = BinomialSpec(n, p)
    upper = [binom_pmf_log(spec, j) for j in range(ell, n + 1)]
    # H_m - T telescopes to the upper part of the tilted sum, so no
    # subtraction of close quantities is ever performed
    log_hm_minus_t = _log_sum_exp([v + h * i for i, v in enumerate(upper)])
    log_bound = _log_sum_exp([math.log(missing) + log_hm_minus_t,
                              math.log1p(-missing) + upper[0]])
    params = {
        "h": h,
        "missing_factor": missing,
        "ell": ell,
        "log_hm": -n * kl_divergence(p + t, p),
    }
    return TailBound(method, _clamp(log_bound, params), params)


def kwise_bound(n: int, k: int, p: float, eps: float) -> TailBound:
    """k-wise independence bound (p-p^2)^(k-n) * exp(-n*D(p(1+eps)||p))."""
    method = "kwise"
    if bad := check_n(method, n, eps) or _check_integer(method, "k", k):
        return bad
    if not 1 <= k <= n:
        return _invalid(method, "k outside [1, n]")
    if not 0.0 < p < 1.0:
        return _invalid(method, "p outside (0,1)")
    if eps <= 0.0:
        return _invalid(method, "eps <= 0")
    if eps >= 1.0 / p - 1.0 or p * (1.0 + eps) >= 1.0:
        return _invalid(method, "eps >= 1/p - 1")
    log_bound = -(n - k) * math.log(p * (1.0 - p)) - n * kl_divergence(
        p * (1.0 + eps), p
    )
    params = {"eps": eps, "t": eps_to_t(n, p, eps)}
    return TailBound(method, _clamp(log_bound, params), params)


def kwise_bernoulli_bound(n: int, k: int, p: float, eps: float) -> TailBound:
    """Bernoulli k-wise bound C(n,k) p^k / C(np(1+eps), k), integer threshold."""
    method = "kwise-bernoulli"
    if bad := check_n(method, n, eps) or _check_integer(method, "k", k):
        return bad
    if not 1 <= k <= n:
        return _invalid(method, "k outside [1, n]")
    if not 0.0 < p < 1.0:
        return _invalid(method, "p outside (0,1)")
    if eps <= 0.0:
        return _invalid(method, "eps <= 0")
    m_real = n * p * (1.0 + eps)
    if m_real == math.inf:
        return _invalid(method, "np(1+eps) > n")
    m = round(m_real)
    if abs(m_real - m) > 1e-9 or m < 1:
        return _invalid(method, "np(1+eps) not a positive integer")
    if m <= k:
        return _invalid(method, "np(1+eps) <= k")
    if m > n:
        return _invalid(method, "np(1+eps) > n")
    log_bound = (
        log_binom_coeff(n, k) + k * math.log(p) - log_binom_coeff(m, k)
    )
    params = {"threshold": m, "k": k}
    return TailBound(method, _clamp(log_bound, params), params)


def sss_bound(n: int, p: float, eps: float, k: int) -> TailBound:
    """Schmidt-Siegel-Srinivasan bound C(n,k*) p^k* / C(np(1+eps), k*).

    k* = ceil(np*eps/(1-p)); requires k-wise independence with k >= k*.
    The top binomial-coefficient argument may be non-integer and is
    evaluated through the log-gamma extension.
    """
    method = "sss"
    if bad := check_n(method, n, eps) or _check_integer(method, "k", k):
        return bad
    if not 0.0 < p < 1.0:
        return _invalid(method, "p outside (0,1)")
    if eps <= 0.0:
        return _invalid(method, "eps <= 0")
    if eps >= 1.0 / p - 1.0:
        return _invalid(method, "eps >= 1/p - 1")
    k_star = math.ceil(n * p * eps / (1.0 - p) - 1e-12)
    if k < k_star:
        return _invalid(method, f"k < k* = {k_star}")
    if k_star < 1:
        return _invalid(method, "k* < 1 (eps too small)")
    m = n * p * (1.0 + eps)
    log_bound = (
        log_binom_coeff(n, k_star)
        + k_star * math.log(p)
        - log_gen_binom_coeff(m, k_star)
    )
    params = {"k_star": k_star, "threshold": m}
    return TailBound(method, _clamp(log_bound, params), params)


def depgraph_bound(params: DependencyGraphParams, t: float) -> TailBound:
    """Dependency-graph bound 2^(n-alpha) * H(n, 1/2, t)."""
    method = "depgraph"
    if bad := check_n(method, params.n, t):
        return bad
    n, alpha = params.n, params.alpha
    if t <= n / 2.0:
        return _invalid(method, "t <= n/2")
    if t >= n:
        return _invalid(method, "t >= n")
    log_bound = (n - alpha) * math.log(2.0) - n * kl_divergence(t / n, 0.5)
    out = {"alpha": alpha}
    return TailBound(method, _clamp(log_bound, out), out)


def ustat_bound(params: UStatParams, t: float) -> TailBound:
    """Hoeffding's U-statistic bound exp(-k*D(p+t||p)) at y = E[X] + t*C(n,d)."""
    method = "ustat"
    if bad := check_n(method, params.n, t):
        return bad
    k, p, n_d = params.k, params.p, params.n_d
    if t <= 0.0:
        return _invalid(method, "t <= 0")
    if t >= 1.0 - p or p + t >= 1.0:
        return _invalid(method, "t >= 1-p")
    log_bound = -k * kl_divergence(p + t, p)
    y = k * n_d * (p + t)
    out = {
        "y": y,
        "N_d": n_d,
        "k": k,
        "foolproof": -2.0 * k * t * t,
    }
    return TailBound(method, _clamp(log_bound, out), out)


def ustat_refined_bound(params: UStatParams, t: float) -> TailBound:
    """Missing-factor refinement of the U-statistic bound.

    Strictly below exp(-2kt^2) on its validity domain; requires k(p+t) a
    positive integer in (kp, k) and t above the h*N_d > 1 threshold.
    """
    method = "ustat-refined"
    if bad := check_n(method, params.n, t):
        return bad
    k, p, n_d = params.k, params.p, params.n_d
    if t <= 0.0:
        return _invalid(method, "t <= 0")
    if t >= 1.0 - p:
        return _invalid(method, "t >= 1-p")
    ell_real = k * (p + t)
    ell = round(ell_real)
    if abs(ell_real - ell) > 1e-9 or ell < 1:
        return _invalid(method, "k(p+t) not a positive integer")
    if ell <= k * p or ell >= k:
        return _invalid(method, "k(p+t) outside (kp, k)")
    if t <= _mds_h_threshold(p):
        return _invalid(method, "t too small: h*N_d <= 1")
    h_nd = math.log((p + t) * (1.0 - p)) - math.log(p * (1.0 - p - t))
    h = h_nd / n_d
    missing = (h_nd + 1.0) / math.exp(h_nd)
    y = k * n_d * (p + t)
    spec = BinomialSpec(k, p)
    foolproof = math.exp(-2.0 * k * t * t)
    t2 = math.exp(_log_sum_exp([binom_pmf_log(spec, j) + h * (n_d * j - y)
                                for j in range(ell)]))
    value = (missing * (foolproof - t2)
             + (1.0 - missing) * math.exp(binom_pmf_log(spec, ell)))
    if value <= 0.0:
        log_bound = NEG_INF
    else:
        log_bound = math.log(value)
    out = {
        "h": h,
        "h_N_d": h_nd,
        "missing_factor": missing,
        "y": y,
        "N_d": n_d,
        "k": k,
        "T2": t2,
        "foolproof": -2.0 * k * t * t,
    }
    return TailBound(method, _clamp(log_bound, out), out)


# ---------------------------------------------------------------------------
# exact G(n,m) bounds


# CPython's own tests hold math.lgamma to 5 ulps or 1e-15 of the exact
# value; the G(n,m) screen allows each value 64 ulps and 1e-14
_LGAMMA_REL, _LGAMMA_ABS = 64.0 * 2.0 ** -52, 1e-14


def _gnm_min_over_k(method: str, t: int, denom_graphs: int, binomials) -> TailBound:
    """min over 0<k<t (t >= 2) of numerator(k) / (C(t,k) denom_graphs), the
    first minimizing k on ties.  ``binomials(k)`` lists the (N, j) whose
    C(N, j) multiply to numerator(k), or is None where numerator(k) is 0.

    Every k is screened in floats with lgamma.  Only the k whose float log
    is within twice the largest lgamma error bound of the least are
    compared, in exact integer arithmetic, so the result is the exact
    minimum's."""
    lg = math.lgamma
    screen, slack = [], 0.0
    for k in range(1, t):
        pairs = binomials(k)
        if pairs is None:
            # every earlier numerator is positive
            return TailBound(method, NEG_INF, {"k": k})
        terms = [lg(t - k + 1), lg(k + 1), -lg(t + 1)]
        for big, j in pairs:
            terms += [lg(big + 1), -lg(j + 1), -lg(big - j + 1)]
        screen.append((k, math.fsum(terms)))
        slack = max(slack, _LGAMMA_REL * math.fsum(map(abs, terms))
                    + _LGAMMA_ABS * len(terms))
    least = min(value for _, value in screen)
    best_num = best_ct = best_k = None
    for k, value in screen:
        if value > least + 2.0 * slack:
            continue
        num, ct = math.prod(math.comb(*pair) for pair in binomials(k)), math.comb(t, k)
        # denom_graphs is common to every term, so comparing num/ct by
        # cross-multiplication orders them, with no gcd per term
        if best_k is None or num * best_ct < best_num * ct:
            best_num, best_ct, best_k = num, ct, k
    params = {"k": best_k}
    # the log of the minimum in lowest terms, the same float a reduced
    # fraction gives
    den = best_ct * denom_graphs
    g = math.gcd(best_num, den)
    log_value = math.log(best_num // g) - math.log(den // g)
    return TailBound(method, _clamp(log_value, params), params)


def gnm_isolated_bound(n: int, m: int, t: int) -> TailBound:
    """Tail bound on the number of isolated vertices in G(n,m).

    min over 0<k<t of C(n,k) C(C(n-k,2), m) / (C(t,k) C(C(n,2), m)),
    evaluated in exact integer arithmetic.
    """
    method = "gnm-isolated"
    if bad := (check_n(method, n, t) or _check_integer(method, "m", m)
               or _check_integer(method, "t", t)):
        return bad
    n, m, t = int(n), int(m), int(t)
    if not 1 <= t <= n:
        return _invalid(method, "t outside [1, n]")
    if m > math.comb(n, 2) or m < 0:
        return _invalid(method, "m outside [0, C(n,2)]")
    if t == 1:
        return _invalid(method, "t too small: empty minimization range")

    def binomials(k):
        # C(C(n-k,2), m) is 0 once fewer than m pairs are left
        pairs = math.comb(n - k, 2)
        return ((n, k), (pairs, m)) if pairs >= m else None

    return _gnm_min_over_k(method, t, math.comb(math.comb(n, 2), m), binomials)


def gnm_triangles_bound(n: int, m: int, t: int) -> TailBound:
    """Tail bound on the number of triangles in G(n,m).

    min over 0<k<t of
    C(C(n,3),k) C(C(n,2)-floor(3k/(n-2)), m-floor(3k/(n-2)))
      / (C(t,k) C(C(n,2), m)),
    exact integer arithmetic, floor exactly as displayed.
    """
    method = "gnm-triangles"
    if bad := (check_n(method, n, t) or _check_integer(method, "m", m)
               or _check_integer(method, "t", t)):
        return bad
    n, m, t = int(n), int(m), int(t)
    n3 = math.comb(n, 3)
    if not 2 <= t <= n3:
        return _invalid(method, "t outside {2,...,C(n,3)}")
    if m > math.comb(n, 2) or m < 0:
        return _invalid(method, "m outside [0, C(n,2)]")
    n2 = math.comb(n, 2)

    def binomials(k):
        forced = (3 * k) // (n - 2)
        if m < forced:
            # no m-edge graph contains the forced edges
            return None
        return (n3, k), (n2 - forced, m - forced)

    return _gnm_min_over_k(method, t, math.comb(n2, m), binomials)
