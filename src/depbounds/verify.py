"""Verification suites: each suite returns a list of (name, passed, detail)
records.  These back the CLI ``verify`` subcommand and the acceptance
tests, so the exact same sweeps run in both places.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds as bd
from . import graphcomb as gc
from . import oracle as oc
from .numkernel import (
    PoissonBinomialSpec,
    binomial_median_lb_grid,
    kl_divergence,
    poisson_binom_dist,
)

SOUNDNESS_TOL = 1e-12
IDENTITY_TOL = 1e-10
# vertex pairs (graphs times C(n,2)) per subgraph-kernel call in the lemma
# suite: each of the kernel's arrays then holds at most 8 MB
KERNEL_PAIRS = 1 << 20

__all__ = [
    "suite_soundness",
    "suite_identities",
    "suite_lemmas",
    "suite_convex_order",
    "suite_sandwich",
    "run_suite",
    "applicable_bound_checks",
    "bernoulli_sum_moments",
]

SUITES = {}


def _suite(name):
    def deco(fn):
        SUITES[name] = fn
        return fn

    return deco


def run_suite(name: str, **kw):
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return fn(**kw)


# ---------------------------------------------------------------------------
# helpers for the soundness sweep


def bernoulli_sum_moments(dist: oc.JointDist):
    """(sum distribution, symmetric moments S_k) of a Bernoulli joint dist."""
    zdist = oc.z_distribution(dist)
    n = dist.n
    sk = {
        k: float(
            sum(zdist.probs[j] * math.comb(j, k) for j in range(k, n + 1))
        )
        for k in range(n + 1)
    }
    return zdist, sk


def _gamma(moments: np.ndarray, sizes: np.ndarray) -> float:
    """Smallest gamma with moments[A] <= gamma^|A| for all A != {}.

    On the product moments this is the ProductBound rate; on the zeta
    moments the SplitBound rate at delta = 1.
    """
    return float((moments[1:] ** (1.0 / sizes[1:])).max())


def _is_independent(dist: oc.JointDist, moments: np.ndarray) -> bool:
    """True iff the product moments ``moments`` of ``dist`` match, within
    1e-9, those of the product law with the same means."""
    means = np.clip(dist.means(), 0.0, 1.0)
    product = oc.subset_product_moments(
        oc.JointDist(n=dist.n, xs=means[None, :], ws=np.ones(1))
    )
    return bool(np.all(np.abs(moments[1:] - product[1:]) <= 1e-9))


def _interior_grid(lo: float, hi: float, count: int = 5) -> list:
    return [lo + (hi - lo) * i / (count + 1) for i in range(1, count + 1)]


def applicable_bound_checks(dist: oc.JointDist, thresholds_per_bound: int = 5):
    """(label, t, TailBound) triples for every bound whose hypotheses the
    distribution provably satisfies, at interior thresholds of each bound's
    validity range."""
    n = dist.n
    checks = []
    moments = oc.subset_product_moments(dist)
    sizes = oc.subset_sizes(n)
    gamma = _gamma(moments, sizes)
    pbar = dist.mean_rate
    zdist, sk = bernoulli_sum_moments(dist)

    if 0.0 < gamma < 1.0:
        for t in _interior_grid(n * gamma, n, thresholds_per_bound):
            eps = bd.t_to_eps(n, gamma, t)
            checks.append(("ik", t, bd.ik_bound(n, gamma, eps, c=1.0)))
        if n * gamma + 1.0 < n:
            for t in _interior_grid(n * gamma + 1.0, n, thresholds_per_bound):
                checks.append(("bincoupling", t, bd.bincoupling_bound(n, gamma, t)))

    gamma_z = _gamma(oc.subset_zeta_moments(dist), sizes)
    if 0.0 < gamma_z < 1.0:
        for t in _interior_grid(n * gamma_z, n, thresholds_per_bound):
            checks.append(
                ("expfunct", t, bd.expfunct_bound(n, gamma_z, 1.0, t))
            )

    profile = bd.SymmetricMoments(sk)
    beta_lo = max(1, math.floor(n * pbar) + 1)
    beta_candidates = list(range(beta_lo, n + 1))[:thresholds_per_bound]
    for beta_n in beta_candidates:
        for k in range(1, beta_n):
            checks.append(
                (
                    f"linial-luria(k={k})",
                    float(beta_n),
                    bd.linial_luria_bound(n, beta_n, k, profile),
                )
            )

    if _is_independent(dist, moments) and 0.0 < pbar < 1.0:
        for t in _interior_grid(n * pbar, n, thresholds_per_bound):
            checks.append(("hoeffding", t, bd.hoeffding_bound(n, pbar, t)))
            eps = bd.t_to_eps(n, pbar, t)
            checks.append(("kwise(k=n)", t, bd.kwise_bound(n, n, pbar, eps)))

    if np.allclose(dist.means(), 0.5, atol=1e-12):
        params = bd.DependencyGraphParams(n=n, alpha=1)
        for t in _interior_grid(n / 2.0, n, thresholds_per_bound):
            checks.append(("depgraph(alpha=1)", t, bd.depgraph_bound(params, t)))

    return checks


def _random_bernoulli_dist(rng, n_max: int) -> oc.JointDist:
    n = int(rng.integers(3, n_max + 1))
    seed = int(rng.integers(0, 2**31))
    kind = rng.random()
    if kind < 0.4:
        return oc.random_joint_dist(n, seed=seed)
    if kind < 0.7:
        gamma = float(0.2 + 0.6 * rng.random())
        return oc.random_joint_dist(
            n, bd.ProductBound(gamma), seed=seed
        )
    # independent product-Bernoulli, expanded over all outcomes
    q = rng.random(n) * 0.8 + 0.1
    return oc.JointDist.from_masks(n, np.arange(1 << n), oc.zeta_decomposition(q))


@_suite("soundness")
def suite_soundness(n_max: int = 10, trials: int = 500, seed: int = 0):
    """Master soundness sweep: exact_tail <= bound for every applicable
    bound on random Bernoulli joint distributions."""
    rng = np.random.default_rng(seed)
    records = []
    checked = 0
    worst = (None, -math.inf)
    for i in range(trials):
        dist = _random_bernoulli_dist(rng, n_max)
        for label, t, tb in applicable_bound_checks(dist):
            if not tb.is_valid:
                continue
            checked += 1
            tail = oc.exact_tail(dist, t)
            gap = tail - tb.bound
            if gap > worst[1]:
                worst = (f"{label} n={dist.n} t={t:.4g} trial={i}", gap)
            if gap > SOUNDNESS_TOL:
                records.append(
                    (
                        f"soundness/{label}",
                        False,
                        f"trial {i}: exact_tail={tail!r} > bound={tb.bound!r} "
                        f"at t={t!r}, params={tb.params}",
                    )
                )
    records.append(
        (
            "soundness/sweep",
            not any(not ok for _, ok, _ in records),
            f"{checked} bound evaluations over {trials} distributions; "
            f"worst margin {worst[1]:.3g} at {worst[0]}",
        )
    )
    return records


@_suite("identities")
def suite_identities(**_):
    """Reduction identities between evaluators, within 1e-10 in log scale."""
    records = []

    def close(name, a, b, tol=IDENTITY_TOL):
        ok = abs(a - b) <= tol
        records.append((f"identities/{name}", ok, f"{a!r} vs {b!r}"))

    # kwise at k=n collapses to the independent bound
    for (n, p, eps) in [(40, 0.5, 0.5), (25, 0.2, 1.5), (60, 0.7, 0.2)]:
        t = bd.eps_to_t(n, p, eps)
        close(
            f"kwise(k=n)=hoeffding[n={n}]",
            bd.kwise_bound(n, n, p, eps).log_bound,
            bd.hoeffding_bound(n, p, t).log_bound,
        )

    # full independence number collapses to the p=1/2 bound
    for (n, t) in [(30, 24.0), (12, 9.5), (50, 30.1)]:
        close(
            f"depgraph(alpha=n)=hoeffding[n={n}]",
            bd.depgraph_bound(bd.DependencyGraphParams(n, n), t).log_bound,
            bd.hoeffding_bound(n, 0.5, t).log_bound,
        )

    # delta = 1-gamma reduces the split bound to the independent one
    for (n, g, t) in [(12, 0.25, 6.0), (40, 0.4, 25.0), (20, 0.1, 7.7)]:
        close(
            f"expfunct(delta=1-gamma)=hoeffding[n={n}]",
            bd.expfunct_bound(n, g, 1.0 - g, t).log_bound,
            bd.hoeffding_bound(n, g, t).log_bound,
        )

    # k=1 is Markov
    for (n, beta_n, p) in [(10, 6, 0.3), (15, 9, 0.5)]:
        s1 = n * p
        tb = bd.linial_luria_bound(
            n, beta_n, 1, bd.SymmetricMoments({0: 1.0, 1: s1})
        )
        close(
            f"linial-luria(k=1)=markov[n={n}]",
            tb.log_bound,
            math.log(s1 / beta_n),
        )

    # quadratic lower bound on the divergence, over a dense (q, p) grid
    grid = np.linspace(0.005, 0.995, 100)
    worst = math.inf
    for q in grid:
        for p in grid:
            worst = min(
                worst, kl_divergence(q, p) - 2.0 * (q - p) ** 2
            )
    records.append(
        (
            "identities/kl-quadratic-lower",
            worst >= -1e-12,
            f"min(D(q||p) - 2(q-p)^2) = {worst:.3g} over 100x100 grid",
        )
    )

    # the exponential family on a binomial Z-distribution recovers the
    # closed-form independent bound
    for (n, p, t) in [(20, 0.3, 11.0), (14, 0.5, 10.0)]:
        zd = oc.ZDist(poisson_binom_dist(PoissonBinomialSpec((p,) * n)))
        h_opt = math.log(t * (1 - p) / ((n - t) * p))
        fam = oc.ExponentialFamily(oc.default_h_grid(h_opt))
        close(
            f"dephoeff(exp)=hoeffding[n={n}]",
            oc.dephoeff_bound(zd, t, fam).log_bound,
            bd.hoeffding_bound(n, p, t).log_bound,
            tol=1e-9,
        )

    return records


def _union_violations(masks, n):
    """Graphs among ``masks`` (each on ``n`` vertices, padding aside) that
    break the triangle-union or the 4-clique-union lemma."""
    j, r = gc.triangle_count(masks)
    k, rt = gc.clique4_count(masks)
    return int((r * (n - 2) < 3 * j).sum()), int((rt * (n - 3) < 4 * k).sum())


def _all_graph_union_check(n: int):
    """Exhaustive check of both union lemmas over all 2^C(n,2) graphs on n
    labelled vertices, graph index i having edge e iff bit e of i is set.
    Returns (graphs, triangle-union violations, clique-union violations)."""
    e = math.comb(n, 2)
    total = 1 << e
    chunk = KERNEL_PAIRS // e
    tv = qv = 0
    for start in range(0, total, chunk):
        index = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = (index[:, None] >> np.arange(e)) & 1
        t, q = _union_violations(gc.edge_masks(n, bits), n)
        tv, qv = tv + t, qv + q
    return total, tv, qv


@_suite("lemmas")
def suite_lemmas(n_max: int = 6, random_graphs: int = 10_000, seed: int = 0):
    """Triangle and 4-clique edge-union lemmas: exhaustive on small n,
    randomized on larger graphs, with the tight cases witnessed."""
    records = []
    total, tv, qv = _all_graph_union_check(n_max)
    records.append(
        (
            f"lemmas/exhaustive-n{n_max}",
            tv == 0 and qv == 0,
            f"{total} graphs, {tv} triangle-union and {qv} clique-union violations",
        )
    )

    j4, r4 = gc.triangle_union_edges(gc.Graph.complete(4))
    records.append(
        ("lemmas/tight-K4", (j4, r4) == (4, 6) and r4 * 2 == 3 * j4,
         f"K4: j={j4}, r={r4} (bound 3j/(n-2)={3 * j4 / 2})")
    )
    k5, r5 = gc.clique4_union_triangles(gc.Graph.complete(5))
    records.append(
        ("lemmas/tight-K5", (k5, r5) == (5, 10) and r5 * 2 == 4 * k5,
         f"K5: k={k5}, r={r5} (bound 4k/(n-3)={4 * k5 / 2})")
    )

    # a graph on n of 4..30 vertices joins a batch of 30-vertex graphs with
    # vertices n..29 isolated: its edges are the pairs u < v < n, which come
    # in the same order in both edge-bit layouts
    rng = np.random.default_rng(seed)
    _, second = np.triu_indices(30, 1)
    chunk = KERNEL_PAIRS // second.size
    violations = 0
    for start in range(0, random_graphs, chunk):
        size = min(chunk, random_graphs - start)
        ns = np.empty(size, dtype=np.int64)
        bits = np.zeros((size, second.size), dtype=bool)
        for i in range(size):
            n = ns[i] = int(rng.integers(4, 31))
            p = float(rng.random())
            bits[i, second < n] = rng.random(math.comb(n, 2)) < p
        violations += sum(_union_violations(gc.edge_masks(30, bits), ns))
    records.append(
        (
            "lemmas/random-graphs",
            violations == 0,
            f"{random_graphs} random graphs up to n=30, {violations} violations",
        )
    )
    return records


@_suite("convex-order")
def suite_convex_order(trials: int = 100, seed: int = 0, n_max: int = 12, **_):
    """Averaged-binomial domination properties of independent trials."""
    rng = np.random.default_rng(seed)
    records = []
    cc_fail = pt_fail = 0
    for _i in range(trials):
        n = int(rng.integers(2, n_max + 1))
        ps = PoissonBinomialSpec(tuple(rng.random(n)))
        for h in (0.1, 1.0, 3.0):
            if not oc.convex_order_check(ps, h):
                cc_fail += 1
        for b in range(0, math.floor(ps.n * ps.mean) + 1):
            if not oc.poisson_trials_check(ps, b):
                pt_fail += 1
    records.append(
        ("convex-order/exp-moments", cc_fail == 0,
         f"{trials} vectors x 3 tilts, {cc_fail} failures")
    )
    records.append(
        ("convex-order/tail-domination", pt_fail == 0,
         f"{trials} vectors, all valid thresholds, {pt_fail} failures")
    )

    p_grid = np.arange(1, 100) / 100.0
    med_fail = sum(
        int((~binomial_median_lb_grid(n, p_grid)).sum()) for n in range(1, 201)
    )
    records.append(
        ("convex-order/binomial-median", med_fail == 0,
         f"grid n<=200 x p in 0.01..0.99, {med_fail} failures")
    )
    return records


@_suite("sandwich")
def suite_sandwich(trials: int = 500, n_max: int = 10, seed: int = 0, **_):
    """Lower and upper symmetric-moment bounds sandwich the exact tail."""
    rng = np.random.default_rng(seed)
    fails = []
    checked = 0
    for i in range(trials):
        dist = _random_bernoulli_dist(rng, n_max)
        n = dist.n
        _, sk = bernoulli_sum_moments(dist)
        profile = bd.SymmetricMoments(sk)
        for beta_n in range(1, n + 1):
            tail = oc.exact_tail(dist, float(beta_n))
            lower = math.exp(bd.linial_lower_bound(n, beta_n, sk[beta_n]))
            if lower > tail + SOUNDNESS_TOL:
                fails.append(f"trial {i}: lower {lower!r} > tail {tail!r}")
            checked += 1
            for k in range(1, beta_n):
                tb = bd.linial_luria_bound(n, beta_n, k, profile)
                if tb.is_valid and tail > tb.bound + SOUNDNESS_TOL:
                    fails.append(
                        f"trial {i}: tail {tail!r} > upper {tb.bound!r} "
                        f"(beta_n={beta_n}, k={k})"
                    )
                checked += 1
    return [
        (
            "sandwich/linial",
            not fails,
            f"{checked} comparisons over {trials} distributions"
            + (f"; first failure: {fails[0]}" if fails else ""),
        )
    ]

