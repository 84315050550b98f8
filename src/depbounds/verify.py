"""Verification suites: each suite returns a list of (name, passed, detail)
records.  These back the CLI ``verify`` subcommand and the acceptance
tests, so the exact same sweeps run in both places.

The soundness and sandwich sweeps draw their random laws in blocks of
consecutive trials, each within a budget of 2 MiB (``_BLOCK_BYTES``)
that charges every law the bytes it and its preparation hold
(``_law_bytes``), so memory stays bounded whatever ``--trials``; a law
over the budget alone is a block of one.  The master generator gives
each law its n, seed, kind and (gamma | q) in trial order, so a block is
drawn before any of its laws is built.  The laws of one n in a block are
built by one ``oracle.random_joint_dists`` call.  Their laws of Z, one
``oracle._z_laws`` call, give each law's tails P(Z >= j), j = 0..n+1, as
one reversed cumulative sum (``_tail_rows``): the suffix sums of the law
of Z, equal to ``oracle.exact_tail`` up to rounding.  The same laws of Z
give S_k (``_symmetric_moments``), and S_k one table of Linial-Luria
bounds for the group (``_linial_tables``): S_k / C(beta, k) for every
1 <= k <= beta <= n and the lower bound S_beta / C(n, beta), each capped
at 1, equal bit for bit to what ``bounds.linial_luria_bound`` gives (a
test ties the two).  Every linial-luria check of both sweeps reads this
table; the evaluator runs only to print a failing check's params.  One
``_law_data`` call gives the superset sums, both gamma rates and the
independence tests over stacked arrays.  The soundness sweep then checks
each law on its own, in trial order, by ``_bound_checks``; the sandwich
compares each group's tails with its table as arrays.  A check fails
when the larger side exceeds the smaller by more than ``SOUNDNESS_TOL``
or by a factor over 1 + ``RELATIVE_TOL`` (``_exceeds``), so tails far
below 1e-12 are gated too.  The soundness sweep checks no ``depgraph``
bound: no law it draws has a dependency graph it could read (ROADMAP item
19).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from . import bounds as bd
from . import graphcomb as gc
from . import oracle as oc
from .numkernel import (
    PoissonBinomialSpec,
    binomial_median_lb_grid,
    kl_divergence,
    log_binom_coeff,
    poisson_binom_dist,
)

SOUNDNESS_TOL = 1e-12
RELATIVE_TOL = 1e-9
IDENTITY_TOL = 1e-10

__all__ = [
    "suite_soundness",
    "suite_identities",
    "suite_lemmas",
    "suite_convex_order",
    "suite_sandwich",
    "run_suite",
]


def run_suite(name: str, **kw):
    """The records of the suite ``name``, a key of ``cli.VERIFY_SUITES``.

    The table is read here, not at import: under ``python -m depbounds.cli``
    the CLI runs as ``__main__``, and a module-level import would load a
    second copy of it."""
    from .cli import VERIFY_SUITES

    try:
        suite = VERIFY_SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(VERIFY_SUITES)}")
    return suite.run(sys.modules[__name__])(**kw)


# ---------------------------------------------------------------------------
# the laws of the soundness and sandwich sweeps, drawn and prepared in blocks


# C(j, k) as floats for j, k <= oc.MAX_ENUM_N, zero for k > j
_BINOMIALS = np.array([[math.comb(j, k) for k in range(oc.MAX_ENUM_N + 1)]
                       for j in range(oc.MAX_ENUM_N + 1)], dtype=float)
# ln C(j, k) as ``log_binom_coeff`` gives it, the value the evaluators
# take, for k <= j <= oc.MAX_ENUM_N; +inf for k > j, where the
# Linial-Luria tables hold 0.0 and are never read
_LOG_BINOMIALS = np.array([[log_binom_coeff(j, k) if k <= j else math.inf
                            for k in range(oc.MAX_ENUM_N + 1)]
                           for j in range(oc.MAX_ENUM_N + 1)])


def _symmetric_moments(z_laws: np.ndarray) -> np.ndarray:
    """S_k = sum_j P[Z = j] C(j, k) for every k, one row per row of
    ``z_laws``, added over j = k..n in that order in plain floats (not
    builtin ``sum``, which compensates float items from CPython 3.12 on):
    column k takes its terms j < k as zeros, which leave 0.0."""
    n = z_laws.shape[1] - 1
    terms = z_laws[:, :, None] * _BINOMIALS[: n + 1, : n + 1]
    sk = terms[:, 0].copy()
    for j in range(1, n + 1):
        sk += terms[:, j]
    return sk


def _linial_tables(sk: np.ndarray) -> tuple:
    """(upper, lower) for the laws whose S_k, k = 0..n, are the rows of
    ``sk``: upper[l, beta, k] = exp(min(ln S_k - ln C(beta, k), 0)), the
    bound ``bd.linial_luria_bound`` gives for 1 <= k <= beta <= n, and
    lower[l, beta] = exp(min(ln S_beta - ln C(n, beta), 0)), a lower bound
    on P[Z >= beta]; both are 0.0 where S_k = 0.  ln and exp are
    ``math``'s, mapped over lists, as the evaluator takes them: numpy's
    differ from them in the last bit on some inputs, and the soundness
    sweep's worst margin sits at rounding level.  The -, min and the
    comparisons made on the tables round as Python floats do."""
    n = sk.shape[1] - 1
    log_sk = np.array([math.log(s) if s > 0.0 else -math.inf
                       for s in sk.ravel().tolist()]).reshape(sk.shape)
    log_c = _LOG_BINOMIALS[: n + 1, : n + 1]
    upper = np.minimum(log_sk[:, None, :] - log_c, 0.0)
    lower = np.minimum(log_sk - log_c[n], 0.0)
    return _exp(upper), _exp(lower)


def _exp(logs: np.ndarray) -> np.ndarray:
    """``math.exp`` of every entry of ``logs``, in its shape."""
    return np.array(list(map(math.exp, logs.ravel().tolist()))).reshape(logs.shape)


def _law_data(dists: list) -> list:
    """(gamma, gamma_z, pbar, independent) of each law of ``dists``, all of
    one n, from one set of array operations over their stacked outcome
    pmfs and means.

    gamma is the smallest rate with E[prod_{i in A} X_i] <= gamma^|A| for
    all A != {} (the ProductBound rate), gamma_z the same on the zeta
    moments E[Z_A], which for a Bernoulli law are its outcome pmf (the
    SplitBound rate at delta = 1).  ``independent`` is True iff the product
    moments match, within 1e-9, those of the product law with the same
    means (``_is_independent``).
    """
    if not all(dist.is_bernoulli for dist in dists):
        raise ValueError("the sweeps' law data needs Bernoulli laws")
    n = dists[0].n
    exponents = 1.0 / oc.subset_sizes(n)[1:]
    table = np.stack([dist.outcome_pmf for dist in dists])
    gamma_z = (table[:, 1:] ** exponents).max(axis=1)
    moments = oc._superset_sums(table)
    gamma = (moments[:, 1:] ** exponents).max(axis=1)
    means = np.stack([dist.means() for dist in dists])
    return list(zip(gamma.tolist(), gamma_z.tolist(), (means.sum(axis=1) / n).tolist(),
                    _is_independent(means, moments).tolist()))


def _tail_rows(z_laws: np.ndarray) -> np.ndarray:
    """P[Z >= j] for j = 0..n+1 of each row of ``z_laws``, one row of n + 2
    floats per law: the row's reversed cumulative sum and a 0."""
    tails = np.zeros((len(z_laws), z_laws.shape[1] + 1))
    np.cumsum(z_laws[:, ::-1], axis=1, out=tails[:, -2::-1])
    return tails


def _tail(tails: list, t: float) -> float:
    """P[Z >= t] from a ``_tail_rows`` row: Z is integer, so Z >= t - 1e-12
    iff Z >= ceil(t - 1e-12), clamped to the row."""
    return tails[min(max(math.ceil(t - 1e-12), 0), len(tails) - 1)]


def _exceeds(a, b):
    """True iff a exceeds b by more than ``SOUNDNESS_TOL`` or by a factor
    over 1 + ``RELATIVE_TOL``: the test that a tail breaks an upper bound,
    and, roles swapped, that a lower bound breaks a tail.  Floats give a
    bool, arrays an array of them."""
    return (a - b > SOUNDNESS_TOL) | (a > b * (1.0 + RELATIVE_TOL))


def _is_independent(means: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Row r is True iff the product moments ``moments[r]`` match, within
    1e-9, those of the product law with the means ``means[r]``."""
    clipped = np.minimum(np.maximum(means, 0.0), 1.0)  # np.clip, faster
    product = oc._lattice_products(None, clipped)
    return (np.abs(moments[:, 1:] - product[:, 1:]) <= 1e-9).all(axis=1)


# thresholds each applicable bound is checked at
_THRESHOLDS = 5


def _interior_grid(lo: float, hi: float) -> list:
    return [lo + (hi - lo) * i / (_THRESHOLDS + 1) for i in range(1, _THRESHOLDS + 1)]


class _TableBound:
    """A linial-luria check read from a law's upper table: its bound, and
    the params ``bd.linial_luria_bound`` gives it, which only a failure
    prints, so the evaluator runs only then."""

    __slots__ = ("bound", "n", "beta_n", "k", "s_k")
    is_valid = True

    def __init__(self, bound: float, n: int, beta_n: int, k: int, s_k: float):
        self.bound, self.n, self.beta_n, self.k, self.s_k = bound, n, beta_n, k, s_k

    @property
    def params(self) -> dict:
        profile = bd.SymmetricMoments({self.k: self.s_k})
        return bd.linial_luria_bound(self.n, self.beta_n, self.k, profile).params


def _bound_checks(n, gamma, gamma_z, pbar, independent, upper, sk):
    """(label, t, TailBound) triples for every bound whose hypotheses a law
    on n coordinates with the given ``_law_data`` provably satisfies, at
    interior thresholds of each bound's validity range.  Its linial-luria
    checks are ``_TableBound``s read from its upper table ``upper`` (as
    lists), given its S_k ``sk``."""
    checks = []
    if 0.0 < gamma < 1.0:
        for t in _interior_grid(n * gamma, n):
            eps = bd.t_to_eps(n, gamma, t)
            checks.append(("ik", t, bd.ik_bound(n, gamma, eps, c=1.0)))
        if n * gamma + 1.0 < n:
            for t in _interior_grid(n * gamma + 1.0, n):
                checks.append(("bincoupling", t, bd.bincoupling_bound(n, gamma, t)))

    if 0.0 < gamma_z < 1.0:
        for t in _interior_grid(n * gamma_z, n):
            checks.append(
                ("expfunct", t, bd.expfunct_bound(n, gamma_z, 1.0, t))
            )

    beta_lo = max(1, math.floor(n * pbar) + 1)
    for beta_n in range(beta_lo, n + 1)[:_THRESHOLDS]:
        row = upper[beta_n]
        for k in range(1, beta_n):
            checks.append((f"linial-luria(k={k})", float(beta_n),
                           _TableBound(row[k], n, beta_n, k, sk[k])))

    if independent and 0.0 < pbar < 1.0:
        for t in _interior_grid(n * pbar, n):
            checks.append(("hoeffding", t, bd.hoeffding_bound(n, pbar, t)))
            eps = bd.t_to_eps(n, pbar, t)
            checks.append(("kwise(k=n)", t, bd.kwise_bound(n, n, pbar, eps)))

    return checks


def _law_draw(rng, n_max: int):
    """(n, draw) of the next law of the sweeps' stream, ``draw`` as
    ``oc.random_joint_dists`` takes it: the master generator ``rng`` gives
    the law its n, seed, kind and (gamma | q), in that order."""
    n = int(rng.integers(3, n_max + 1))
    seed = int(rng.integers(0, 2**31))
    kind = rng.random()
    if kind < 0.4:
        return n, (None, seed)
    if kind < 0.7:
        return n, (bd.ProductBound(float(0.2 + 0.6 * rng.random())), seed)
    # independent product-Bernoulli, expanded over all outcomes
    return n, rng.random(n) * 0.8 + 0.1


# bytes of one block of the sweeps' laws, as ``_law_bytes`` charges them,
# so that a block's arrays stay bounded however many trials a sweep runs;
# a 200-trial sweep at n <= 7 (1.4 MiB at most over seeds 0-1999) is one
# block
_BLOCK_BYTES = 2 << 20


def _law_bytes(n: int, draw) -> int:
    """Bytes the law ``draw`` on n coordinates and its preparation hold
    while its block is built: its pmf row and six rows of ``_law_data``
    temporaries, 2^n floats each, five more rows for a mixture's lattice
    products, and for each atom its mask, weight, size and n support
    floats, at most 16 atoms unconstrained and 2^n otherwise."""
    if isinstance(draw, np.ndarray):  # independent, over all 2^n outcomes
        rows, atoms = 7, 1 << n
    elif draw[0] is None:
        rows, atoms = 7, min(16, 1 << n)
    else:  # a mixture of at most five product laws
        rows, atoms = 12, 1 << n
    return 8 * (rows << n) + atoms * (24 + 8 * n)


class _Group(NamedTuple):
    """The laws of one n in a block, prepared together: their positions
    in the block, the laws, their ``_tail_rows``, ``_law_data`` entries,
    S_k (``_symmetric_moments``) and ``_linial_tables``."""

    rows: list
    dists: list
    tails: np.ndarray
    data: list
    sk: np.ndarray
    upper: np.ndarray
    lower: np.ndarray


def _sweep_blocks(rng, n_max: int, trials: int):
    """The ``_prepared_laws`` of each block of a sweep's laws, in trial
    order.  A block is consecutive trials, closing when the next law would
    take its ``_law_bytes`` past ``_BLOCK_BYTES`` (a law over the budget
    alone is a block of one)."""
    block, charged = [], 0
    for _ in range(trials):
        n, draw = _law_draw(rng, n_max)
        cost = _law_bytes(n, draw)
        if block and charged + cost > _BLOCK_BYTES:
            yield _prepared_laws(block)
            block, charged = [], 0
        block.append((n, draw))
        charged += cost
    yield _prepared_laws(block)


def _sweep_laws(rng, n_max: int, trials: int):
    """(dist, tails, data) of each law of a sweep, in trial order
    (``_law_rows``)."""
    for groups in _sweep_blocks(rng, n_max, trials):
        yield from _law_rows(groups)


def _law_rows(groups: list):
    """(dist, tails, data) of each law of one block's ``groups``, in trial
    order: ``tails`` its ``_tail_rows`` row and ``data`` its ``_law_data``
    entry, upper table and S_k, all as lists, as ``_bound_checks`` takes
    them after n."""
    laws = [None] * sum(len(group.rows) for group in groups)
    for group in groups:
        for l, r in enumerate(group.rows):
            laws[r] = group, l
    for group, l in laws:
        yield (group.dists[l], group.tails[l].tolist(),
               (*group.data[l], group.upper[l].tolist(), group.sk[l].tolist()))


def _prepared_laws(draws: list) -> list:
    """The ``_Group``s of one block of (n, draw) pairs, one per n: the laws
    of one n are built by one ``oc.random_joint_dists`` call and prepared
    by ``_group``."""
    rows = {}
    for r, (n, _) in enumerate(draws):
        rows.setdefault(n, []).append(r)
    return [_group(group, oc.random_joint_dists(n, [draws[r][1] for r in group]))
            for n, group in rows.items()]


def _group(rows: list, dists: list) -> _Group:
    """The ``_Group`` of the laws ``dists``, all of one n, at the block
    positions ``rows``: their tails, S_k and Linial-Luria tables come from
    one ``oc._z_laws`` call."""
    z_laws = oc._z_laws(dists)
    sk = _symmetric_moments(z_laws)
    return _Group(rows, dists, _tail_rows(z_laws), _law_data(dists), sk,
                  *_linial_tables(sk))


def suite_soundness(n_max: int = 10, trials: int = 500, seed: int = 0):
    """Master soundness sweep: exact_tail <= bound for every applicable
    bound on random Bernoulli joint distributions, each law's tails read
    from its ``_tail_rows`` row."""
    rng = np.random.default_rng(seed)
    records = []
    checked = 0
    worst = (None, -math.inf)
    for i, (dist, tails, data) in enumerate(_sweep_laws(rng, n_max, trials)):
        for label, t, tb in _bound_checks(dist.n, *data):
            if not tb.is_valid:
                continue
            checked += 1
            tail, bound = _tail(tails, t), tb.bound
            gap = tail - bound
            if gap > worst[1]:
                worst = (f"{label} n={dist.n} t={t:.4g} trial={i}", gap)
            if _exceeds(tail, bound):
                records.append(
                    (
                        f"soundness/{label}",
                        False,
                        f"trial {i}: exact_tail={tail!r} > bound={bound!r} "
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


def suite_identities(seed: int = 0):
    """Reduction identities between evaluators, within 1e-10 in log scale.

    Every input is fixed, so ``seed``, which every suite takes, changes
    nothing."""
    records = []

    def close(name, a, b):
        ok = abs(a - b) <= IDENTITY_TOL
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

    # quadratic lower bound on the divergence, over a dense (q, p) grid of
    # Python floats (numpy scalars give the same values, more slowly)
    grid = np.linspace(0.005, 0.995, 100).tolist()
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

    # the best exponential tilt on a binomial Z-distribution recovers the
    # closed-form independent bound
    for (n, p, t) in [(20, 0.3, 11.0), (14, 0.5, 10.0)]:
        zd = oc.ZDist(poisson_binom_dist(PoissonBinomialSpec((p,) * n)))
        close(
            f"dephoeff(exp)=hoeffding[n={n}]",
            oc.dephoeff_bound(zd, t).log_bound,
            bd.hoeffding_bound(n, p, t).log_bound,
        )

    return records


def _union_violations(planes, size, ns, n_max):
    """Graphs among the ``size`` of ``planes`` on ``n_max`` vertices that
    break the triangle-union or the 4-clique-union lemma; graph r has its
    own ``ns[r]`` vertices, the others isolated."""
    j = gc.triangle_count(n_max, planes, size)
    r = gc.triangle_union_size(n_max, planes, size)
    k = gc.clique4_count(n_max, planes, size)
    rt = gc.clique4_union_size(n_max, planes, size)
    return int((r * (ns - 2) < 3 * j).sum()), int((rt * (ns - 3) < 4 * k).sum())


# bit e of the graph indices 64 k + r, r = 0..63, as one word: runs of 2^e
# zeros and 2^e ones, alternating
_INDEX_BITS = [0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
               0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000]
# graphs per block of the exhaustive lemma check
_ALL_GRAPH_WORDS = 512


def _all_graph_planes(n: int, start: int, words: int) -> np.ndarray:
    """Edge planes of the graphs 64 start .. 64 (start + words) - 1 of the
    2^C(n,2) graphs on n labelled vertices, graph i having the edge of
    plane e iff bit e of i is set.  Plane e < 6 repeats one word, and
    plane e >= 6 is all ones or all zeros by bit e - 6 of the word index."""
    planes = np.empty((math.comb(n, 2), words), dtype=np.uint64)
    low = min(6, len(planes))
    planes[:low] = np.array(_INDEX_BITS[:low], dtype=np.uint64)[:, None]
    index = np.arange(start, start + words, dtype=np.uint64)
    high = np.arange(len(planes) - low, dtype=np.uint64)[:, None]
    # 0 - 1 wraps to all ones
    np.negative((index >> high) & np.uint64(1), out=planes[low:])
    return planes


def _all_graph_union_check(n: int):
    """Exhaustive check of both union lemmas over all 2^C(n,2) graphs on n
    labelled vertices.  Returns (graphs, triangle-union violations,
    clique-union violations)."""
    total = 1 << math.comb(n, 2)
    words = -(-total // 64)
    tv = qv = 0
    for start in range(0, words, _ALL_GRAPH_WORDS):
        block = min(_ALL_GRAPH_WORDS, words - start)
        planes = _all_graph_planes(n, start, block)
        t, q = _union_violations(planes, min(total, 64 * block), n, n)
        tv, qv = tv + t, qv + q
    return total, tv, qv


# random graphs per batch of the lemma suite's random pass
_RANDOM_GRAPHS_BATCH = 4096


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
    violations = 0
    for start in range(0, random_graphs, _RANDOM_GRAPHS_BATCH):
        size = min(_RANDOM_GRAPHS_BATCH, random_graphs - start)
        ns = rng.integers(4, 31, size)
        ps = rng.random(size)
        # row r's C(n_r, 2) pairs, each an edge with probability p_r
        pairs = ns * (ns - 1) // 2
        bits = np.zeros((size, second.size), dtype=bool)
        bits[second < ns[:, None]] = rng.random(pairs.sum()) < np.repeat(ps, pairs)
        violations += sum(_union_violations(gc.edge_planes(30, bits), size, ns, 30))
    records.append(
        (
            "lemmas/random-graphs",
            violations == 0,
            f"{random_graphs} random graphs up to n=30, {violations} violations",
        )
    )
    return records


def suite_convex_order(trials: int = 100, seed: int = 0, n_max: int = 12):
    """Averaged-binomial domination properties of independent trials."""
    rng = np.random.default_rng(seed)
    records = []
    specs = []
    for _i in range(trials):
        n = int(rng.integers(2, n_max + 1))
        specs.append(PoissonBinomialSpec(tuple(rng.random(n))))
    exp_ok, tail_ok = oc.averaged_binomial_checks(specs, hs=(0.1, 1.0, 3.0))
    cc_fail = int((~exp_ok).sum())
    pt_fail = int((~tail_ok).sum())
    records.append(
        ("convex-order/exp-moments", cc_fail == 0,
         f"{trials} vectors x 3 tilts, {cc_fail} failures")
    )
    records.append(
        ("convex-order/tail-domination", pt_fail == 0,
         f"{trials} vectors, all valid thresholds, {pt_fail} failures")
    )

    p_grid = np.arange(1, 100) / 100.0
    med_fail = int((~binomial_median_lb_grid(np.arange(1, 201), p_grid)).sum())
    records.append(
        ("convex-order/binomial-median", med_fail == 0,
         f"grid n<=200 x p in 0.01..0.99, {med_fail} failures")
    )
    return records


def suite_sandwich(trials: int = 500, n_max: int = 10, seed: int = 0):
    """Lower and upper symmetric-moment bounds sandwich the exact tail:
    every 1 <= k < beta <= n, by array comparisons of each group of laws'
    tails with its ``_linial_tables``; only the first failing law, in
    trial order, has its failure's text built."""
    rng = np.random.default_rng(seed)
    checked, start = 0, 0
    first = None  # (trial, group, law) of the first failing law
    for groups in _sweep_blocks(rng, n_max, trials):
        for group in groups:
            n = group.sk.shape[1] - 1
            checked += len(group.rows) * n * (n + 1) // 2
            failing = np.flatnonzero(_sandwich_fails(group))
            if failing.size:
                trial = start + group.rows[failing[0]]
                if first is None or trial < first[0]:
                    first = trial, group, int(failing[0])
        start += sum(len(group.rows) for group in groups)
    detail = f"{checked} comparisons over {trials} distributions"
    if first is not None:
        detail += "; first failure: " + _sandwich_failure(*first)
    return [("sandwich/linial", first is None, detail)]


def _sandwich_fails(group: _Group) -> np.ndarray:
    """True for each law of ``group`` with, at some 1 <= beta <= n, its
    lower bound above P[Z >= beta] or that tail above an upper bound at
    some 1 <= k < beta (``_exceeds``)."""
    n = group.sk.shape[1] - 1
    tails = group.tails[:, 1 : n + 1]
    checked = np.tri(n, n + 1, dtype=bool)  # (beta - 1, k): k <= beta - 1
    checked[:, 0] = False
    upper = _exceeds(tails[:, :, None], group.upper[:, 1:]) & checked
    return _exceeds(group.lower[:, 1:], tails).any(axis=1) | upper.any(axis=(1, 2))


def _sandwich_failure(trial: int, group: _Group, l: int) -> str:
    """The text of the first failing check of law ``l`` of ``group``, trial
    ``trial``, in the order the checks are listed: by beta, its lower
    bound before its upper bounds by k."""
    tails, upper, lower = (group.tails[l].tolist(), group.upper[l].tolist(),
                           group.lower[l].tolist())
    for beta_n in range(1, len(lower)):
        tail = tails[beta_n]
        if _exceeds(lower[beta_n], tail):
            return f"trial {trial}: lower {lower[beta_n]!r} > tail {tail!r}"
        for k in range(1, beta_n):
            if _exceeds(tail, upper[beta_n][k]):
                return (f"trial {trial}: tail {tail!r} > upper {upper[beta_n][k]!r} "
                        f"(beta_n={beta_n}, k={k})")
    raise ValueError(f"law {l} of the group passes every check")
