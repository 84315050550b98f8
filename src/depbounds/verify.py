"""Verification suites: each suite returns a list of (name, passed, detail)
records.  These back the CLI ``verify`` subcommand and the acceptance
tests, so the exact same sweeps run in both places.

The soundness and sandwich sweeps draw their random laws in blocks of
consecutive trials within a budget of 2 MiB (``_BLOCK_BYTES``) charged
by ``_law_bytes``, so memory stays bounded whatever ``--trials``; each
block is prepared and checked inside one call, which releases it before
the next is drawn.  The laws of one n in a block are a group, built as
arrays by one ``oracle.law_tables`` call: no object is built per law.
Their laws of Z give each law's tails P(Z >= j), j = 0..n+1, as suffix
sums (``_tail_rows``), and its S_k; the S_k give one table of
Linial-Luria bounds for the group (``_linial_tables``).  One
``_law_data`` call on their outcome pmfs and means gives the rates gamma
and gamma_z, pbar and the independence tests.  Every check is then an
array operation over the group: the sandwich compares the tails with the
table, and the soundness sweep builds each law's checks of ik,
bincoupling, expfunct, linial-luria, hoeffding and kwise as (laws, slots)
arrays of thresholds, bounds and validity
(``_soundness_checks``).  Their bounds take ln and exp from ``math``,
each bound equal bit for bit to its ``bounds`` evaluator's (tests tie
the two); an evaluator runs only to print a failing check's params.  A
check fails when the larger side exceeds the smaller by more than
``SOUNDNESS_TOL`` or by a factor over 1 + ``RELATIVE_TOL``
(``_exceeds``), so tails far below 1e-12 are gated too.  The soundness
sweep checks no ``depgraph`` bound: no law it draws has a dependency
graph it could read (ROADMAP item 19).
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
# take, for k <= j <= oc.MAX_ENUM_N; +inf for k > j, which the
# Linial-Luria tables never read
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
    bound ``bd.linial_luria_bound`` gives, for 1 <= k <= beta <= n, and
    lower[l, beta] = exp(min(ln S_beta - ln C(n, beta), 0)), a lower bound
    on P[Z >= beta], for 1 <= beta <= n.  They are 0.0 where S_k = 0, and
    so is every other entry, which no check reads.  ln and exp are
    ``math``'s, mapped over the entries read (``_map``), as the evaluator
    takes them: numpy's differ from them in the last bit on some inputs,
    and the soundness sweep's worst margin sits at rounding level.  The -,
    min and the comparisons made on the tables round as Python floats
    do."""
    laws, n = sk.shape[0], sk.shape[1] - 1
    log_sk = np.full((laws, n), -math.inf)
    positive = sk[:, 1:] > 0.0
    log_sk[positive] = _map(math.log, sk[:, 1:][positive])
    # (beta - 1, k - 1) for 1 <= k <= beta <= n
    beta, k = np.nonzero(np.tri(n, dtype=bool))
    upper = np.zeros((laws, n + 1, n + 1))
    upper[:, beta + 1, k + 1] = _map(math.exp, np.minimum(
        log_sk[:, k] - _LOG_BINOMIALS[beta + 1, k + 1], 0.0))
    lower = np.zeros((laws, n + 1))
    lower[:, 1:] = _map(math.exp, np.minimum(log_sk - _LOG_BINOMIALS[n, 1 : n + 1], 0.0))
    return upper, lower


def _map(f, a: np.ndarray) -> np.ndarray:
    """``f`` of every entry of ``a``, in its shape: ``math``'s ln and exp
    mapped over its floats, as the evaluators take them.  The floats are
    read one at a time through a memoryview, not made into a list first."""
    return np.fromiter(map(f, memoryview(a.ravel())), float, a.size).reshape(a.shape)


def _law_data(pmfs: np.ndarray, means: np.ndarray) -> tuple:
    """(gamma, gamma_z, pbar, independent), one entry per law of one n,
    from one set of array operations over the laws' (laws, 2^n) outcome
    pmfs ``pmfs`` and (laws, n) means ``means``, as ``oc.law_tables``
    gives them; ``pmfs`` is overwritten with its superset sums.

    gamma is the smallest rate with E[prod_{i in A} X_i] <= gamma^|A| for
    all A != {} (the ProductBound rate), gamma_z the same on the zeta
    moments E[Z_A], which for a Bernoulli law are its outcome pmf (the
    SplitBound rate at delta = 1), pbar the mean of the means.
    ``independent`` is True iff the product moments match, within 1e-9,
    those of the product law with the same means (``_is_independent``).
    """
    n = means.shape[1]
    exponents = 1.0 / oc.subset_sizes(n)[1:]
    gamma_z = (pmfs[:, 1:] ** exponents).max(axis=1)
    moments = oc._superset_sums(pmfs)
    gamma = (moments[:, 1:] ** exponents).max(axis=1)
    return gamma, gamma_z, means.sum(axis=1) / n, _is_independent(means, moments)


def _tail_rows(z_laws: np.ndarray) -> np.ndarray:
    """P[Z >= j] for j = 0..n+1 of each row of ``z_laws``, one row of n + 2
    floats per law: the row's reversed cumulative sum and a 0."""
    tails = np.zeros((len(z_laws), z_laws.shape[1] + 1))
    np.cumsum(z_laws[:, ::-1], axis=1, out=tails[:, -2::-1])
    return tails


def _tail_at(tails: np.ndarray, t: np.ndarray) -> np.ndarray:
    """P[Z >= t] for each entry of ``t``, whose row l reads row l of the
    ``_tail_rows`` array ``tails``: Z is integer, so Z >= t - 1e-12 iff
    Z >= ceil(t - 1e-12), clamped to the row."""
    j = np.clip(np.ceil(t - 1e-12), 0, tails.shape[1] - 1).astype(np.intp)
    return np.take_along_axis(tails, j, axis=1)


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


# thresholds each grid bound is checked at, and beta_n each linial-luria k
_THRESHOLDS = 5
_STEPS = np.arange(1, _THRESHOLDS + 1)

# the evaluator call of each soundness check but linial-luria, given n, the
# law's gamma, gamma_z and pbar, and t: only a failure's params read it
_EVALUATORS = {
    "ik": lambda n, g, gz, p, t: bd.ik_bound(n, g, bd.t_to_eps(n, g, t), c=1.0),
    "bincoupling": lambda n, g, gz, p, t: bd.bincoupling_bound(n, g, t),
    "expfunct": lambda n, g, gz, p, t: bd.expfunct_bound(n, gz, 1.0, t),
    "hoeffding": lambda n, g, gz, p, t: bd.hoeffding_bound(n, p, t),
    "kwise(k=n)": lambda n, g, gz, p, t: bd.kwise_bound(n, n, p, bd.t_to_eps(n, p, t)),
}


def _slot_labels(n: int) -> list:
    """The label of each slot of ``_soundness_checks``' arrays at n."""
    return (["ik"] * _THRESHOLDS + ["bincoupling"] * _THRESHOLDS + ["expfunct"] * _THRESHOLDS
            + [f"linial-luria(k={k})" for _ in range(_THRESHOLDS) for k in range(1, n)]
            + ["hoeffding", "kwise(k=n)"] * _THRESHOLDS)


def _kl(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``kl_divergence(q, p)`` entry by entry, by its operations in its
    order; ``q`` and ``p`` broadcast, each log taken once an entry of its
    own array."""
    value = q * (_map(math.log, q) - _map(math.log, p)) + (1.0 - q) * (
        _map(math.log1p, -q) - _map(math.log1p, -p))
    return np.maximum(value, 0.0)


def _to_prob(valid: np.ndarray, log_bound: np.ndarray) -> np.ndarray:
    """``to_prob`` of each log bound, given for the True entries of
    ``valid`` in their order; 0.0 elsewhere."""
    bound = np.zeros(valid.shape)
    bound[valid] = _map(math.exp, np.minimum(log_bound, 0.0))
    return bound


def _soundness_checks(group: _Group) -> tuple:
    """(t, bound, valid), arrays of shape (laws, slots), of the soundness
    checks of each law of ``group``, slot s labelled ``_slot_labels(n)[s]``:
    ik, bincoupling and expfunct at five interior points of their ranges,
    linial-luria at beta_n = max(1, floor(n pbar) + 1) and the next four,
    up to n, each with every k < beta_n, read from the upper table, and
    hoeffding and kwise(k=n) alternating over five.  A check is valid where
    the law's rates meet the bound's hypotheses and the evaluator's
    conditions hold, tested as it tests them; a valid bound is ``to_prob``
    of the evaluator's log bound, by its operations in its order with ln
    and exp from ``math``, so equal bit for bit to its ``bound`` (a test
    ties the two)."""
    n = group.sk.shape[1] - 1
    g, gz, p = group.gamma[:, None], group.gamma_z[:, None], group.pbar[:, None]
    ng, nz, npbar = n * g, n * gz, n * p

    def grid(lo):
        return lo + (n - lo) * _STEPS / (_THRESHOLDS + 1)

    def inside(x):
        return (0.0 < x) & (x < 1.0)

    def at(x, ok):  # the entries of the column or array x where ok is True
        return np.broadcast_to(x, ok.shape)[ok]

    with np.errstate(divide="ignore", invalid="ignore"):  # in rows never valid
        t_ik, t_bc, t_ef, t_h = grid(ng), grid(ng + 1.0), grid(nz), grid(npbar)
        eps_ik, eps_kw = t_ik / ng - 1.0, t_h / npbar - 1.0
        q_ik, q_kw = g * (1.0 + eps_ik), p * (1.0 + eps_kw)
        q_bc = g * (1.0 + (t_bc - 1.0 - ng) / ng)
        ok_ik = inside(g) & ~(eps_ik <= 0.0) & ~((eps_ik >= 1.0 / g - 1.0) | (q_ik >= 1.0))
        ok_bc = (inside(g) & (ng + 1.0 < n) & ~(t_bc <= ng + 1.0) & ~(t_bc >= n)
                 & ~(q_bc >= 1.0))
        ok_ef = inside(gz) & ~(t_ef <= nz) & ~(t_ef >= n)
        independent = group.independent[:, None] & inside(p)
        ok_h = independent & ~(t_h <= npbar) & ~(t_h >= n)
        ok_kw = independent & ~(eps_kw <= 0.0) & ~((eps_kw >= 1.0 / p - 1.0) | (q_kw >= 1.0))
    # ln c = 0 at c = 1 (ik), ln delta = 0 at delta = 1 (expfunct), and
    # kwise's (n - k) term is 0 at k = n
    bound_ik = _to_prob(ok_ik, -n * _kl(q_ik[ok_ik], at(g, ok_ik)))
    bound_bc = _to_prob(ok_bc, math.log(2.0) - n * _kl(q_bc[ok_bc], at(g, ok_bc)))
    bound_h = _to_prob(ok_h, -n * _kl(t_h[ok_h] / n, at(p, ok_h)))
    bound_kw = _to_prob(ok_kw, -n * _kl(q_kw[ok_kw], at(p, ok_kw)))
    t, ln_n_t = t_ef[ok_ef], _map(math.log, n - t_ef[ok_ef])
    bound_ef = _to_prob(ok_ef, t * _map(math.log, at(gz, ok_ef))
                        + t * (ln_n_t - _map(math.log, t)) + n * (math.log(n) - ln_n_t))
    # linial-luria by (law, beta offset, k)
    beta = np.maximum(np.floor(npbar) + 1, 1) + np.arange(_THRESHOLDS)
    beta, k = beta.astype(np.intp)[:, :, None], np.arange(1, n)
    ok_ll = (beta <= n) & (k < beta)
    bound_ll = group.upper[np.arange(len(g))[:, None, None], np.minimum(beta, n), k]

    def slots(ik, bc, ef, ll, h, kw):  # (laws, slots), hoeffding and kwise alternating
        parts = (ik, bc, ef, ll, np.stack([h, kw], axis=2))
        return np.concatenate([part.reshape(len(g), -1) for part in parts], axis=1)

    return (slots(t_ik, t_bc, t_ef, np.broadcast_to(beta, ok_ll.shape), t_h, t_h),
            slots(bound_ik, bound_bc, bound_ef, bound_ll, bound_h, bound_kw),
            slots(ok_ik, ok_bc, ok_ef, ok_ll, ok_h, ok_kw))


def _law_draw(rng, n_max: int):
    """(n, draw) of the next law of the sweeps' stream, ``draw`` as
    ``oc.law_tables`` takes it: the master generator ``rng`` gives
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
    """Bytes charged for the law ``draw`` on n coordinates while its block
    is built and prepared: seven rows of 2^n floats (its pmf row and the
    ``_law_data`` temporaries), five more for a mixture's lattice
    products, and 24 + 8n bytes an atom, at most 16 atoms unconstrained
    and 2^n otherwise, which also cover the arrays its draw makes.  A
    group's peak stays within the sum of its laws' charges (a test reads
    it with ``tracemalloc`` at n = 3 and 7)."""
    if isinstance(draw, np.ndarray):  # independent, over all 2^n outcomes
        rows, atoms = 7, 1 << n
    elif draw[0] is None:
        rows, atoms = 7, min(16, 1 << n)
    else:  # a mixture of at most five product laws
        rows, atoms = 12, 1 << n
    return 8 * (rows << n) + atoms * (24 + 8 * n)


class _Group(NamedTuple):
    """The laws of one n in a block, prepared together: their positions
    in the block, their ``_tail_rows``, ``_law_data`` arrays, S_k
    (``_symmetric_moments``) and ``_linial_tables``."""

    rows: list
    tails: np.ndarray
    gamma: np.ndarray
    gamma_z: np.ndarray
    pbar: np.ndarray
    independent: np.ndarray
    sk: np.ndarray
    upper: np.ndarray
    lower: np.ndarray


def _sweep_blocks(rng, n_max: int, trials: int, check):
    """``check(groups, start)`` of each block of a sweep's laws, in trial
    order: ``groups`` its ``_prepared_laws``, ``start`` its first law's
    trial.  A block is consecutive trials, closing when the next law would
    take its ``_law_bytes`` past ``_BLOCK_BYTES`` (a law over the budget
    alone is a block of one).  Its laws live only in the call, so a block
    is released before the next is drawn."""
    block, charged, start = [], 0, 0
    for _ in range(trials):
        n, draw = _law_draw(rng, n_max)
        cost = _law_bytes(n, draw)
        if block and charged + cost > _BLOCK_BYTES:
            yield check(_prepared_laws(block), start)
            block, charged, start = [], 0, start + len(block)
        block.append((n, draw))
        charged += cost
    yield check(_prepared_laws(block), start)


def _prepared_laws(draws: list) -> list:
    """The ``_Group``s of one block of (n, draw) pairs, one per n: the laws
    of one n are built by one ``oc.law_tables`` call and prepared by
    ``_group``."""
    rows = {}
    for r, (n, _) in enumerate(draws):
        rows.setdefault(n, []).append(r)
    return [_group(group, *oc.law_tables(n, [draws[r][1] for r in group]))
            for n, group in rows.items()]


def _group(rows: list, pmfs: np.ndarray, z_laws: np.ndarray, means: np.ndarray) -> _Group:
    """The ``_Group`` of the laws of one n whose ``oc.law_tables`` arrays
    are ``pmfs`` (overwritten by ``_law_data``), ``z_laws`` and ``means``,
    at the block positions ``rows``: their tails, S_k and Linial-Luria
    tables come from the laws of Z."""
    sk = _symmetric_moments(z_laws)
    return _Group(rows, _tail_rows(z_laws), *_law_data(pmfs, means), sk,
                  *_linial_tables(sk))


def suite_soundness(n_max: int = 10, trials: int = 500, seed: int = 0):
    """Master soundness sweep: exact_tail <= bound for every applicable
    bound on random Bernoulli joint distributions, checked a block of laws
    at a time (``_soundness_block``)."""
    rng = np.random.default_rng(seed)
    checked, worst, records = 0, (-math.inf, None), []
    for count, best, failures in _sweep_blocks(rng, n_max, trials, _soundness_block):
        checked, records = checked + count, records + failures
        worst = best if best[0] > worst[0] else worst
    records.append(("soundness/sweep", not records,
                    f"{checked} bound evaluations over {trials} distributions; "
                    f"worst margin {worst[0]:.3g} at {worst[1]}"))
    return records


def _soundness_block(groups: list, start: int) -> tuple:
    """(checked, worst, records) of one block's ``groups``, its first law
    trial ``start``, from the ``_soundness_checks`` arrays: the count of
    valid checks, (gap, text) of the first largest tail - bound in trial
    order, then slot order ((-inf, None) without a valid check), and the
    record of each failing check, in that order.  Only their text is
    built."""
    checked, best, failures = 0, [(-math.inf, 0, None)], []
    for group in groups:
        n, (t, bound, valid) = group.sk.shape[1] - 1, _soundness_checks(group)
        labels, tail = _slot_labels(n), _tail_at(group.tails, t)
        checked += int(np.count_nonzero(valid))
        gap = np.where(valid, tail - bound, -np.inf)
        l, s = np.unravel_index(np.argmax(gap), gap.shape)
        if valid[l, s]:
            trial = start + group.rows[l]
            best.append((gap[l, s].item(), -trial,
                         f"{labels[s]} n={n} t={t[l, s].item():.4g} trial={trial}"))
        for l, s in zip(*np.nonzero(valid & _exceeds(tail, bound))):
            trial, t_ls = start + group.rows[l], t[l, s].item()
            params = _check_params(group, l, labels[s], t_ls)
            text = (f"trial {trial}: exact_tail={tail[l, s].item()!r} > "
                    f"bound={bound[l, s].item()!r} at t={t_ls!r}, params={params}")
            failures.append((trial, s, (f"soundness/{labels[s]}", False, text)))
    gap, _, text = max(best)
    failures.sort(key=lambda failure: failure[:2])
    return checked, (gap, text), [record for _, _, record in failures]


def _check_params(group: _Group, l: int, label: str, t: float) -> dict:
    """The params the evaluator gives the check ``label`` at t of law l of
    ``group``, which only a failure prints."""
    n = group.sk.shape[1] - 1
    if label in _EVALUATORS:
        rates = (group.gamma[l].item(), group.gamma_z[l].item(), group.pbar[l].item())
        return _EVALUATORS[label](n, *rates, t).params
    k = int(label[len("linial-luria(k="):-1])
    profile = bd.SymmetricMoments({k: group.sk[l, k].item()})
    return bd.linial_luria_bound(n, int(t), k, profile).params


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

    # quadratic lower bound on the divergence, over a dense (q, p) grid:
    # ``_kl`` takes the grid's 4 x 100 logs once, then broadcasts
    grid = np.linspace(0.005, 0.995, 100)
    q, p = grid[:, None], grid[None, :]
    worst = float((_kl(q, p) - 2.0 * (q - p) ** 2).min())
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
    checked, first = 0, None
    for count, failure in _sweep_blocks(rng, n_max, trials, _sandwich_block):
        checked, first = checked + count, first or failure
    detail = f"{checked} comparisons over {trials} distributions"
    if first is not None:
        detail += "; first failure: " + first
    return [("sandwich/linial", first is None, detail)]


def _sandwich_block(groups: list, start: int) -> tuple:
    """(comparisons, failure) of one block's ``groups``, its first law trial
    ``start``: ``failure`` is the text of its first failing law in trial
    order (``_sandwich_failure``), or None."""
    checked, failures = 0, [(math.inf, None)]
    for group in groups:
        n = group.sk.shape[1] - 1
        checked += len(group.rows) * n * (n + 1) // 2
        failing = np.flatnonzero(_sandwich_fails(group))
        if failing.size:
            trial = start + group.rows[failing[0]]
            failures.append((trial, _sandwich_failure(trial, group, int(failing[0]))))
    return checked, min(failures)[1]


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
