"""Bound evaluators against independent oracles and the stated identities."""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from depbounds import bounds as bd
from depbounds import graphcomb as gc
from depbounds.cli import METHODS
from depbounds.numkernel import BinomialSpec, PoissonBinomialSpec, log_binom_coeff

mpmath.mp.dps = 60


def mp_kl(q, p):
    q, p = mpmath.mpf(q), mpmath.mpf(p)
    return q * mpmath.log(q / p) + (1 - q) * mpmath.log((1 - q) / (1 - p))


def optimal_h_cross_check(log_objective, h_lo=1e-9, h_hi=50.0):
    """Minimize a log-scale objective over h > 0 by bracketed scalar search.

    Guards the closed-form tilts against transcription errors; returns
    (h_min, objective(h_min)).
    """
    res = minimize_scalar(
        log_objective, bounds=(h_lo, h_hi), method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x), float(res.fun)


def exact_binom_tail(n, p_frac, j):
    total = Fraction(0)
    for i in range(j, n + 1):
        total += Fraction(math.comb(n, i)) * p_frac**i * (1 - p_frac) ** (n - i)
    return total


class TestHoeffding:
    def test_three_forms_agree(self):
        # product closed form, KL form, and the tilted-moment infimum
        for n, p, t in [(10, 0.3, 6.0), (50, 0.2, 20.0), (200, 0.7, 160.0)]:
            tb = bd.hoeffding_bound(n, p, t)
            assert tb.is_valid
            assert tb.log_bound == pytest.approx(tb.params["closed_form"], abs=1e-10)
            h = tb.params["h"]
            tilted = -h * t + n * math.log(1 - p + p * math.exp(h))
            assert tb.log_bound == pytest.approx(tilted, abs=1e-10)

    def test_high_precision_value_and_dominance(self):
        # 0.3^6 * 0.7^4 * (4/6)^6 * (10/4)^10, evaluated at 60 digits
        tb = bd.hoeffding_bound(10, 0.3, 6.0)
        want = float(
            6 * mpmath.log(mpmath.mpf(3) / 10)
            + 4 * mpmath.log(mpmath.mpf(7) / 10)
            + 6 * mpmath.log(mpmath.mpf(4) / 6)
            + 10 * mpmath.log(mpmath.mpf(10) / 4)
        )
        assert tb.log_bound == pytest.approx(want, rel=1e-12)
        exact = exact_binom_tail(10, Fraction(3, 10), 6)
        assert tb.bound >= float(exact)

    def test_invalid_below_mean(self):
        tb = bd.hoeffding_bound(10, 0.3, 3.0)
        assert not tb.is_valid
        assert "t <= np" in tb.invalid_reason

    def test_invalid_at_endpoints(self):
        assert not bd.hoeffding_bound(10, 0.3, 10.0).is_valid
        assert not bd.hoeffding_bound(10, 1.2, 5.0).is_valid

    def test_h_optimizer_cross_check(self):
        n, p, t = 30, 0.25, 12.0
        tb = bd.hoeffding_bound(n, p, t)

        def objective(h):
            return -h * t + n * math.log(1 - p + p * math.exp(h))

        h_num, val = optimal_h_cross_check(objective)
        assert h_num == pytest.approx(tb.params["h"], abs=1e-6)
        assert val == pytest.approx(tb.log_bound, abs=1e-10)

    def test_monotone_in_t(self):
        n, p = 40, 0.3
        ts = np.linspace(n * p + 0.1, n - 0.1, 200)
        vals = [bd.hoeffding_bound(n, p, float(t)).log_bound for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestIK:
    def test_kl_oracle_value(self):
        tb = bd.ik_bound(20, 0.2, 1.0, c=1.0)
        assert tb.is_valid
        assert tb.log_bound == pytest.approx(float(-20 * mp_kl(0.4, 0.2)), rel=1e-12)

    def test_small_eps_approaches_one(self):
        tb = bd.ik_bound(20, 0.2, 1e-9, c=1.0)
        assert tb.is_valid
        assert tb.bound == pytest.approx(1.0, abs=1e-6)

    def test_eps_out_of_range(self):
        assert not bd.ik_bound(20, 0.2, 4.5, c=1.0).is_valid
        assert not bd.ik_bound(20, 0.2, -0.1, c=1.0).is_valid
        assert not bd.ik_bound(20, 0.2, 1.0, c=0.5).is_valid

    def test_c_annotation(self):
        assert bd.ik_bound(20, 0.2, 1.0, c=1.0).params["soundness"] == "Bernoulli-only"
        assert bd.ik_bound(20, 0.2, 1.0, c=2.0).params["soundness"] == "general"


class TestLinialLuria:
    def test_k1_is_markov(self):
        n, beta_n, p = 10, 6, 0.3
        tb = bd.linial_luria_bound(n, beta_n, 1, bd.MeanOnly(p))
        assert tb.log_bound == pytest.approx(math.log(n * p / beta_n), abs=1e-12)

    def test_independent_bernoulli_dominates_binomial_tail(self):
        n, beta_n, k, p = 10, 8, 4, 0.5
        sk = math.comb(n, k) * p**k
        tb = bd.linial_luria_bound(n, beta_n, k, bd.SymmetricMoments({0: 1.0, k: sk}))
        want = math.comb(10, 4) * p**4 / math.comb(8, 4)
        assert tb.bound == pytest.approx(want, rel=1e-12)
        assert tb.bound >= float(exact_binom_tail(n, Fraction(1, 2), beta_n))

    def test_k_above_beta_n_is_invalid(self):
        tb = bd.linial_luria_bound(10, 5, 6, bd.ProductBound(0.3))
        assert tb.invalid_reason == "k not in (0, beta_n]"

    def test_k_equal_to_beta_n_bounds_exact_tails(self):
        """At k = beta_n the bound is S_beta_n, Markov on C(Z, beta_n),
        which is at least 1 exactly when Z >= beta_n."""
        from depbounds import verify

        rng = np.random.default_rng(11)
        draws = [verify._law_draw(rng, 10) for _ in range(60)]
        for group in verify._prepared_laws(draws):
            n = group.sk.shape[1] - 1
            for tails, sk in zip(group.tails.tolist(), group.sk.tolist()):
                profile = bd.SymmetricMoments(dict(enumerate(sk)))
                for beta_n in range(1, n + 1):
                    tb = bd.linial_luria_bound(n, beta_n, beta_n, profile)
                    assert tb.is_valid
                    assert tails[beta_n] <= tb.bound + 1e-12

    def test_product_profile_matches_explicit_moment(self):
        n, beta_n, k, g = 12, 9, 3, 0.4
        a = bd.linial_luria_bound(n, beta_n, k, bd.ProductBound(g))
        sk = math.comb(n, k) * g**k
        b = bd.linial_luria_bound(n, beta_n, k, bd.SymmetricMoments({0: 1.0, k: sk}))
        assert a.log_bound == pytest.approx(b.log_bound, abs=1e-12)

    def test_optimal_k_within_entropy_slack_of_ik(self):
        # the moment bound at the best integer k recovers the
        # covariance-condition bound up to the polynomial slack of the
        # standard entropy estimate C(n,k) >= e^{nH(k/n)}/(n+1); the
        # pointwise inequality without slack fails at extreme thresholds
        checked = 0
        for n, g in [(12, 0.3), (20, 0.15), (16, 0.5)]:
            for beta_n in range(math.ceil(n * g) + 1, n + 1):
                eps = beta_n / (n * g) - 1.0
                ik = bd.ik_bound(n, g, eps, c=1.0)
                if not ik.is_valid:
                    continue
                best = min(
                    (
                        bd.linial_luria_bound(n, beta_n, k, bd.ProductBound(g)).log_bound
                        for k in range(1, beta_n)
                        if bd.linial_luria_bound(n, beta_n, k, bd.ProductBound(g)).is_valid
                    ),
                    default=None,
                )
                assert best is not None
                assert best <= ik.log_bound + 2.0 * math.log(n + 1) + 1e-9
                checked += 1
        assert checked >= 10


class TestLinialLower:
    """The sandwich sweep's lower bound S_beta_n / C(n, beta_n) on
    P[Z >= beta_n], as ``verify._linial_tables`` gives it from the S_k of
    a law."""

    @staticmethod
    def lower(sk):
        from depbounds import verify

        return verify._linial_tables(np.array([sk], dtype=float))[1][0].tolist()

    def test_all_ones(self):
        n, beta_n = 8, 5
        lower = self.lower([math.comb(n, k) for k in range(n + 1)])
        assert lower[beta_n] == pytest.approx(1.0, abs=1e-12)

    def test_all_zeros(self):
        assert self.lower([1.0] + [0.0] * 8)[5] == 0.0

    def test_independent_bernoulli_lower(self):
        p = 0.35
        for n in (5, 10, 20):
            lower = self.lower([math.comb(n, k) * p**k for k in range(n + 1)])
            for beta_n in range(1, n + 1):
                exact = float(exact_binom_tail(n, Fraction(35, 100), beta_n))
                assert lower[beta_n] <= exact + 1e-12
                assert lower[beta_n] == pytest.approx(p**beta_n, rel=1e-10)


class TestExpfunct:
    def test_delta_complement_reduces_to_hoeffding(self):
        for n, g, t in [(12, 0.25, 6.0), (30, 0.4, 20.0)]:
            a = bd.expfunct_bound(n, g, 1.0 - g, t)
            b = bd.hoeffding_bound(n, g, t)
            assert a.log_bound == pytest.approx(b.log_bound, abs=1e-10)

    def test_high_precision_value(self):
        n, t = 12, 6
        g, d = mpmath.mpf("0.25"), mpmath.mpf("0.8")
        want = float(
            t * mpmath.log(g)
            + (n - t) * mpmath.log(d)
            + t * mpmath.log(mpmath.mpf(n - t) / t)
            + n * mpmath.log(mpmath.mpf(n) / (n - t))
        )
        tb = bd.expfunct_bound(12, 0.25, 0.8, 6.0)
        assert tb.log_bound == pytest.approx(want, rel=1e-12)

    def test_infeasible_split_rejected(self):
        assert not bd.expfunct_bound(12, 0.1, 0.5, 6.0).is_valid

    def test_closed_form_at_most_kl_form(self):
        n = 25
        for g in (0.1, 0.3, 0.6):
            for d in (1.0, 1.0 - g / 2, 1.0 - g):
                for t in np.linspace(n * g + 0.05, n - 0.05, 200):
                    tb = bd.expfunct_bound(n, g, d, float(t))
                    assert tb.is_valid
                    assert tb.log_bound <= tb.params["kl_form"] + 1e-10

    def test_h_optimizer_cross_check(self):
        n, g, d, t = 12, 0.25, 0.8, 6.0
        tb = bd.expfunct_bound(n, g, d, t)

        def objective(h):
            # E[e^{h Z_gamma,delta}] style objective from the split bound
            return -h * t + n * math.log(d + g * math.exp(h) - (1 - (d + g)) * 0)

        # direct objective: gamma e^h + delta >= split moment generating value
        def obj2(h):
            return -h * t + n * math.log(g * math.exp(h) + d)

        h_num, val = optimal_h_cross_check(obj2)
        assert math.exp(h_num) == pytest.approx(t * d / ((n - t) * g), rel=1e-5)
        assert val == pytest.approx(tb.log_bound, abs=1e-9)


class TestBincoupling:
    def test_kl_oracle_value(self):
        tb = bd.bincoupling_bound(100, 0.3, 50.0)
        assert tb.params["eps0"] == pytest.approx(19 / 30, rel=1e-12)
        want = float(mpmath.log(2) - 100 * mp_kl("0.49", "0.3"))
        assert tb.log_bound == pytest.approx(want, rel=1e-12)

    def test_boundary_rejected(self):
        assert not bd.bincoupling_bound(100, 0.3, 31.0).is_valid

    def test_relation_to_hoeffding_exponent(self):
        n, p, t = 100, 0.3, 50.0
        a = bd.bincoupling_bound(n, p, t)
        b = bd.hoeffding_bound(n, p, t - 1.0)
        assert a.log_bound == pytest.approx(math.log(2) + b.log_bound, abs=1e-10)


class TestMcDiarmid:
    def test_small_t_near_one(self):
        tb = bd.mcdiarmid_bound(50, 0.4, 1e-9)
        assert tb.bound == pytest.approx(1.0, abs=1e-6)

    def test_kl_oracle_and_foolproof(self):
        tb = bd.mcdiarmid_bound(50, 0.4, 0.2)
        want = float(-50 * mp_kl("0.6", "0.4"))
        assert tb.log_bound == pytest.approx(want, rel=1e-12)
        assert tb.log_bound <= -2 * 50 * 0.2**2 + 1e-12
        assert tb.params["foolproof"] == pytest.approx(-4.0)

    def test_out_of_range(self):
        assert not bd.mcdiarmid_bound(50, 0.4, 0.7).is_valid
        assert not bd.mcdiarmid_bound(50, 0.4, 0.0).is_valid

    def test_sum_scale_identity(self):
        # H_m(n,p,t) equals the independent bound at sum threshold n(p+t)
        for n, p, t in [(50, 0.4, 0.2), (30, 0.1, 0.35), (80, 0.6, 0.25)]:
            a = bd.mcdiarmid_bound(n, p, t)
            b = bd.hoeffding_bound(n, p, n * (p + t))
            assert a.log_bound == pytest.approx(b.log_bound, abs=1e-10)


@functools.lru_cache(maxsize=None)
def binom_pmf_logs(n, p):
    """ln P[Bin(n, p) = j] for j = 0..n, on the package's log_binom_coeff."""
    j = np.arange(n + 1)
    log_c = np.array([log_binom_coeff(n, i) for i in range(n + 1)])
    return log_c + j * math.log(p) + (n - j) * math.log1p(-p)


def numpy_refined_log_bounds(n, p, t, params=None):
    """The refined bounds as the package computed them with numpy arrays
    (a log-sum-exp over the binomial log-pmf), kept here as a reference
    for the standard-library sums: mcdiarmid-refined at (n, p, t), or
    ustat-refined when ``params`` is given.  Both sides take the same
    log-pmf terms, so only the sums are compared."""
    if params is None:
        ref = bd.mcdiarmid_refined_bound(n, p, t)
        h, missing = ref.params["h"], ref.params["missing_factor"]
        ell = ref.params["ell"]
        pmf = binom_pmf_logs(n, p)
        j = np.arange(n + 1)
        log_hm_minus_t = float(logsumexp(pmf[ell:] + h * (j[ell:] - ell)))
        return min(0.0, float(logsumexp([math.log(missing) + log_hm_minus_t,
                                         math.log1p(-missing) + float(pmf[ell])])))
    ref = bd.ustat_refined_bound(params, t)
    k, n_d, y, h = params.k, params.n_d, ref.params["y"], ref.params["h"]
    missing = ref.params["missing_factor"]
    ell = round(k * (params.p + t))
    pmf = binom_pmf_logs(k, params.p)
    j = np.arange(k + 1)
    t2 = float(np.exp(logsumexp(pmf[:ell] + h * (n_d * j[:ell] - y))))
    value = (missing * (math.exp(-2.0 * k * t * t) - t2)
             + (1.0 - missing) * math.exp(pmf[ell]))
    return min(0.0, math.log(value))


class TestRefinedSums:
    """The refined bounds sum with math alone; their values stay within
    1e-12 (relative, as a difference of logs) of the numpy arrays'."""

    @staticmethod
    def grid(size):
        """Integer thresholds ell spread over (0, size)."""
        return sorted({max(1, size * i // 40) for i in range(1, 40)} | {size - 1})

    def test_mcdiarmid_refined_matches_numpy_sums(self):
        checked = 0
        for n in (5, 20, 100, 1000, 10**4):
            for p in (0.05, 0.3, 0.7):
                for ell in self.grid(n):
                    t = ell / n - p
                    tb = bd.mcdiarmid_refined_bound(n, p, t)
                    if not tb.is_valid:
                        continue
                    want = numpy_refined_log_bounds(n, p, t)
                    assert abs(tb.log_bound - want) <= 1e-12, (n, p, ell)
                    checked += 1
        assert checked >= 200

    def test_ustat_refined_matches_numpy_sums(self):
        checked = 0
        for n, d in [(10, 1), (40, 2), (300, 3), (2000, 2), (10**4, 1), (10**4, 2)]:
            for p in (0.05, 0.3, 0.7):
                params = bd.UStatParams(n, d, p)
                for ell in self.grid(params.k):
                    t = ell / params.k - p
                    tb = bd.ustat_refined_bound(params, t)
                    if not tb.is_valid or tb.log_bound == -math.inf:
                        continue
                    want = numpy_refined_log_bounds(n, p, t, params)
                    assert abs(tb.log_bound - want) <= 1e-12, (n, d, p, ell)
                    checked += 1
        assert checked >= 150


class TestMcDiarmidRefined:
    def test_example_value_dominates_exact_tail(self):
        n, p, t = 20, 0.3, 0.4
        tb = bd.mcdiarmid_refined_bound(n, p, t)
        assert tb.is_valid
        assert tb.params["ell"] == 14
        exact = float(exact_binom_tail(20, Fraction(3, 10), 14))
        assert tb.bound >= exact - 1e-12

    def test_direct_formula_oracle(self):
        # recompute from the displayed formula in 60-digit arithmetic
        n, p, t = 20, 0.3, 0.4
        tb = bd.mcdiarmid_refined_bound(n, p, t)
        mp_p, mp_t = mpmath.mpf("0.3"), mpmath.mpf("0.4")
        h = mpmath.log((mp_t + mp_p) * (1 - mp_p) / (mp_p * (1 - mp_p - mp_t)))
        missing = (1 + h) / mpmath.e**h
        ell = 14
        hm = mpmath.e ** (-n * mp_kl("0.7", "0.3"))
        T = mpmath.mpf(0)
        for j in range(ell):
            pj = mpmath.binomial(n, j) * mp_p**j * (1 - mp_p) ** (n - j)
            T += mpmath.e ** (h * (j - ell)) * pj
        p_ell = mpmath.binomial(n, ell) * mp_p**ell * (1 - mp_p) ** (n - ell)
        want = float(missing * (hm - T) + (1 - missing) * p_ell)
        assert tb.bound == pytest.approx(want, rel=1e-10)

    def test_h_threshold_rejection(self):
        # below t = p(1-p)(e-1)/(1-p+ep) the tilt h drops to <= 1
        p = 0.3
        thr = p * (1 - p) * (math.e - 1) / (1 - p + math.e * p)
        assert thr == pytest.approx(0.23810, abs=5e-5)
        # n(p+t) = 10 is an integer but t = 0.2 is below the tilt threshold
        tb = bd.mcdiarmid_refined_bound(20, 0.3, 0.2)
        assert not tb.is_valid
        assert "too small" in tb.invalid_reason
        # t = 0.25 clears the threshold: h > 1 and n(p+t) = 11
        ok = bd.mcdiarmid_refined_bound(20, 0.3, 0.25)
        assert ok.is_valid
        assert ok.params["h"] > 1.0

    def test_non_integer_rejected(self):
        assert not bd.mcdiarmid_refined_bound(20, 0.3, 0.33).is_valid

    def test_at_most_plain_bound_on_grid(self):
        count = 0
        for n in (10, 20, 40, 60, 100):
            for ell in range(1, n):
                p = 0.3
                t = ell / n - p
                tb = bd.mcdiarmid_refined_bound(n, p, t)
                if not tb.is_valid:
                    continue
                plain = bd.mcdiarmid_bound(n, p, t)
                assert tb.log_bound <= plain.log_bound + 1e-12
                count += 1
        assert count >= 100


class TestKwise:
    def test_k_equals_n_is_hoeffding(self):
        n, p, eps = 40, 0.5, 0.5
        a = bd.kwise_bound(n, n, p, eps)
        b = bd.hoeffding_bound(n, p, n * p * (1 + eps))
        assert a.log_bound == pytest.approx(b.log_bound, abs=1e-10)

    def test_kl_oracle_value(self):
        tb = bd.kwise_bound(40, 38, 0.5, 0.5)
        want = float(-2 * mpmath.log(mpmath.mpf("0.25")) - 40 * mp_kl("0.75", "0.5"))
        assert tb.log_bound == pytest.approx(want, rel=1e-12)

    def test_clamping_contract(self):
        tb = bd.kwise_bound(40, 10, 0.5, 0.1)
        assert tb.is_valid
        assert tb.bound <= 1.0
        assert tb.params.get("clamped") is True

    def test_range_rejections(self):
        assert not bd.kwise_bound(40, 0, 0.5, 0.5).is_valid
        assert not bd.kwise_bound(40, 41, 0.5, 0.5).is_valid
        assert not bd.kwise_bound(40, 20, 0.5, 1.5).is_valid


class TestKwiseBernoulli:
    def test_k1_markov(self):
        # at k=1 the ratio collapses to 1/(1+eps)
        tb = bd.kwise_bernoulli_bound(20, 1, 0.25, 1.0)
        assert tb.bound == pytest.approx(0.5, rel=1e-12)

    def test_exact_integer_arithmetic(self):
        tb = bd.kwise_bernoulli_bound(20, 3, 0.25, 1.0)
        want = math.comb(20, 3) * 0.25**3 / math.comb(10, 3)
        assert tb.bound == pytest.approx(want, rel=1e-12)
        assert tb.params["threshold"] == 10

    def test_non_integer_rejected(self):
        assert not bd.kwise_bernoulli_bound(20, 3, 0.25, 0.9).is_valid

    def test_threshold_le_k_rejected(self):
        # np(1+eps) = 10 <= k = 10
        assert not bd.kwise_bernoulli_bound(20, 10, 0.25, 1.0).is_valid


class TestSSS:
    def test_example_value(self):
        tb = bd.sss_bound(100, 0.1, 0.5, 6)
        assert tb.is_valid
        assert tb.params["k_star"] == 6
        want = math.comb(100, 6) * 0.1**6 / math.comb(15, 6)
        assert tb.bound == pytest.approx(want, rel=1e-10)

    def test_k_below_k_star_rejected(self):
        tb = bd.sss_bound(100, 0.1, 0.5, 5)
        assert not tb.is_valid
        assert "k < k*" in tb.invalid_reason

    def test_agrees_with_bernoulli_kwise_at_k_star(self):
        # integer threshold, k = k*: the two formulas coincide
        n, p, eps = 100, 0.1, 0.5
        k_star = math.ceil(n * p * eps / (1 - p) - 1e-12)
        a = bd.sss_bound(n, p, eps, k_star)
        b = bd.kwise_bernoulli_bound(n, k_star, p, eps)
        assert a.is_valid and b.is_valid
        assert a.log_bound == pytest.approx(b.log_bound, abs=1e-10)


class TestDepgraph:
    def test_alpha_n_is_hoeffding_half(self):
        for n, t in [(30, 24.0), (12, 8.5)]:
            a = bd.depgraph_bound(bd.DependencyGraphParams(n, n), t)
            b = bd.hoeffding_bound(n, 0.5, t)
            assert a.log_bound == pytest.approx(b.log_bound, abs=1e-10)

    def test_closed_form_value(self):
        # alpha = 28: 2*ln2 + ln H(30, 1/2, 24) stays negative
        tb = bd.depgraph_bound(bd.DependencyGraphParams(30, 28), 24.0)
        want = 2 * math.log(2) + bd.hoeffding_bound(30, 0.5, 24.0).log_bound
        assert tb.log_bound == pytest.approx(want, abs=1e-12)

    def test_clamped_when_prefactor_dominates(self):
        # alpha = 20 at the same t pushes the raw value above 1
        tb = bd.depgraph_bound(bd.DependencyGraphParams(30, 20), 24.0)
        assert tb.is_valid
        assert tb.bound == 1.0
        assert tb.params.get("clamped") is True

    def test_t_range(self):
        assert not bd.depgraph_bound(bd.DependencyGraphParams(30, 20), 15.0).is_valid

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            bd.DependencyGraphParams(10, 11)


class TestUStat:
    def test_kl_oracle_value(self):
        tb = bd.ustat_bound(bd.UStatParams(9, 3, 0.2), 0.3)
        assert tb.log_bound == pytest.approx(float(-3 * mp_kl("0.5", "0.2")), rel=1e-12)
        assert tb.params["k"] == 3
        assert tb.params["N_d"] == math.comb(8, 2)

    def test_small_t_near_one(self):
        tb = bd.ustat_bound(bd.UStatParams(9, 3, 0.2), 1e-9)
        assert tb.bound == pytest.approx(1.0, abs=1e-6)

    def test_d_must_divide_n(self):
        with pytest.raises(ValueError):
            bd.UStatParams(10, 3, 0.2)

    def test_refined_example_strictly_below_foolproof(self):
        params = bd.UStatParams(30, 3, 0.2)
        tb = bd.ustat_refined_bound(params, 0.4)
        assert tb.is_valid
        assert tb.bound < math.exp(-2 * 10 * 0.4**2)

    def test_refined_rejects_small_t(self):
        params = bd.UStatParams(30, 3, 0.2)
        assert not bd.ustat_refined_bound(params, 0.15).is_valid

    def test_refined_below_foolproof_on_grid(self):
        checked = 0
        for n, d in [(30, 3), (40, 2), (60, 3), (100, 4), (24, 2)]:
            params_list = []
            k = n // d
            for p in (0.1, 0.2, 0.3):
                for ell in range(1, k):
                    t = ell / k - p
                    tb = bd.ustat_refined_bound(bd.UStatParams(n, d, p), t)
                    if tb.is_valid:
                        assert tb.bound < math.exp(-2 * k * t * t)
                        checked += 1
        assert checked >= 50

    @staticmethod
    def mp_refined(n, d, p, t):
        """The refined U-statistic bound from its displayed formula, in
        60-digit arithmetic."""
        k, n_d = n // d, math.comb(n - 1, d - 1)
        mp_p, mp_t = mpmath.mpf(str(p)), mpmath.mpf(str(t))
        h_nd = mpmath.log((mp_p + mp_t) * (1 - mp_p) / (mp_p * (1 - mp_p - mp_t)))
        h = h_nd / n_d
        missing = (h_nd + 1) / mpmath.e**h_nd
        ell = round(k * (p + t))
        y = k * n_d * (mp_p + mp_t)
        t2 = mpmath.mpf(0)
        for j in range(ell):
            pj = mpmath.binomial(k, j) * mp_p**j * (1 - mp_p) ** (k - j)
            t2 += mpmath.e ** (h * (n_d * j - y)) * pj
        p_ell = mpmath.binomial(k, ell) * mp_p**ell * (1 - mp_p) ** (k - ell)
        return float(
            missing * (mpmath.e ** (-2 * k * mp_t**2) - t2) + (1 - missing) * p_ell
        )

    def test_refined_direct_formula_oracle(self):
        n, d, p, t = 30, 3, 0.2, 0.4
        tb = bd.ustat_refined_bound(bd.UStatParams(n, d, p), t)
        assert tb.bound == pytest.approx(self.mp_refined(n, d, p, t), rel=1e-10)

    def test_refined_takes_n_d_beyond_int64(self):
        # N_d = C(79, 39) > 2^63: the numpy sums raised OverflowError
        n, d, p, t = 80, 40, 0.2, 0.3
        assert math.comb(n - 1, d - 1) > 2**63
        tb = bd.ustat_refined_bound(bd.UStatParams(n, d, p), t)
        assert tb.is_valid
        assert tb.bound == pytest.approx(self.mp_refined(n, d, p, t), rel=1e-10)


class TestThresholdConversions:
    def test_round_trip(self):
        for n, base in [(10, 0.3), (50, 0.05), (7, 0.9)]:
            for eps in (0.1, 0.5, 2.0):
                t = bd.eps_to_t(n, base, eps)
                assert bd.t_to_eps(n, base, t) == pytest.approx(eps, abs=1e-12)


class TestMonotonicityGrids:
    @pytest.mark.parametrize(
        "make",
        [
            lambda t: bd.ik_bound(30, 0.2, t / 6.0 - 1.0),
            lambda t: bd.expfunct_bound(30, 0.2, 0.9, t),
            lambda t: bd.bincoupling_bound(30, 0.2, t),
            lambda t: bd.mcdiarmid_bound(30, 0.2, t / 30.0 - 0.2),
            lambda t: bd.depgraph_bound(bd.DependencyGraphParams(30, 12), t),
        ],
    )
    def test_nonincreasing(self, make):
        vals = []
        for t in np.linspace(0.05, 29.95, 200):
            tb = make(float(t))
            if tb.is_valid:
                vals.append(tb.log_bound)
        assert len(vals) >= 20
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestInputGuard:
    """Nonsense n, NaN thresholds and rounding at the domain edge give
    Invalid, never a value and never an exception."""

    # evaluator of (n, threshold), and a threshold that is valid at n = 10
    BY_N = {
        "hoeffding": (lambda n, x: bd.hoeffding_bound(n, 0.3, x), 5.0),
        "ik": (lambda n, x: bd.ik_bound(n, 0.3, x), 0.5),
        "linial-luria": (
            lambda n, x: bd.linial_luria_bound(n, x, 1, bd.ProductBound(0.3)), 8
        ),
        "expfunct": (lambda n, x: bd.expfunct_bound(n, 0.3, 0.9, x), 5.0),
        "bincoupling": (lambda n, x: bd.bincoupling_bound(n, 0.3, x), 5.0),
        "mcdiarmid": (lambda n, x: bd.mcdiarmid_bound(n, 0.3, x), 0.2),
        "mcdiarmid-refined": (
            lambda n, x: bd.mcdiarmid_refined_bound(n, 0.3, x), 0.4
        ),
        "kwise": (lambda n, x: bd.kwise_bound(n, 5, 0.3, x), 0.5),
        "kwise-bernoulli": (
            lambda n, x: bd.kwise_bernoulli_bound(n, 2, 0.3, x), 1.0
        ),
        "sss": (lambda n, x: bd.sss_bound(n, 0.3, x, 10), 1.0),
        "gnm-isolated": (lambda n, x: gc.gnm_isolated_bound(n, 10, x), 3),
        "gnm-triangles": (lambda n, x: gc.gnm_triangles_bound(n, 20, x), 3),
    }

    @pytest.mark.parametrize("method", sorted(BY_N))
    @pytest.mark.parametrize("n", [-3, 0, 2.5])
    def test_bad_n(self, method, n):
        call, x = self.BY_N[method]
        assert call(10, x).is_valid
        tb = call(n, x)
        assert not tb.is_valid and tb.log_bound is None

    @pytest.mark.parametrize("method", sorted(BY_N))
    def test_nan_threshold(self, method):
        call, _x = self.BY_N[method]
        assert call(10, math.nan).invalid_reason == "threshold is NaN"

    @pytest.mark.parametrize("call", [
        lambda x: bd.depgraph_bound(bd.DependencyGraphParams(10, 5), x),
        lambda x: bd.ustat_bound(bd.UStatParams(10, 2, 0.3), x),
        lambda x: bd.ustat_refined_bound(bd.UStatParams(10, 2, 0.3), x),
    ])
    def test_nan_threshold_params(self, call):
        assert call(math.nan).invalid_reason == "threshold is NaN"

    def test_rate_rounding_to_one(self):
        # eps just below 1/gamma - 1, or t just below 1-p or n, where the
        # tilted rate rounds to 1.0 and the KL divergence is undefined
        g, e = 0.8474337369372327, 0.18003326562636898
        assert not bd.ik_bound(10, g, e).is_valid
        assert not bd.kwise_bound(10, 3, g, e).is_valid
        p, t = 0.8444218515250481, 0.15557814847495186
        assert not bd.mcdiarmid_bound(10, p, t).is_valid
        assert not bd.ustat_bound(bd.UStatParams(10, 2, p), t).is_valid
        assert bd.expfunct_bound(7, 0.1469614007334975, 1.0, 6.999999999999999).is_valid

    def test_moment_profiles(self):
        for profile in (bd.MeanOnly(-0.1), bd.ProductBound(-0.3),
                        bd.SymmetricMoments({0: 1.0, 2: -1.0})):
            k = 1 if isinstance(profile, bd.MeanOnly) else 2
            assert not bd.linial_luria_bound(10, 8, k, profile).is_valid
        assert bd.linial_luria_bound(10, 8, 2, bd.ProductBound(0.0)).bound == 0.0


class TestRecords:
    """The result and parameter records: keyword construction, defaults,
    repr and the text of every ValueError a bad input raises."""

    @pytest.mark.parametrize("cls, kwargs", [
        (bd.MeanOnly, {"p": 0.3}),
        (bd.ProductBound, {"gamma": 0.3}),
        (bd.SplitBound, {"gamma": 0.3, "delta": 0.8}),
        (bd.SymmetricMoments, {"s": {0: 1.0, 2: 3.0}}),
        (bd.UStatParams, {"n": 9, "d": 3, "p": 0.2}),
        (bd.DependencyGraphParams, {"n": 10, "alpha": 1}),
        (BinomialSpec, {"n": 10, "p": 0.3}),
        (PoissonBinomialSpec, {"ps": (0.25, 0.5)}),
    ])
    def test_keyword_construction(self, cls, kwargs):
        record = cls(**kwargs)
        assert {k: getattr(record, k) for k in kwargs} == kwargs
        positional = cls(*kwargs.values())
        assert {k: getattr(positional, k) for k in kwargs} == kwargs

    def test_tail_bound_defaults_and_keywords(self):
        tb = bd.TailBound(method="stand-in", log_bound=-1.5)
        assert (tb.method, tb.log_bound, tb.params, tb.invalid_reason) == (
            "stand-in", -1.5, {}, None)
        assert tb.is_valid and tb.bound == math.exp(-1.5)
        bad = bd.TailBound("x", None, invalid_reason="t <= np")
        assert not bad.is_valid and bad.params == {}

    def test_tail_bounds_never_share_params(self):
        a, b = bd.TailBound("a", -1.0), bd.TailBound("b", -2.0)
        a.params["clamped"] = True
        assert b.params == {}
        c, d = bd._invalid("c", "why"), bd._invalid("d", "why")
        c.params["k"] = 1
        assert d.params == {}

    def test_tail_bound_repr(self):
        assert repr(bd.TailBound("hoeffding", -1.234567891)) == (
            "TailBound(hoeffding, log_bound=-1.23457)")
        assert repr(bd.hoeffding_bound(10, 0.3, 2.0)) == (
            "TailBound(hoeffding, Invalid('t <= np'))")
        with pytest.raises(ValueError) as exc:
            bd.hoeffding_bound(10, 0.3, 2.0).bound
        assert str(exc.value) == "invalid bound: t <= np"

    def test_poisson_binomial_trials_become_floats(self):
        spec = PoissonBinomialSpec([1, 0.5])
        assert spec.ps == (1.0, 0.5) and type(spec.ps[0]) is float
        assert (spec.n, spec.mean) == (2, 0.75)

    @pytest.mark.parametrize("make, message", [
        (lambda: bd.SplitBound(0.0, 0.8), "gamma must be in (0,1), got 0.0"),
        (lambda: bd.SplitBound(0.3, 1.5), "delta must be in (0,1], got 1.5"),
        (lambda: bd.SplitBound(0.25, 0.5),
         "gamma + delta = 0.75 < 1 is infeasible"),
        (lambda: bd.SymmetricMoments({0: 2.0}), "S_0 must equal 1"),
        (lambda: bd.UStatParams(9, 0, 0.2), "n and d must be positive"),
        (lambda: bd.UStatParams(0, 3, 0.2), "n and d must be positive"),
        (lambda: bd.UStatParams(10, 3, 0.2), "d=3 does not divide n=10"),
        (lambda: bd.UStatParams(9, 3, 1.0), "p must be in (0,1), got 1.0"),
        (lambda: bd.DependencyGraphParams(10, 11),
         "independence number 11 outside [1, 10]"),
        (lambda: bd.DependencyGraphParams(n=10, alpha=0),
         "independence number 0 outside [1, 10]"),
        (lambda: BinomialSpec(0, 0.5), "n must be >= 1, got 0"),
        (lambda: BinomialSpec(5, 0.0), "p must be in (0,1), got 0.0"),
        (lambda: PoissonBinomialSpec(()), "need at least one trial probability"),
        (lambda: PoissonBinomialSpec((0.5, 1.5)),
         "trial probability 1.5 outside [0,1]"),
    ])
    def test_bad_input_messages(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


NAN = float("nan")


@pytest.mark.parametrize("call, reason", [
    (lambda: bd.linial_luria_bound(10, 2.5, 1, bd.MeanOnly(0.3)),
     "beta_n not an integer"),
    (lambda: bd.linial_luria_bound(10, 5, 1.5, bd.MeanOnly(0.3)), "k not an integer"),
    (lambda: bd.kwise_bernoulli_bound(10, 2.5, 0.3, 1.0), "k not an integer"),
    (lambda: bd.kwise_bound(10, 2.5, 0.3, 0.5), "k not an integer"),
    (lambda: bd.sss_bound(10, 0.3, 0.5, NAN), "k not an integer"),
    (lambda: bd.gnm_isolated_bound(10, 2.5, 3), "m not an integer"),
    (lambda: bd.gnm_isolated_bound(10, NAN, 3), "m not an integer"),
    (lambda: bd.gnm_isolated_bound(10, 5, 2.5), "t not an integer"),
    (lambda: bd.gnm_isolated_bound(10, 5, NAN), "threshold is NaN"),
    (lambda: bd.gnm_triangles_bound(10, 2.5, 3), "m not an integer"),
    (lambda: bd.gnm_triangles_bound(10, NAN, 3), "m not an integer"),
    (lambda: bd.gnm_triangles_bound(10, 5, 2.5), "t not an integer"),
    (lambda: bd.DependencyGraphParams(10, 2.5),
     ValueError("independence number must be an integer, got 2.5")),
])
def test_non_integral_parameter_is_refused(call, reason):
    """A fractional or NaN integer parameter gives Invalid naming it; the
    dependency-graph parameters raise ValueError, as UStatParams does."""
    if isinstance(reason, ValueError):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == str(reason)
    else:
        tb = call()
        assert not tb.is_valid and tb.invalid_reason == reason

# one valid point per method at n = 20: flag values and native threshold
FLOAT_N_POINTS = {
    "hoeffding": ({"p": 0.3}, 9.0),
    "ik": ({"gamma": 0.3}, 0.5),
    "linial-luria": ({"beta-n": 10, "gamma": 0.3}, 10),
    "expfunct": ({"gamma": 0.3, "delta": 0.8}, 12.0),
    "bincoupling": ({"p": 0.3}, 12.0),
    "mcdiarmid": ({"p": 0.3}, 0.1),
    "mcdiarmid-refined": ({"p": 0.3}, 0.4),
    "kwise": ({"k": 5, "p": 0.3}, 0.5),
    "kwise-bernoulli": ({"k": 5, "p": 0.3}, 0.5),
    "sss": ({"k": 10, "p": 0.3}, 0.5),
    "depgraph": ({"alpha": 10}, 15.0),
    "ustat": ({"d": 2, "p": 0.3}, 0.2),
    "ustat-refined": ({"d": 2, "p": 0.3}, 0.4),
    "gnm-isolated": ({"m": 10}, 3),
    "gnm-triangles": ({"m": 40}, 3),
}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_integral_float_n_gives_the_int_record(method):
    """check_n accepts n = 20.0, so every evaluator returns what it does
    at n = 20."""
    flags, native = FLOAT_N_POINTS[method]
    want = METHODS[method].bind({**flags, "n": 20})(native)
    got = METHODS[method].bind({**flags, "n": 20.0})(native)
    assert want.is_valid
    assert (got.log_bound, got.params, got.invalid_reason) == (
        want.log_bound, want.params, want.invalid_reason)
