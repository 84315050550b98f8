"""Log-space primitives against independent high-precision oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from depbounds.numkernel import (
    NEG_INF,
    BinomialSpec,
    PoissonBinomialSpec,
    _binom_pmf_log_vec,
    _binomial_median_tails,
    _log_beta,
    binom_pmf_log,
    binom_tail_log,
    binomial_median_lb_grid,
    kl_divergence,
    log_binom_coeff,
    log_gen_binom_coeff,
    poisson_binom_dist,
    to_prob,
)

mpmath.mp.dps = 60


def mp_kl(q, p):
    """50+ digit KL divergence oracle."""
    q, p = mpmath.mpf(q), mpmath.mpf(p)
    return q * mpmath.log(q / p) + (1 - q) * mpmath.log((1 - q) / (1 - p))


def pascal_binom(n, k):
    """Exact C(n,k) by the Pascal recurrence (independent of math.comb)."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def exact_binom_tail(n, p_frac, j):
    """Exact rational P[Bin(n,p) >= j]."""
    total = Fraction(0)
    for i in range(j, n + 1):
        total += (
            Fraction(math.comb(n, i))
            * p_frac**i
            * (1 - p_frac) ** (n - i)
        )
    return total


class TestKL:
    def test_identical_args_zero(self):
        assert kl_divergence(0.3, 0.3) == 0.0

    def test_quadratic_lower_bound_example(self):
        assert kl_divergence(0.7, 0.3) >= 2 * (0.7 - 0.3) ** 2

    def test_high_precision_value(self):
        got = kl_divergence(0.6, 0.2)
        want = float(mp_kl(0.6, 0.2))
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("q,p", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.2)])
    def test_endpoints_rejected(self, q, p):
        with pytest.raises(ValueError):
            kl_divergence(q, p)

    @given(
        q=st.floats(min_value=1e-6, max_value=1 - 1e-6),
        p=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    )
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_and_quadratic(self, q, p):
        d = kl_divergence(q, p)
        assert d >= 0.0
        assert d >= 2 * (q - p) ** 2 - 1e-12

    @given(q=st.floats(min_value=0.01, max_value=0.99), p=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath(self, q, p):
        assert kl_divergence(q, p) == pytest.approx(float(mp_kl(q, p)), rel=1e-12, abs=1e-14)


class TestLogBinomCoeff:
    def test_zero_k(self):
        assert log_binom_coeff(5, 0) == pytest.approx(0.0, abs=1e-12)

    def test_10_choose_5(self):
        assert log_binom_coeff(10, 5) == pytest.approx(math.log(pascal_binom(10, 5)), rel=1e-13)
        assert pascal_binom(10, 5) == 252

    def test_52_choose_5(self):
        assert pascal_binom(52, 5) == 2598960
        assert log_binom_coeff(52, 5) == pytest.approx(math.log(2598960), rel=1e-13)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            log_binom_coeff(3, 4)

    @pytest.mark.parametrize("n,k", [
        *((n, k) for n in (10**6, 10**8) for k in (0, 1, 2, 3, 5, 9, 10, 40)),
        *((n, k) for n in (2, 11, 100, 999, 2000)
          for k in (n // 2 - 1, n // 2, n // 2 + 1)),
    ])
    def test_no_cancellation(self, n, k):
        """lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) is off by 1.8e-9 at
        (10^6, 3) and 6e-8 at (10^8, 3); the log-beta form is not."""
        want = math.log(math.comb(n, k))
        assert abs(log_binom_coeff(n, k) - want) <= 1e-14 * abs(want)

    def test_integral_floats(self):
        assert log_binom_coeff(20.0, 15) == log_binom_coeff(20, 15)
        with pytest.raises(ValueError):
            log_binom_coeff(10.5, 3)

    @given(n=st.integers(0, 300), k=st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_integer(self, n, k):
        if k > n:
            with pytest.raises(ValueError):
                log_binom_coeff(n, k)
        else:
            assert log_binom_coeff(n, k) == pytest.approx(
                math.log(math.comb(n, k)) if math.comb(n, k) > 1 else 0.0,
                rel=1e-12, abs=1e-12,
            )

    def test_generalized_matches_integer_case(self):
        for n in (5, 12, 40):
            for k in range(n + 1):
                assert log_gen_binom_coeff(float(n), k) == pytest.approx(
                    log_binom_coeff(n, k), rel=1e-12, abs=1e-12
                )

    @pytest.mark.parametrize("x", [1e6 + 0.5, 1e8 + 0.25])
    def test_generalized_real_top_at_large_x(self, x):
        # three lgammas of size x ln x cancel here; they were 6.8e-10 and
        # 5.3e-8 off
        want = mpmath.log(mpmath.binomial(mpmath.mpf(x), 3))
        assert abs(log_gen_binom_coeff(x, 3) - float(want)) < 1e-14

    @pytest.mark.parametrize("x,k", [(1e8 + 0.25, 12), (1e6 + 0.5, 20),
                                     (1e8 + 0.25, 10**8 - 3), (12.5, 10)])
    def test_generalized_large_k_at_large_x(self, x, k):
        # three lgammas were 1.8e-7, 2.3e-9 and 9.4e-8 off at the first three
        want = float(mpmath.log(mpmath.binomial(mpmath.mpf(x), k)))
        assert abs(log_gen_binom_coeff(x, k) - want) <= 8 * 2.0**-52 * abs(want)

    @pytest.mark.parametrize("a,b", [(4.25, 10**8 - 2), (0.5, 11), (9.5, 10**6),
                                     (10.5, 10**6 + 0.5), (11, 3.75)])
    def test_log_beta_with_a_real_argument(self, a, b):
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.beta(a, b)))
        assert abs(_log_beta(a, b) - want) <= 8 * 2.0**-52 * abs(want) + 1e-15

    @pytest.mark.parametrize("n", [1, 2, 19, 20, 21, 1000, 10**4])
    def test_binomial_log_pmf_row_has_no_cancellation(self, n):
        """The row's ln C(n, j) is a few ulps of its size from the exact
        integer's log; lgamma differences were 3.6e-11 off at n = 10^4."""
        p, j = 0.3, np.arange(n + 1)
        log_c, c = [], 1
        for i in range(n + 1):  # exact C(n, i), by the integer recurrence
            log_c.append(math.log(c))
            c = c * (n - i) // (i + 1)
        want = log_c + j * math.log(p) + (n - j) * math.log1p(-p)
        err = np.abs(_binom_pmf_log_vec(n, p) - want).max()
        assert err <= 4 * np.spacing(n * math.log(2.0))

    def test_generalized_domain(self):
        with pytest.raises(ValueError):
            log_gen_binom_coeff(3.5, 5)


class TestBinomialPmfTail:
    def test_pmf_single_trial(self):
        assert binom_pmf_log(BinomialSpec(1, 0.5), 0) == pytest.approx(math.log(0.5))

    def test_tail_at_zero_is_one(self):
        assert binom_tail_log(BinomialSpec(10, 0.3), 0) == 0.0

    def test_tail_exact_rational(self):
        want = exact_binom_tail(10, Fraction(3, 10), 6)
        got = to_prob(binom_tail_log(BinomialSpec(10, 0.3), 6))
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_tail_nonincreasing_in_j(self):
        spec = BinomialSpec(25, 0.4)
        vals = [binom_tail_log(spec, j) for j in range(26)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_deep_tail_has_relative_accuracy(self):
        # 1 - cdf would return exactly 0 here; direct summation must not
        lt = binom_tail_log(BinomialSpec(200, 0.1), 120)
        want = exact_binom_tail(200, Fraction(1, 10), 120)
        log_want = float(
            mpmath.log(mpmath.mpf(want.numerator)) - mpmath.log(mpmath.mpf(want.denominator))
        )
        assert lt == pytest.approx(log_want, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom_pmf_log(BinomialSpec(5, 0.5), 6)
        with pytest.raises(ValueError):
            binom_tail_log(BinomialSpec(5, 0.5), -1)

    @given(
        n=st.integers(1, 40),
        pnum=st.integers(1, 9),
        j=st.integers(0, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_tail_matches_rational_oracle(self, n, pnum, j):
        if j > n:
            return
        p = pnum / 10
        want = exact_binom_tail(n, Fraction(pnum, 10), j)
        got = to_prob(binom_tail_log(BinomialSpec(n, p), j))
        assert got == pytest.approx(float(want), rel=1e-10, abs=1e-300)


class TestPoissonBinomial:
    def test_single_half(self):
        np.testing.assert_allclose(
            poisson_binom_dist(PoissonBinomialSpec((0.5,))), [0.5, 0.5]
        )

    def test_equal_entries_reduce_to_binomial(self):
        for n, p in [(10, 0.3), (100, 0.77)]:
            dist = poisson_binom_dist(PoissonBinomialSpec((p,) * n))
            spec = BinomialSpec(n, p)
            want = [to_prob(binom_pmf_log(spec, j)) for j in range(n + 1)]
            np.testing.assert_allclose(dist, want, atol=1e-12)

    def test_three_trials_brute_force(self):
        ps = (0.1, 0.5, 0.9)
        want = np.zeros(4)
        for mask in range(8):
            w = 1.0
            for i, p in enumerate(ps):
                w *= p if (mask >> i) & 1 else 1.0 - p
            want[bin(mask).count("1")] += w
        np.testing.assert_allclose(
            poisson_binom_dist(PoissonBinomialSpec(ps)), want, atol=1e-14
        )

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one_and_mean(self, ps):
        dist = poisson_binom_dist(PoissonBinomialSpec(tuple(ps)))
        assert math.fsum(dist) == pytest.approx(1.0, abs=1e-12)
        mean = float(np.arange(len(dist)) @ dist)
        assert mean == pytest.approx(math.fsum(ps), abs=1e-10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PoissonBinomialSpec(())
        with pytest.raises(ValueError):
            PoissonBinomialSpec((1.5,))


class TestBinomialMedian:
    @pytest.mark.parametrize("n,p", [(1, 0.5), (10, 0.3), (7, 0.9)])
    def test_examples(self, n, p):
        assert binomial_median_lb_grid(n, [p]).tolist() == [True]

    def test_full_grid(self):
        ps = np.arange(1, 100) / 100
        for n in range(1, 201):
            assert binomial_median_lb_grid(n, ps).all()

    @pytest.mark.parametrize("n", range(1, 201))
    def test_grid_matches_scalar_tail(self, n):
        ps = np.arange(1, 100) / 100.0
        want = []
        for p in ps:
            j0 = max(0, math.ceil(n * p - 1.0 - 1e-12))
            tail = to_prob(binom_tail_log(BinomialSpec(n, p), j0))
            want.append(tail >= 0.5 - 1e-12)
        assert binomial_median_lb_grid(n, ps).tolist() == want

    @staticmethod
    def assert_tails_match_scalar_tail(ns, ps):
        got = _binomial_median_tails(ns, ps)
        assert got.shape == (len(ns), len(ps))
        for n, row in zip(ns, got.tolist()):
            for p, tail in zip(ps, row):
                j0 = max(0, math.ceil(n * p - 1.0 - 1e-12))
                want = to_prob(binom_tail_log(BinomialSpec(n, p), j0))
                assert tail == pytest.approx(want, rel=1e-12, abs=0), (n, p)

    def test_grid_tails_match_scalar_tail(self):
        # the tails themselves, not only the verdicts: every verdict holds
        # with a wide margin, so a tail off by a few percent passes them
        self.assert_tails_match_scalar_tail(list(range(1, 201)),
                                            (np.arange(1, 100) / 100.0).tolist())

    def test_walk_tails_at_large_n_match_scalar_tail(self):
        """The walk's error grows with its length; at n = 5000 it stays
        far inside rel 1e-12, p near 0 and 1 included."""
        self.assert_tails_match_scalar_tail(
            [500, 1000, 2000, 5000],
            [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            binomial_median_lb_grid(0, [0.5])
        with pytest.raises(ValueError):
            binomial_median_lb_grid(5, [0.5, 1.0])
        with pytest.raises(ValueError):
            binomial_median_lb_grid([3, 0, 4], [0.5])

    def test_many_n_in_one_call_match_one_n_at_a_time(self):
        """n <= 200 in one call, read off one walk over n, gives each n's
        own verdicts, in any order of n; the result has the shape of ns
        plus the p axis."""
        ps = np.arange(1, 100) / 100.0
        ns = np.arange(1, 201)
        want = [binomial_median_lb_grid(int(n), ps).tolist() for n in ns]
        assert binomial_median_lb_grid(ns, ps).tolist() == want
        grid = binomial_median_lb_grid(ns[::-1].reshape(20, 10), ps)
        assert grid.shape == (20, 10, 99)
        assert grid.reshape(200, 99).tolist() == want[::-1]


class TestToProb:
    def test_neg_inf(self):
        assert to_prob(NEG_INF) == 0.0

    def test_clamps_positive(self):
        assert to_prob(0.5) == 1.0

    @given(st.floats(max_value=0.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_range(self, lv):
        assert 0.0 <= to_prob(lv) <= 1.0
