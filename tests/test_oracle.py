"""Exact-oracle machinery: decomposition identities, induced distribution,
the convex-function bound over exponential tilts, symmetric moments, orderings and the
constrained generator."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depbounds import bounds as bd
from depbounds import oracle as oc
from depbounds import verify
from depbounds.numkernel import (
    BinomialSpec,
    PoissonBinomialSpec,
    _binom_pmf_log_vec,
    _poisson_binom_rows,
    binom_pmf_log,
    poisson_binom_dist,
    to_prob,
)


def random_point_law(n, seed, m=5):
    """A [0,1]-valued law with m uniformly drawn atoms, Dirichlet weights."""
    rng = np.random.default_rng(seed)
    ws = rng.dirichlet(np.ones(m))
    return oc.JointDist(n, rng.random((m, n)), ws / math.fsum(ws))


def all_outcomes(n):
    """The 2^n 0/1 points, row A holding bit i of A in column i."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)


def drawn_law(n, constraint=None, seed=0):
    """The law that ``law_tables`` draws for (constraint, seed), as a
    JointDist over all 2^n outcomes."""
    pmfs, _, _ = oc.law_tables(n, [(constraint, seed)])
    return oc.JointDist(n, all_outcomes(n), pmfs[0])


def reference_drawn_law(n, draw):
    """The JointDist of ``draw`` built on its own, as each law was built
    before a group's laws were built into arrays: Dirichlet weights from
    ``rng.dirichlet``, a mixture's outcomes of positive weight as its
    atoms, all 2^n outcomes for a rate vector."""
    if isinstance(draw, np.ndarray):
        masks, ws = np.arange(1 << n), oc.zeta_decomposition(draw)
    else:
        constraint, seed = draw
        rng = np.random.default_rng(seed)
        if constraint is None:
            m = int(rng.integers(2, min(16, 1 << n) + 1))
            masks = rng.choice(1 << n, size=m, replace=False)
            ws = rng.dirichlet(np.ones(m))
        else:
            lo = 0.0 if isinstance(constraint, bd.ProductBound) else 1.0 - constraint.delta
            hi = constraint.gamma
            comps = int(rng.integers(2, 6))
            rates = lo + (hi - lo) * rng.random((comps, n))
            mix = rng.dirichlet(np.ones(comps))
            probs = (mix[:, None] * oc.zeta_decomposition(rates)).sum(axis=0)
            masks = np.flatnonzero(probs > 0.0)
            ws = probs[masks]
    return oc.JointDist(n, all_outcomes(n)[masks], ws / math.fsum(ws))


def product_bernoulli_dist(q):
    """All 2^n outcomes of independent Bernoulli(q_i) as a JointDist."""
    q = np.asarray(q, dtype=float)
    n = len(q)
    masks = np.arange(1 << n)
    xs = np.array([[(m >> i) & 1 for i in range(n)] for m in masks], dtype=float)
    ws = oc.zeta_decomposition(q)
    return oc.JointDist(n=n, xs=xs, ws=ws / math.fsum(ws))


# -- per-atom reference definitions of the subset transforms ----------------


def ref_product_moments(dist):
    out = np.zeros(1 << dist.n)
    for w, x in zip(dist.ws, dist.xs):
        prods = np.array([1.0])
        for xi in x:
            prods = np.concatenate([prods, prods * xi])
        out += w * prods
    return out


def ref_zeta_moments(dist):
    out = np.zeros(1 << dist.n)
    for w, x in zip(dist.ws, dist.xs):
        zeta = np.array([1.0])
        for xi in x:
            zeta = np.concatenate([zeta * (1.0 - xi), zeta * xi])
        out += w * zeta
    return out


def ref_z_distribution(dist):
    probs = np.zeros(dist.n + 1)
    for w, x in zip(dist.ws, dist.xs):
        pmf = np.array([1.0])
        for xi in x:
            nxt = np.zeros(len(pmf) + 1)
            nxt[:-1] = pmf * (1.0 - xi)
            nxt[1:] += pmf * xi
            pmf = nxt
        probs += w * pmf
    return probs


@st.composite
def joint_laws(draw, kind):
    """A law on n <= 10 coordinates.  Bernoulli atoms come from a few
    bitmasks, so duplicate atoms are common; a mixed law has one fractional
    atom."""
    n = draw(st.integers(1, 10))
    top = min(draw(st.sampled_from([3, (1 << n) - 1])), (1 << n) - 1)
    masks = draw(st.lists(st.integers(0, top), min_size=1, max_size=12))
    xs = [[float(mask >> i & 1) for i in range(n)] for mask in masks]
    frac = st.floats(0.001, 0.999)
    if kind == "non-bernoulli":
        xs = [draw(st.lists(frac, min_size=n, max_size=n)) for _ in masks]
    elif kind == "mixed":
        xs[0] = draw(st.lists(frac, min_size=n, max_size=n))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(xs), max_size=len(xs)))
    return oc.JointDist(n=n, xs=xs, ws=np.array(raw) / math.fsum(raw))


class TestSubsetTransforms:
    """Whole-array transforms against the per-atom reference loops."""

    @pytest.mark.parametrize("kind", ["bernoulli", "non-bernoulli", "mixed"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_match_reference(self, kind, data):
        dist = data.draw(joint_laws(kind))
        assert dist.is_bernoulli == (kind == "bernoulli")
        got = {
            "product": oc.subset_product_moments(dist),
            "zeta": oc.subset_zeta_moments(dist),
            "z": oc.z_distribution(dist).probs,
        }
        want = {
            "product": ref_product_moments(dist),
            "zeta": ref_zeta_moments(dist),
            "z": ref_z_distribution(dist),
        }
        for name in got:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12)
        if kind == "bernoulli":
            np.testing.assert_array_equal(got["zeta"], want["zeta"])
            np.testing.assert_array_equal(got["z"], want["z"])

    def test_chunked_atoms_match_reference(self):
        # 600 atoms at n = 12 span three (atoms, 2^n) chunks
        rng = np.random.default_rng(5)
        dist = oc.JointDist(
            n=12, xs=rng.random((600, 12)), ws=rng.dirichlet(np.ones(600))
        )
        for got, want in [
            (oc.subset_product_moments(dist), ref_product_moments(dist)),
            (oc.subset_zeta_moments(dist), ref_zeta_moments(dist)),
            (oc.z_distribution(dist).probs, ref_z_distribution(dist)),
        ]:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_non_bernoulli_memory_is_bounded(self):
        # an unchunked (2000, 2^14) array alone would take ~260 MB
        rng = np.random.default_rng(0)
        dist = oc.JointDist(
            n=14, xs=rng.random((2000, 14)), ws=rng.dirichlet(np.ones(2000))
        )
        for transform in (oc.subset_product_moments, oc.subset_zeta_moments):
            tracemalloc.start()
            try:
                transform(dist)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, (transform.__name__, peak)

    def test_subset_sizes(self):
        for n in range(8):
            want = [bin(m).count("1") for m in range(1 << n)]
            assert oc.subset_sizes(n).tolist() == want

    def test_subset_sizes_are_one_read_only_array_per_n(self):
        want = [bin(m).count("1") for m in range(1 << 6)]
        sizes = oc.subset_sizes(6)
        assert not sizes.flags.writeable
        with pytest.raises(ValueError):
            sizes[1] += 1
        # _law_data reads the cached array for every group
        pmfs, _, means = oc.law_tables(6, [(None, 1)])
        verify._law_data(pmfs, means)
        assert oc.subset_sizes(6) is sizes
        assert sizes.tolist() == want

    def test_from_masks(self):
        pmfs, z_laws, means = oc.law_tables(3, [([5, 2], [1.0, 3.0])])
        assert pmfs.tolist() == [[0.0, 0.0, 0.75, 0.0, 0.0, 0.25, 0.0, 0.0]]
        assert z_laws.tolist() == [[0.0, 0.75, 0.25, 0.0]]
        assert means.tolist() == [[0.25, 0.75, 0.25]]

    @pytest.mark.parametrize("mask", [8, 9, -1, -8])
    def test_from_masks_rejects_a_mask_outside_the_lattice(self, mask):
        with pytest.raises(ValueError, match=rf"mask {mask} is outside \[0, 2\^3\)"):
            oc.law_tables(3, [([5, mask], [1.0, 3.0])])

    @pytest.mark.parametrize("ws, match", [
        ([math.nan, 1.0], "nonnegative"),
        ([-0.5, 1.5], "nonnegative"),
        ([0.0, 0.0], "sum to 0.0"),
        ([math.inf, 1.0], "sum to inf"),
        ([1.0], "one weight per atom"),
    ])
    def test_from_masks_rejects_bad_weights(self, ws, match):
        with pytest.raises(ValueError, match=match):
            oc.law_tables(3, [([5, 2], ws)])

    def test_from_masks_counts_what_the_support_gives(self):
        # a repeated mask adds its weights in atom order, as the checked
        # constructor's pmf and law of Z do
        masks, ws = [0, 5, 6, 7, 5, 3], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        pmfs, z_laws, means = oc.law_tables(3, [(masks, ws)])
        same = oc.JointDist(n=3, xs=all_outcomes(3)[masks], ws=np.array(ws) / math.fsum(ws))
        np.testing.assert_array_equal(pmfs[0], same.outcome_pmf)
        np.testing.assert_array_equal(z_laws[0], oc.z_distribution(same).probs)
        np.testing.assert_array_equal(means[0], same.means())
        assert z_laws[0].tolist() == [1 / 21, 0.0, 16 / 21, 4 / 21]

    def test_laws_built_together_equal_laws_built_alone(self):
        rng = np.random.default_rng(8)
        for n in (1, 3, 6):
            draws = [(None, 1), (bd.ProductBound(0.4), 2), rng.random(n),
                     (bd.SplitBound(0.6, 0.7), 3), (bd.ProductBound(0.4), 4),
                     ([0, (1 << n) - 1, 0], [0.5, 0.25, 0.25]), rng.random(n), (None, 5)]
            together = oc.law_tables(n, draws)
            for l, draw in enumerate(draws):
                for table, alone in zip(together, oc.law_tables(n, [draw])):
                    np.testing.assert_array_equal(table[l], alone[0])
        empty = oc.law_tables(3, [])
        assert [table.shape for table in empty] == [(0, 8), (0, 4), (0, 3)]

    def test_zeta_decomposition_of_rows(self):
        q = np.random.default_rng(3).random((4, 5))
        rows = oc.zeta_decomposition(q)
        assert rows.shape == (4, 32)
        for row, x in zip(rows, q):
            np.testing.assert_array_equal(row, oc.zeta_decomposition(x))

    @given(
        m=st.integers(1, 6),
        n=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
        ones=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_lattice_products_in_place_equal_concatenation(self, m, n, seed, ones):
        """The in-place doubling gives the products of n concatenation
        steps bit for bit; lo = None is a row of ones."""
        rng = np.random.default_rng(seed)
        lo = np.ones((m, n)) if ones else rng.random((m, n))
        hi = rng.random((m, n))
        want = np.ones((m, 1))
        for i in range(n):
            want = np.concatenate(
                [want * lo[:, i : i + 1], want * hi[:, i : i + 1]], axis=1
            )
        np.testing.assert_array_equal(oc._lattice_products(lo, hi), want)
        if ones:
            np.testing.assert_array_equal(oc._lattice_products(None, hi), want)

    def test_law_data_is_cached_read_only(self):
        masks = [0, 5, 6, 7, 5]
        dist = oc.JointDist(n=3, xs=all_outcomes(3)[masks], ws=np.arange(1.0, 6.0) / 15.0)
        assert dist.is_bernoulli
        for cached in (dist.means(), dist.outcome_pmf):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 1.0
        assert dist.means() is dist.means()
        assert dist.outcome_pmf is dist.outcome_pmf
        np.testing.assert_array_equal(dist.means(), dist.ws @ dist.xs)

    def test_subset_moments_are_fresh_writable_arrays(self):
        dist = drawn_law(5, seed=2)
        for transform in (oc.subset_product_moments, oc.subset_zeta_moments):
            first, second = transform(dist), transform(dist)
            assert first.flags.writeable and first is not second
            assert not np.shares_memory(first, dist.outcome_pmf)
            first[:] = -1.0
            np.testing.assert_array_equal(second, transform(dist))
        np.testing.assert_array_equal(oc.subset_zeta_moments(dist), dist.outcome_pmf)

    def test_is_independent(self):
        def independent(law):
            moments = oc.subset_product_moments(law)
            return verify._is_independent(law.means()[None], moments[None])[0]

        dist = product_bernoulli_dist([0.2, 0.5, 0.7, 0.4])
        assert independent(dist)
        ws = dist.ws.copy()
        ws[0] -= 1e-3
        ws[1] += 1e-3
        skewed = oc.JointDist(n=dist.n, xs=dist.xs, ws=ws)
        assert not independent(skewed)


class TestZetaDecomposition:
    def test_all_ones(self):
        z = oc.zeta_decomposition([1.0, 1.0, 1.0])
        assert z[-1] == 1.0
        assert np.all(z[:-1] == 0.0)

    def test_all_halves_uniform(self):
        z = oc.zeta_decomposition([0.5] * 4)
        np.testing.assert_allclose(z, 1 / 16)

    def test_direct_products(self):
        x = [0.2, 0.7, 0.9]
        z = oc.zeta_decomposition(x)
        for mask in range(8):
            want = 1.0
            for i, xi in enumerate(x):
                want *= xi if (mask >> i) & 1 else 1.0 - xi
            assert z[mask] == pytest.approx(want, abs=1e-14)

    def test_identities(self):
        x = [0.2, 0.7, 0.9]
        z = oc.zeta_decomposition(x)
        assert math.fsum(z) == pytest.approx(1.0, abs=1e-10)
        sizes = np.array([bin(m).count("1") for m in range(8)])
        assert float(sizes @ z) == pytest.approx(math.fsum(x), abs=1e-10)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            oc.zeta_decomposition([0.5] * 21)

    @pytest.mark.parametrize("x", [[0.5, math.nan], [-0.1, 0.5], [0.5, 1.5]])
    def test_coordinate_outside_unit_interval_is_rejected(self, x):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            oc.zeta_decomposition(x)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12)
    )
    @settings(max_examples=200, deadline=None)
    def test_identities_random(self, x):
        z = oc.zeta_decomposition(x)
        assert math.fsum(z) == pytest.approx(1.0, abs=1e-10)
        sizes = np.array([bin(m).count("1") for m in range(1 << len(x))])
        assert float(sizes @ z) == pytest.approx(math.fsum(x), abs=1e-10)


class TestZDistribution:
    def test_product_bernoulli_is_binomial(self):
        n, p = 6, 0.3
        dist = product_bernoulli_dist([p] * n)
        zd = oc.z_distribution(dist)
        spec = BinomialSpec(n, p)
        want = [to_prob(binom_pmf_log(spec, j)) for j in range(n + 1)]
        np.testing.assert_allclose(zd.probs, want, atol=1e-12)

    def test_fully_dependent_two_atom(self):
        # X_1 = ... = X_n = t/n with probability q, else all zero
        n, t, q = 5, 3.0, 0.25
        xs = np.array([[t / n] * n, [0.0] * n])
        dist = oc.JointDist(n=n, xs=xs, ws=np.array([q, 1 - q]))
        zd = oc.z_distribution(dist)
        # the all-equal atom contributes Binomial(n, t/n); the zero atom
        # contributes a point mass at 0
        contrib = q * poisson_binom_dist(PoissonBinomialSpec((t / n,) * n))
        want = contrib.copy()
        want[0] += 1 - q
        np.testing.assert_allclose(zd.probs, want, atol=1e-12)
        assert zd.mean() == pytest.approx(q * t, abs=1e-12)

    def test_single_atom_matches_zeta_sums(self):
        x = [0.2, 0.7, 0.9]
        dist = oc.JointDist(n=3, xs=np.array([x]), ws=np.array([1.0]))
        zd = oc.z_distribution(dist)
        z = oc.zeta_decomposition(x)
        want = np.zeros(4)
        for mask in range(8):
            want[bin(mask).count("1")] += z[mask]
        np.testing.assert_allclose(zd.probs, want, atol=1e-12)

    def test_mean_matches_sum_of_means(self):
        dist = random_point_law(7, seed=42)
        zd = oc.z_distribution(dist)
        assert zd.mean() == pytest.approx(float(dist.means().sum()), abs=1e-10)


class TestExactTail:
    def test_degenerate_thresholds(self):
        dist = drawn_law(5, seed=3)
        assert oc.exact_tail(dist, 0.0) == 1.0
        assert oc.exact_tail(dist, -1.0) == 1.0
        assert oc.exact_tail(dist, 5.5) == 0.0

    def test_enumeration_oracle(self):
        dist = drawn_law(8, seed=11)
        t = 5.0
        want = math.fsum(
            w for w, x in zip(dist.ws, dist.xs) if x.sum() >= t - 1e-12
        )
        assert oc.exact_tail(dist, t) == pytest.approx(want, abs=1e-15)


def grid_tilts(center, span=8.0, size=512):
    """Geometric grid of tilts around (and containing) ``center``."""
    return np.sort(np.append(center * np.geomspace(1.0 / span, span, size), center))


def grid_dephoeff(zd, t, hs):
    """Best ln E[exp(hZ)] - h*t over the tilts ``hs``: the grid evaluator the
    exact solver replaced, kept as a reference."""
    with np.errstate(divide="ignore"):
        logp = np.where(zd.probs > 0.0, np.log(zd.probs), -np.inf)
        tilted = logp + hs[:, None] * np.arange(zd.n + 1)
        vals = scipy.special.logsumexp(tilted, axis=1) - hs * t
    return float(np.min(vals))


def tilted_mean(zd, h):
    """Mean of Z under weights proportional to P[Z = j] exp(h*j)."""
    j = np.arange(zd.n + 1)
    w = zd.probs * np.exp(h * j - h * zd.n)
    return float(w @ j) / float(w.sum())


def dephoeff_cases():
    """(law, Z-law, threshold) over Bernoulli and [0,1]-valued laws, at
    thresholds spread over (mean, n)."""
    for seed in range(20):
        for dist in (drawn_law(6, seed=seed), random_point_law(5, seed)):
            zd = oc.z_distribution(dist)
            for t in np.linspace(zd.mean(), dist.n, 7)[1:-1]:
                yield dist, zd, float(t)


class TestDephoeff:
    def test_exponential_on_binomial_matches_closed_form(self):
        cases = [(20, 0.3, 11.0), (14, 0.5, 10.0), (14, 0.4, 9.0), (50, 0.1, 5.5)]
        for n, p, t in cases:
            zd = oc.ZDist(poisson_binom_dist(PoissonBinomialSpec((p,) * n)))
            tb = oc.dephoeff_bound(zd, t)
            want = bd.hoeffding_bound(n, p, t)
            assert abs(tb.log_bound - want.log_bound) <= 1e-10

    def test_first_order_condition(self):
        # below the top of Z's support the h-tilted mean at the reported
        # tilt is the threshold
        solved = 0
        for _, zd, t in dephoeff_cases():
            if t < np.flatnonzero(zd.probs > 0.0)[-1]:
                h = oc.dephoeff_bound(zd, t).params["h"]
                assert 0.0 < h < math.inf
                assert tilted_mean(zd, h) == pytest.approx(t, rel=1e-12)
                solved += 1
        assert solved >= 100

    def test_best_tilt_matches_per_tilt_loop(self):
        zd = oc.z_distribution(random_point_law(7, seed=3))
        t, hs = 4.5, grid_tilts(1.0, size=64)
        j = np.arange(zd.n + 1)

        def value(h):
            return math.log(float(zd.probs @ np.exp(h * j))) - h * t

        tb = oc.dephoeff_bound(zd, t)
        assert tb.is_valid and tb.log_bound < 0.0
        assert tb.log_bound == pytest.approx(value(tb.params["h"]), rel=0, abs=1e-12)
        assert tb.log_bound <= min(value(h) for h in hs) + 1e-12

    def test_no_grid_does_better(self):
        for _, zd, t in dephoeff_cases():
            best = min(grid_dephoeff(zd, t, grid_tilts(c)) for c in (0.1, 1.0, 10.0))
            assert oc.dephoeff_bound(zd, t).log_bound <= best + 1e-12

    def test_always_dominates_exact_tail(self):
        # soundness of the convex-family bound itself on random dists
        for dist, zd, t in dephoeff_cases():
            tb = oc.dephoeff_bound(zd, t)
            tail = oc.exact_tail(dist, t)
            assert tail == 0.0 or math.log(tail) <= tb.log_bound + 1e-12

    @pytest.mark.parametrize("t", [1.2, 1.5, 1.8])
    def test_subnormal_top_mass_keeps_precision(self, t):
        # near the best tilt the terms q_j e^(h(j - 2)) are subnormal unless
        # they are shifted by the largest one
        from scipy.optimize import minimize_scalar

        probs = np.array([1.0 - 2e-160, 2e-160, 1e-320])
        log_q = np.log(probs)

        def value(h):
            return scipy.special.logsumexp(log_q + h * np.arange(3)) - h * t

        best = minimize_scalar(value, bounds=(0.0, 1000.0), method="bounded",
                               options={"xatol": 1e-10}).fun
        got = oc.dephoeff_bound(oc.ZDist(probs), t).log_bound
        assert got == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("n, p, t", [(20, 0.3, 11.0), (14, 0.5, 10.0),
                                         (20, 0.3, 6.0 + 1e-15)])
    def test_few_tilt_evaluations(self, monkeypatch, n, p, t):
        """Newton steps need a handful of tilts (one np.exp each) at the
        identities' inputs and just above the mean, where bisection to
        float resolution took 54 and 102."""
        zd = oc.ZDist(poisson_binom_dist(PoissonBinomialSpec((p,) * n)))
        calls = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda x: calls.append(x) or exp(x))
        tb = oc.dephoeff_bound(zd, t)
        assert tb.is_valid and 1 <= len(calls) <= 12
        assert tb.log_bound == pytest.approx(bd.hoeffding_bound(n, p, t).log_bound,
                                             rel=0, abs=1e-10)

    def test_t_below_mean_invalid(self):
        zd = oc.ZDist(poisson_binom_dist(PoissonBinomialSpec((0.5,) * 10)))
        for t in (4.0, 5.0, -math.inf):
            tb = oc.dephoeff_bound(zd, t)
            assert not tb.is_valid and tb.invalid_reason == "t <= mean"

    def test_t_at_or_above_n_invalid(self):
        zd = oc.ZDist(poisson_binom_dist(PoissonBinomialSpec((0.5,) * 10)))
        for t in (10.0, 10.5, math.inf):
            tb = oc.dephoeff_bound(zd, t)
            assert not tb.is_valid and tb.invalid_reason == "t >= n"

    def test_nan_threshold_invalid(self):
        tb = oc.dephoeff_bound(oc.ZDist([0.25, 0.5, 0.25]), math.nan)
        assert not tb.is_valid and tb.invalid_reason == "threshold is NaN"

    def test_t_at_top_of_support(self):
        # Z <= 3 < n: the tilt runs off to infinity and leaves ln P[Z = 3]
        zd = oc.ZDist([0.1, 0.4, 0.3, 0.2, 0.0, 0.0])
        tb = oc.dephoeff_bound(zd, 3.0)
        assert tb.log_bound == math.log(0.2) and tb.params == {"h": math.inf}
        below = oc.dephoeff_bound(zd, 3.0 - 1e-9)
        assert math.log(0.2) < below.log_bound < math.log(0.2) + 1e-6

    def test_t_above_top_of_support(self):
        zd = oc.ZDist([0.1, 0.4, 0.3, 0.2, 0.0, 0.0])
        for t in (3.5, 4.0, 4.999):
            tb = oc.dephoeff_bound(zd, t)
            assert tb.is_valid and tb.log_bound == -math.inf
            assert tb.params == {"h": math.inf} and tb.bound == 0.0


class TestSymmetricMoment:
    """S_k = E[sum over |A|=k of prod_{i in A} X_i] of a Bernoulli law, as
    ``verify._symmetric_moments`` reads it off the law of Z."""

    @staticmethod
    def moments(dist):
        return verify._symmetric_moments(oc.z_distribution(dist).probs[None])[0].tolist()

    def test_k_zero(self):
        dist = drawn_law(5, seed=1)
        assert self.moments(dist)[0] == pytest.approx(1.0, abs=1e-12)

    def test_k_one_is_sum_of_means(self):
        dist = drawn_law(5, seed=2)
        assert self.moments(dist)[1] == pytest.approx(
            float(dist.means().sum()), abs=1e-12
        )

    def test_product_bernoulli_closed_form(self):
        n, k, p = 10, 4, 0.35
        dist = product_bernoulli_dist([p] * n)
        assert self.moments(dist)[k] == pytest.approx(
            math.comb(n, k) * p**k, rel=1e-10
        )

    def test_matches_subset_enumeration(self):
        dist = drawn_law(6, seed=9)
        moments = oc.subset_product_moments(dist)
        sk = self.moments(dist)
        for k in range(7):
            want = math.fsum(
                moments[m] for m in range(64) if bin(m).count("1") == k
            )
            assert sk[k] == pytest.approx(want, abs=1e-10)


def reference_averaged_binomial_checks(spec, hs=(), bs=()):
    """One vector's checks as the per-vector form computed them, before
    the vectors of a call were checked together."""
    n, pbar = spec.n, spec.mean
    hs = np.asarray(hs, dtype=float)
    bs = np.asarray(bs, dtype=np.int64)
    lhs_dist = poisson_binom_dist(spec)
    if 0.0 < pbar < 1.0:
        rhs_dist = np.exp(_binom_pmf_log_vec(n, pbar))
        rhs_dist /= rhs_dist.sum()
    else:
        rhs_dist = np.zeros(n + 1)
        rhs_dist[round(pbar) * n] = 1.0
    with np.errstate(divide="ignore"):
        lhs, rhs = scipy.special.logsumexp(
            np.log(np.stack((lhs_dist, rhs_dist))[:, None])
            + hs[:, None] * np.arange(n + 1), axis=-1,
        )
    lhs_tail = np.cumsum(lhs_dist[::-1])[::-1]
    rhs_tail = np.cumsum(rhs_dist[::-1])[::-1]
    return lhs <= rhs + 1e-12, lhs_tail[bs] >= rhs_tail[bs] - 1e-12


def valid_thresholds(spec):
    return range(math.floor(spec.n * spec.mean) + 1)


# vectors of 1..40 trials, some of them all 0 or all 1 (pbar in {0, 1})
trial_vectors = st.one_of(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
    st.builds(lambda p, n: [p] * n, st.sampled_from([0.0, 1.0]), st.integers(1, 40)),
)


class TestHoeffding1956Checks:
    def test_equal_ps_equality(self):
        spec = PoissonBinomialSpec((0.4,) * 6)
        assert oc.averaged_binomial_checks([spec], hs=(1.0,))[0].tolist() == [[True]]

    def test_two_trial_example(self):
        spec = PoissonBinomialSpec((0.1, 0.9))
        assert oc.averaged_binomial_checks([spec], hs=(1.0,))[0].tolist() == [[True]]

    def test_poisson_trials_examples(self):
        spec = PoissonBinomialSpec((0.2, 0.8))
        _, tail_ok = oc.averaged_binomial_checks([spec])
        assert tail_ok.tolist() == [[True, True, True]]

    def test_poisson_trials_domain(self):
        # n pbar = 1: b = 2 lies past the valid thresholds, where the tail
        # of the trials (0.09) is below the binomial's (0.25); it is not a
        # check, so its entry is True
        spec = PoissonBinomialSpec((0.1, 0.9))
        _, want = reference_averaged_binomial_checks(spec, bs=(0, 1, 2))
        assert want.tolist() == [True, True, False]
        _, tail_ok = oc.averaged_binomial_checks([spec])
        assert tail_ok.tolist() == [[True, True, True]]

    @given(
        ps=st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=10),
        h=st.sampled_from([0.1, 1.0, 3.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_sweep(self, ps, h):
        spec = PoissonBinomialSpec(tuple(ps))
        exp_ok, tail_ok = oc.averaged_binomial_checks([spec], hs=(h,))
        assert exp_ok.all() and tail_ok.all()

    @given(
        ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=14),
        hs=st.lists(st.floats(min_value=1e-3, max_value=50.0), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_per_check_reference(self, ps, hs):
        """One call over every tilt and threshold gives the verdicts of a
        pmf-per-check computation."""
        spec = PoissonBinomialSpec(tuple(ps))
        n, pbar = spec.n, spec.mean
        bs = valid_thresholds(spec)
        exp_ok, tail_ok = oc.averaged_binomial_checks([spec], hs)
        lhs = poisson_binom_dist(spec)
        rhs = poisson_binom_dist(PoissonBinomialSpec((pbar,) * n))
        j = np.arange(n + 1)
        with np.errstate(over="ignore"):
            want_exp = [
                scipy.special.logsumexp(h * j, b=lhs)
                <= scipy.special.logsumexp(h * j, b=rhs) + 1e-12
                for h in hs
            ]
        want_tail = [lhs[b:].sum() >= rhs[b:].sum() - 1e-12 for b in bs]
        assert exp_ok.tolist() == [want_exp]
        assert tail_ok[0, : len(bs)].tolist() == want_tail
        assert tail_ok[0, len(bs) :].all()

    @given(
        vectors=st.lists(trial_vectors, min_size=1, max_size=12),
        hs=st.lists(st.floats(min_value=1e-3, max_value=300.0), max_size=4),
        budget=st.sampled_from([1, 200, 1 << 16]),
    )
    @settings(max_examples=150, deadline=None)
    def test_vectors_checked_together_match_one_at_a_time(self, vectors, hs, budget):
        """Vectors of different lengths, padded with p = 0 trials into
        blocks of one or more rows, get the verdicts the per-vector form
        gave them."""
        specs = [PoissonBinomialSpec(tuple(v)) for v in vectors]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oc, "_BLOCK_ENTRIES", budget)
            exp_ok, tail_ok = oc.averaged_binomial_checks(specs, hs)
        width = max(spec.n for spec in specs) + 1
        assert exp_ok.shape == (len(specs), len(hs))
        assert tail_ok.shape == (len(specs), width)
        for row, spec in enumerate(specs):
            bs = valid_thresholds(spec)
            want_exp, want_tail = reference_averaged_binomial_checks(spec, hs, bs)
            assert exp_ok[row].tolist() == want_exp.tolist()
            assert tail_ok[row, : len(bs)].tolist() == want_tail.tolist()
            assert tail_ok[row, len(bs) :].all()

    def test_zero_trials_leave_a_pmf_unchanged(self):
        spec = PoissonBinomialSpec((0.3, 0.9, 0.05))
        padded = _poisson_binom_rows(np.array([spec.ps + (0.0,) * 5]))[0]
        np.testing.assert_array_equal(padded[:4], poisson_binom_dist(spec))
        assert not padded[4:].any()

    @given(
        data=st.data(),
        n=st.integers(0, 30),
        hs=st.lists(st.floats(min_value=1e-3, max_value=800.0), min_size=1, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_tilt_sums_match_scipy(self, data, n, hs):
        """The tilt sums equal scipy's log-sum-exp within 1e-12 of
        max(1, |value|), on weights with zeros whose last positive mass may
        be subnormal."""
        rows = data.draw(st.integers(1, 3))
        weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))
        pmfs = np.array(data.draw(st.lists(
            st.lists(weight, min_size=n + 1, max_size=n + 1),
            min_size=rows, max_size=rows)))
        for row in pmfs:
            top = data.draw(st.integers(0, n))
            row[top] = data.draw(st.one_of(st.floats(5e-324, 2.2e-308),
                                           st.floats(1e-300, 1.0)))
            row[top + 1 :] = 0.0
        hs = np.array(hs)
        got = oc._tilt_sums(pmfs, hs)
        with np.errstate(divide="ignore"):
            want = scipy.special.logsumexp(
                np.log(pmfs)[:, None, :] + hs[:, None] * np.arange(n + 1), axis=-1)
        assert got.shape == (rows, hs.size)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_tilt_sums_at_a_subnormal_top_mass(self):
        # the pmf of two trials of p = 1e-160; summed as q_j e^(h(j - 2)),
        # the subnormal terms put ~1e-4 of error into the value at h = 370
        pmfs = _poisson_binom_rows(np.array([[1e-160, 1e-160]]))
        assert pmfs[0, 2] == pytest.approx(1e-320, rel=1e-3)
        hs = np.array([300.0, 350.0, 370.0, 380.0, 800.0])
        with np.errstate(divide="ignore"):
            want = scipy.special.logsumexp(
                np.log(pmfs)[:, None, :] + hs[:, None] * np.arange(3), axis=-1)
        np.testing.assert_allclose(oc._tilt_sums(pmfs, hs), want,
                                   rtol=1e-13, atol=1e-13)

    @given(vectors=st.lists(trial_vectors, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_pmf_rows(self, vectors):
        self.assert_pmf_rows([PoissonBinomialSpec(tuple(v)) for v in vectors])

    def test_pmf_rows_at_large_n(self):
        # the closed-form masses total 1 - 3.4e-14 and 1 + 1.2e-13 here, so
        # a row divided by the other row's total shows
        self.assert_pmf_rows([PoissonBinomialSpec((0.3,) * 1000),
                              PoissonBinomialSpec((0.77,) * 3000)])

    @staticmethod
    def assert_pmf_rows(specs):
        """Each row pair is the trials' DP pmf and Bin(n, pbar) as its
        normalised closed form (a point mass at pbar in {0, 1}), zero past
        its own n."""
        lhs, rhs = oc._averaged_binomial_pmfs(specs)
        width = max(spec.n for spec in specs) + 1
        assert lhs.shape == rhs.shape == (len(specs), width)
        for row, spec in enumerate(specs):
            n, pbar = spec.n, spec.mean
            if 0.0 < pbar < 1.0:
                want = np.exp(_binom_pmf_log_vec(n, pbar))
                want /= want.sum()
            else:
                want = np.zeros(n + 1)
                want[round(pbar) * n] = 1.0
            np.testing.assert_allclose(rhs[row, : n + 1], want, rtol=1e-14, atol=0.0)
            np.testing.assert_array_equal(lhs[row, : n + 1], poisson_binom_dist(spec))
            assert not lhs[row, n + 1 :].any() and not rhs[row, n + 1 :].any()

    @staticmethod
    def point_masses(at_top):
        """A stand-in for the trials' DP: every row a point mass at 0, or at
        its own n (the count of its nonzero trials)."""
        def rows(ps):
            out = np.zeros((ps.shape[0], ps.shape[1] + 1))
            out[np.arange(ps.shape[0]),
                np.count_nonzero(ps, axis=1) if at_top else 0] = 1.0
            return out
        return rows

    SPECS = [PoissonBinomialSpec(ps) for ps in
             [(0.5,) * 4, (0.3, 0.9, 0.6), (0.05,) * 40, (0.99, 0.2), (0.7,) * 13]]

    def test_a_point_mass_at_zero_fails_each_positive_valid_threshold(self, monkeypatch):
        monkeypatch.setattr(oc, "_poisson_binom_rows", self.point_masses(False))
        exp_ok, tail_ok = oc.averaged_binomial_checks(self.SPECS, hs=(0.01, 1.0, 50.0))
        assert exp_ok.all()
        for spec, row in zip(self.SPECS, tail_ok):
            limit = math.floor(spec.n * spec.mean)
            assert limit >= 1
            assert row.tolist() == [b == 0 or b > limit for b in range(len(row))]

    def test_a_point_mass_at_n_fails_every_tilt(self, monkeypatch):
        monkeypatch.setattr(oc, "_poisson_binom_rows", self.point_masses(True))
        exp_ok, tail_ok = oc.averaged_binomial_checks(self.SPECS, hs=(0.01, 1.0, 50.0))
        assert not exp_ok.any()
        assert tail_ok.all()

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 333, 1000, 2000])
    def test_closed_form_binomial_matches_the_dp(self, n):
        """Bin(n, pbar) from its log pmf agrees with the Poisson-binomial
        DP over n equal trials, to 1e-12 in every mass."""
        for p in (1e-9, 0.01, 0.3, 0.5, 0.77, 0.999):
            closed = np.exp(_binom_pmf_log_vec(n, p))
            dp = poisson_binom_dist(PoissonBinomialSpec((p,) * n))
            assert np.max(np.abs(closed - dp)) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_point_mass_average(self, p):
        # pbar in {0, 1}: both laws are the point mass at n * p
        spec = PoissonBinomialSpec((p,) * 5)
        exp_ok, tail_ok = oc.averaged_binomial_checks([spec], hs=(0.1, 3.0))
        assert exp_ok.all() and tail_ok.all()

    def test_batch_domain(self):
        spec = PoissonBinomialSpec((0.2, 0.2))
        with pytest.raises(ValueError, match="positive"):
            oc.averaged_binomial_checks([spec], hs=(1.0, 0.0))
        with pytest.raises(ValueError, match="positive"):
            oc.averaged_binomial_checks([spec], hs=(float("nan"),))
        with pytest.raises(ValueError, match="at least one"):
            oc.averaged_binomial_checks([])
        exp_ok, tail_ok = oc.averaged_binomial_checks([spec])
        assert exp_ok.shape == (1, 0) and tail_ok.shape == (1, 3)


class TestJointDist:
    def test_validation(self):
        with pytest.raises(ValueError):
            oc.JointDist(n=2, xs=np.array([[0.5, 1.5]]), ws=np.array([1.0]))
        with pytest.raises(ValueError):
            oc.JointDist(
                n=2, xs=np.array([[0.5, 0.5]]), ws=np.array([0.9])
            )

    def test_nan_weight_is_rejected(self):
        with pytest.raises(ValueError, match="ws"):
            oc.JointDist(n=1, xs=[[0.5]], ws=[math.nan])

    def test_nan_coordinate_is_rejected(self):
        with pytest.raises(ValueError, match="xs"):
            oc.JointDist(n=1, xs=[[math.nan]], ws=[1.0])

    def test_nan_probability_is_rejected(self):
        with pytest.raises(ValueError, match="probs"):
            oc.ZDist([math.nan, 0.5])
        with pytest.raises(ValueError, match="probs"):
            oc.ZDist([math.nan, 1.0])


class TestRandomJointDist:
    """The laws ``law_tables`` draws: each from its own seed, bit for bit
    the law built on its own, and meeting its constraint."""

    def test_n1_unconstrained_two_atoms(self):
        pmfs, z_laws, means = oc.law_tables(1, [(None, 0)])
        assert pmfs.shape == (1, 2) and (pmfs > 0.0).all()
        np.testing.assert_array_equal(z_laws, pmfs)
        assert means.tolist() == [[pmfs[0, 1]]]

    def test_determinism(self):
        a = oc.law_tables(8, [(bd.ProductBound(0.3), 17)])
        b = oc.law_tables(8, [(bd.ProductBound(0.3), 17)])
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        # the law stream of the sweeps: the same draws as when every
        # candidate was checked and could be rejected
        pmfs = a[0]
        assert np.count_nonzero(pmfs) == 256 and pmfs[0, 0] == 0.27524238878061924
        c = oc.law_tables(6, [(bd.SplitBound(0.5, 0.9), 4)])[0]
        assert np.count_nonzero(c) == 64 and c[0, 0] == 0.08023381887816917

    @pytest.mark.parametrize("kind", ["unconstrained", "product", "product-zero", "split",
                                      "rates"])
    @pytest.mark.parametrize("n", [1, 3, 7, 12])
    def test_rows_equal_the_law_built_on_its_own(self, kind, n):
        rng = np.random.default_rng(n)
        constraint = {"unconstrained": None, "product": bd.ProductBound(0.35),
                      "product-zero": bd.ProductBound(0.0), "split": bd.SplitBound(0.6, 0.7),
                      "rates": None}[kind]
        draws = [rng.random(n) if kind == "rates" else (constraint, seed)
                 for seed in range(20)]
        for pmf, z_law, means, draw in zip(*oc.law_tables(n, draws), draws):
            want = reference_drawn_law(n, draw)
            np.testing.assert_array_equal(pmf, want.outcome_pmf)
            np.testing.assert_array_equal(z_law, oc.z_distribution(want).probs)
            np.testing.assert_array_equal(means, want.means())

    @pytest.mark.parametrize("m", range(2, 17))
    def test_dirichlet_weights_are_numpys(self, m):
        for seed in range(200):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            np.testing.assert_array_equal(oc._dirichlet(got, m), want.dirichlet(np.ones(m)))
            assert got.random() == want.random()

    @given(
        n=st.integers(1, 12),
        gamma=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_constraint_verified(self, n, gamma, seed):
        pmfs, _, _ = oc.law_tables(n, [(bd.ProductBound(gamma), seed)])
        sizes = oc.subset_sizes(n)
        excess = oc._superset_sums(pmfs)[0, 1:] - gamma ** sizes[1:]
        assert excess.max() <= 1e-12

    @given(
        n=st.integers(1, 12),
        gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        delta_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_constraint_verified(self, n, gamma, delta_share, seed):
        # delta spans [1 - gamma, 1], where gamma + delta >= 1
        delta = min(1.0, 1.0 - gamma + gamma * delta_share)
        assume(gamma + delta >= 1.0)
        pmfs, _, _ = oc.law_tables(n, [(bd.SplitBound(gamma, delta), seed)])
        sizes = oc.subset_sizes(n)
        caps = gamma**sizes * delta ** (n - sizes)
        # a Bernoulli law's zeta moments E[Z_A] are its outcome pmf
        assert (pmfs[0] - caps).max() <= 1e-12

    def test_bernoulli_cap(self):
        with pytest.raises(ValueError):
            oc.law_tables(13, [(None, 0)])

    @pytest.mark.parametrize("n", [0, -1, 2.0])
    def test_n_outside_one_to_twelve_is_a_value_error(self, n):
        with pytest.raises(ValueError, match=rf"n must be an integer in \[1, 12\], got {n}"):
            oc.law_tables(n, [(bd.ProductBound(0.3), 0)])

    @pytest.mark.parametrize("gamma", [-0.2, 1.5, math.nan])
    def test_infeasible_product_gamma_is_a_value_error(self, gamma):
        with pytest.raises(ValueError, match=f"gamma must be in \\[0, 1\\], got {gamma}"):
            oc.law_tables(3, [(bd.ProductBound(gamma), 0)])

    def test_unsupported_constraint_type(self):
        with pytest.raises(TypeError):
            oc.law_tables(4, [(bd.MeanOnly(0.3), 0)])
