"""The soundness and sandwich sweeps: the tail table read from each block's
laws of Z, the gate a check must pass, the sweeps against the per-check
loop they replaced, the Linial-Luria tables against their evaluator,
their records at pinned flags and rerun determinism."""

import inspect
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from depbounds import bounds as bd
from depbounds import oracle as oc
from depbounds import verify
from depbounds.numkernel import kl, kl_divergence, log_binom_coeff

# ---------------------------------------------------------------------------
# the reference: the per-check loop the sweeps ran before laws were drawn and
# prepared in blocks and each law's tails came from one table, with a law
# drawn, summed and checked on its own, a fresh exact_tail per check, a
# one-atom JointDist in the independence test, S_k summed over numpy
# scalars and every Linial-Luria bound a scalar call


def reference_zeta(q):
    """prod_{i in A} q_i prod_{i not in A} (1 - q_i) for each row of q, by
    concatenation (bit for bit the in-place doubling)."""
    out = np.ones((len(q), 1))
    for i in range(q.shape[1]):
        out = np.concatenate([out * (1.0 - q[:, i : i + 1]), out * q[:, i : i + 1]], axis=1)
    return out


def reference_law(rng, n_max):
    """The next law of the sweeps' stream, drawn on its own and checked in
    full by the JointDist constructor."""
    n = int(rng.integers(3, n_max + 1))
    seed = int(rng.integers(0, 2**31))
    kind = rng.random()
    law_rng = np.random.default_rng(seed)
    if kind < 0.4:
        m = int(law_rng.integers(2, min(16, 1 << n) + 1))
        masks = law_rng.choice(1 << n, size=m, replace=False)
        ws = law_rng.dirichlet(np.ones(m))
    elif kind < 0.7:
        gamma = float(0.2 + 0.6 * rng.random())
        comps = int(law_rng.integers(2, 6))
        rates = gamma * law_rng.random((comps, n))
        mix = law_rng.dirichlet(np.ones(comps))
        probs = (mix[:, None] * reference_zeta(rates)).sum(axis=0)
        masks = np.flatnonzero(probs > 0.0)
        ws = probs[masks]
    else:
        q = rng.random(n) * 0.8 + 0.1
        masks, ws = np.arange(1 << n), reference_zeta(q[None, :])[0]
    xs = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
    return oc.JointDist(n=n, xs=xs, ws=ws / math.fsum(ws))


def reference_grid(lo, hi):
    """The thresholds a grid bound is checked at: five interior points of
    (lo, hi)."""
    return [lo + (hi - lo) * i / 6 for i in range(1, 6)]


def reference_exceeds(a, b):
    """The scalar gate: a exceeds b by more than 1e-12 or by a factor over
    1 + 1e-9."""
    return a - b > verify.SOUNDNESS_TOL or a > b * (1.0 + verify.RELATIVE_TOL)


def reference_sum_moments(dist):
    zdist = oc.z_distribution(dist)
    n = dist.n
    sk = {
        k: float(
            sum(zdist.probs[j] * math.comb(j, k) for j in range(k, n + 1))
        )
        for k in range(n + 1)
    }
    return zdist, sk


def reference_is_independent(dist, moments):
    means = np.clip(dist.means(), 0.0, 1.0)
    product = oc.subset_product_moments(
        oc.JointDist(n=dist.n, xs=means[None, :], ws=np.ones(1))
    )
    return bool(np.all(np.abs(moments[1:] - product[1:]) <= 1e-9))


def reference_checks(dist):
    """The soundness checks of ``dist`` from its data computed on its own,
    in the sweep's order, each check a call of its evaluator, linial-luria's
    included."""
    n = dist.n
    sizes = np.array([bin(m).count("1") for m in range(1, 1 << n)])
    moments = oc.subset_product_moments(dist)
    gamma = float((moments[1:] ** (1.0 / sizes)).max())
    gamma_z = float((oc.subset_zeta_moments(dist)[1:] ** (1.0 / sizes)).max())
    pbar = float(dist.means().sum()) / n
    _, sk = reference_sum_moments(dist)
    grid = reference_grid
    checks = []
    if 0.0 < gamma < 1.0:
        checks += [("ik", t, bd.ik_bound(n, gamma, bd.t_to_eps(n, gamma, t), c=1.0))
                   for t in grid(n * gamma, n)]
        if n * gamma + 1.0 < n:
            checks += [("bincoupling", t, bd.bincoupling_bound(n, gamma, t))
                       for t in grid(n * gamma + 1.0, n)]
    if 0.0 < gamma_z < 1.0:
        checks += [("expfunct", t, bd.expfunct_bound(n, gamma_z, 1.0, t))
                   for t in grid(n * gamma_z, n)]
    profile = bd.SymmetricMoments(sk)
    beta_lo = max(1, math.floor(n * pbar) + 1)
    for beta_n in list(range(beta_lo, n + 1))[:verify._THRESHOLDS]:
        checks += [(f"linial-luria(k={k})", float(beta_n),
                    bd.linial_luria_bound(n, beta_n, k, profile)) for k in range(1, beta_n)]
    if reference_is_independent(dist, moments) and 0.0 < pbar < 1.0:
        for t in grid(n * pbar, n):
            checks.append(("hoeffding", t, bd.hoeffding_bound(n, pbar, t)))
            checks.append(("kwise(k=n)", t, bd.kwise_bound(n, n, pbar, bd.t_to_eps(n, pbar, t))))
    return checks


def reference_soundness(n_max, trials, seed):
    rng = np.random.default_rng(seed)
    records = []
    checked = 0
    worst = (None, -math.inf)
    for i in range(trials):
        dist = reference_law(rng, n_max)
        for label, t, tb in reference_checks(dist):
            if not tb.is_valid:
                continue
            checked += 1
            tail = oc.exact_tail(dist, t)
            gap = tail - tb.bound
            if gap > worst[1]:
                worst = (f"{label} n={dist.n} t={t:.4g} trial={i}", gap)
            if reference_exceeds(tail, tb.bound):
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


def reference_lower(n, beta_n, s_beta_n):
    """The sandwich's lower bound on P[Z >= beta_n], S_beta_n / C(n, beta_n)
    capped at 1, in the scalar form the sweep took before its tables."""
    if s_beta_n == 0.0:
        return 0.0
    return math.exp(min(0.0, math.log(s_beta_n) - log_binom_coeff(n, beta_n)))


def reference_sandwich(n_max, trials, seed):
    rng = np.random.default_rng(seed)
    fails = []
    checked = 0
    for i in range(trials):
        dist = reference_law(rng, n_max)
        n = dist.n
        _, sk = reference_sum_moments(dist)
        profile = bd.SymmetricMoments(sk)
        for beta_n in range(1, n + 1):
            tail = oc.exact_tail(dist, float(beta_n))
            lower = reference_lower(n, beta_n, sk[beta_n])
            if reference_exceeds(lower, tail):
                fails.append(f"trial {i}: lower {lower!r} > tail {tail!r}")
            checked += 1
            for k in range(1, beta_n):
                tb = bd.linial_luria_bound(n, beta_n, k, profile)
                if tb.is_valid and reference_exceeds(tail, tb.bound):
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


def all_outcomes(n):
    """The 2^n 0/1 points, row A holding bit i of A in column i."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)


def mask_law(n, masks, ws):
    """The law with one atom at each bitmask of ``masks`` and the weights
    ``ws``, normalized, checked in full by the JointDist constructor."""
    ws = np.asarray(ws, dtype=float)
    return oc.JointDist(n=n, xs=all_outcomes(n)[masks], ws=ws / math.fsum(ws))


def product_law(q):
    q = np.asarray(q, dtype=float)
    return mask_law(len(q), np.arange(1 << len(q)), oc.zeta_decomposition(q))


def group_of(dists):
    """The ``_Group`` of the laws ``dists``, all of one n, built by
    ``law_tables`` from their atoms and weights."""
    n = dists[0].n
    draws = [(dist.xs.astype(np.int64) @ (1 << np.arange(n)), dist.ws) for dist in dists]
    return verify._group(list(range(len(dists))), *oc.law_tables(n, draws))


def law_rows(groups):
    """(tails, data) of each law of one block's ``groups``, in trial
    order: ``tails`` its ``_tail_rows`` row and ``data`` its gamma,
    gamma_z, pbar, independence, upper table and S_k, all as lists and
    Python scalars."""
    laws = [None] * sum(len(group.rows) for group in groups)
    for group in groups:
        for l, r in enumerate(group.rows):
            laws[r] = group, l
    for group, l in laws:
        yield (group.tails[l].tolist(),
               (group.gamma[l].item(), group.gamma_z[l].item(), group.pbar[l].item(),
                group.independent[l].item(), group.upper[l].tolist(), group.sk[l].tolist()))


def prepared_laws(count, n_max, seed=0):
    """The sweeps' (dist, tail row, law data) triples of ``count`` laws,
    ``dist`` the law as ``reference_law`` draws it on its own."""
    rng = np.random.default_rng(seed)
    draws = [verify._law_draw(rng, n_max) for _ in range(count)]
    dists = random_laws(count, n_max, seed)
    return [(dist, *row) for dist, row in zip(dists, law_rows(verify._prepared_laws(draws)))]


def random_laws(count, n_max, seed=0):
    rng = np.random.default_rng(seed)
    return [reference_law(rng, n_max) for _ in range(count)]


def sweep_one_law(monkeypatch, dist):
    """Make the sweeps draw one block holding the one law ``dist``."""
    monkeypatch.setattr(verify, "_sweep_blocks", lambda rng, n_max, trials, check:
                        [check([group_of([dist])], 0)])


def one_law(dist):
    """The sweeps' triple of ``dist`` prepared on its own."""
    [law] = law_rows([group_of([dist])])
    return (dist, *law)


# ---------------------------------------------------------------------------


class TestTailTable:
    @pytest.mark.parametrize("n_max, seed", [(10, 0), (12, 1)])
    def test_rows_are_the_suffix_sums_of_the_law_of_z(self, n_max, seed):
        for dist, tails, _ in prepared_laws(200, n_max, seed):
            probs = oc.z_distribution(dist).probs
            assert tails == np.cumsum(probs[::-1])[::-1].tolist() + [0.0]

    @pytest.mark.parametrize("n_max, seed", [(10, 0), (12, 1)])
    def test_agrees_with_exact_tail(self, n_max, seed):
        for dist, tails, _ in prepared_laws(200, n_max, seed):
            n = dist.n
            ts = [-1.0, 0.0, float(n), n + 0.5]
            for j in range(n + 2):
                ts += [float(j), j - 0.5, j + 0.5, j - 1e-13, j + 1e-13]
            got = verify._tail_at(np.array([tails]), np.array([ts]))[0].tolist()
            for t, tail in zip(ts, got):
                assert abs(tail - oc.exact_tail(dist, t)) <= 1e-14, (n, t)


class TestGate:
    """A check fails when the larger side exceeds the smaller by more than
    ``SOUNDNESS_TOL`` or by a factor over 1 + ``RELATIVE_TOL``."""

    # a tail of 1e-5 above its bound by a factor 1 + 1e-8: 1e-13 apart
    TAIL = 1e-5
    BELOW = TAIL * (1.0 - 1e-8)

    def test_relative_condition_flags_a_small_tail(self):
        assert not self.TAIL - self.BELOW > verify.SOUNDNESS_TOL
        assert verify._exceeds(self.TAIL, self.BELOW)

    def test_either_condition_fails_a_check(self):
        assert verify._exceeds(0.5, 0.5 - 2e-12)  # absolute only
        assert not verify._exceeds(0.5, 0.5 - 5e-13)
        assert not verify._exceeds(self.TAIL, self.TAIL * (1.0 - 1e-12))
        assert not verify._exceeds(0.0, 0.0)
        assert verify._exceeds(1e-300, 0.0)

    @staticmethod
    def small_tail_law(monkeypatch):
        """Make the sweeps draw one law on 2 coordinates, P[Z = 2] = 1e-5
        and P[Z = 0] the rest, and return its tail row."""
        dist = mask_law(2, [0, 3], [1.0 - 1e-5, 1e-5])
        sweep_one_law(monkeypatch, dist)
        return one_law(dist)[1]

    def test_soundness_flags_a_small_relative_excess(self, monkeypatch):
        # move the law's one linial-luria check, P[Z >= 2] <= S_1 / C(2, 1),
        # to just below its tail, 1e-5
        tails = self.small_tail_law(monkeypatch)
        assert tails[2] == self.TAIL
        assert verify.suite_soundness(n_max=2, trials=1)[-1][1]
        checks = verify._soundness_checks

        def moved(group):
            t, bound, valid = checks(group)
            [s] = [s for s, label in enumerate(verify._slot_labels(2))
                   if label.startswith("linial-luria") and valid[0, s]]
            assert t[0, s] == 2.0
            bound[0, s] = self.BELOW
            return t, bound, valid

        monkeypatch.setattr(verify, "_soundness_checks", moved)
        records = verify.suite_soundness(n_max=2, trials=1)
        assert [(name, ok) for name, ok, _ in records] == [
            ("soundness/linial-luria(k=1)", False), ("soundness/sweep", False)]

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_sandwich_flags_a_small_relative_excess(self, monkeypatch, side):
        # move one table entry of the law to just past its tail, 1e-5
        self.small_tail_law(monkeypatch)
        tables = verify._linial_tables

        def moved(sk):
            upper, lower = tables(sk)
            if side == "lower":
                lower[0, 2] = self.TAIL * (1.0 + 1e-8)
            else:
                upper[0, 2, 1] = self.BELOW
            return upper, lower

        assert verify.suite_sandwich(n_max=2, trials=1)[0][1]
        monkeypatch.setattr(verify, "_linial_tables", moved)
        [(_, ok, detail)] = verify.suite_sandwich(n_max=2, trials=1)
        assert not ok and f"{side} " in detail


class TestSweepsMatchReference:
    @pytest.mark.parametrize("n_max", [3, 7, 10, 12])
    @pytest.mark.parametrize("seed", range(5))
    def test_soundness(self, seed, n_max):
        got = verify.suite_soundness(n_max=n_max, trials=200, seed=seed)
        assert got == reference_soundness(n_max, 200, seed)

    @pytest.mark.parametrize("n_max", [3, 7, 10, 12])
    @pytest.mark.parametrize("seed", range(5))
    def test_sandwich(self, seed, n_max):
        got = verify.suite_sandwich(n_max=n_max, trials=200, seed=seed)
        assert got == reference_sandwich(n_max, 200, seed)

    def test_symmetric_moments_equal_numpy_scalar_sums(self):
        for dist in random_laws(100, 12, seed=1):
            zdist = oc.z_distribution(dist)
            sk = verify._symmetric_moments(zdist.probs[None])[0].tolist()
            ref_zdist, ref_sk = reference_sum_moments(dist)
            assert zdist.probs.tolist() == ref_zdist.probs.tolist()
            assert dict(enumerate(sk)) == ref_sk

    def test_independence_test_matches_one_atom_law(self):
        point_mass = mask_law(3, [5], [1.0])
        laws = random_laws(100, 8, seed=2) + [product_law([0.3, 0.6]), point_mass]
        for dist in laws:
            means = np.clip(dist.means(), 0.0, 1.0)
            one_atom = oc.JointDist(n=dist.n, xs=means[None, :], ws=np.ones(1))
            np.testing.assert_array_equal(
                oc._lattice_products(np.ones((1, dist.n)), means[None, :])[0],
                oc.subset_product_moments(one_atom),
            )
            moments = oc.subset_product_moments(dist)
            assert verify._is_independent(dist.means()[None], moments[None])[0] == (
                reference_is_independent(dist, moments)
            )


class TestBlocks:
    """The sweeps draw and prepare their laws in blocks of consecutive
    trials, the laws of each n in a block together."""

    @pytest.mark.parametrize("n_max", [3, 7, 12])
    @pytest.mark.parametrize("seed", range(3))
    def test_laws_equal_the_laws_drawn_one_at_a_time(self, seed, n_max):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = [verify._law_draw(rng, n_max) for _ in range(60)]
        wants = [reference_law(ref_rng, n_max) for _ in draws]
        for n in {n for n, _ in draws}:
            rows = [r for r, (m, _) in enumerate(draws) if m == n]
            tables = oc.law_tables(n, [draws[r][1] for r in rows])
            for r, pmf, z_law, means in zip(rows, *tables):
                want = wants[r]
                np.testing.assert_array_equal(pmf, want.outcome_pmf)
                np.testing.assert_array_equal(z_law, oc.z_distribution(want).probs)
                np.testing.assert_array_equal(means, want.means())
        # both streams end at the same draw
        assert rng.random() == ref_rng.random()

    @staticmethod
    def record_blocks(monkeypatch):
        """The list of blocks of (n, draw) pairs the sweeps prepare."""
        blocks, prepared = [], verify._prepared_laws

        def recording(draws):
            blocks.append(draws)
            return prepared(draws)

        monkeypatch.setattr(verify, "_prepared_laws", recording)
        return blocks

    # a budget of 1 byte makes blocks of one law, 128 KiB blocks of a few
    # small laws, and an infinite one a single block per call
    @pytest.mark.parametrize("budget", [1, 1 << 17, None, math.inf])
    @pytest.mark.parametrize("seed", range(2))
    def test_records_do_not_depend_on_the_block_size(self, monkeypatch, budget, seed):
        if budget is not None:
            monkeypatch.setattr(verify, "_BLOCK_BYTES", budget)
        trials = 40  # several blocks of each size
        got = verify.suite_soundness(n_max=12, trials=trials, seed=seed)
        assert got == reference_soundness(12, trials, seed)
        got = verify.suite_sandwich(n_max=12, trials=trials, seed=seed)
        assert got == reference_sandwich(12, trials, seed)

    @pytest.mark.parametrize("budget", [1 << 17, None])
    @pytest.mark.parametrize("n_max", [7, 12])
    def test_blocks_stay_within_the_budget(self, monkeypatch, budget, n_max):
        # a block of more than one law is within the budget by the laws'
        # charges, and it closes only when the next law would pass it
        if budget is not None:
            monkeypatch.setattr(verify, "_BLOCK_BYTES", budget)
        blocks = self.record_blocks(monkeypatch)
        list(verify._sweep_blocks(np.random.default_rng(3), n_max, 300, lambda *block: None))
        charges = [[verify._law_bytes(n, draw) for n, draw in block] for block in blocks]
        assert sum(map(len, charges)) == 300 and any(len(c) > 1 for c in charges)
        for block in charges:
            assert len(block) == 1 or sum(block) <= verify._BLOCK_BYTES
        for block, after in zip(charges, charges[1:]):
            assert sum(block) + after[0] > verify._BLOCK_BYTES

    @pytest.mark.parametrize("seed", range(4))
    def test_a_small_sweep_is_one_block(self, monkeypatch, seed):
        blocks = self.record_blocks(monkeypatch)
        verify.suite_sandwich(n_max=7, trials=200, seed=seed)
        assert [len(block) for block in blocks] == [200]

    def test_memory_does_not_grow_with_trials(self):
        peaks = []
        for trials in (200, 2000):
            tracemalloc.start()
            try:
                verify.suite_soundness(n_max=12, trials=trials, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20, peaks

    def test_one_law_calls_are_blocks_of_one(self):
        rng = np.random.default_rng(4)
        draws = [verify._law_draw(rng, 9) for _ in range(30)]
        rows = law_rows(verify._prepared_laws(draws))
        for (n, draw), row, dist in zip(draws, rows, random_laws(30, 9, seed=4)):
            [alone] = law_rows([verify._group([0], *oc.law_tables(n, [draw]))])
            assert alone == row
            z_law = oc.z_distribution(dist).probs[None]
            assert verify._symmetric_moments(z_law)[0].tolist() == row[1][-1]

    @pytest.mark.parametrize("n", [3, 7])
    def test_a_group_peaks_within_its_charge(self, n):
        # the laws of one n from the sweeps' stream, built and prepared as
        # one group: 2,000 laws at n = 3, about 500 at n = 7
        rng = np.random.default_rng(0)
        draws = [draw for draw in (verify._law_draw(rng, n) for _ in range(2500))
                 if draw[0] == n][:2000]
        tracemalloc.start()
        try:
            verify._prepared_laws(draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(verify._law_bytes(*draw) for draw in draws), peak


class TestLawStream:
    """The sweeps' records at fixed flags, pinned: any change to the law
    generator's stream of random draws shows here."""

    def test_soundness_records(self):
        assert verify.suite_soundness(n_max=7, trials=100, seed=0) == [
            ("soundness/sweep", True,
             "2602 bound evaluations over 100 distributions; "
             "worst margin 0 at linial-luria(k=6) n=7 t=7 trial=0"),
        ]

    def test_sandwich_records(self):
        assert verify.suite_sandwich(n_max=7, trials=100, seed=0) == [
            ("sandwich/linial", True, "1560 comparisons over 100 distributions"),
        ]

    @pytest.mark.parametrize("n_max", [12, 40])
    def test_convex_order_records(self, n_max):
        assert verify.suite_convex_order(n_max=n_max, seed=0) == [
            ("convex-order/exp-moments", True, "100 vectors x 3 tilts, 0 failures"),
            ("convex-order/tail-domination", True,
             "100 vectors, all valid thresholds, 0 failures"),
            ("convex-order/binomial-median", True,
             "grid n<=200 x p in 0.01..0.99, 0 failures"),
        ]


class TestPinskerGrid:
    """``identities/kl-quadratic-lower`` evaluates its 100 x 100 grid with
    the shared ``kl`` and the array functions (``verify._ARRAY_MATH``) on
    broadcast arrays: every point equals the scalar loop over
    ``kl_divergence`` bit for bit."""

    GRID = np.linspace(0.005, 0.995, 100)

    def scalar_loop(self):
        grid = self.GRID.tolist()
        return [[kl_divergence(q, p) - 2.0 * (q - p) ** 2 for p in grid] for q in grid]

    def test_every_point_equals_the_scalar_loop(self):
        q, p = self.GRID[:, None], self.GRID[None, :]
        got = kl(q, p, verify._ARRAY_MATH) - 2.0 * (q - p) ** 2
        want = np.array(self.scalar_loop())
        assert got.shape == want.shape == (100, 100)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_record_states_the_scalar_minimum(self):
        worst = min(map(min, self.scalar_loop()))
        assert ("identities/kl-quadratic-lower", True,
                f"min(D(q||p) - 2(q-p)^2) = {worst:.3g} over 100x100 grid"
                ) in verify.suite_identities()


def test_every_soundness_row_runs():
    """At ``verify soundness``'s defaults, every method of the soundness
    checks has a valid check, so a method whose laws the sweep never draws
    fails here."""
    defaults = {name: p.default for name, p in
                inspect.signature(verify.suite_soundness).parameters.items()}
    valid = Counter()
    rng = np.random.default_rng(defaults["seed"])
    for groups in verify._sweep_blocks(rng, defaults["n_max"], defaults["trials"],
                                       lambda groups, start: groups):
        for group in groups:
            labels = verify._slot_labels(group.sk.shape[1] - 1)
            counts = verify._soundness_checks(group)[2].sum(axis=0).tolist()
            for label, count in zip(labels, counts):
                valid[label.partition("(")[0]] += count
    assert sorted(valid) == sorted(["ik", "bincoupling", "expfunct", "linial-luria",
                                    "hoeffding", "kwise"])
    assert min(valid.values()) >= 1


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        ("soundness", {"n_max": 9, "trials": 80, "seed": 5}),
        ("sandwich", {"n_max": 9, "trials": 80, "seed": 5}),
        ("convex-order", {"n_max": 40, "trials": 30, "seed": 5}),
        ("identities", {}),
    ],
)
def test_reruns_are_identical(suite, kwargs):
    first = verify.run_suite(suite, **kwargs)
    # a call in between on other inputs must leave nothing behind
    verify.run_suite(suite, **{**kwargs, "seed": 6})
    assert verify.run_suite(suite, **kwargs) == first


class TestLinialTables:
    """The sweeps' Linial-Luria bounds come from one table per group of
    laws (``verify._linial_tables``), tied here to the evaluator."""

    @staticmethod
    def assert_tables_match(dist, sk):
        n = dist.n
        upper, lower = (table[0].tolist() for table in
                        verify._linial_tables(np.array([sk])))
        profile = bd.SymmetricMoments(dict(enumerate(sk)))
        for beta_n in range(1, n + 1):
            assert lower[beta_n] == reference_lower(n, beta_n, sk[beta_n])
            for k in range(1, beta_n + 1):
                tb = bd.linial_luria_bound(n, beta_n, k, profile)
                assert upper[beta_n][k] == tb.bound, (n, beta_n, k)

    @pytest.mark.parametrize("n_max", [3, 7, 12])
    @pytest.mark.parametrize("seed", range(5))
    def test_entries_equal_the_evaluator(self, seed, n_max):
        for dist, _, data in prepared_laws(100, n_max, seed):
            upper, sk = data[-2:]
            assert verify._linial_tables(np.array([sk]))[0][0].tolist() == upper
            self.assert_tables_match(dist, sk)

    def test_zero_moments_give_zero_entries(self):
        # Z is 0 or 1, so S_k = 0 for every k >= 2
        dist = mask_law(4, [0, 4], [0.5, 0.5])
        _, _, data = one_law(dist)
        upper, sk = data[-2:]
        assert sk[2:] == [0.0] * 3
        assert all(upper[beta_n][k] == 0.0 for beta_n in range(2, 5) for k in range(2, beta_n))
        self.assert_tables_match(dist, sk)

    @staticmethod
    def scale_tables(monkeypatch, upper=1.0, lower=1.0):
        tables = verify._linial_tables
        monkeypatch.setattr(verify, "_linial_tables",
                            lambda sk: tuple(a * f for a, f in zip(tables(sk), (upper, lower))))

    # mutation checks: at n_max 7, seed 0 and 100 trials, upper entries
    # shrunk by a factor 1 - 1e-6 fail 3 linial-luria soundness checks and
    # 13 laws of the sandwich, lower entries raised by 1 + 1e-6 fail 78
    def test_shrunk_upper_entries_fail_both_sweeps(self, monkeypatch):
        self.scale_tables(monkeypatch, upper=1.0 - 1e-6)
        records = verify.suite_soundness(n_max=7, trials=100, seed=0)
        assert records[-1][:2] == ("soundness/sweep", False)
        assert {name for name, _, _ in records[:-1]} <= {
            f"soundness/linial-luria(k={k})" for k in range(1, 7)}
        [(_, ok, detail)] = verify.suite_sandwich(n_max=7, trials=100, seed=0)
        assert not ok and "> upper" in detail

    def test_raised_lower_entries_fail_the_sandwich(self, monkeypatch):
        self.scale_tables(monkeypatch, lower=1.0 + 1e-6)
        [(_, ok, detail)] = verify.suite_sandwich(n_max=7, trials=100, seed=0)
        assert not ok and ": lower " in detail
        assert verify.suite_soundness(n_max=7, trials=100, seed=0)[-1][1]

    def test_failure_text_is_the_evaluators(self, monkeypatch):
        # Z is 7 with probability 0.3, else 0: S_2 / C(3, 2) = 6.3 / 3 is
        # clamped to 1; zeroed upper entries fail every linial-luria check
        dist = mask_law(7, [0, 127], [0.7, 0.3])
        sweep_one_law(monkeypatch, dist)
        self.scale_tables(monkeypatch, upper=0.0)
        records = verify.suite_soundness(n_max=7, trials=1)
        tails = oc.z_distribution(dist).probs[::-1].cumsum()[::-1].tolist()
        profile = bd.SymmetricMoments(dict(enumerate(one_law(dist)[2][-1])))
        want = [(f"soundness/linial-luria(k={k})", False,
                 f"trial 0: exact_tail={tails[beta_n]!r} > bound=0.0 at t={float(beta_n)!r}, "
                 f"params={bd.linial_luria_bound(7, beta_n, k, profile).params}")
                for beta_n in range(3, 8) for k in range(1, beta_n)]
        assert records[:-1] == want
        assert "params={'k': 2, 'beta_n': 3, 'clamped': True}" in records[1][2]
        [(_, ok, detail)] = verify.suite_sandwich(n_max=7, trials=1)
        assert detail == ("28 comparisons over 1 distributions; first failure: "
                          "trial 0: tail 0.3 > upper 0.0 (beta_n=2, k=1)")
        assert "np." not in repr(records) + detail


def reference_slots(n, gamma, gamma_z, pbar, independent, sk):
    """(label, t, TailBound) of each slot of the soundness arrays, each
    check a call of its evaluator; the TailBound is None where the law's
    rates rule the bound out, a check the per-law loop never made."""
    grid = reference_grid
    ik = 0.0 < gamma < 1.0
    bincoupling = ik and n * gamma + 1.0 < n
    expfunct = 0.0 < gamma_z < 1.0
    hoeffding = independent and 0.0 < pbar < 1.0
    slots = [("ik", t, bd.ik_bound(n, gamma, bd.t_to_eps(n, gamma, t), c=1.0) if ik else None)
             for t in grid(n * gamma, n)]
    slots += [("bincoupling", t, bd.bincoupling_bound(n, gamma, t) if bincoupling else None)
              for t in grid(n * gamma + 1.0, n)]
    slots += [("expfunct", t, bd.expfunct_bound(n, gamma_z, 1.0, t) if expfunct else None)
              for t in grid(n * gamma_z, n)]
    profile = bd.SymmetricMoments(dict(enumerate(sk)))
    beta_lo = max(1, math.floor(n * pbar) + 1)
    for beta_n in range(beta_lo, beta_lo + 5):
        slots += [(f"linial-luria(k={k})", float(beta_n),
                   bd.linial_luria_bound(n, beta_n, k, profile) if k < beta_n <= n else None)
                  for k in range(1, n)]
    for t in grid(n * pbar, n):
        slots.append(("hoeffding", t, bd.hoeffding_bound(n, pbar, t) if hoeffding else None))
        slots.append(("kwise(k=n)", t, bd.kwise_bound(n, n, pbar, bd.t_to_eps(n, pbar, t))
                      if hoeffding else None))
    return slots


# the methods whose soundness bounds are computed as arrays, not read from
# the Linial-Luria tables
GRID_METHODS = ["ik", "bincoupling", "expfunct", "hoeffding", "kwise(k=n)"]


class TestSoundnessChecks:
    """The soundness sweep's checks are arrays per group of laws
    (``verify._soundness_checks``), tied here to the evaluators."""

    @staticmethod
    def assert_slots_match(group):
        n = group.sk.shape[1] - 1
        t, bound, valid = verify._soundness_checks(group)
        assert t.shape == bound.shape == valid.shape == (len(group.rows), 5 * n + 20)
        for l in range(len(group.rows)):
            slots = reference_slots(n, group.gamma[l].item(), group.gamma_z[l].item(),
                                    group.pbar[l].item(), group.independent[l].item(),
                                    group.sk[l].tolist())
            assert [label for label, _, _ in slots] == verify._slot_labels(n)
            assert t[l].tolist() == [t for _, t, _ in slots]
            for s, (label, t_s, tb) in enumerate(slots):
                ok = tb is not None and tb.is_valid
                assert valid[l, s] == ok, (label, t_s)
                if ok:
                    assert bound[l, s] == tb.bound, (label, t_s)

    @pytest.mark.parametrize("n_max", [3, 7, 12])
    @pytest.mark.parametrize("seed", range(5))
    def test_slots_equal_the_evaluators(self, seed, n_max):
        rng = np.random.default_rng(seed)
        draws = [verify._law_draw(rng, n_max) for _ in range(100)]
        for group in verify._prepared_laws(draws):
            self.assert_slots_match(group)

    @pytest.mark.parametrize("dist", [
        mask_law(3, [0], [1.0]),  # gamma = gamma_z = pbar = 0
        mask_law(3, [5], [1.0]),  # a point mass: gamma = 1
        mask_law(4, [15], [1.0]),  # pbar = 1
        product_law([0.999, 0.9999, 0.99, 0.995]),  # independent, pbar near 1
        product_law([0.01, 0.02, 0.5]),
        mask_law(4, [0, 4], [0.5, 0.5]),
        # gamma and gamma_z within a few ulps of 1, where the grid's points
        # round onto n gamma_z or n and the evaluators' boundary tests bind
        mask_law(3, [1, 6], [1.0 - 2.0**-52, 2.0**-52]),
        mask_law(3, [1, 6], [1.0 - 1e-15, 1e-15]),
    ], ids=["zero", "point-mass", "all-ones", "independent-near-1",
            "independent-small", "one-coordinate", "rates-2ulp-below-1",
            "rates-1e-15-below-1"])
    def test_edge_laws(self, dist):
        self.assert_slots_match(group_of([dist]))

    def test_failure_text_is_the_evaluators(self, monkeypatch):
        # zeroed, the first ik and the first hoeffding bound of an
        # independent law fail, and print their evaluators' params
        dist = product_law([0.3, 0.6, 0.5])
        sweep_one_law(monkeypatch, dist)
        labels, checks = verify._slot_labels(3), verify._soundness_checks
        zeroed = [labels.index("ik"), labels.index("hoeffding")]

        def moved(group):
            t, bound, valid = checks(group)
            assert valid[0, zeroed].all()
            bound[0, zeroed] = 0.0
            return t, bound, valid

        monkeypatch.setattr(verify, "_soundness_checks", moved)
        records = verify.suite_soundness(n_max=3, trials=1)
        _, tails, (gamma, _, pbar, *_) = one_law(dist)
        t_ik, t_h = reference_grid(3 * gamma, 3)[0], reference_grid(3 * pbar, 3)[0]
        assert records[:-1] == [
            ("soundness/ik", False,
             f"trial 0: exact_tail={tails[math.ceil(t_ik)]!r} > bound=0.0 at t={t_ik!r}, "
             f"params={bd.ik_bound(3, gamma, bd.t_to_eps(3, gamma, t_ik), c=1.0).params}"),
            ("soundness/hoeffding", False,
             f"trial 0: exact_tail={tails[math.ceil(t_h)]!r} > bound=0.0 at t={t_h!r}, "
             f"params={bd.hoeffding_bound(3, pbar, t_h).params}"),
        ]
        assert records[-1][:2] == ("soundness/sweep", False)
        assert "np." not in repr(records)

    @staticmethod
    def slack(method):
        """The smallest ln(bound / tail) of ``method``'s valid checks with a
        nonzero tail in ``verify soundness --n-max 7 --trials 100``."""
        least = math.inf
        rng = np.random.default_rng(0)
        for groups in verify._sweep_blocks(rng, 7, 100, lambda groups, start: groups):
            for group in groups:
                t, bound, valid = verify._soundness_checks(group)
                tail = verify._tail_at(group.tails, t)
                labels = np.array(verify._slot_labels(group.sk.shape[1] - 1))
                checked = valid & (tail > 0.0) & (labels == method)
                for b, z in zip(bound[checked].tolist(), tail[checked].tolist()):
                    least = min(least, math.log(b / z))
        return least

    @staticmethod
    def scale_method(monkeypatch, method, factor):
        monkeypatch.undo()  # scale the unpatched bounds, not a previous call's
        checks = verify._soundness_checks

        def scaled(group):
            t, bound, valid = checks(group)
            bound[:, np.array(verify._slot_labels(group.sk.shape[1] - 1)) == method] *= factor
            return t, bound, valid

        monkeypatch.setattr(verify, "_soundness_checks", scaled)

    # mutation checks: each method's bounds shrunk by e^-(slack + 1e-6) fail
    # the sweep, by e^-(slack - 1e-6) pass it
    @pytest.mark.parametrize("method", GRID_METHODS)
    def test_a_method_shrunk_past_its_slack_fails_the_sweep(self, monkeypatch, method):
        slack = self.slack(method)
        assert 0.0 < slack < math.inf
        self.scale_method(monkeypatch, method, math.exp(-(slack - 1e-6)))
        assert verify.suite_soundness(n_max=7, trials=100, seed=0)[-1][1]
        self.scale_method(monkeypatch, method, math.exp(-(slack + 1e-6)))
        records = verify.suite_soundness(n_max=7, trials=100, seed=0)
        assert records[-1][:2] == ("soundness/sweep", False)
        assert {name for name, _, _ in records[:-1]} == {f"soundness/{method}"}


def around(x):
    """x and the floats one ulp either side of it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def edge_points(label):
    """Evaluator arguments of the grid method ``label`` where each of its
    conditions binds: a valid base point with one argument moved onto, and
    one ulp either side of, each threshold it meets, NaN and infinities,
    and the points at which a tilted rate rounds to 1.0.  These include
    c != 1, delta < 1 and k < n, which no law the sweep draws gives."""
    nan, inf = math.nan, math.inf
    g, e = 0.8474337369372327, 0.18003326562636898  # g (1 + e) rounds to 1
    if label == "ik":
        n, gamma, eps, c = 10, 0.3, 0.5, 1.0
        return ([(n, x, eps, c) for x in [*around(0.0), *around(1.0), nan]]
                + [(n, gamma, eps, x) for x in [*around(1.0), 0.5, 2.0, nan, inf]]
                + [(n, gamma, x, c) for x in [*around(0.0), *around(1.0 / gamma - 1.0),
                                              nan, inf, -inf]]
                + [(10, g, x, c) for x in around(e)])
    if label == "bincoupling":
        n, p, t = 10, 0.3, 6.0
        return ([(n, x, t) for x in [*around(0.0), *around(1.0), nan]]
                + [(n, p, x) for x in [*around(n * p + 1.0), *around(float(n)), nan, inf]]
                # one ulp below n, the coupled rate rounds to 1.0
                + [(7793691299598120, 0.3439649697031705, x)
                   for x in around(7793691299598119.0)])
    if label == "expfunct":
        n, gamma, delta, t = 10, 0.3, 0.9, 5.0
        return ([(n, x, delta, t) for x in [*around(0.0), *around(1.0), nan]]
                + [(n, gamma, x, t) for x in [*around(0.0), *around(1.0), *around(1.0 - gamma),
                                              nan, 1.5]]
                + [(n, gamma, delta, x) for x in [*around(n * gamma), *around(float(n)), nan]]
                + [(7, 0.1469614007334975, 1.0, x) for x in around(6.999999999999999)])
    if label == "hoeffding":
        n, p, t = 10, 0.3, 5.0
        return ([(n, x, t) for x in [*around(0.0), *around(1.0), nan]]
                + [(n, p, x) for x in [*around(n * p), *around(float(n)), nan, inf, -inf]])
    n, k, p, eps = 10, 3, 0.3, 0.5
    return ([(n, x, p, eps) for x in [0, 1, 9, 10, 11]]
            + [(n, k, x, eps) for x in [*around(0.0), *around(1.0), nan]]
            + [(n, k, p, x) for x in [*around(0.0), *around(1.0 / p - 1.0), nan, inf]]
            + [(10, 3, g, x) for x in around(e)])


@pytest.mark.parametrize("label", GRID_METHODS)
def test_rows_equal_the_evaluators_at_the_edges(label):
    """The array path of each grid method (``verify._row_bounds``), run on
    arrays of its evaluator's arguments, gives entry by entry the
    evaluator's validity and, where valid, its ``bound`` bit for bit."""
    method = verify._GRID_METHODS[label]
    points = edge_points(label)
    valid = np.ones(len(points), dtype=bool)
    with np.errstate(all="ignore"):
        bound = verify._row_bounds(method, tuple(map(np.array, zip(*points))), valid)
    for args, ok, b in zip(points, valid.tolist(), bound.tolist()):
        tb = method.evaluator(*args)
        assert ok == tb.is_valid, (args, tb)
        if ok:
            assert b.hex() == tb.bound.hex(), args
    assert 0 < valid.sum() < len(points)


@pytest.mark.parametrize("suite", [verify.suite_soundness, verify.suite_sandwich])
def test_a_sweep_holds_one_block_at_a_time(suite):
    # at n_max 3, 2,500 laws are one block and 12,000 are five; a sweep that
    # kept a block while building the next would peak 3 MiB higher
    peaks = []
    for trials in (2500, 12000):
        tracemalloc.start()
        try:
            suite(n_max=3, trials=trials, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**20, peaks
