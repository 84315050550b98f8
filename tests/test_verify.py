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
from depbounds.numkernel import log_binom_coeff

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
    """``_bound_checks`` from the law's data computed on its own, each
    check a call of its evaluator, linial-luria's included."""
    n = dist.n
    sizes = np.array([bin(m).count("1") for m in range(1, 1 << n)])
    moments = oc.subset_product_moments(dist)
    gamma = float((moments[1:] ** (1.0 / sizes)).max())
    gamma_z = float((oc.subset_zeta_moments(dist)[1:] ** (1.0 / sizes)).max())
    pbar = float(dist.means().sum()) / n
    _, sk = reference_sum_moments(dist)
    grid = verify._interior_grid
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
            if gap > verify.SOUNDNESS_TOL:
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
            if lower > tail + verify.SOUNDNESS_TOL:
                fails.append(f"trial {i}: lower {lower!r} > tail {tail!r}")
            checked += 1
            for k in range(1, beta_n):
                tb = bd.linial_luria_bound(n, beta_n, k, profile)
                if tb.is_valid and tail > tb.bound + verify.SOUNDNESS_TOL:
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


def product_law(q):
    q = np.asarray(q, dtype=float)
    n = len(q)
    return oc._mask_laws(n, [np.arange(1 << n)], [oc.zeta_decomposition(q)])[0]


def prepared_laws(count, n_max, seed=0):
    """The sweeps' (dist, tail row, law data) triples of ``count`` laws."""
    rng = np.random.default_rng(seed)
    draws = [verify._law_draw(rng, n_max) for _ in range(count)]
    return list(verify._law_rows(verify._prepared_laws(draws)))


def random_laws(count, n_max, seed=0):
    return [dist for dist, _, _ in prepared_laws(count, n_max, seed)]


def one_law(dist):
    """The sweeps' triple of ``dist`` prepared on its own."""
    [law] = verify._law_rows([verify._group([0], [dist])])
    return law


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
            for t in ts:
                assert abs(verify._tail(tails, t) - oc.exact_tail(dist, t)) <= 1e-14, (n, t)


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
        dist = oc._mask_laws(2, [[0, 3]], [[1.0 - 1e-5, 1e-5]])[0]
        monkeypatch.setattr(verify, "_sweep_blocks",
                            lambda rng, n_max, trials: [[verify._group([0], [dist])]])
        return one_law(dist)[1]

    def test_soundness_flags_a_small_relative_excess(self, monkeypatch):
        tails = self.small_tail_law(monkeypatch)
        assert tails[2] == self.TAIL
        tb = bd.TailBound("fake", math.log(self.BELOW))
        monkeypatch.setattr(verify, "_bound_checks", lambda n, *data: [("fake", 2.0, tb)])
        records = verify.suite_soundness(n_max=2, trials=1)
        assert [(name, ok) for name, ok, _ in records] == [
            ("soundness/fake", False), ("soundness/sweep", False)]

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
        point_mass = oc._mask_laws(3, [[5]], [[1.0]])[0]
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
        for dist, _, _ in verify._law_rows(verify._prepared_laws(draws)):
            want = reference_law(ref_rng, n_max)
            assert dist.n == want.n
            for name in ("xs", "ws", "outcome_pmf", "atom_sizes"):
                np.testing.assert_array_equal(getattr(dist, name), getattr(want, name))
            np.testing.assert_array_equal(dist.means(), want.means())
        # both streams end at the same draw
        assert rng.random() == ref_rng.random()

    def test_block_built_laws_keep_no_support(self):
        # xs is derived from the masks on access and equals, like the means,
        # what the checked constructor gives for the same support and weights;
        # every array a law holds is read-only
        rng = np.random.default_rng(5)
        draws = [verify._law_draw(rng, 9) for _ in range(40)]
        for dist, _, _ in verify._law_rows(verify._prepared_laws(draws)):
            assert "xs" not in vars(dist)
            want = oc.JointDist(n=dist.n, xs=dist.xs, ws=dist.ws)
            np.testing.assert_array_equal(dist.xs, want.xs)
            np.testing.assert_array_equal(dist.means(), want.means())
            for a in (dist.xs, dist.ws, dist.masks, dist.outcome_pmf,
                      dist.atom_sizes, dist.means()):
                assert not a.flags.writeable

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
        assert len(list(verify._sweep_laws(np.random.default_rng(3), n_max, 300))) == 300
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
        laws = random_laws(30, 9, seed=4)
        prepared = {}
        for n in {dist.n for dist in laws}:
            group = [dist for dist in laws if dist.n == n]
            rows = verify._law_rows([verify._group(list(range(len(group))), group)])
            prepared.update(zip(map(id, group), rows))
        for dist in laws:
            _, tails, data = prepared[id(dist)]
            assert one_law(dist)[1:] == (tails, data)
            z_law = oc.z_distribution(dist).probs[None]
            assert verify._symmetric_moments(z_law)[0].tolist() == data[-1]

    def test_law_data_needs_bernoulli_laws(self):
        dist = oc.JointDist(n=2, xs=[[0.5, 1.0], [0.0, 0.25]], ws=[0.5, 0.5])
        with pytest.raises(ValueError, match="Bernoulli"):
            verify._law_data([dist])
        assert oc.random_joint_dists(3, []) == []


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


def test_every_soundness_row_runs():
    """At ``verify soundness``'s defaults, every row of ``_bound_checks`` has
    a Valid check, so a row whose laws the sweep never draws fails here."""
    defaults = {name: p.default for name, p in
                inspect.signature(verify.suite_soundness).parameters.items()}
    valid = Counter()
    rng = np.random.default_rng(defaults["seed"])
    for dist, _, data in verify._sweep_laws(rng, defaults["n_max"], defaults["trials"]):
        valid.update(label.partition("(")[0]
                     for label, _t, tb in verify._bound_checks(dist.n, *data)
                     if tb.is_valid)
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
        dist = oc._mask_laws(4, [[0, 4]], [[0.5, 0.5]])[0]
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
        dist = oc._mask_laws(7, [[0, 127]], [[0.7, 0.3]])[0]
        monkeypatch.setattr(verify, "_sweep_blocks",
                            lambda rng, n_max, trials: [[verify._group([0], [dist])]])
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
