"""The soundness and sandwich sweeps: the tail table read from each block's
laws of Z, the gate a check must pass, the sweeps against the per-check
loop they replaced, their records at pinned flags and rerun determinism."""

import inspect
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from depbounds import bounds as bd
from depbounds import oracle as oc
from depbounds import verify

# ---------------------------------------------------------------------------
# the reference: the per-check loop the sweeps ran before laws were drawn and
# prepared in blocks and each law's tails came from one table, with a law
# drawn, summed and checked on its own, a fresh exact_tail per check, a
# one-atom JointDist in the independence test and S_k summed over numpy
# scalars


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
    """``_bound_checks`` from the law's data computed on its own."""
    n = dist.n
    sizes = np.array([bin(m).count("1") for m in range(1, 1 << n)])
    moments = oc.subset_product_moments(dist)
    gamma = float((moments[1:] ** (1.0 / sizes)).max())
    gamma_z = float((oc.subset_zeta_moments(dist)[1:] ** (1.0 / sizes)).max())
    _, sk = reference_sum_moments(dist)
    return verify._bound_checks(n, gamma, gamma_z, float(dist.means().sum()) / n, sk,
                                reference_is_independent(dist, moments))


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
            lower = math.exp(bd.linial_lower_bound(n, beta_n, sk[beta_n]))
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
    return verify._prepared_laws([verify._law_draw(rng, n_max) for _ in range(count)])


def random_laws(count, n_max, seed=0):
    return [dist for dist, _, _ in prepared_laws(count, n_max, seed)]


def one_law(dist):
    """The sweeps' triple of ``dist`` prepared on its own."""
    z_laws = oc._z_laws([dist])
    return dist, verify._tail_rows(z_laws)[0], verify._law_data([dist], z_laws)[0]


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
        law = one_law(oc._mask_laws(2, [[0, 3]], [[1.0 - 1e-5, 1e-5]])[0])
        monkeypatch.setattr(verify, "_sweep_laws", lambda rng, n_max, trials: [law])
        return law[1]

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
        self.small_tail_law(monkeypatch)
        if side == "lower":
            monkeypatch.setattr(bd, "linial_lower_bound",
                                lambda n, beta_n, s: math.log(self.TAIL * (1.0 + 1e-8)))
        else:
            tb = bd.TailBound("fake", math.log(self.BELOW))
            monkeypatch.setattr(bd, "linial_luria_bound", lambda n, beta_n, k, profile: tb)
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
            sk = verify._symmetric_moments(zdist.probs[None])[0]
            ref_zdist, ref_sk = reference_sum_moments(dist)
            assert zdist.probs.tolist() == ref_zdist.probs.tolist()
            assert sk == ref_sk
            assert all(type(v) is float for v in sk.values())

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
        for dist, _, _ in verify._prepared_laws(draws):
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
        for dist, _, _ in verify._prepared_laws(
                [verify._law_draw(np.random.default_rng(5), 9) for _ in range(40)]):
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
        data = {}
        for n in {dist.n for dist in laws}:
            group = [dist for dist in laws if dist.n == n]
            data.update(zip(map(id, group), verify._law_data(group, oc._z_laws(group))))
        for dist in laws:
            assert one_law(dist)[2] == data[id(dist)]
            z_law = oc.z_distribution(dist).probs[None]
            assert verify._symmetric_moments(z_law)[0] == data[id(dist)][3]

    def test_law_data_needs_bernoulli_laws(self):
        dist = oc.JointDist(n=2, xs=[[0.5, 1.0], [0.0, 0.25]], ws=[0.5, 0.5])
        with pytest.raises(ValueError, match="Bernoulli"):
            verify._law_data([dist], oc._z_laws([dist]))
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
