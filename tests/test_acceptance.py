"""Acceptance gate: the ten release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every criterion both prints its verdict and asserts it, so the
file doubles as a human-readable checklist and a hard gate.
"""

import math
import time

import numpy as np

from depbounds import bounds as bd
from depbounds import graphcomb as gc
from depbounds import oracle as oc
from depbounds import simulate as sim
from depbounds.numkernel import PoissonBinomialSpec, kl_divergence, poisson_binom_dist
from depbounds.verify import run_suite


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def suite_ok(results):
    return all(passed for _name, passed, _detail in results)


class TestAcceptance:
    def test_01_master_soundness_sweep(self):
        start = time.perf_counter()
        results = run_suite("soundness", n_max=10, trials=1000, seed=0)
        elapsed = time.perf_counter() - start
        detail = results[-1][2]
        report(
            1,
            suite_ok(results) and elapsed < 120.0,
            f"{detail}; {elapsed:.1f}s (< 120s)",
        )

    def test_02_zeta_identities(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2)
        worst_sum = worst_weight = 0.0
        trials = 10_000
        for _ in range(trials):
            n = int(rng.integers(1, 13))
            x = rng.random(n)
            ws = oc.zeta_decomposition(x)
            sizes = np.array([bin(m).count("1") for m in range(1 << n)])
            worst_sum = max(worst_sum, abs(math.fsum(ws) - 1.0))
            worst_weight = max(
                worst_weight, abs(float(ws @ sizes) - math.fsum(x))
            )
        elapsed = time.perf_counter() - start
        ok = worst_sum <= 1e-10 and worst_weight <= 1e-10 and elapsed < 30.0
        report(
            2,
            ok,
            f"{trials} vectors n<=12: max |sum-1|={worst_sum:.2e}, "
            f"max weighted-sum error={worst_weight:.2e}; {elapsed:.1f}s (< 30s)",
        )

    def test_03_reduction_identities(self):
        tol = 1e-10
        gaps = {}
        # k-wise at k=n equals the independent bound
        n, p, eps = 40, 0.5, 0.5
        gaps["kwise(k=n)"] = abs(
            bd.kwise_bound(n, n, p, eps).log_bound
            - bd.hoeffding_bound(n, p, bd.eps_to_t(n, p, eps)).log_bound
        )
        # full independence number equals the p=1/2 independent bound
        gaps["depgraph(alpha=n)"] = abs(
            bd.depgraph_bound(bd.DependencyGraphParams(30, 30), 24.0).log_bound
            - bd.hoeffding_bound(30, 0.5, 24.0).log_bound
        )
        # delta = 1-gamma collapses the split bound to the independent one
        gaps["expfunct(delta=1-gamma)"] = abs(
            bd.expfunct_bound(12, 0.25, 0.75, 6.0).log_bound
            - bd.hoeffding_bound(12, 0.25, 6.0).log_bound
        )
        # k=1 is Markov's inequality
        tb = bd.linial_luria_bound(10, 6, 1, bd.SymmetricMoments({0: 1.0, 1: 3.0}))
        gaps["linial-luria(k=1)"] = abs(tb.log_bound - math.log(3.0 / 6.0))
        # exponential family on a binomial sum distribution
        nn, pp, tt = 20, 0.3, 11.0
        zd = oc.ZDist(poisson_binom_dist(PoissonBinomialSpec((pp,) * nn)))
        gaps["dephoeff(exp)"] = abs(
            oc.dephoeff_bound(zd, tt).log_bound
            - bd.hoeffding_bound(nn, pp, tt).log_bound
        )
        worst = max(gaps.values())
        report(
            3,
            worst <= tol,
            f"5 reduction identities, max log-scale gap {worst:.2e} (<= 1e-10)",
        )

    def test_04_ordering_grids(self):
        # refined martingale bound never exceeds the plain one
        md_pts = md_bad = 0
        for n in (50, 80, 120, 200):
            for p in (0.2, 0.3):
                for ell in range(int(n * p) + 1, n):
                    t = ell / n - p
                    ref = bd.mcdiarmid_refined_bound(n, p, t)
                    if not ref.is_valid:
                        continue
                    plain = bd.mcdiarmid_bound(n, p, t)
                    md_pts += 1
                    if ref.log_bound > plain.log_bound + 1e-12:
                        md_bad += 1
        # refined U-statistic bound is strictly below the basic one
        us_pts = us_bad = 0
        for (n, d, p) in [(200, 2, 0.2), (300, 3, 0.3), (400, 4, 0.1),
                          (500, 5, 0.25)]:
            params = bd.UStatParams(n, d, p)
            k = n // d
            for ell in range(int(k * p) + 1, k):
                t = ell / k - p
                ref = bd.ustat_refined_bound(params, t)
                if not ref.is_valid:
                    continue
                us_pts += 1
                if not ref.bound < math.exp(-2.0 * k * t * t):
                    us_bad += 1
        # split-bound closed form never exceeds its divergence form
        ef_pts = ef_bad = 0
        for (n, g, dl) in [(40, 0.3, 0.5), (25, 0.5, 0.8), (60, 0.2, 1.0)]:
            for t in np.linspace(n * g, n, 202)[1:-1]:
                tb = bd.expfunct_bound(n, g, dl, float(t))
                if not tb.is_valid:
                    continue
                ef_pts += 1
                if tb.log_bound > tb.params["kl_form"] + 1e-12:
                    ef_bad += 1
        # the three algebraic forms of the independent bound agree
        hf_pts, hf_worst = 0, 0.0
        n, p = 100, 0.3
        for t in np.linspace(n * p, n, 202)[1:-1]:
            tb = bd.hoeffding_bound(n, p, float(t))
            h = tb.params["h"]
            mgf_form = -h * t + n * math.log1p(p * math.expm1(h))
            hf_pts += 1
            hf_worst = max(
                hf_worst,
                abs(tb.log_bound - tb.params["closed_form"]),
                abs(tb.log_bound - mgf_form),
            )
        ok = (
            md_pts >= 200 and md_bad == 0
            and us_pts >= 200 and us_bad == 0
            and ef_pts >= 200 and ef_bad == 0
            and hf_pts >= 200 and hf_worst <= 1e-10
        )
        report(
            4,
            ok,
            f"martingale refined<=plain {md_pts}pts/{md_bad}bad; "
            f"ustat refined<foolproof {us_pts}pts/{us_bad}bad; "
            f"split closed<=KL {ef_pts}pts/{ef_bad}bad; "
            f"3-form agreement {hf_pts}pts worst {hf_worst:.2e}",
        )

    def test_05_sandwich(self):
        results = run_suite("sandwich", trials=500, n_max=10, seed=0)
        report(5, suite_ok(results), results[0][2])

    def test_06_convex_order(self):
        start = time.perf_counter()
        results = run_suite("convex-order", trials=100, n_max=12, seed=0)
        elapsed = time.perf_counter() - start
        detail = "; ".join(r[2] for r in results)
        report(6, suite_ok(results) and elapsed < 60.0,
               f"{detail}; {elapsed:.1f}s (< 60s)")

    def test_07_combinatorial_lemmas(self):
        start = time.perf_counter()
        results = run_suite("lemmas", n_max=6, random_graphs=10_000, seed=0)
        elapsed = time.perf_counter() - start
        detail = "; ".join(r[2] for r in results)
        report(7, suite_ok(results) and elapsed < 60.0,
               f"{detail}; {elapsed:.1f}s (< 60s)")

    def test_08_monte_carlo_domination(self):
        start = time.perf_counter()
        reps = 100_000

        def gnp_bound(kind, n, p, t):
            count, gamma = gc.gnp_rate(kind, n, p)
            return bd.ik_bound(count, gamma, bd.t_to_eps(count, gamma, t))

        cases = []
        for t in (8.0, 10.0, 12.0):
            cases.append((sim.GnpIsolated(30, 0.1), t,
                          gnp_bound("isolated", 30, 0.1, t)))
        for t in (41.0, 45.0, 50.0):
            cases.append((sim.GnpTriangles(8, 0.5), t,
                          gnp_bound("triangles", 8, 0.5, t)))
        for t in (2, 3, 4):
            cases.append((sim.GnmIsolated(10, 15), float(t),
                          gc.gnm_isolated_bound(10, 15, t)))
        for t in (6, 8, 10):
            cases.append((sim.GnmTriangles(6, 9), float(t),
                          gc.gnm_triangles_bound(6, 9, t)))

        violated = checked = 0
        details = []
        for i, (model, t, tb) in enumerate(cases):
            assert tb.is_valid, f"case {i}: {tb.invalid_reason}"
            res = sim.empirical_tail(model, t, reps=reps, seed=100 + i)
            if tb.bound > 1e-4:
                checked += 1
                if res.ci_high > tb.bound:
                    violated += 1
                    details.append(
                        f"{type(model).__name__} t={t}: "
                        f"ci_high={res.ci_high:.3g} > bound={tb.bound:.3g}"
                    )
        elapsed = time.perf_counter() - start
        ok = violated == 0 and checked >= 1 and elapsed < 300.0
        report(
            8,
            ok,
            f"{len(cases)} model/threshold cases x {reps} reps, "
            f"{checked} with bound>1e-4, {violated} violated"
            + ("; " + "; ".join(details) if details else "")
            + f"; {elapsed:.1f}s (< 300s)",
        )

    def test_09_determinism(self):
        model = sim.GnmTriangles(7, 10)
        base = repr(sim.empirical_tail(model, 4, reps=20000, seed=7, threads=1))
        sim_ok = all(
            repr(sim.empirical_tail(model, 4, reps=20000, seed=7, threads=th))
            == base
            for th in (2, 4)
        )
        a = run_suite("soundness", n_max=6, trials=30, seed=3)
        b = run_suite("soundness", n_max=6, trials=30, seed=3)
        verify_ok = a == b
        report(
            9,
            sim_ok and verify_ok,
            f"simulate byte-identical across threads(1,2,4): {sim_ok}; "
            f"verify rerun identical: {verify_ok}",
        )

    def test_10_kl_quadratic_floor(self):
        grid = np.linspace(0.005, 0.995, 100)
        worst = math.inf
        for q in grid:
            for p in grid:
                worst = min(worst, kl_divergence(q, p) - 2.0 * (q - p) ** 2)
        report(
            10,
            worst >= -1e-12,
            f"min(D(q||p) - 2(q-p)^2) = {worst:.3g} over 10^4-point grid",
        )
