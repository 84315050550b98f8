"""Operation lists and correctness checks for the benchmark workloads.

A workload is a list of operations made from the seed and a pass number:
each pass over the list runs new inputs, so a run covers more of the input
space than one pass would.  One operation is one call the benchmark times.  Its ``check`` takes the exit code and the
standard output and returns None when both are right, or a message naming
what is wrong; a message counts the operation as failed.

The expected values of ``bound`` and ``compare`` come from direct calls of
the evaluators in ``depbounds.bounds`` / ``depbounds.graphcomb``, with the
threshold conversions written out here as the README states them, so the
CLI's own method table is checked rather than reused.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

WORKLOADS = ("oracle-sweep", "graph-mc", "cli-oneshot")

EXIT_OK, EXIT_INVALID, EXIT_USAGE = 0, 2, 64

# Inputs of the oracle-sweep verify calls.  n <= 7 keeps the spread of the
# work between seeds small (the cost of one random law grows as 2^n);
# several short calls of similar length give the medians more samples.
SOUNDNESS_CALLS, SOUNDNESS_TRIALS = 6, 100
SANDWICH_CALLS, SANDWICH_TRIALS = 3, 200
ORACLE_N_MAX = 7

# graph-mc: (model, parameters, threshold, replications).  Thresholds sit
# where the matching bound is far above the 0.999 upper confidence limit,
# so the verdict is DOMINATED for every seed.  Replications span at least
# two chunks (of 4096) so the two-thread pass has chunks to share, and are
# sized so that every 1-thread call takes about the same time.
SIM_CASES = (
    ("gnp-isolated", ("--n", "30", "--p", "0.1"), "10", 3 * 4096),
    ("gnp-triangles", ("--n", "30", "--p", "0.05"), "2990", 3 * 4096),
    ("gnp-4cliques", ("--n", "20", "--p", "0.3"), "4645", 6144),
    ("gnm-isolated", ("--n", "30", "--m", "40"), "4", 3 * 4096),
    ("gnm-triangles", ("--n", "20", "--m", "40"), "15", 6 * 4096),
    ("mds", ("--n", "20", "--p", "0.3"), "4", 6144),
    ("ustat", ("--n", "40", "--d", "2", "--c", "0.5"), "260", 24 * 4096),
)
# One lemma-suite call per pass: a run makes about five, fewer than the ten
# samples op_tail_s needs beyond it, so that percentile stays inside the
# cluster of simulate calls instead of on the edge between the two.
LEMMA_RANDOM_GRAPHS = 500


@dataclass
class Op:
    """One timed call.

    kind: "cli" calls ``depbounds.cli.main(argv)`` in-process, "fresh"
    runs ``python -m depbounds.cli argv`` in a new interpreter, and
    "suite" calls ``depbounds.verify.run_suite(argv[0], **kwargs)``.
    """

    name: str
    group: str
    kind: str
    argv: tuple
    check: Callable[[int, str], Optional[str]]
    kwargs: dict = field(default_factory=dict)
    # units of work the call did, read from its output: verify checks
    # (oracle-sweep), replications (graph-mc) or one call (cli-oneshot)
    work: Callable[[str], int] = lambda _out: 0
    threads: int = 1


# ---------------------------------------------------------------------------
# output parsing and checks


def _records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _same(got, want):
    """Equality of printed values: floats to 17 significant digits."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        return f"{float(got):.17g}" == f"{want:.17g}"
    return got == want


_CHECKS = re.compile(r"^(\d+) (bound evaluations|comparisons|graphs|random graphs)\b")


def verify_checks(out):
    """Checks a verify run made, read from the record details.

    Soundness bound evaluations, sandwich comparisons, and for lemmas the
    exhaustive and random graphs plus the two tight witnesses.
    """
    total = 0
    for rec in _records(out):
        m = _CHECKS.match(rec.get("detail", ""))
        if m:
            total += int(m.group(1))
        elif rec.get("name", "").startswith("lemmas/tight-"):
            total += 1
    return total


def check_verify(rc, out):
    if rc != EXIT_OK:
        return f"verify exited {rc}, expected 0"
    try:
        recs = _records(out)
    except json.JSONDecodeError as exc:
        return f"unparsable verify output: {exc}"
    if not recs:
        return "verify printed no records"
    failed = [r.get("name") for r in recs if r.get("passed") is not True]
    if failed:
        return f"verify records not PASS: {failed}"
    return None


def suite_output(records):
    """``verify --format json-lines`` text for run_suite's records."""
    return "".join(
        json.dumps({"name": n, "passed": bool(p), "detail": d}) + "\n"
        for n, p, d in records
    )


def suite_exit(records):
    return EXIT_OK if all(p for _n, p, _d in records) else EXIT_INVALID


def check_simulate(first_outputs, key, expect=None):
    """DOMINATED with exit 0, and byte-identical to the first output of the
    same model and seed (so the 2-thread run must equal the 1-thread run).
    ``expect`` optionally maps record fields to exact values."""

    def check(rc, out):
        if rc != EXIT_OK:
            return f"simulate exited {rc}, expected 0"
        try:
            (rec,) = _records(out)
        except (ValueError, json.JSONDecodeError) as exc:
            return f"simulate output is not one record: {exc}"
        if rec.get("verdict") != "DOMINATED":
            return f"verdict {rec.get('verdict')!r}, expected 'DOMINATED'"
        for k, want in (expect or {}).items():
            if not _same(rec.get(k), want):
                return f"{k}={rec.get(k)!r}, direct call gives {want!r}"
        first = first_outputs.setdefault(key, out)
        if out != first:
            return "output differs from the first run with the same inputs"
        return None

    return check


def check_exit(code):
    """Exit with ``code`` and print nothing to stdout (usage errors)."""

    def check(rc, out):
        if rc != code:
            return f"exited {rc}, expected {code}"
        if out.strip():
            return "usage error printed records"
        return None

    return check


def _tb_fields(tb):
    if tb.is_valid:
        return tb.log_bound, tb.bound, "Valid"
    return "", "", "Invalid"


def check_bound(expected):
    """``expected`` maps a parameter key to the list of TailBounds expected
    for it, one per threshold in the order given on the command line."""
    want_rc = EXIT_OK if all(
        tb.is_valid for tbs in expected.values() for tb in tbs
    ) else EXIT_INVALID
    names = sorted({k for key in expected for k, _v in key})

    def check(rc, out):
        if rc != want_rc:
            return f"bound exited {rc}, expected {want_rc}"
        try:
            recs = _records(out)
        except json.JSONDecodeError as exc:
            return f"unparsable bound output: {exc}"
        seen = {}
        for rec in recs:
            key = tuple((k, rec.get(k)) for k in names)
            seen.setdefault(key, []).append(rec)
        if set(seen) != set(expected):
            return f"parameter grid {sorted(seen)} != {sorted(expected)}"
        for key, tbs in expected.items():
            if len(seen[key]) != len(tbs):
                return f"{len(seen[key])} thresholds for {key}, expected {len(tbs)}"
            for rec, tb in zip(seen[key], tbs):
                log_bound, bound, validity = _tb_fields(tb)
                if not str(rec.get("validity", "")).startswith(validity):
                    return f"{key}: validity {rec.get('validity')!r}, expected {validity}"
                if not (_same(rec.get("log_bound"), log_bound)
                        and _same(rec.get("bound"), bound)):
                    return (f"{key}: log_bound={rec.get('log_bound')!r}, "
                            f"direct call gives {log_bound!r}")
        return None

    return check


def check_compare(methods, expected):
    """``expected`` maps each threshold to {method: TailBound}."""

    def check(rc, out):
        if rc != EXIT_OK:
            return f"compare exited {rc}, expected 0"
        try:
            recs = _records(out)
        except json.JSONDecodeError as exc:
            return f"unparsable compare output: {exc}"
        if [r.get("t") for r in recs] != sorted(expected):
            return f"rows {[r.get('t') for r in recs]} != {sorted(expected)}"
        for rec in recs:
            row = expected[rec["t"]]
            best, best_log = "", math.inf
            for m in methods:
                tb = row[m]
                if tb.is_valid:
                    if not (_same(rec.get(m), tb.bound)
                            and _same(rec.get(f"{m}_log"), tb.log_bound)):
                        return (f"t={rec['t']} {m}: {rec.get(f'{m}_log')!r}, "
                                f"direct call gives {tb.log_bound!r}")
                    if tb.log_bound < best_log:
                        best, best_log = m, tb.log_bound
                elif not str(rec.get(m, "")).startswith("Invalid"):
                    return f"t={rec['t']} {m}: {rec.get(m)!r}, expected Invalid"
            if rec.get("minimum") != best:
                return f"t={rec['t']}: minimum {rec.get('minimum')!r}, expected {best!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads


def _seeds(rng):
    return lambda: str(rng.randrange(2**31))


def oracle_sweep(rng):
    """verify soundness / sandwich / convex-order / identities in-process."""
    new_seed = _seeds(rng)
    ops = []

    def verify(suite, i, *extra):
        argv = ("verify", suite, "--seed", new_seed(), *extra,
                "--format", "json-lines")
        work = verify_checks if suite in ("soundness", "sandwich") else Op.work
        ops.append(Op(f"verify {suite}#{i}", f"verify:{suite}", "cli", argv,
                      check_verify, work=work))

    for i in range(SOUNDNESS_CALLS):
        verify("soundness", i, "--trials", str(SOUNDNESS_TRIALS),
               "--n-max", str(ORACLE_N_MAX))
    for i in range(SANDWICH_CALLS):
        verify("sandwich", i, "--trials", str(SANDWICH_TRIALS),
               "--n-max", str(ORACLE_N_MAX))
    verify("convex-order", 0)
    verify("identities", 0)
    return ops


def graph_mc(rng, threads2):
    """simulate --bound auto on seven models at 1 and ``threads2`` threads,
    then the lemma suite."""
    new_seed = _seeds(rng)
    model_seeds = {model: new_seed() for model, *_ in SIM_CASES}
    first_outputs = {}
    ops = []
    for threads in (1, threads2):
        for model, params, t, reps in SIM_CASES:
            argv = ("simulate", model, *params, "--t", t, "--reps", str(reps),
                    "--seed", model_seeds[model], "--bound", "auto",
                    "--threads", str(threads), "--format", "json-lines")
            ops.append(Op(f"simulate {model} threads={threads}",
                          f"simulate:{model}:{threads}", "cli", argv,
                          check_simulate(first_outputs, model),
                          work=lambda _out, reps=reps: reps, threads=threads))
    ops.append(Op("verify lemmas", "verify:lemmas", "suite", ("lemmas",),
                  check_verify,
                  kwargs={"seed": int(new_seed()),
                          "random_graphs": LEMMA_RANDOM_GRAPHS}))
    return ops


def _bound_cases(rng):
    """(method, {flag: [values]}, threshold flag, thresholds, evaluator).

    The evaluator takes the parameter dict and one threshold and calls the
    library directly.  Ranges keep every grid point inside the method's
    hypotheses.
    """
    from depbounds import bounds as bd
    from depbounds import graphcomb as gc

    def r(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    n = rng.randrange(40, 121)
    small_n = rng.randrange(12, 31)
    even_n = small_n - small_n % 2  # UStatParams needs d | n
    eps = [r(0.2, 0.5), r(0.5, 0.9)]
    p2 = [r(0.1, 0.25), r(0.25, 0.4)]
    k = rng.randrange(1, 4)
    # integer-threshold methods need n*p and n*t integral: n a multiple of
    # 100, p and t with one decimal
    hundreds = 100 * rng.randrange(1, 4)
    tenths = [rng.choice((0.1, 0.2)), 0.3]
    devs = [rng.choice((0.3, 0.4)), 0.5]
    counts = [round(hundreds * 0.5) + rng.randrange(0, 10), round(hundreds * 0.8)]

    def ss(n, base, e):  # sum-scale threshold t = n*base*(1+eps)
        return n * base * (1.0 + e)

    gamma = r(0.15, 0.4)
    beta_n = math.floor(small_n * gamma * 1.5) + 4
    gnm_n = rng.randrange(20, 31)
    return [
        ("hoeffding", {"n": [n], "p": p2}, "eps", eps,
         lambda a, e: bd.hoeffding_bound(a["n"], a["p"], ss(a["n"], a["p"], e))),
        ("ik", {"n": [n], "gamma": p2}, "eps", eps,
         lambda a, e: bd.ik_bound(a["n"], a["gamma"], e, 1.0)),
        ("linial-luria", {"n": [small_n], "beta-n": [beta_n], "k": [2, 3],
                          "gamma": [gamma]}, None, [None],
         lambda a, _e: bd.linial_luria_bound(a["n"], a["beta-n"], a["k"],
                                             bd.ProductBound(a["gamma"]))),
        ("expfunct", {"n": [n], "gamma": [gamma],
                      "delta": [r(1.0 - gamma, 1.0), 1.0]}, "eps", eps,
         lambda a, e: bd.expfunct_bound(a["n"], a["gamma"], a["delta"],
                                        ss(a["n"], a["gamma"], e))),
        ("bincoupling", {"n": [n], "p": p2}, "eps", eps,
         lambda a, e: bd.bincoupling_bound(a["n"], a["p"], ss(a["n"], a["p"], e))),
        ("mcdiarmid", {"n": [n], "p": p2}, "eps", eps,
         lambda a, e: bd.mcdiarmid_bound(a["n"], a["p"], a["p"] * e)),
        ("mcdiarmid-refined", {"n": [hundreds], "p": tenths}, "t", devs,
         lambda a, t: bd.mcdiarmid_refined_bound(a["n"], a["p"], t)),
        ("kwise", {"n": [n], "k": [n - k, n], "p": p2}, "eps", eps,
         lambda a, e: bd.kwise_bound(a["n"], a["k"], a["p"], e)),
        ("kwise-bernoulli", {"n": [hundreds], "k": [k], "p": tenths}, "t",
         counts, lambda a, t: bd.kwise_bernoulli_bound(
             a["n"], a["k"], a["p"], t / (a["n"] * a["p"]) - 1.0)),
        ("sss", {"n": [n], "k": [n], "p": p2}, "eps", eps,
         lambda a, e: bd.sss_bound(a["n"], a["p"], e, a["k"])),
        ("depgraph", {"n": [n], "alpha": [n // 2, n]}, "eps", eps,
         lambda a, e: bd.depgraph_bound(
             bd.DependencyGraphParams(a["n"], a["alpha"]), ss(a["n"], 0.5, e))),
        ("ustat", {"n": [even_n], "d": [2], "p": p2}, "eps", eps,
         lambda a, e: bd.ustat_bound(bd.UStatParams(a["n"], a["d"], a["p"]),
                                     a["p"] * e)),
        ("ustat-refined", {"n": [2 * hundreds // 10], "d": [2], "p": tenths},
         "t", devs, lambda a, t: bd.ustat_refined_bound(
             bd.UStatParams(a["n"], a["d"], a["p"]), t)),
        ("gnm-isolated", {"n": [gnm_n], "m": [gnm_n, 2 * gnm_n]}, "t",
         [2, 4], lambda a, t: gc.gnm_isolated_bound(a["n"], a["m"], t)),
        ("gnm-triangles", {"n": [6], "m": [9]}, "t",
         [rng.randrange(6, 12), rng.randrange(12, 16)],
         lambda a, t: gc.gnm_triangles_bound(a["n"], a["m"], t)),
    ]


def _fmt_arg(values):
    return ",".join(str(v) for v in values)


def _compare_cases(rng):
    """(methods, {flag: value}, thresholds, {method: evaluator(a, t)})."""
    from depbounds import bounds as bd

    n = rng.randrange(40, 121)
    p = round(rng.uniform(0.15, 0.35), 4)
    gamma = round(rng.uniform(0.15, 0.35), 4)
    delta = round(rng.uniform(1.0 - gamma, 1.0), 4)
    alpha = rng.randrange(n // 2, n + 1)
    independent = {
        "hoeffding": lambda a, t: bd.hoeffding_bound(a["n"], a["p"], t),
        "mcdiarmid": lambda a, t: bd.mcdiarmid_bound(a["n"], a["p"], t / a["n"] - a["p"]),
        "mcdiarmid-refined": lambda a, t: bd.mcdiarmid_refined_bound(
            a["n"], a["p"], t / a["n"] - a["p"]),
        "bincoupling": lambda a, t: bd.bincoupling_bound(a["n"], a["p"], t),
    }
    dependent = {
        "ik": lambda a, t: bd.ik_bound(a["n"], a["gamma"], t / (a["n"] * a["gamma"]) - 1.0),
        "expfunct": lambda a, t: bd.expfunct_bound(a["n"], a["gamma"], a["delta"], t),
        "depgraph": lambda a, t: bd.depgraph_bound(
            bd.DependencyGraphParams(a["n"], a["alpha"]), t),
    }
    # whole-number thresholds keep n(p+t) integral for mcdiarmid-refined
    lo, hi = math.ceil(n * p * 1.3), math.floor(n * p * 2.0)
    ts_ind = sorted(float(t) for t in rng.sample(range(lo, hi), 3))
    ts_dep = sorted(round(n * rng.uniform(0.55, 0.9), 3) for _ in range(3))
    return [
        (list(independent), {"n": n, "p": p}, ts_ind, independent),
        (list(dependent), {"n": n, "gamma": gamma, "delta": delta, "alpha": alpha},
         ts_dep, dependent),
    ]


def cli_oneshot(rng):
    """Short commands, each in a fresh ``python -m depbounds.cli`` process."""
    from depbounds import simulate as sim

    ops = []
    for method, flags, th_flag, ths, call in _bound_cases(rng):
        argv = ["bound", method]
        for name, values in flags.items():
            argv += [f"--{name}", _fmt_arg(values)]
        if th_flag:
            argv += [f"--{th_flag}", _fmt_arg(ths)]
        argv += ["--format", "json-lines"]
        expected = {}
        for combo in product(*flags.values()):
            a = dict(zip(flags, combo))
            key = tuple(sorted(a.items()))
            expected[key] = [call(a, th) for th in ths]
        ops.append(Op(f"bound {method}", "cli:bound", "fresh", tuple(argv),
                      check_bound(expected)))

    for i, (methods, a, ts, evals) in enumerate(_compare_cases(rng)):
        argv = ["compare", "--methods", ",".join(methods)]
        for name, value in a.items():
            argv += [f"--{name}", str(value)]
        argv += ["--t", _fmt_arg(ts), "--format", "json-lines"]
        expected = {t: {m: evals[m](a, t) for m in methods} for t in ts}
        ops.append(Op(f"compare#{i}", "cli:compare", "fresh", tuple(argv),
                      check_compare(methods, expected)))

    sim_seed = rng.randrange(2**31)
    res = sim.empirical_tail(sim.GnpIsolated(20, 0.1), 10.0, 4096, sim_seed)
    expect = {k: getattr(res, k) for k in
              ("replications", "empirical_tail", "ci_low", "ci_high", "sum_mean")}
    ops.append(Op("simulate gnp-isolated", "cli:simulate", "fresh",
                  ("simulate", "gnp-isolated", "--n", "20", "--p", "0.1",
                   "--t", "10", "--reps", "4096", "--seed", str(sim_seed),
                   "--bound", "auto", "--format", "json-lines"),
                  check_simulate({}, "gnp-isolated", expect)))
    ops.append(Op("verify identities", "cli:verify", "fresh",
                  ("verify", "identities", "--seed", str(rng.randrange(2**31)),
                   "--format", "json-lines"), check_verify))

    # documented failure exits
    n = rng.randrange(40, 121)
    p = round(rng.uniform(0.2, 0.4), 4)
    below_mean = round(n * p * 0.5, 3)
    from depbounds import bounds as bd
    ops.append(Op("bound below the mean (exit 2)", "cli:exit2", "fresh",
                  ("bound", "hoeffding", "--n", str(n), "--p", str(p),
                   "--t", str(below_mean), "--format", "json-lines"),
                  check_bound({(("n", n), ("p", p)):
                               [bd.hoeffding_bound(n, p, below_mean)]})))
    ops.append(Op("unknown method (exit 64)", "cli:exit64", "fresh",
                  ("bound", "no-such-method", "--t", "1"), check_exit(EXIT_USAGE)))
    ops.append(Op("missing flag (exit 64)", "cli:exit64", "fresh",
                  ("bound", "hoeffding", "--n", str(n), "--t", str(below_mean)),
                  check_exit(EXIT_USAGE)))
    for op in ops:
        op.work = _one_call
    return ops


def _one_call(_out):
    return 1


def build(name, seed, pass_index=0, threads2=2):
    """The operations of one pass; every input comes from (seed, pass)."""
    rng = random.Random(seed * 1_000_003 + pass_index)
    if name == "oracle-sweep":
        return oracle_sweep(rng)
    if name == "graph-mc":
        return graph_mc(rng, threads2)
    if name == "cli-oneshot":
        return cli_oneshot(rng)
    raise ValueError(f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}")
