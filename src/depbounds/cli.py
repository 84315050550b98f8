"""Command-line front end: evaluate bounds, run verification suites, run
simulations, and emit comparison tables.

Exit codes: 0 success, 2 validity failures, 3 soundness violation, 64 usage.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from functools import cache, partial
from itertools import product
from typing import Callable, NamedTuple

# bound and compare need only bounds, which runs on the standard library
# alone; their path loads no numpy, dataclasses or fractions, and json and
# csv load only for the format that writes them.  verify, graphcomb and
# simulate (and with them numpy) are imported by the subcommands that use
# them; no command loads scipy
from . import bounds as bd

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VIOLATED = 3
EXIT_USAGE = 64

FORMATS = ("table", "csv", "json-lines")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the usage status code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    """17 significant digits for floats; plain str otherwise."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(records, fmt: str, out=None):
    """Write a list of flat dict records in the requested format."""
    out = out or sys.stdout
    if not records:
        return
    if fmt == "json-lines":
        import json

        for rec in records:
            out.write(json.dumps(rec) + "\n")
        return
    keys = list(records[0])
    rows = [[_fmt(rec.get(k, "")) for k in keys] for rec in records]
    if fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows(rows)
        return
    widths = [
        max(len(k), *(len(r[i]) for r in rows)) for i, k in enumerate(keys)
    ]
    out.write("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


# ---------------------------------------------------------------------------
# the method table: bound, compare and simulate --bound auto read only this


def finite(text: str) -> float:
    """float() that rejects NaN and +-inf: the cast of every float flag."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def seed(text: str) -> int:
    """int() that rejects negative values: the cast of --seed."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


class Method(NamedTuple):
    """How the CLI reaches one evaluator.

    flags: (flag, cast, required), in record order.  scale: the threshold
    the evaluator takes -- sum (the sum-scale t), eps (t = n*base*(1+eps)),
    dev (a per-summand deviation: t = count*(base+dev)), int (an integer t)
    or beta-n (linial-luria's --beta-n).  base: the flag holding the base
    rate, or the fixed rate.  bind: flag values -> evaluator of the native
    threshold; it raises ValueError when the values break the hypotheses.
    """

    flags: tuple
    scale: str
    base: str | float | None
    bind: Callable
    count: Callable = lambda a: a["n"]
    provenance: str = "closed-form"


def moment_profile(a):
    """linial-luria's moment profile: --s-k, else --gamma, else --p."""
    if "s-k" in a:
        return bd.SymmetricMoments({0: 1.0, a["k"]: a["s-k"]})
    if "gamma" in a:
        return bd.ProductBound(a["gamma"])
    if "p" in a:
        return bd.MeanOnly(a["p"])
    raise UsageError("linial-luria needs a moment profile: --s-k, --gamma or --p")


def _linial_luria(a):
    """linial-luria as a function of beta_n: at --k, else at the k with the
    smallest valid bound."""
    n, profile = a["n"], moment_profile(a)
    if "k" in a:
        return partial(bd.linial_luria_bound, n, k=a["k"], profile=profile)

    def best_k(beta_n):
        # k = 1 comes first, so with no valid bound its Invalid is returned
        tbs = [bd.linial_luria_bound(n, beta_n, k, profile)
               for k in range(1, max(1, min(beta_n, n)) + 1)]
        return min(tbs, key=lambda tb: tb.log_bound if tb.is_valid else math.inf)

    return best_k


def _ustat(a):
    return bd.UStatParams(a["n"], a["d"], a["p"])


_N, _K, _M, _D = (("n", int, True), ("k", int, True), ("m", int, True),
                  ("d", int, True))
_P, _GAMMA = ("p", finite, True), ("gamma", finite, True)

METHODS = {
    "hoeffding": Method((_N, _P), "sum", "p",
                        lambda a: partial(bd.hoeffding_bound, a["n"], a["p"])),
    "ik": Method(
        (_N, _GAMMA, ("c", finite, False)), "eps", "gamma",
        lambda a: partial(bd.ik_bound, a["n"], a["gamma"], c=a.get("c", 1.0))),
    "linial-luria": Method(
        (_N, ("beta-n", int, True), _K, ("s-k", finite, False),
         ("gamma", finite, False), ("p", finite, False)),
        "beta-n", None, _linial_luria),
    "expfunct": Method(
        (_N, _GAMMA, ("delta", finite, True)), "sum", "gamma",
        lambda a: partial(bd.expfunct_bound, a["n"], a["gamma"], a["delta"])),
    "bincoupling": Method((_N, _P), "sum", "p",
                          lambda a: partial(bd.bincoupling_bound, a["n"], a["p"])),
    "mcdiarmid": Method((_N, _P), "dev", "p",
                        lambda a: partial(bd.mcdiarmid_bound, a["n"], a["p"])),
    "mcdiarmid-refined": Method(
        (_N, _P), "dev", "p",
        lambda a: partial(bd.mcdiarmid_refined_bound, a["n"], a["p"])),
    "kwise": Method((_N, _K, _P), "eps", "p",
                    lambda a: partial(bd.kwise_bound, a["n"], a["k"], a["p"])),
    "kwise-bernoulli": Method(
        (_N, _K, _P), "eps", "p",
        lambda a: partial(bd.kwise_bernoulli_bound, a["n"], a["k"], a["p"])),
    "sss": Method((_N, _K, _P), "eps", "p",
                  lambda a: partial(bd.sss_bound, a["n"], a["p"], k=a["k"])),
    "depgraph": Method(
        (_N, ("alpha", int, True)), "sum", 0.5,
        lambda a: partial(bd.depgraph_bound,
                          bd.DependencyGraphParams(a["n"], a["alpha"]))),
    # bind checks d | n first, so C(n, d) >= 1
    "ustat": Method((_N, _D, _P), "dev", "p",
                    lambda a: partial(bd.ustat_bound, _ustat(a)),
                    count=lambda a: math.comb(a["n"], a["d"])),
    "ustat-refined": Method((_N, _D, _P), "dev", "p",
                            lambda a: partial(bd.ustat_refined_bound, _ustat(a)),
                            count=lambda a: math.comb(a["n"], a["d"])),
    "gnm-isolated": Method(
        (_N, _M), "int", None,
        lambda a: partial(bd.gnm_isolated_bound, a["n"], a["m"]),
        provenance="grid-minimized"),
    "gnm-triangles": Method(
        (_N, _M), "int", None,
        lambda a: partial(bd.gnm_triangles_bound, a["n"], a["m"]),
        provenance="grid-minimized"),
}

# every method flag with its cast, in first-use order
_FLAG_CASTS = {
    name: cast for spec in METHODS.values() for name, cast, _r in spec.flags
}


def _base(spec, a):
    return a[spec.base] if isinstance(spec.base, str) else spec.base


def sum_to_native(spec, a, t):
    """The method's native threshold for the sum-scale threshold t."""
    if spec.scale == "eps":
        return bd.t_to_eps(a["n"], _base(spec, a), t)
    if spec.scale == "dev":
        return t / spec.count(a) - _base(spec, a)
    if spec.scale in ("int", "beta-n"):
        count = int(round(t))
        if spec.scale == "beta-n" and abs(t - count) > 1e-9:
            return -1  # a fractional t is no beta_n; -1 is rejected
        return count
    return t


def bound_threshold(spec, a, th, flag):
    """(native threshold, (t, eps)) for bound's --t or --eps value th."""
    if spec.scale == "beta-n":
        return a["beta-n"], (float(a["beta-n"]), "")
    if spec.scale == "int":
        return th, (th, "")
    n, base = a["n"], _base(spec, a)
    if spec.scale == "dev":
        t = th if flag == "t" else base * th
        return t, (t, t / base)
    if spec.scale == "eps":
        eps = th if flag == "eps" else bd.t_to_eps(n, base, th)
        return eps, (bd.eps_to_t(n, base, eps), eps)
    t = th if flag == "t" else bd.eps_to_t(n, base, th)
    return t, (t, bd.t_to_eps(n, base, t))


def evaluate(name, a, th, convert):
    """Method ``name`` at flag values ``a`` and threshold ``th``, which
    ``convert(spec, a, th)`` maps to (native threshold, scales).

    Returns (TailBound, scales), or (Invalid, None) when the input cannot
    reach the evaluator: n is not a positive integer, the flag values break
    the method's hypotheses, or a zero base rate leaves the scale undefined.
    """
    spec = METHODS[name]
    bad = bd.check_n(name, a["n"], th)
    if bad:
        return bad, None
    try:
        evaluator = spec.bind(a)
    except ValueError as exc:
        return bd._invalid(name, str(exc)), None
    try:
        native, scales = convert(spec, a, th)
    except ZeroDivisionError:
        return bd._invalid(name, f"{spec.base} outside (0,1)"), None
    return evaluator(native), scales


def at_sum(name, a, t):
    """Method ``name`` at the sum-scale threshold t."""
    tb, _ = evaluate(name, a, t, lambda *args: (sum_to_native(*args), None))
    return tb


def _sweep(flag: str, text: str, cast):
    try:
        return [cast(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"--{flag}: {exc}")


def _given(args):
    """The method flags given on the command line, as text."""
    given = {name: getattr(args, name.replace("-", "_")) for name in _FLAG_CASTS}
    return {name: text for name, text in given.items() if text is not None}


def _method(name):
    if name not in METHODS:
        raise UsageError(
            f"unknown method {name!r}; available: {', '.join(sorted(METHODS))}"
        )
    return METHODS[name]


# ---------------------------------------------------------------------------
# bound subcommand


def cmd_bound(args) -> int:
    spec = _method(args.method)
    given = _given(args)
    allowed = {name for name, _c, _r in spec.flags}
    for name in given:
        if name not in allowed:
            raise UsageError(f"--{name} does not apply to {args.method}")
    sweeps = {}
    for name, cast, required in spec.flags:
        if name in given:
            sweeps[name] = _sweep(name, given[name], cast)
        elif required:
            raise UsageError(f"{args.method} requires --{name}")

    if spec.scale == "beta-n":
        if args.t is not None or args.eps is not None:
            raise UsageError(
                f"{args.method} takes its threshold from --beta-n, not --t/--eps"
            )
        th_flag, thresholds = None, [None]
    else:
        if (args.t is None) == (args.eps is None):
            raise UsageError(f"{args.method} needs exactly one of --t or --eps")
        if args.t is not None:
            th_flag = "t"
            thresholds = _sweep("t", args.t, int if spec.scale == "int" else finite)
        else:
            if spec.scale == "int":
                raise UsageError(f"{args.method} takes --t (an integer), not --eps")
            th_flag = "eps"
            thresholds = _sweep("eps", args.eps, finite)

    records = []
    any_invalid = False
    for combo in product(*sweeps.values()):
        a = dict(zip(sweeps, combo))
        for th in thresholds:
            start = time.perf_counter()
            tb, scales = evaluate(
                args.method, a, th, partial(bound_threshold, flag=th_flag)
            )
            runtime_ms = (time.perf_counter() - start) * 1e3
            rec = {"method": args.method}
            rec.update(a)
            rec["t"], rec["eps"] = scales or (
                th if th_flag == "t" else "", th if th_flag == "eps" else ""
            )
            rec["log_bound"] = tb.log_bound if tb.is_valid else ""
            rec["bound"] = tb.bound if tb.is_valid else ""
            rec["validity"] = (
                "Valid" if tb.is_valid else f"Invalid: {tb.invalid_reason}"
            )
            rec["clamped"] = (tb.params.get("clamped", False)
                              if tb.is_valid else "")
            rec["provenance"] = spec.provenance
            rec["runtime_ms"] = runtime_ms
            records.append(rec)
            any_invalid = any_invalid or not tb.is_valid
    _emit(records, args.format)
    return EXIT_INVALID if any_invalid else EXIT_OK


# ---------------------------------------------------------------------------
# verify subcommand

class Suite(NamedTuple):
    """How verify reaches one suite.

    run(verify): the suite function, from the verify module passed in, so
    that the table loads no numpy.  n_max: the --n-max range, or None for a
    suite that draws nothing and takes neither --n-max nor --trials.
    trials: the keyword --trials sets.  fail: the exit code on a failure.
    """

    run: Callable
    n_max: tuple | None = None
    trials: str = "trials"
    fail: int = EXIT_INVALID


# the verify suites, in the order of verify's choices
VERIFY_SUITES = {
    # vectors of 2..n-max trials; the Poisson-binomial DP is quadratic in n
    "convex-order": Suite(lambda v: v.suite_convex_order, (2, 10_000)),
    "identities": Suite(lambda v: v.suite_identities),
    # all 2^C(n,2) graphs on n-max vertices, and --trials random graphs
    "lemmas": Suite(lambda v: v.suite_lemmas, (3, 7), "random_graphs"),
    # Bernoulli laws of 3..n-max variables, full support only up to 12
    "sandwich": Suite(lambda v: v.suite_sandwich, (3, 12), fail=EXIT_VIOLATED),
    "soundness": Suite(lambda v: v.suite_soundness, (3, 12), fail=EXIT_VIOLATED),
}


def cmd_verify(args) -> int:
    spec = VERIFY_SUITES[args.suite]
    for flag, value in (("n-max", args.n_max), ("trials", args.trials)):
        if value is not None and spec.n_max is None:
            raise UsageError(f"--{flag} does not apply to verify {args.suite}")
    kwargs = {}
    if args.n_max is not None:
        kwargs["n_max"] = _in_range("n-max", args.n_max, *spec.n_max)
    if args.trials is not None:
        kwargs[spec.trials] = _in_range("trials", args.trials, 1)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    # after the flag checks, so that a usage error loads no suite or numpy
    from . import verify

    results = spec.run(verify)(**kwargs)
    if args.format == "table":
        for name, passed, detail in results:
            sys.stdout.write(
                f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n"
            )
    else:
        _emit(
            [
                {"name": name, "passed": bool(passed), "detail": detail}
                for name, passed, detail in results
            ],
            args.format,
        )
    if all(passed for _n, passed, _d in results):
        return EXIT_OK
    return spec.fail


# ---------------------------------------------------------------------------
# simulate subcommand


class SimModel(NamedTuple):
    """How simulate reaches one model.

    flags: the model flags it takes, each required unless in optional.
    build(sim, a): the sampler for the flag values a, from the simulate
    module sim (passed in, so that the table loads no numpy); it raises
    UsageError for values no sampler takes.  auto(a, t): the --bound auto
    TailBound at the threshold t, or None for a model without one; it
    raises UsageError naming what the bound needs.  size: the flag that
    sizes the model's largest array.
    """

    flags: tuple
    build: Callable
    auto: Callable | None = None
    optional: tuple = ()
    size: str = "n"


def _in_range(name, value, lo, hi=math.inf):
    if not lo <= value <= hi:
        want = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise UsageError(f"--{name} must be {want}, got {value}")
    return value


# every model flag: (cast, lo, hi), the range checked before any model is
# built; the builders narrow --m and --d further and check the rest
_SIM_FLAGS = {
    "n": (int, 1, math.inf),
    "m": (int, 0, math.inf),
    "d": (int, 1, math.inf),
    "p": (finite, 0.0, 1.0),
    "c": (finite, 0.0, 1.0),
    "theta": (finite, None, None),
    "p-vector": (str, None, None),
    "kernel": (str, None, None),
    "graph": (str, None, None),
}


def _fit_chunk(model, name):
    """Refuse a model whose batch of one chunk needs an array over the
    per-chunk limit, before anything is drawn."""
    from . import simulate as sim

    need = model.batch_bytes(sim.CHUNK_SIZE)
    if need > sim.CHUNK_BYTES_MAX:
        # a byte count over C(n, d) tuples can be beyond the float range;
        # the size is rounded up to 3 digits, so it never reads as the limit
        if need.bit_length() < 1000:
            gib = need / 2**30
            scale = 10.0 ** (2 - math.floor(math.log10(gib)))
            array = f"a {math.ceil(gib * scale) / scale:.3g} GiB array"
        else:
            array = f"an array of over 2^{need.bit_length() - 31} GiB"
        raise UsageError(
            f"--{SIM_MODELS[name].size} is too large: one "
            f"{sim.CHUNK_SIZE}-replication chunk of {name} needs "
            f"{array}, over the {sim.CHUNK_BYTES_MAX / 2**30:g} GiB limit"
        )
    return model


def _edges(a):
    """--m, which a graph on --n vertices must hold."""
    return _in_range("m", a["m"], 0, math.comb(a["n"], 2))


def _orientation_parity(sim, a):
    from .graphcomb import Graph

    try:
        graph = Graph.load(a["graph"])
    except (OSError, ValueError) as exc:
        raise UsageError(f"--graph: {exc}") from None
    return sim.OrientationParity(graph)


def _mds(sim, a):
    n = a["n"]
    if ("p" in a) == ("p-vector" in a):
        raise UsageError("mds takes exactly one of --p or --p-vector")
    if "p" in a:
        # the size depends on n alone: check it before the vector exists
        _fit_chunk(sim.MartingaleDiff(n, ()), "mds")
        p_vec = (a["p"],) * n
    else:
        p_vec = tuple(_sweep("p-vector", a["p-vector"], finite))
        if len(p_vec) != n:
            raise UsageError("--p-vector length must equal --n")
        for p in p_vec:
            _in_range("p-vector", p, 0.0, 1.0)
    kernel = a.get("kernel", "polya-style")
    if kernel not in sim.MDS_KERNELS:
        raise UsageError(
            f"--kernel for mds must be one of {sorted(sim.MDS_KERNELS)}, "
            f"got {kernel!r}"
        )
    return sim.MartingaleDiff(n, p_vec, kernel)


def _ustat_model(sim, a):
    n, kernel = a["n"], a.get("kernel", "all-below")
    d = _in_range("d", a["d"], 1, n)
    if kernel not in ("all-below", "threshold-sum"):
        raise UsageError(f"unknown U-statistic kernel {kernel!r}")
    # each kernel takes one parameter flag and refuses the other
    flag, other = ("c", "theta") if kernel == "all-below" else ("theta", "c")
    if other in a:
        raise UsageError(f"--{other} does not apply to the {kernel} kernel")
    if flag not in a:
        raise UsageError(f"ustat with the {kernel} kernel requires --{flag}")
    if kernel == "all-below":
        # the sampler indexes a float table of C(b, d), b <= n; the size
        # check first keeps n small enough for math.comb
        _fit_chunk(sim.UStat(n, d), "ustat")
        try:
            float(math.comb(n, d))
        except OverflowError:
            raise UsageError(
                f"--d is too large: C({n}, {d}) is beyond the float range"
            ) from None
    return sim.UStat(n, d, kernel, ((flag, a[flag]),))


def _gnp_auto(kind, flag, a, t):
    """ik at the count and rate of the G(n,p) count ``kind`` on --flag
    vertices."""
    from .graphcomb import gnp_rate

    least = 4 if kind == "cliques4" else 3
    if a[flag] < least or not 0.0 < a["p"] < 1.0:
        raise UsageError(f"--{flag} >= {least} and --p inside (0, 1)")
    count, gamma = gnp_rate(kind, a[flag], a["p"])
    return at_sum("ik", {"n": count, "gamma": gamma}, t)


def _mds_auto(a, t):
    if "p" not in a:
        raise UsageError("a constant --p")
    # the simulated sum is centred, so t is already a deviation
    return bd.mcdiarmid_bound(a["n"], a["p"], t / a["n"])


def _ustat_auto(a, t):
    if a.get("kernel", "all-below") != "all-below":
        raise UsageError("the all-below kernel (closed-form mean)")
    return at_sum("ustat", {"n": a["n"], "d": a["d"], "p": a["c"] ** a["d"]}, t)


# the simulate models, in the order README lists them
SIM_MODELS = {
    "gnp-isolated": SimModel(
        ("n", "p"), lambda sim, a: sim.GnpIsolated(a["n"], a["p"]),
        partial(_gnp_auto, "isolated", "n")),
    "gnp-triangles": SimModel(
        ("n", "p"), lambda sim, a: sim.GnpTriangles(a["n"], a["p"]),
        partial(_gnp_auto, "triangles", "n")),
    "gnp-4cliques": SimModel(
        ("n", "p"), lambda sim, a: sim.Gnp4Cliques(a["n"], a["p"]),
        partial(_gnp_auto, "cliques4", "n")),
    "gnm-isolated": SimModel(
        ("n", "m"), lambda sim, a: sim.GnmIsolated(a["n"], _edges(a)),
        partial(at_sum, "gnm-isolated")),
    "gnm-triangles": SimModel(
        ("n", "m"), lambda sim, a: sim.GnmTriangles(a["n"], _edges(a)),
        partial(at_sum, "gnm-triangles")),
    "orientation-parity": SimModel(("graph",), _orientation_parity,
                                   size="graph"),
    "degree-parity": SimModel(("n",), lambda sim, a: sim.DegreeParity(a["n"])),
    "mds": SimModel(("n", "p", "p-vector", "kernel"), _mds, _mds_auto,
                    optional=("p", "p-vector", "kernel")),
    "ustat": SimModel(("n", "d", "kernel", "c", "theta"), _ustat_model,
                      _ustat_auto, optional=("kernel", "c", "theta")),
    # the triangle count of G(m, p) is a U-statistic of its edge bits
    "ustat-triangles": SimModel(
        ("m", "p"),
        lambda sim, a: sim.GnpTriangles(_in_range("m", a["m"], 1), a["p"]),
        partial(_gnp_auto, "triangles", "m"), size="m"),
}


def cmd_simulate(args) -> int:
    if args.reps is None or args.reps < 1:
        raise UsageError("--reps must be a positive integer")
    if args.t is None:
        raise UsageError("--t is required")
    # each thread holds a chunk's arrays; threads beyond the CPUs add
    # memory and no speed
    _in_range("threads", args.threads, 1, os.cpu_count() or 1)
    spec = SIM_MODELS[args.model]
    a = {}
    for name, (_cast, lo, hi) in _SIM_FLAGS.items():
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            if name in spec.flags and name not in spec.optional:
                raise UsageError(f"{args.model} requires --{name}")
        elif name not in spec.flags:
            raise UsageError(f"--{name} does not apply to {args.model}")
        else:
            a[name] = value if lo is None else _in_range(name, value, lo, hi)
    if args.bound is not None:
        if args.bound != "auto":
            raise UsageError("--bound only supports 'auto'")
        if spec.auto is None:
            raise UsageError(f"--bound auto is not defined for {args.model}")
    from . import simulate as sim

    model = _fit_chunk(spec.build(sim, a), args.model)
    try:
        tb = spec.auto(a, args.t) if args.bound else None
    except UsageError as exc:
        raise UsageError(f"--bound auto for {args.model} needs {exc}") from None
    res = sim.empirical_tail(
        model, args.t, args.reps, args.seed or 0, threads=args.threads
    )
    rec = {
        "model": args.model,
        "replications": res.replications,
        "threshold": res.threshold,
        "empirical_tail": res.empirical_tail,
        "ci_low": res.ci_low,
        "ci_high": res.ci_high,
        "sum_mean": res.sum_mean,
        "seed": res.seed,
    }
    status = EXIT_OK
    if tb is not None:
        rec["bound_method"] = tb.method
        rec["log_bound"] = tb.log_bound if tb.is_valid else ""
        rec["bound"] = tb.bound if tb.is_valid else ""
        if not tb.is_valid:
            rec["verdict"] = f"Invalid: {tb.invalid_reason}"
            status = EXIT_INVALID
        elif res.ci_high <= tb.bound:
            rec["verdict"] = "DOMINATED"
        elif res.ci_low > tb.bound:
            rec["verdict"] = "VIOLATED"
            status = EXIT_VIOLATED
        else:
            # the interval straddles the bound: too few replications to
            # tell, which is no evidence against it
            rec["verdict"] = "INCONCLUSIVE"
    if args.format == "table":
        for k, v in rec.items():
            sys.stdout.write(f"{k}={_fmt(v)}\n")
    else:
        _emit([rec], args.format)
    return status


# ---------------------------------------------------------------------------
# compare subcommand

def cmd_compare(args) -> int:
    methods = [m for m in (args.methods or "").split(",") if m]
    if len(methods) < 2:
        raise UsageError("--methods needs at least two comma-separated methods")
    for i, m in enumerate(methods):
        _method(m)
        if m in methods[:i]:
            raise UsageError(f"--methods lists {m} more than once")
    if args.t is None:
        raise UsageError("--t is required (comma-separated sweep)")
    ts = _sweep("t", args.t, finite)
    a = {}
    for name, text in _given(args).items():
        values = _sweep(name, text, _FLAG_CASTS[name])
        if len(values) != 1:
            raise UsageError(f"--{name} takes a single value in compare")
        a[name] = values[0]
    records = []
    for t in sorted(ts):
        rec = {"t": t}
        best_method, best_log = None, math.inf
        for m in methods:
            try:
                tb = at_sum(m, a, t)
            except KeyError as exc:
                raise UsageError(f"{m} requires --{exc.args[0]}")
            if tb.is_valid:
                rec[m] = tb.bound
                rec[f"{m}_log"] = tb.log_bound
                if tb.log_bound < best_log:
                    best_method, best_log = m, tb.log_bound
            else:
                rec[m] = f"Invalid: {tb.invalid_reason}"
                rec[f"{m}_log"] = ""
        rec["minimum"] = best_method or ""
        records.append(rec)
    _emit(records, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


# built on the first main call, not at import, and reused by later calls in
# the same process; parse_args leaves the parser as it found it
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="depbounds")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    # verify and simulate draw random inputs; bound and compare draw none
    # and refuse --seed
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=seed, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", parents=[common],
                             help="evaluate a tail bound over a parameter grid")
    p_bound.add_argument("method")
    for name in _FLAG_CASTS:
        p_bound.add_argument(f"--{name}", type=str, default=None)
    p_bound.add_argument("--t", type=str, default=None)
    p_bound.add_argument("--eps", type=str, default=None)
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", parents=[common, seeded],
                              help="run a verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", parents=[common, seeded],
                           help="estimate an empirical tail by Monte Carlo")
    p_sim.add_argument("model", choices=SIM_MODELS)
    for name, (cast, _lo, _hi) in _SIM_FLAGS.items():
        p_sim.add_argument(f"--{name}", type=cast, default=None)
    p_sim.add_argument("--t", type=finite, default=None)
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--bound", type=str, default=None)
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="tabulate several bounds over a t-sweep")
    p_cmp.add_argument(
        "--methods", type=str, default=None,
        help="two or more comma-separated bound methods; ustat-refined "
             "refines exp(-2kt^2), not exp(-k D(p+t||p)), so it is often "
             "looser than ustat")
    for name in _FLAG_CASTS:
        p_cmp.add_argument(f"--{name}", type=str, default=None)
    p_cmp.add_argument("--t", type=str, default=None)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"depbounds: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
