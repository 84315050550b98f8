"""Command-line front end: evaluate bounds, run verification suites, run
simulations, and emit comparison tables.

Exit codes: 0 success, 2 validity failures, 3 soundness violation, 64 usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable

from . import bounds as bd
from . import graphcomb as gc
from . import simulate as sim
from .verify import SUITES, run_suite

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
        for rec in records:
            out.write(json.dumps(rec) + "\n")
        return
    keys = list(records[0])
    rows = [[_fmt(rec.get(k, "")) for k in keys] for rec in records]
    if fmt == "csv":
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


@dataclass(frozen=True)
class Method:
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
        tbs = [bd.linial_luria_bound(n, beta_n, k, profile)
               for k in range(1, min(beta_n, n))]
        valid = [tb for tb in tbs if tb.is_valid]
        if not valid:
            return bd.linial_luria_bound(n, beta_n, 1, profile)
        return min(valid, key=lambda tb: tb.log_bound)

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
        lambda a: partial(gc.gnm_isolated_bound, a["n"], a["m"]),
        provenance="grid-minimized"),
    "gnm-triangles": Method(
        (_N, _M), "int", None,
        lambda a: partial(gc.gnm_triangles_bound, a["n"], a["m"]),
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
            rec["provenance"] = spec.provenance
            rec["runtime_ms"] = runtime_ms
            records.append(rec)
            any_invalid = any_invalid or not tb.is_valid
    _emit(records, args.format)
    return EXIT_INVALID if any_invalid else EXIT_OK


# ---------------------------------------------------------------------------
# verify subcommand

_SOUNDNESS_SUITES = {"soundness", "sandwich"}

# the --n-max range of each suite that reads it: Bernoulli laws are drawn
# with 3..n-max variables (full support only up to 12), convex-order
# vectors with 2..n-max trials, and lemmas enumerates all 2^C(n,2) graphs
_VERIFY_N_MAX = {
    "soundness": (3, 12),
    "sandwich": (3, 12),
    "convex-order": (2, math.inf),
    "lemmas": (3, 7),
}


def cmd_verify(args) -> int:
    kwargs = {}
    if args.n_max is not None and args.suite in _VERIFY_N_MAX:
        kwargs["n_max"] = _in_range("n-max", args.n_max, *_VERIFY_N_MAX[args.suite])
    if args.trials is not None:
        # lemmas draws --trials random graphs
        key = "random_graphs" if args.suite == "lemmas" else "trials"
        kwargs[key] = _in_range("trials", args.trials, 1)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    results = run_suite(args.suite, **kwargs)
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
    return EXIT_VIOLATED if args.suite in _SOUNDNESS_SUITES else EXIT_INVALID


# ---------------------------------------------------------------------------
# simulate subcommand

SIM_MODELS = (
    "gnp-isolated", "gnp-triangles", "gnp-4cliques",
    "gnm-isolated", "gnm-triangles",
    "orientation-parity", "degree-parity", "mds",
    "ustat", "ustat-triangles",
)


# the range of each model flag; _build_model narrows --m and --d further
_SIM_RANGES = {
    "n": (1, math.inf),
    "m": (0, math.inf),
    "d": (1, math.inf),
    "p": (0.0, 1.0),
    "c": (0.0, 1.0),
}


def _in_range(name, value, lo, hi=math.inf):
    if not lo <= value <= hi:
        want = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise UsageError(f"--{name} must be {want}, got {value}")
    return value


def _require(args, *names):
    vals = []
    for name in names:
        v = getattr(args, name.replace("-", "_"))
        if v is None:
            raise UsageError(f"{args.model} requires --{name}")
        if name in _SIM_RANGES:
            _in_range(name, v, *_SIM_RANGES[name])
        vals.append(v)
    return vals


def _build_model(args):
    name = args.model
    if name == "gnp-isolated":
        n, p = _require(args, "n", "p")
        return sim.GnpIsolated(n, p)
    if name == "gnp-triangles":
        n, p = _require(args, "n", "p")
        return sim.GnpTriangles(n, p)
    if name == "gnp-4cliques":
        n, p = _require(args, "n", "p")
        return sim.Gnp4Cliques(n, p)
    if name in ("gnm-isolated", "gnm-triangles"):
        n, m = _require(args, "n", "m")
        _in_range("m", m, 0, math.comb(n, 2))
        model = sim.GnmIsolated if name == "gnm-isolated" else sim.GnmTriangles
        return model(n, m)
    if name == "orientation-parity":
        (path,) = _require(args, "graph")
        try:
            graph = gc.Graph.load(path)
        except (OSError, ValueError) as exc:
            raise UsageError(f"--graph: {exc}") from None
        return sim.OrientationParity(graph)
    if name == "degree-parity":
        (n,) = _require(args, "n")
        return sim.DegreeParity(n)
    if name == "mds":
        (n,) = _require(args, "n")
        if args.p_vector is not None:
            p_vec = tuple(_sweep("p-vector", args.p_vector, finite))
            if len(p_vec) != n:
                raise UsageError("--p-vector length must equal --n")
            for p in p_vec:
                _in_range("p-vector", p, 0.0, 1.0)
        elif args.p is not None:
            (p,) = _require(args, "p")
            p_vec = (p,) * n
        else:
            raise UsageError("mds requires --p or --p-vector")
        kernel = args.kernel or "polya-style"
        if kernel not in sim.MDS_KERNELS:
            raise UsageError(
                f"--kernel for mds must be one of {sorted(sim.MDS_KERNELS)}, "
                f"got {kernel!r}"
            )
        return sim.MartingaleDiff(n, p_vec, kernel)
    if name == "ustat":
        n, d = _require(args, "n", "d")
        _in_range("d", d, 1, n)
        kernel = args.kernel or "all-below"
        if kernel == "all-below":
            (c,) = _require(args, "c")
            kernel_args = (("c", c),)
        elif kernel == "threshold-sum":
            (theta,) = _require(args, "theta")
            kernel_args = (("theta", theta),)
        else:
            raise UsageError(f"unknown U-statistic kernel {kernel!r}")
        return sim.UStat(n, d, kernel, "uniform", kernel_args)
    if name == "ustat-triangles":
        m, p = _require(args, "m", "p")
        _in_range("m", m, 1)
        return sim.UStat(m, 3, "triangle-indicator", "gnp", (("p", p),))
    raise UsageError(f"unknown model {name!r}")


def _auto_bound(args, t):
    """The matching analytic bound for a simulation model, or None."""
    name = args.model
    if name in ("gnp-isolated", "gnp-triangles", "gnp-4cliques", "ustat-triangles"):
        kind = {
            "gnp-isolated": "isolated",
            "gnp-triangles": "triangles",
            "gnp-4cliques": "cliques4",
            "ustat-triangles": "triangles",
        }[name]
        flag = "m" if name == "ustat-triangles" else "n"
        n, least = getattr(args, flag), 4 if kind == "cliques4" else 3
        if n < least or not 0.0 < args.p < 1.0:
            raise UsageError(
                f"--bound auto for {name} needs --{flag} >= {least} "
                "and --p inside (0, 1)"
            )
        gamma = gc.gnp_constants(kind, n, args.p)
        return at_sum("ik", {"n": gc.gnp_count(kind, n), "gamma": gamma}, t)
    if name in ("gnm-isolated", "gnm-triangles"):
        return at_sum(name, {"n": args.n, "m": args.m}, t)
    if name == "mds":
        if args.p is None:
            raise UsageError("--bound auto for mds needs a constant --p")
        # the simulated sum is centred, so t is already a deviation
        return bd.mcdiarmid_bound(args.n, args.p, t / args.n)
    if name == "ustat":
        kernel = args.kernel or "all-below"
        if kernel != "all-below":
            raise UsageError(
                "--bound auto for ustat needs the all-below kernel "
                "(closed-form mean)"
            )
        return at_sum("ustat", {"n": args.n, "d": args.d, "p": args.c ** args.d}, t)
    raise UsageError(f"no automatic bound is defined for {name}")


def cmd_simulate(args) -> int:
    if args.reps is None or args.reps < 1:
        raise UsageError("--reps must be a positive integer")
    if args.t is None:
        raise UsageError("--t is required")
    model = _build_model(args)
    res = sim.empirical_tail(
        model, args.t, args.reps, args.seed or 0, threads=args.threads or 1
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
    if args.bound is not None:
        if args.bound != "auto":
            raise UsageError("--bound only supports 'auto'")
        tb = _auto_bound(args, args.t)
        rec["bound_method"] = tb.method
        rec["log_bound"] = tb.log_bound if tb.is_valid else ""
        rec["bound"] = tb.bound if tb.is_valid else ""
        if not tb.is_valid:
            rec["verdict"] = f"Invalid: {tb.invalid_reason}"
            status = EXIT_INVALID
        elif res.ci_high <= tb.bound:
            rec["verdict"] = "DOMINATED"
        else:
            rec["verdict"] = "VIOLATED"
            status = EXIT_VIOLATED
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
    for m in methods:
        _method(m)
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="depbounds")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument("--seed", type=seed, default=None)
    common.add_argument("--threads", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", parents=[common],
                             help="evaluate a tail bound over a parameter grid")
    p_bound.add_argument("method")
    for name in _FLAG_CASTS:
        p_bound.add_argument(f"--{name}", type=str, default=None)
    p_bound.add_argument("--t", type=str, default=None)
    p_bound.add_argument("--eps", type=str, default=None)
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="estimate an empirical tail by Monte Carlo")
    p_sim.add_argument("model", choices=SIM_MODELS)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--m", type=int, default=None)
    p_sim.add_argument("--d", type=int, default=None)
    p_sim.add_argument("--p", type=finite, default=None)
    p_sim.add_argument("--c", type=finite, default=None)
    p_sim.add_argument("--theta", type=finite, default=None)
    p_sim.add_argument("--p-vector", type=str, default=None)
    p_sim.add_argument("--kernel", type=str, default=None)
    p_sim.add_argument("--graph", type=str, default=None,
                       help="edge-list file for orientation-parity")
    p_sim.add_argument("--t", type=finite, default=None)
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--bound", type=str, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="tabulate several bounds over a t-sweep")
    p_cmp.add_argument("--methods", type=str, default=None)
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
