"""depbounds benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 24 --trace 0

Run from any directory; the package is imported from ``src/`` next to this
directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see README.md in this directory for both lists and what each should move).
The last line of standard output is the result object; lines before it
record the environment and the sample counts behind each statistic.
"""

from __future__ import annotations

import os

# Only --threads may add parallelism: pin the BLAS/OpenMP pools of this
# process and of every child before numpy is loaded anywhere.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"

SETUP_PROBES = 5
# End-to-end times are scaled to a machine on which calibrate() takes this
# long; see calibrate().
CAL_REF_S = 0.008
IMPORTTIME_PROBES = 3
CALL_TIMEOUT_S = 120

IMPORT_PROBE = ("import time; t = time.perf_counter(); import depbounds.cli; "
                "print(time.perf_counter() - t)")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# machine-speed calibration


def calibrate():
    """Seconds taken by a fixed piece of work that does not touch depbounds.

    On a shared machine the speed of a core drifts by up to 1.5x within
    tens of seconds, as neighbours come and go, which is more than any
    bound this benchmark could set.  A probe of interpreter arithmetic and
    small numpy calls, run right before each timed operation, tracks that
    drift; see rescale().  The probe is the median of three ~8 ms runs, so
    one descheduling does not rescale an operation.  The raw times are
    printed on the ``#`` lines.
    """
    import numpy as np

    def once():
        start = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        row = np.arange(64.0)
        total = 0.0
        for i in range(1300):
            total += float((row * i + 1.0).sum())
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(3))


def rescale(raws, cals):
    """Scale each raw time to the reference machine speed.

    ``raws[i]`` ran between the probes ``cals[i]`` and ``cals[i + 1]``; it
    is multiplied by CAL_REF_S over the median of the probes before and
    after it and the one before those, which tracked the drift better
    than the probe before alone.
    """
    return [raw * CAL_REF_S / statistics.median(cals[max(0, i - 1):i + 2])
            for i, raw in enumerate(raws)]


# ---------------------------------------------------------------------------
# set-up time


def setup_times(env, probes):
    """(raw, scaled) seconds to import depbounds.cli in a fresh interpreter."""
    raws, cals = [], []
    for _ in range(probes):
        cals.append(calibrate())
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=CALL_TIMEOUT_S)
        raws.append(float(proc.stdout.split()[-1]))
    cals.append(calibrate())
    return list(zip(raws, rescale(raws, cals)))


def importtime_breakdown(env, probes):
    """Median self import time of scipy, numpy and depbounds modules."""
    runs = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import depbounds.cli"],
            env=env, capture_output=True, text=True, check=True,
            timeout=CALL_TIMEOUT_S)
        runs.append(spans.parse_importtime(proc.stderr))
    return {pkg: statistics.median(r.get(pkg, 0.0) for r in runs)
            for pkg in ("scipy", "numpy", "depbounds")}


# ---------------------------------------------------------------------------
# operations


def run_op(op, env, recorder):
    """Execute one operation: (seconds, exit code, stdout, spans)."""
    if op.kind == "fresh":
        if recorder is None:
            cmd = [sys.executable, "-m", "depbounds.cli", *op.argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), *op.argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # the child is killed and reaped
            return time.perf_counter() - start, None, "timed out", []
        elapsed = time.perf_counter() - start
        got = []
        if recorder is not None:
            last = proc.stderr.rstrip("\n").rpartition("\n")[2]
            if last.startswith(spans.MARK):
                got = json.loads(last[len(spans.MARK):])
        return elapsed, proc.returncode, proc.stdout, got

    from depbounds import cli, verify

    buf = io.StringIO()
    if recorder is not None:
        recorder.take()
    start = time.perf_counter()
    try:
        if op.kind == "suite":
            records = verify.run_suite(op.argv[0], **op.kwargs)
        else:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception:  # a crash is a failed operation, not a dead benchmark
        elapsed = time.perf_counter() - start
        return elapsed, 1, traceback.format_exc(), []
    elapsed = time.perf_counter() - start
    if op.kind == "suite":
        rc, text = workloads.suite_exit(records), workloads.suite_output(records)
    else:
        text = buf.getvalue()
    got = recorder.take() if recorder is not None else []
    return elapsed, rc, text, got


class Phase:
    """Samples from passes over a workload's operation list.

    ``build(p)`` gives the operations of pass ``p``; every pass has the same
    operation slots with new inputs.  Samples are kept per slot.  ``cpus``
    is (home, every): operations run pinned to the ``home`` CPU set, next
    to the calibration that scales them, except that an operation asking
    for more threads gets ``every`` CPU while it runs.
    """

    def __init__(self, build, cpus=None):
        self.build = build
        self.ops = build(0)
        self.cpus = cpus
        n = len(self.ops)
        self.samples = [[] for _ in range(n)]
        self.scaled = [[] for _ in range(n)]
        self.work_done = 0
        self.work_time = 0.0
        self.work = [0] * n  # first pass
        self.checks = [0] * n  # first pass
        self.layers = [defaultdict(list) for _ in range(n)]
        self.spans = []
        self.attempted = 0
        self.failures = []
        self._order = []  # (slot, raw seconds, work) in execution order
        self._cals = []

    def run(self, seconds, env, recorder=None):
        """Run the operations in turn until ``seconds`` are up, finishing
        at least one full pass."""
        deadline = time.perf_counter() + seconds
        i = 0
        ops = self.ops
        while i < len(ops) or time.perf_counter() < deadline:
            j = i % len(ops)
            if i and not j:
                ops = self.build(i // len(ops))
            op = ops[j]
            self._cals.append(calibrate())
            widen = self.cpus is not None and op.threads > 1
            if widen:
                os.sched_setaffinity(0, self.cpus[1])
            try:
                elapsed, rc, out, got = run_op(op, env, recorder)
            finally:
                if widen:
                    os.sched_setaffinity(0, self.cpus[0])
            self.attempted += 1
            error = op.check(rc, out)
            if error:
                self.failures.append(f"{op.name}: {error}")
            self.samples[j].append(elapsed)
            work = op.work(out) if not error else 0
            self._order.append((j, elapsed, work))
            if i < len(ops):
                self.work[j] = work
                if op.group.startswith("verify:") and not error:
                    self.checks[j] = workloads.verify_checks(out)
            if recorder is not None:
                for key, value in spans.aggregate(got).items():
                    self.layers[j][key].append(value)
                self.spans.append((op.name, got))
            i += 1
        self._cals.append(calibrate())
        scaled = rescale([raw for _j, raw, _w in self._order], self._cals)
        for (j, _raw, work), value in zip(self._order, scaled):
            self.scaled[j].append(value)
            if work:
                self.work_done += work
                self.work_time += value
        return self

    def means(self, scaled=False):
        """Mean time of each operation slot over the passes, whose inputs
        differ, so the mean estimates the expected time of the slot."""
        return [statistics.fmean(s)
                for s in (self.scaled if scaled else self.samples)]

    def wall_s(self, scaled=False):
        """One pass over the operation list: sum of per-operation means."""
        return sum(self.means(scaled))

    def per_pass(self, key):
        """Mean per execution of a span aggregate, summed over operations."""
        return sum(statistics.fmean(layer[key]) for layer in self.layers
                   if key in layer)

    def per_pass_where(self, key, pred):
        return sum(statistics.fmean(layer[key])
                   for op, layer in zip(self.ops, self.layers)
                   if pred(op) and key in layer)


def tail(values):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# metrics


def end_to_end(phase, setup):
    mean = phase.means(scaled=True)
    all_samples = [x for s in phase.scaled for x in s]
    tail_value, tail_pct = tail(all_samples)
    if phase.ops[0].kind == "fresh":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(scaled for _raw, scaled in setup), "s"),
        "wall_s": (phase.wall_s(scaled=True), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "work_per_s": (phase.work_done / phase.work_time, "1/s"),
        "op_p50_s": (statistics.median(all_samples), "s"),
        "op_tail_s": (tail_value, "s"),
    }
    raw = phase.means()
    notes = [f"op {op.name}: mean {m:.4g} s scaled, {r:.4g} s raw, "
             f"{len(s)} samples"
             for op, m, r, s in zip(phase.ops, mean, raw, phase.samples)]
    notes += [f"ops per pass {len(phase.ops)}, op samples {len(all_samples)}, "
              f"op_tail_s is p{tail_pct:.1f} (10 samples beyond it)",
              f"raw (unscaled) wall_s {sum(raw):.6g} s, setup_s "
              f"{statistics.median(r for r, _s in setup):.6g} s; "
              f"setup_s is the median of {len(setup)} fresh imports"]
    return metrics, notes


SUITES = ("soundness", "sandwich", "convex-order", "identities", "lemmas")
ORACLE_FUNCS = ("subset_product_moments", "z_distribution",
                "zeta_decomposition", "exact_tail", "random_joint_dist",
                "convex_order_check")
LAYERS = ("cli", "verify", "bounds", "oracle", "numkernel", "graphcomb",
          "simulate")


def per_layer(untraced, traced, imports):
    m = {}
    unit = {}

    def put(name, value, u):
        m[name] = value
        unit[name] = u

    put("setup.import_scipy_s", imports["scipy"], "s")
    put("setup.import_numpy_s", imports["numpy"], "s")
    put("setup.import_depbounds_self_s", imports["depbounds"], "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", traced.per_pass(f"{layer}.self_s"), "s")
        put(f"{layer}.calls", traced.per_pass(f"{layer}.calls"), "count")

    mean = untraced.means()
    for suite in SUITES:
        group = f"verify:{suite}"
        put(f"verify.suite_s.{suite}",
            sum(x for op, x in zip(untraced.ops, mean) if op.group == group), "s")
    for suite in ("soundness", "sandwich", "lemmas"):
        group = f"verify:{suite}"
        put(f"verify.checks.{suite}",
            sum(c for op, c in zip(untraced.ops, untraced.checks)
                if op.group == group), "count")

    calls = traced.per_pass("bounds.calls")
    put("bounds.us_per_call",
        1e6 * traced.per_pass("bounds.self_s") / calls if calls else 0.0, "us")
    tbs = traced.per_pass("bounds.tailbounds")
    put("bounds.valid_ratio", traced.per_pass("bounds.valid") / tbs if tbs else 0.0,
        "ratio")

    def span_s(*names):
        return sum(traced.per_pass(f"span_s.{n}") for n in names)

    for fn in ORACLE_FUNCS:
        put(f"oracle.{fn}_s", span_s(f"oracle.{fn}"), "s")
    for fn in ("poisson_binom_dist", "binom_tail_log"):
        put(f"numkernel.{fn}_s", span_s(f"numkernel.{fn}"), "s")
    put("graphcomb.union_lemma_s", span_s("graphcomb.triangle_union_edges",
                                          "graphcomb.clique4_union_triangles"), "s")
    put("graphcomb.graph_build_s", span_s("graphcomb.Graph.from_edge_list",
                                          "graphcomb.Graph.complete"), "s")
    put("graphcomb.gnm_bound_s", span_s("graphcomb.gnm_isolated_bound",
                                        "graphcomb.gnm_triangles_bound"), "s")

    for model, *_ in workloads.SIM_CASES:
        batch = span_s(f"simulate.batch.{model}")
        reps = sum(w for op, w in zip(traced.ops, traced.work)
                   if op.group.startswith(f"simulate:{model}:"))
        put(f"simulate.batch_s.{model}", batch, "s")
        put(f"simulate.reps_per_s.{model}", reps / batch if batch else 0.0, "1/s")
    for threads in (1, 2):
        suffix = f":{threads}"
        put(f"simulate.pool_overhead_s.threads{threads}",
            traced.per_pass_where("self_s.simulate.empirical_tail",
                                  lambda op: op.group.endswith(suffix)), "s")
        reps = sum(w for op, w in zip(untraced.ops, untraced.work)
                   if op.group.startswith("simulate:") and op.group.endswith(suffix))
        secs = sum(x for op, x in zip(untraced.ops, mean)
                   if op.group.startswith("simulate:") and op.group.endswith(suffix))
        put(f"simulate.op_reps_per_s.threads{threads}",
            reps / secs if secs else 0.0, "1/s")
    put("simulate.ci_s", span_s("simulate.exact_binomial_ci"), "s")
    put("simulate.ci_calls", traced.per_pass("span_calls.simulate.exact_binomial_ci"),
        "count")

    # overhead from the speed-scaled means, so machine drift between the
    # two halves of the run does not count as tracing cost
    put("trace.wall_s", traced.wall_s(), "s")
    put("trace.overhead_s",
        traced.wall_s(scaled=True) - untraced.wall_s(scaled=True), "s")
    put("trace.unattributed_s",
        traced.wall_s() - sum(m[f"{layer}.self_s"] for layer in LAYERS), "s")
    put("trace.spans", sum(m[f"{layer}.calls"] for layer in LAYERS), "count")
    return m, unit


# ---------------------------------------------------------------------------
# environment record


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


def environment(args, threads2):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "threads": [1, threads2],
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "pinned_env": PINNED,
    }


def write_spans(path, phase):
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for name, got in phase.spans:
            fh.write(json.dumps({"op": name, "spans": got}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "depbounds" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no depbounds sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    load_start = os.getloadavg()
    # Pin to one CPU: the two CPUs of a shared machine slow down
    # independently, and a calibration only tracks the CPU it ran on.
    # Children (set-up probes, CLI calls) inherit the pinning.
    every = os.sched_getaffinity(0)
    cpus = ({min(every)}, every)
    os.sched_setaffinity(0, cpus[0])
    threads2 = min(2, len(every))

    if args.trace:
        imports = importtime_breakdown(env, IMPORTTIME_PROBES)
    else:
        setup = setup_times(env, SETUP_PROBES)

    def build(pass_index):
        return workloads.build(args.workload, args.seed, pass_index, threads2)

    record = environment(args, threads2)
    if args.trace:
        untraced = Phase(build, cpus).run(args.seconds / 2, env)
        recorder = spans.Recorder()
        with spans.installed(recorder):
            traced = Phase(build, cpus).run(args.seconds / 2, env, recorder)
        values, units = per_layer(untraced, traced, imports)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        trace_file = TRACE_DIR / f"spans-{args.workload}.jsonl.gz"
        write_spans(trace_file, traced)
        notes = [f"spans written to {trace_file.relative_to(ROOT)}"]
        phases = (untraced, traced)
    else:
        phase = Phase(build, cpus).run(args.seconds, env)
        values, notes = end_to_end(phase, setup)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        phases = (phase,)

    record["loadavg_start"] = load_start
    record["loadavg_end"] = os.getloadavg()
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    for line in failures[:20]:
        sys.stderr.write(f"perfbench: FAILED {line}\n")
    print("# environment " + json.dumps(record))
    for note in notes:
        print("# " + note)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
