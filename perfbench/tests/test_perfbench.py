"""Tests of the benchmark's own machinery: self-time accounting, the
importtime parser, the outside-in patching and the correctness gate.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent, tid=1):
    return [name, start, end, parent, tid, None]


# ---------------------------------------------------------------------------
# self time


def test_self_time_nested():
    got = spans.self_times([
        span("cli.main", 0, 100, None),
        span("verify.run_suite", 10, 40, 0),
        span("oracle.exact_tail", 20, 30, 1),
        span("bounds.hoeffding_bound", 50, 60, 0),
    ])
    assert got == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_time_overlapping_children_count_once():
    got = spans.self_times([
        span("simulate.empirical_tail", 0, 100, None, tid=1),
        span("simulate.batch.mds", 10, 60, 0, tid=2),
        span("simulate.batch.mds", 30, 80, 0, tid=3),
        span("simulate.exact_binomial_ci", 85, 90, 0, tid=1),
    ])
    # children cover 10..80 and 85..90
    assert got[0] == 100 - 70 - 5


def test_union_ns():
    assert spans.union_ns([]) == 0
    assert spans.union_ns([(0, 10), (5, 15), (20, 25), (25, 30)]) == 25


def test_recorder_links_pool_threads_to_caller():
    rec = spans.Recorder()
    barrier = threading.Barrier(2, timeout=10)

    def chunk():
        s = rec.open("simulate.batch.mds")
        barrier.wait()
        time.sleep(0.02)
        rec.close(s)

    parent = rec.open("simulate.empirical_tail")
    workers = [threading.Thread(target=chunk) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
        assert not w.is_alive()
    rec.close(parent)
    got = rec.take()
    assert [s[3] for s in got] == [None, 0, 0]
    assert len({s[4] for s in got}) == 3
    (p_self, c1, c2) = spans.self_times(got)
    duration = got[0][2] - got[0][1]
    # the two chunks overlap, so the parent loses less than their sum
    assert duration - c1 - c2 < p_self <= duration - max(c1, c2)


def test_installed_wraps_every_binding_and_restores():
    from depbounds import bounds, numkernel, oracle, verify

    original = numkernel.poisson_binom_dist
    assert oracle.poisson_binom_dist is original
    rec = spans.Recorder()
    with spans.installed(rec):
        for mod in (numkernel, oracle, verify):
            assert mod.poisson_binom_dist is not original
        verify.run_suite("identities")
    for mod in (numkernel, oracle, verify):
        assert mod.poisson_binom_dist is original
    got = rec.take()
    names = {s[0] for s in got}
    assert got[0][0] == "verify.run_suite" and got[0][3] is None
    assert {"bounds.hoeffding_bound", "numkernel.poisson_binom_dist",
            "oracle.dephoeff_bound"} <= names
    agg = spans.aggregate(got)
    assert agg["bounds.tailbounds"] > 0
    assert agg["bounds.valid"] == agg["bounds.tailbounds"]
    assert bounds.hoeffding_bound.__module__ == "depbounds.bounds"


# ---------------------------------------------------------------------------
# importtime parser

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:      2000 |      50000 |   numpy
import time:      3000 |       3000 |     numpy.core
import time:      4000 |     400000 |     scipy.stats
import time:    500000 |     500000 |       scipy.stats._stats_py
import time:      7000 |     911000 |   depbounds.bounds
import time:       600 |     912000 | depbounds
some unrelated stderr line
"""


def test_parse_importtime():
    got = spans.parse_importtime(IMPORTTIME)
    assert got["numpy"] == 0.005
    assert got["scipy"] == 0.504
    assert got["depbounds"] == 0.0076
    assert got["_io"] == 0.00012


def test_tail_percentile():
    values = [float(i) for i in range(1, 31)]
    assert run.tail(values) == (20.0, 100.0 * 20 / 30)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


# ---------------------------------------------------------------------------
# correctness gate


def _cli(argv):
    op = workloads.Op("probe", "cli:probe", "cli", tuple(argv),
                      lambda rc, out: None)
    _elapsed, rc, out, _ = run.run_op(op, None, None)
    return rc, out


def _bound_op(method):
    ops = workloads.build("cli-oneshot", 7)
    (op,) = [o for o in ops if o.name == f"bound {method}"]
    return op


def test_gate_accepts_true_bound_output():
    op = _bound_op("hoeffding")
    rc, out = _cli(op.argv)
    assert op.check(rc, out) is None


def test_gate_rejects_wrong_exit_code():
    op = _bound_op("hoeffding")
    rc, out = _cli(op.argv)
    assert "exited 2" in op.check(2, out)


def test_gate_rejects_tampered_log_bound():
    op = _bound_op("kwise-bernoulli")
    rc, out = _cli(op.argv)
    recs = [json.loads(line) for line in out.splitlines()]
    recs[-1]["log_bound"] = recs[-1]["log_bound"] * (1 + 1e-15)
    tampered = "".join(json.dumps(r) + "\n" for r in recs)
    assert "log_bound" in op.check(rc, tampered)


def test_gate_rejects_thread_dependent_simulate_output():
    ops = [o for o in workloads.build("graph-mc", 3) if "ustat" in o.name]
    one, two = (_cli(o.argv) for o in ops)
    assert ops[0].check(*one) is None
    assert ops[1].check(*two) is None
    rc, out = two
    assert "differs" in ops[1].check(rc, out.replace('"seed"', '"seed" ', 1))


def test_phase_counts_failed_operations():
    good = _bound_op("hoeffding")
    good.kind = "cli"
    bad = workloads.Op("bound hoeffding, wrong expectation", "cli:bound", "cli",
                       good.argv, workloads.check_exit(workloads.EXIT_USAGE))
    phase = run.Phase(lambda _pass: [good, bad]).run(0, None)
    assert phase.attempted == 2
    assert len(phase.failures) == 1
    assert phase.failures[0].startswith("bound hoeffding, wrong expectation")


# ---------------------------------------------------------------------------
# result shape


def _filled_phase(ops):
    phase = run.Phase(lambda _pass: ops)
    for j, _op in enumerate(ops):
        phase.samples[j] = [0.5, 0.7]
        phase.scaled[j] = [0.4, 0.6]
        phase.work[j] = 10
    phase.work_done, phase.work_time = 100, 2.0
    return phase


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    ops = workloads.build("graph-mc", 1)
    e2e, _notes = run.end_to_end(_filled_phase(ops), [(1.0, 0.9)] * 3)
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(v != 0 for v, _unit in e2e.values())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: u for k, (_v, u) in e2e.items()} == units
    imports = {"scipy": 0.5, "numpy": 0.1, "depbounds": 0.05}
    layer, layer_units = run.per_layer(_filled_phase(ops), _filled_phase(ops),
                                       imports)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert layer_units == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_rescale_uses_probes_around_each_operation():
    ref = run.CAL_REF_S
    # operation i ran between probes i and i + 1; probe 2 is an outlier
    got = run.rescale([1.0, 1.0, 1.0], [ref, ref, 4 * ref, ref])
    assert got == [1.0, 1.0, 1.0]
    assert run.rescale([2.0], [ref / 2, ref / 2]) == [4.0]
