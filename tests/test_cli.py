"""Command-line interface: exit codes, output formats, and cross-checks
against the library API."""

import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from depbounds import bounds as bd
from depbounds.cli import METHODS, SIM_MODELS, at_sum, main


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def json_records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


class TestBound:
    def test_hoeffding_valid(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "hoeffding", "--n", "100", "--p", "0.3",
            "--t", "40", "--format", "json-lines",
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["validity"] == "Valid"
        want = bd.hoeffding_bound(100, 0.3, 40.0)
        assert rec["log_bound"] == pytest.approx(want.log_bound, rel=1e-12)
        assert rec["bound"] == pytest.approx(want.bound, rel=1e-12)
        assert rec["eps"] == pytest.approx(40 / 30 - 1, rel=1e-12)

    def test_hoeffding_below_mean_is_invalid(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "hoeffding", "--n", "100", "--p", "0.3",
            "--t", "20", "--format", "json-lines",
        )
        assert code == 2
        (rec,) = json_records(out)
        assert rec["validity"].startswith("Invalid")
        assert rec["bound"] == ""
        assert rec["log_bound"] == ""

    def test_eps_flag_equivalent_to_t(self, capsys):
        _, out_t, _ = run_cli(
            capsys, "bound", "hoeffding", "--n", "50", "--p", "0.2",
            "--t", "15", "--format", "json-lines",
        )
        _, out_e, _ = run_cli(
            capsys, "bound", "hoeffding", "--n", "50", "--p", "0.2",
            "--eps", "0.5", "--format", "json-lines",
        )
        (ra,), (rb,) = json_records(out_t), json_records(out_e)
        assert ra["log_bound"] == pytest.approx(rb["log_bound"], rel=1e-12)

    def test_t_and_eps_together_rejected(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "hoeffding", "--n", "50", "--p", "0.2",
            "--t", "15", "--eps", "0.5",
        )
        assert code == 64

    def test_sweep_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "mcdiarmid", "--n", "50,100", "--p", "0.2,0.3",
            "--t", "0.1,0.2", "--format", "json-lines",
        )
        assert code == 0
        recs = json_records(out)
        assert len(recs) == 8
        assert {(r["n"], r["p"], r["t"]) for r in recs} == {
            (n, p, t) for n in (50, 100) for p in (0.2, 0.3) for t in (0.1, 0.2)
        }

    def test_mcdiarmid_refined_sweep_mixed_validity(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "mcdiarmid-refined", "--n", "20", "--p", "0.3",
            "--t", "0.2,0.25", "--format", "json-lines",
        )
        assert code == 2  # at least one invalid row in the sweep
        recs = json_records(out)
        assert recs[0]["validity"].startswith("Invalid")
        assert recs[1]["validity"] == "Valid"

    def test_linial_luria_threshold_from_beta_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "linial-luria", "--n", "10", "--beta-n", "8",
            "--k", "3", "--gamma", "0.4", "--format", "json-lines",
        )
        assert code == 0
        (rec,) = json_records(out)
        want = bd.linial_luria_bound(10, 8, 3, bd.ProductBound(0.4))
        assert rec["log_bound"] == pytest.approx(want.log_bound, rel=1e-12)

    def test_linial_luria_rejects_t(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "linial-luria", "--n", "10", "--beta-n", "8",
            "--k", "3", "--gamma", "0.4", "--t", "8",
        )
        assert code == 64

    def test_gnm_rejects_eps(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "gnm-isolated", "--n", "8", "--m", "10",
            "--eps", "0.5",
        )
        assert code == 64
        assert "--t" in err

    def test_inapplicable_flag_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "hoeffding", "--n", "10", "--p", "0.3",
            "--gamma", "0.5", "--t", "5",
        )
        assert code == 64
        assert "--gamma" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "hoeffding", "--n", "10", "--t", "5"
        )
        assert code == 64
        assert "--p" in err

    def test_unknown_method(self, capsys):
        code, _, err = run_cli(capsys, "bound", "not-a-method", "--t", "1")
        assert code == 64
        assert "unknown method" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "hoeffding", "--n", "100", "--p", "0.3",
            "--t", "40,45", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:4] == ["method", "n", "p", "t"]
        assert len(rows) == 3
        got = float(rows[1][rows[0].index("bound")])
        assert got == pytest.approx(bd.hoeffding_bound(100, 0.3, 40).bound, rel=1e-12)

    def test_non_finite_threshold_is_usage_error(self, capsys):
        for value in ("nan", "inf"):
            code, out, err = run_cli(
                capsys, "bound", "hoeffding", "--n", "10", "--p", "0.3",
                "--t", value,
            )
            assert code == 64 and not out
            assert "--t" in err

    def test_bad_parameters_give_invalid_rows(self, capsys):
        for argv, reason in [
            (("hoeffding", "--n", "0", "--p", "0.3", "--t", "5"), "n < 1"),
            (("ustat", "--n", "7", "--d", "2", "--p", "0.3", "--t", "0.2"),
             "d=2 does not divide n=7"),
            (("depgraph", "--n", "6", "--alpha", "8", "--eps", "0.1"),
             "independence number 8 outside [1, 6]"),
            (("mcdiarmid", "--n", "10", "--p", "0", "--eps", "0.5"),
             "p outside (0,1)"),
        ]:
            code, out, _ = run_cli(
                capsys, "bound", *argv, "--format", "json-lines"
            )
            assert code == 2
            (rec,) = json_records(out)
            assert rec["validity"] == f"Invalid: {reason}"

    def test_clamped_field(self, capsys):
        """bincoupling's log bound at t = 31.5 is positive and clamped to
        0; at t = 40 it is not; an Invalid row leaves the field empty."""
        code, out, _ = run_cli(
            capsys, "bound", "bincoupling", "--n", "100", "--p", "0.3,1.3",
            "--t", "31.5,40", "--format", "json-lines",
        )
        assert code == 2
        recs = json_records(out)
        assert [(r["p"], r["t"], r["clamped"]) for r in recs] == [
            (0.3, 31.5, True), (0.3, 40.0, False), (1.3, 31.5, ""),
            (1.3, 40.0, ""),
        ]
        assert recs[0]["log_bound"] == 0.0

    def test_table_format_has_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "hoeffding", "--n", "100", "--p", "0.3", "--t", "40",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("method")
        assert "hoeffding" in lines[1]


class TestVerify:
    def test_identities_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "identities", "--format", "json-lines"
        )
        assert code == 0
        recs = json_records(out)
        assert recs and all(r["passed"] for r in recs)

    def test_soundness_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "soundness", "--trials", "25", "--n-max", "6",
            "--seed", "0",
        )
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "no-such-suite")
        assert code == 64

    def test_deterministic_output(self, capsys):
        a = run_cli(capsys, "verify", "sandwich", "--trials", "20", "--seed", "5")
        b = run_cli(capsys, "verify", "sandwich", "--trials", "20", "--seed", "5")
        assert a == b

    @pytest.mark.parametrize("argv,flag,want", [
        ("soundness --n-max 2 --trials 3", "--n-max", "[3, 12]"),
        ("soundness --n-max 30 --trials 1", "--n-max", "[3, 12]"),
        ("soundness --trials -1", "--trials", ">= 1"),
        ("sandwich --n-max 13 --trials 1", "--n-max", "[3, 12]"),
        ("sandwich --trials 0", "--trials", ">= 1"),
        ("convex-order --n-max 1 --trials 2", "--n-max", "[2, 10000]"),
        ("convex-order --n-max 20001 --trials 1", "--n-max", "[2, 10000]"),
        (f"convex-order --n-max {10**30} --trials 1", "--n-max", "[2, 10000]"),
        ("lemmas --n-max 9", "--n-max", "[3, 7]"),
        ("lemmas --n-max 2", "--n-max", "[3, 7]"),
        ("lemmas --trials 0", "--trials", ">= 1"),
        # identities draws nothing random
        ("identities --n-max 5", "--n-max", "does not apply"),
        ("identities --trials 5", "--trials", "does not apply"),
    ])
    def test_flag_out_of_range_is_usage_error(self, capsys, argv, flag, want):
        code, out, err = run_cli(capsys, "verify", *argv.split())
        assert code == 64
        assert out == ""
        assert flag in err and want in err

    @pytest.mark.parametrize("suite,want", [
        ("soundness", 3), ("sandwich", 3), ("convex-order", 2),
        ("identities", 2), ("lemmas", 2),
    ])
    def test_failing_record_exit_code(self, capsys, monkeypatch, suite, want):
        from depbounds import cli, verify

        name = cli.VERIFY_SUITES[suite].run(verify).__name__
        monkeypatch.setattr(verify, name, lambda **kw: [
            (f"{suite}/ok", True, "passed"), (f"{suite}/bad", False, "forced"),
        ])
        code, out, _ = run_cli(capsys, "verify", suite)
        assert code == want
        assert out == f"PASS {suite}/ok: passed\nFAIL {suite}/bad: forced\n"

    def test_lemmas_reads_trials_as_random_graphs(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "lemmas", "--n-max", "4", "--trials", "7",
            "--format", "json-lines",
        )
        assert code == 0
        recs = {r["name"]: r for r in json_records(out)}
        assert recs["lemmas/random-graphs"]["detail"].startswith("7 random graphs")
        assert recs["lemmas/exhaustive-n4"]["passed"]


class TestSimulate:
    def test_gnp_isolated_dominated(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "gnp-isolated", "--n", "30", "--p", "0.1",
            "--t", "10", "--reps", "20000", "--seed", "1",
            "--bound", "auto", "--format", "json-lines",
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["verdict"] == "DOMINATED"
        assert rec["ci_high"] <= rec["bound"]

    def test_invalid_threshold_exit_2(self, capsys):
        # sub-mean threshold: the matching analytic bound is not valid there
        code, out, _ = run_cli(
            capsys, "simulate", "gnp-triangles", "--n", "8", "--p", "0.5",
            "--t", "10", "--reps", "2000", "--seed", "0",
            "--bound", "auto", "--format", "json-lines",
        )
        assert code == 2
        (rec,) = json_records(out)
        assert rec["verdict"].startswith("Invalid")

    def test_straddled_bound_is_inconclusive(self, capsys):
        """0 hits in 20000 give ci_high 3.8e-4 against a bound of 5.8e-16;
        the exact tail is 2.4e-17, so the bound holds and the interval
        only cannot show it."""
        from fractions import Fraction

        from depbounds.graphcomb import gnm_isolated_exact_tail

        code, out, _ = run_cli(
            capsys, "simulate", "gnm-isolated", "--n", "30", "--m", "40",
            "--t", "14", "--reps", "20000", "--bound", "auto",
            "--format", "json-lines",
        )
        (rec,) = json_records(out)
        assert rec["ci_low"] <= rec["bound"] < rec["ci_high"]
        assert gnm_isolated_exact_tail(30, 40, 14) < Fraction(rec["bound"])
        assert (code, rec["verdict"]) == (0, "INCONCLUSIVE")

    def test_violated_needs_the_whole_interval_above(self, capsys,
                                                     monkeypatch):
        from depbounds import cli

        # a stand-in bound of 0.01 under a tail of about 0.41
        stand_in = cli.SIM_MODELS["gnp-isolated"]._replace(
            auto=lambda a, t: bd.TailBound(
                method="stand-in", log_bound=math.log(0.01)))
        monkeypatch.setitem(cli.SIM_MODELS, "gnp-isolated", stand_in)
        code, out, _ = run_cli(
            capsys, "simulate", "gnp-isolated", "--n", "30", "--p", "0.1",
            "--t", "2", "--reps", "4096", "--seed", "1", "--bound", "auto",
            "--format", "json-lines",
        )
        (rec,) = json_records(out)
        assert rec["ci_low"] > rec["bound"]
        assert (code, rec["verdict"]) == (3, "VIOLATED")

    @pytest.mark.parametrize("argv", [
        "bound hoeffding --n 10 --p 0.3 --t 5",
        "compare --methods hoeffding,mcdiarmid --n 10 --p 0.3 --t 5",
        "verify identities",
    ])
    def test_threads_only_on_simulate(self, capsys, argv):
        """--threads belongs to simulate alone, and --seed to simulate and
        verify: bound and compare draw nothing random."""
        seeded = argv.startswith("verify")
        for flag in ["--threads"] if seeded else ["--threads", "--seed"]:
            code, out, err = run_cli(capsys, *argv.split(), flag, "1")
            assert code == 64 and out == ""
            assert flag in err

    def test_ustat_triangles_is_gnp_triangles(self, capsys):
        """ustat-triangles --m m is the triangle count of G(m, p), drawn by
        the gnp-triangles sampler."""
        tail = ("--p", "0.4", "--t", "10", "--reps", "9000", "--seed", "1",
                "--format", "json-lines")
        code_u, out_u, _ = run_cli(capsys, "simulate", "ustat-triangles",
                                   "--m", "9", *tail)
        code_g, out_g, _ = run_cli(capsys, "simulate", "gnp-triangles",
                                   "--n", "9", *tail)
        (rec_u,), (rec_g,) = json_records(out_u), json_records(out_g)
        assert (code_u, code_g) == (0, 0)
        assert rec_u.pop("model") == "ustat-triangles"
        assert rec_g.pop("model") == "gnp-triangles"
        assert rec_u == rec_g

    def test_threads_do_not_change_output(self, capsys, monkeypatch):
        # --threads may not exceed the CPU count; pretend there are 4
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        args = (
            "simulate", "gnm-isolated", "--n", "10", "--m", "15",
            "--t", "3", "--reps", "12000", "--seed", "9",
            "--format", "json-lines",
        )
        a = run_cli(capsys, *args, "--threads", "1")
        b = run_cli(capsys, *args, "--threads", "4")
        assert a == b
        assert a[0] == 0

    def test_reps_zero_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "gnp-isolated", "--n", "10", "--p", "0.2",
            "--t", "3", "--reps", "0",
        )
        assert code == 64

    def test_missing_model_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "gnm-isolated", "--n", "10",
            "--t", "3", "--reps", "100",
        )
        assert code == 64
        assert "--m" in err

    def test_unknown_model_rejected_by_parser(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "zzz", "--t", "1", "--reps", "10"
        )
        assert code == 64

    @pytest.mark.parametrize("argv,flag", [
        ("gnm-isolated --n 5 --m 100", "--m"),
        ("gnp-isolated --n 2 --p 0.3 --bound auto", "--n"),
        ("mds --n 0 --p 0.3 --bound auto", "--n"),
        ("gnp-isolated --n 0 --p 1.5", "--n"),
        ("gnp-isolated --n 5 --p 1.5", "--p"),
        ("gnp-4cliques --n 3 --p 0.5 --bound auto", "--n"),
        ("gnp-triangles --n 6 --p 1 --bound auto", "--p"),
        ("ustat-triangles --m 2 --p 0.5 --bound auto", "--m"),
        ("ustat-triangles --m 0 --p 0.5", "--m"),
        ("mds --n 3 --p-vector 0.2,0.3,1.2", "--p-vector"),
        ("ustat --n 4 --d 5 --c 0.5", "--d"),
        ("ustat --n 4 --d 2 --c -0.1", "--c"),
        ("degree-parity --n -2", "--n"),
        ("gnp-isolated --n 5 --p 0.3 --seed -1", "--seed"),
        ("orientation-parity --graph no-such-file.txt", "--graph"),
        ("mds --n 3 --p-vector 0.2,0.3", "--p-vector"),
        ("mds --n 5 --p 0.3 --kernel nope", "--kernel"),
        # one 4096-replication chunk would need a 2.15 GiB / 7.9e3 GiB array
        ("gnp-isolated --n 3000 --p 0.1", "--n"),
        ("ustat --n 200 --d 4 --kernel threshold-sum --theta 2", "--n"),
        # a byte count beyond the float range still gets its message
        ("ustat --n 2000 --d 1000 --kernel threshold-sum --theta 2", "--n"),
        # all-below needs C(n, d) as a float
        ("ustat --n 2000 --d 1000 --c 0.5", "--d"),
        ("ustat-triangles --m 3000 --p 0.5", "--m"),
        ("mds --n 100000000 --p 0.3", "--n"),
        ("gnp-isolated --n 10 --p 0.2 --threads 0", "--threads"),
        ("gnp-isolated --n 10 --p 0.2 --threads -3", "--threads"),
        (f"gnp-isolated --n 10 --p 0.2 --threads {(os.cpu_count() or 1) + 1}",
         "--threads"),
        # refused before sampling; --reps 10 is one chunk, so not even a
        # missing check could start more than one thread
        ("gnp-isolated --n 10 --p 0.2 --threads 10000", "--threads"),
        # mds samples one of the two, so --bound auto could not match it
        ("mds --n 3 --p 0.02 --p-vector 0.5,0.5,0.5 --bound auto",
         "--p-vector"),
        ("mds --n 3 --kernel polya-style", "--p-vector"),
        # a flag the model does not take
        ("gnp-isolated --n 10 --p 0.1 --kernel bogus", "--kernel"),
        ("gnp-isolated --n 10 --p 0.1 --d 4", "--d"),
        ("gnp-isolated --n 10 --p 0.1 --theta 9", "--theta"),
        ("gnm-isolated --n 5 --m 3 --p 0.2", "--p"),
        ("degree-parity --n 5 --graph g.txt", "--graph"),
        ("orientation-parity --graph no-such-file.txt --n 3", "--n"),
        ("ustat-triangles --m 5 --p 0.5 --n 5", "--n"),
        # a flag the U-statistic kernel does not take
        ("ustat --n 4 --d 2 --c 0.5 --theta 3", "--theta"),
        ("ustat --n 4 --d 2 --kernel threshold-sum --theta 2 --c 0.5", "--c"),
    ])
    def test_bad_model_parameters_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run_cli(
            capsys, "simulate", *argv.split(), "--t", "1", "--reps", "10"
        )
        assert code == 64
        assert out == ""
        assert flag in err

    def test_negative_vertex_count_in_graph_file_is_usage_error(
            self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n -1\n")
        code, out, err = run_cli(
            capsys, "simulate", "orientation-parity", "--graph", str(path),
            "--t", "1", "--reps", "10"
        )
        assert code == 64
        assert out == ""
        assert "--graph" in err and "negative" in err

    @pytest.mark.parametrize("argv", [
        "gnp-isolated --n 3000 --p 0.1",
        "ustat --n 200 --d 4 --kernel threshold-sum --theta 2",
        "mds --n 100000000 --p 0.3",
    ])
    def test_oversized_models_stop_before_sampling(self, capsys, monkeypatch,
                                                   argv):
        from depbounds import simulate as sim

        def sampled(*args, **kwargs):
            raise AssertionError("the sampler was reached")

        monkeypatch.setattr(sim, "empirical_tail", sampled)
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "simulate", *argv.split(), "--t", "1", "--reps", "10"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 64 and out == ""
        assert "GiB limit" in err
        assert peak < 16 << 20

    def test_size_over_the_limit_is_rounded_up(self, capsys):
        # the three pair rows of every triple take 1.004 GiB at n = 647,
        # which 3 digits rounded to nearest print as the limit itself
        code, out, err = run_cli(
            capsys, "simulate", "gnp-triangles", "--n", "647", "--p", "0.1",
            "--t", "1", "--reps", "10"
        )
        assert code == 64 and out == ""
        assert "needs a 1.01 GiB array, over the 1 GiB limit" in err

    @pytest.mark.parametrize("argv,flag", [
        ("degree-parity --n 40 --bound auto", "--bound"),
        ("gnp-isolated --n 10 --p 0.2 --bound nope", "--bound"),
        ("gnp-isolated --n 2 --p 0.2 --bound auto", "--n"),
        ("gnp-triangles --n 8 --p 1 --bound auto", "--p"),
        ("ustat --n 6 --d 2 --kernel threshold-sum --theta 1 --bound auto",
         "all-below"),
        ("mds --n 3 --p-vector 0.2,0.3,0.4 --bound auto", "--p"),
    ])
    def test_bound_errors_stop_before_sampling(self, capsys, monkeypatch,
                                               argv, flag):
        from depbounds import simulate as sim

        def sampled(*args, **kwargs):
            raise AssertionError("the sampler was reached")

        monkeypatch.setattr(sim, "empirical_tail", sampled)
        code, out, err = run_cli(
            capsys, "simulate", *argv.split(), "--t", "2", "--reps", "400000"
        )
        assert code == 64 and out == ""
        assert "--bound" in err and flag in err

    # one valid input for each model with a --bound auto bound
    AUTO_ARGV = {
        "gnp-isolated": "--n 30 --p 0.1 --t 10",
        "gnp-triangles": "--n 30 --p 0.05 --t 2990",
        "gnp-4cliques": "--n 20 --p 0.3 --t 4645",
        "gnm-isolated": "--n 30 --m 40 --t 4",
        "gnm-triangles": "--n 20 --m 40 --t 15",
        "mds": "--n 20 --p 0.3 --t 4",
        "ustat": "--n 40 --d 2 --c 0.5 --t 260",
        "ustat-triangles": "--m 30 --p 0.05 --t 2990",
    }

    @pytest.mark.parametrize(
        "model", [name for name, spec in SIM_MODELS.items() if spec.auto])
    def test_every_auto_bound_gives_a_valid_record(self, capsys, model):
        assert set(self.AUTO_ARGV) == {
            name for name, spec in SIM_MODELS.items() if spec.auto}
        code, out, err = run_cli(
            capsys, "simulate", model, *self.AUTO_ARGV[model].split(),
            "--reps", "4096", "--seed", "5", "--bound", "auto",
            "--format", "json-lines",
        )
        (rec,) = json_records(out)
        assert (code, err) == (0, "")
        assert rec["verdict"] in ("DOMINATED", "INCONCLUSIVE")
        assert 0.0 < rec["bound"] == pytest.approx(math.exp(rec["log_bound"]))

    def test_all_below_counts_without_the_subsets(self, capsys):
        # C(200, 4) = 64.7 million subsets, counted as C(B, 4) per draw
        code, out, err = run_cli(
            capsys, "simulate", "ustat", "--n", "200", "--d", "4", "--c",
            "0.5", "--t", "1", "--reps", "10", "--format", "json-lines",
        )
        assert code == 0 and err == ""
        rec = json.loads(out)
        assert rec["replications"] == 10 and rec["empirical_tail"] == 1.0

    def test_unknown_mds_kernel_lists_kernels(self, capsys):
        from depbounds.simulate import MDS_KERNELS

        code, _, err = run_cli(
            capsys, "simulate", "mds", "--n", "5", "--p", "0.3", "--kernel",
            "nope", "--t", "1", "--reps", "10",
        )
        assert code == 64
        assert str(sorted(MDS_KERNELS)) in err

    def test_mds_auto_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "mds", "--n", "20", "--p", "0.3",
            "--t", "6", "--reps", "20000", "--seed", "3",
            "--bound", "auto", "--format", "json-lines",
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["verdict"] == "DOMINATED"
        assert rec["bound_method"] == "mcdiarmid"


class TestCompare:
    def test_requires_two_methods(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--methods", "hoeffding", "--n", "50",
            "--p", "0.3", "--t", "25",
        )
        assert code == 64

    def test_repeated_method_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--methods", "hoeffding,hoeffding",
            "--n", "100", "--p", "0.3", "--t", "40",
        )
        assert code == 64 and not out
        assert "--methods lists hoeffding more than once" in err

    def test_hoeffding_equals_mcdiarmid_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--methods", "hoeffding,mcdiarmid",
            "--n", "50", "--p", "0.3", "--t", "25,30,35",
            "--format", "json-lines",
        )
        assert code == 0
        recs = json_records(out)
        assert len(recs) == 3
        for rec in recs:
            assert rec["hoeffding_log"] == pytest.approx(
                rec["mcdiarmid_log"], rel=1e-12
            )

    def test_refined_flagged_as_minimum(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare",
            "--methods", "hoeffding,mcdiarmid,mcdiarmid-refined",
            "--n", "20", "--p", "0.3", "--t", "14",
            "--format", "json-lines",
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["minimum"] == "mcdiarmid-refined"
        assert rec["mcdiarmid-refined_log"] < rec["hoeffding_log"]

    def test_invalid_cell_does_not_fail_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--methods", "hoeffding,mcdiarmid-refined",
            "--n", "20", "--p", "0.3", "--t", "6.5,14",
            "--format", "json-lines",
        )
        assert code == 0
        recs = json_records(out)
        # at t=6.5 the deviation 6.5/20 - 0.3 is below the refined
        # evaluator's validity threshold; the run still succeeds
        assert recs[0]["mcdiarmid-refined"].startswith("Invalid")
        assert isinstance(recs[0]["hoeffding"], float)

    def test_missing_method_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--methods", "hoeffding,ik",
            "--n", "50", "--p", "0.3", "--t", "25",
        )
        assert code == 64
        assert "gamma" in err


    def test_linial_luria_needs_a_profile(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--methods", "linial-luria,depgraph",
            "--n", "10", "--alpha", "5", "--t", "8",
        )
        assert code == 64 and not out
        assert "linial-luria needs a moment profile: --s-k, --gamma or --p" in err

    def test_linial_luria_profile_flags_as_in_bound(self, capsys):
        def ll_log(*flags):
            code, out, _ = run_cli(
                capsys, "compare", "--methods", "linial-luria,hoeffding",
                "--n", "10", "--p", "0.3", *flags, "--t", "8",
                "--format", "json-lines",
            )
            assert code == 0
            return json_records(out)[0]["linial-luria_log"]

        s_k = bd.SymmetricMoments({0: 1.0, 3: 5.0})
        want = bd.linial_luria_bound(10, 8, 3, s_k).log_bound
        assert ll_log("--k", "3", "--s-k", "5.0") == want
        # without --k the best k in 1..beta_n is used
        best = min(
            bd.linial_luria_bound(10, 8, k, bd.ProductBound(0.4)).log_bound
            for k in range(1, 9)
        )
        assert ll_log("--gamma", "0.4") == best

    def test_linial_luria_best_k_includes_beta_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--methods", "linial-luria,ik", "--n", "10",
            "--gamma", "0.1", "--t", "8", "--format", "json-lines",
        )
        assert code == 0
        (rec,) = json_records(out)
        # k = 8: C(10, 8) 0.1^8 / C(8, 8), below k = 7's 1.5e-6 and ik's
        assert rec["linial-luria"] == pytest.approx(4.5e-7, rel=1e-12)
        assert rec["minimum"] == "linial-luria"

    def test_ik_honours_c(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--methods", "ik,hoeffding", "--n", "30",
            "--gamma", "0.2", "--p", "0.2", "--c", "2", "--t", "10",
            "--format", "json-lines",
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["ik_log"] == bd.ik_bound(30, 0.2, 10 / 6 - 1, 2.0).log_bound

    # flag values of each method and the largest sum its grid reaches
    MONOTONE_CASES = {
        "hoeffding": [({"n": 40, "p": 0.3}, 40), ({"n": 10, "p": 0.5}, 10)],
        "ik": [({"n": 30, "gamma": 0.2}, 30), ({"n": 12, "gamma": 0.6, "c": 2.0}, 12)],
        "linial-luria": [({"n": 12, "k": 3, "gamma": 0.4}, 12),
                         ({"n": 12, "k": 2, "s-k": 5.0}, 12),
                         ({"n": 12, "p": 0.3}, 12)],
        "expfunct": [({"n": 20, "gamma": 0.3, "delta": 0.9}, 20)],
        "bincoupling": [({"n": 40, "p": 0.3}, 40)],
        "mcdiarmid": [({"n": 40, "p": 0.3}, 40)],
        "mcdiarmid-refined": [({"n": 40, "p": 0.3}, 40)],
        "kwise": [({"n": 40, "k": 6, "p": 0.3}, 40)],
        "kwise-bernoulli": [({"n": 40, "k": 6, "p": 0.3}, 40)],
        "sss": [({"n": 40, "k": 20, "p": 0.3}, 40)],
        "depgraph": [({"n": 30, "alpha": 5}, 30), ({"n": 30, "alpha": 30}, 30)],
        "ustat": [({"n": 20, "d": 2, "p": 0.2}, 190)],
        "ustat-refined": [({"n": 20, "d": 2, "p": 0.2}, 190)],
        "gnm-isolated": [({"n": 10, "m": 15}, 10)],
        "gnm-triangles": [({"n": 10, "m": 20}, 120)],
    }

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_no_valid_bound_rises_with_t(self, method):
        """compare's column of each method, on a quarter-step grid of sums
        from 0 to the top: the Valid bounds never rise as t grows."""
        for a, top in self.MONOTONE_CASES[method]:
            tbs = [at_sum(method, a, i / 4) for i in range(4 * top + 1)]
            logs = [tb.log_bound for tb in tbs if tb.is_valid]
            assert len(logs) >= 2, (a, logs)
            rises = [(x, y) for x, y in zip(logs, logs[1:]) if y > x + 1e-12]
            assert rises == [], a


class TestInputGuard:
    """Any flag values reach a record or a usage error, never a traceback."""

    INTS = st.integers(-5, 60)
    FLOATS = st.floats() | st.sampled_from(
        [0.0, -1.0, 0.5, math.nan, math.inf, -math.inf]
    )
    # small thresholds: gnm-triangles minimizes over every k < t in exact
    # fractions
    THRESHOLDS = st.floats(-5.0, 60.0) | st.sampled_from(
        [0.0, -0.5, math.nan, math.inf, -math.inf]
    )

    @staticmethod
    def exit_code(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                return main(argv)
            except SystemExit as exc:
                return exc.code

    def flag_args(self, data, flags, sweep, all_required):
        argv = []
        for name, cast, required in flags:
            if (required and all_required) or data.draw(st.booleans()):
                values = self.INTS if cast is int else self.FLOATS
                drawn = data.draw(st.lists(values, min_size=1, max_size=sweep))
                argv.append(f"--{name}={','.join(map(repr, drawn))}")
        return argv

    @pytest.mark.parametrize("method", sorted(METHODS))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bound_exit_codes(self, method, data):
        spec = METHODS[method]
        argv = ["bound", method, *self.flag_args(data, spec.flags, 2, True)]
        if spec.scale == "int":
            argv.append(f"--t={data.draw(self.INTS)}")
        elif spec.scale != "beta-n":
            flag = data.draw(st.sampled_from(["t", "eps"]))
            argv.append(f"--{flag}={data.draw(self.THRESHOLDS)!r}")
        assert self.exit_code(argv) in (0, 2, 64)

    @pytest.mark.parametrize("method", sorted(METHODS))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_compare_exit_codes(self, method, data):
        other = data.draw(st.sampled_from(sorted(METHODS)))
        flags = {f[0]: f for m in (method, other) for f in METHODS[m].flags}
        ts = data.draw(st.lists(self.THRESHOLDS, min_size=1, max_size=2))
        argv = ["compare", f"--methods={method},{other}",
                *self.flag_args(data, flags.values(), 1, False),
                f"--t={','.join(map(repr, ts))}"]
        assert self.exit_code(argv) in (0, 64)


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports the package from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


SCIPY_MODULES = (
    "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
)
NUMPY_LOADED = "any(m == 'numpy' or m.startswith('numpy.') for m in sys.modules)"

# standard-library modules that bound and compare in table format do not use
UNUSED_STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "json", "csv")

# flags and a threshold at which each method gives a Valid bound
CLOSED_FORM_ARGV = {
    "hoeffding": "--n 100 --p 0.3 --t 40",
    "ik": "--n 100 --gamma 0.3 --eps 0.5",
    "linial-luria": "--n 20 --beta-n 10 --k 3 --gamma 0.3",
    "expfunct": "--n 20 --gamma 0.3 --delta 0.8 --t 12",
    "bincoupling": "--n 100 --p 0.3 --t 40",
    "mcdiarmid": "--n 100 --p 0.3 --t 0.1",
    "mcdiarmid-refined": "--n 50 --p 0.2 --t 0.3",
    "kwise": "--n 100 --k 10 --p 0.3 --eps 0.5",
    "kwise-bernoulli": "--n 100 --k 10 --p 0.3 --eps 0.5",
    "sss": "--n 100 --k 30 --p 0.3 --eps 0.5",
    "depgraph": "--n 100 --alpha 10 --t 80",
    "ustat": "--n 20 --d 2 --p 0.3 --t 0.2",
    "ustat-refined": "--n 20 --d 2 --p 0.3 --t 0.4",
    "gnm-isolated": "--n 20 --m 20 --t 3",
    "gnm-triangles": "--n 6 --m 9 --t 3",
}


class TestSurface:
    def test_verify_loads_the_cli_once(self):
        """Run as ``python -m depbounds.cli``, verify imports no second
        copy of the CLI module under its package name."""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "depbounds.cli",
             "verify", "identities"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in
                    proc.stderr.splitlines() if line.startswith("import time:")]
        assert "depbounds.verify" in imported
        assert "depbounds.cli" not in imported

    def test_import_skips_scipy_stats_and_optimize(self):
        # no scipy or numpy module at all, and no depbounds module the CLI
        # does not need before it parses a command
        proc = run_python(
            "import sys, depbounds.cli; "
            f"print({SCIPY_MODULES}); "
            f"print({NUMPY_LOADED}); "
            "print([m for m in ('depbounds.verify', 'depbounds.graphcomb', "
            "'depbounds.simulate', 'depbounds.oracle') if m in sys.modules])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "False", "[]"]

    def test_import_loads_no_unused_stdlib(self):
        """import depbounds.cli loads no dataclasses (with the inspect it
        brings), fractions, decimal, json or csv; a table-format bound
        loads no json or csv either."""
        proc = run_python(textwrap.dedent(f"""
            import contextlib, io, sys
            before = set(sys.modules)
            import depbounds.cli
            print(sorted(m for m in {UNUSED_STDLIB!r}
                         if m in sys.modules and m not in before))
            with contextlib.redirect_stdout(io.StringIO()):
                code = depbounds.cli.main(["bound", "hoeffding", "--n", "100",
                                           "--p", "0.3", "--t", "40",
                                           "--format", "table"])
            print(code, sorted(m for m in ("json", "csv")
                               if m in sys.modules and m not in before))
        """))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "0 []"]

    def test_only_the_lemmas_load_graphcomb(self):
        """verify identities and soundness load neither graphcomb nor the
        fractions module it brings; verify lemmas loads graphcomb."""
        proc = run_python(textwrap.dedent("""
            import contextlib, io, sys
            import depbounds.cli
            for argv in (["verify", "identities"],
                         ["verify", "soundness", "--n-max", "3", "--trials", "5"],
                         ["verify", "lemmas"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = depbounds.cli.main(argv)
                print(code, [m for m in ("depbounds.graphcomb", "fractions")
                             if m in sys.modules])
        """))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "0 []", "0 []", "0 ['depbounds.graphcomb', 'fractions']"]

    def test_closed_forms_load_no_numpy(self):
        """bound and compare of every method, and usage errors, run
        in-process without loading numpy; verify and simulate load it
        afterwards."""
        assert set(CLOSED_FORM_ARGV) == set(METHODS)
        closed = [["bound", m, *flags.split()]
                  for m, flags in CLOSED_FORM_ARGV.items()]
        runs = closed + [
            ["compare", "--methods",
             "hoeffding,mcdiarmid,bincoupling,ik,expfunct,depgraph",
             "--n", "20", "--p", "0.3", "--gamma", "0.3", "--delta", "0.8",
             "--alpha", "10", "--t", "10,12"],
            ["bound", "no-such-method", "--t", "1"],
            ["bound", "hoeffding", "--n", "100", "--t", "40"],
            ["verify", "convex-order", "--n-max", "20001"],
            ["verify", "identities"],
            ["simulate", "gnp-isolated", "--n", "10", "--p", "0.2",
             "--t", "3", "--reps", "100"],
        ]
        proc = run_python(textwrap.dedent(f"""
            import contextlib, io, sys
            from depbounds.cli import main
            for argv in {runs!r}:
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                print(code, {NUMPY_LOADED})
        """))
        assert proc.returncode == 0, proc.stderr
        got = [line.split() for line in proc.stdout.splitlines()]
        assert got == ([["0", "False"]] * (len(closed) + 1)
                       + [["64", "False"]] * 3 + [["0", "True"]] * 2)

    def test_suite_names_and_gnm_bounds_have_one_source(self):
        import argparse
        import inspect

        from depbounds import cli, graphcomb, verify

        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in sub.choices["verify"]._actions
                     if a.dest == "suite")
        assert tuple(suite.choices) == tuple(cli.VERIFY_SUITES)
        runs = [spec.run(verify) for spec in cli.VERIFY_SUITES.values()]
        for fn in runs:
            assert inspect.isfunction(fn) and fn.__module__ == verify.__name__
        assert set(runs) == {fn for name, fn in vars(verify).items()
                             if name.startswith("suite_")}
        for name in ("gnm_isolated_bound", "gnm_triangles_bound"):
            assert getattr(graphcomb, name) is getattr(bd, name)

    def test_simulate_models_and_flags_have_one_source(self):
        import argparse

        from depbounds import cli

        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        p_sim = sub.choices["simulate"]
        model = next(a for a in p_sim._actions if a.dest == "model")
        assert tuple(model.choices) == tuple(cli.SIM_MODELS)
        options = {o for a in p_sim._actions for o in a.option_strings
                   if o.startswith("--")}
        run_flags = {"--help", "--format", "--seed", "--t", "--reps",
                     "--bound", "--threads"}
        assert options - run_flags == {f"--{f}" for f in cli._SIM_FLAGS}
        for name, spec in cli.SIM_MODELS.items():
            assert set(spec.flags) <= set(cli._SIM_FLAGS), name
            assert set(spec.optional) <= set(spec.flags), name
            assert spec.size in spec.flags, name

    def test_no_command_loads_scipy(self):
        """bound, compare, verify and simulate run in-process without
        loading any scipy module."""
        proc = run_python(textwrap.dedent(f"""
            import contextlib, io, sys
            from depbounds.cli import main
            runs = [
                ["bound", "hoeffding", "--n", "100", "--p", "0.3", "--t", "40"],
                ["bound", "mcdiarmid-refined", "--n", "50", "--p", "0.2",
                 "--t", "0.3"],
                ["compare", "--methods", "hoeffding,mcdiarmid,ik,ustat",
                 "--n", "20", "--p", "0.3", "--gamma", "0.3", "--d", "2",
                 "--t", "10,12"],
                ["verify", "identities"],
                ["simulate", "gnp-isolated", "--n", "10", "--p", "0.2",
                 "--t", "3", "--reps", "100", "--format", "json-lines"],
            ]
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    code = main(argv)
                print(argv[0], code, {SCIPY_MODULES})
            print(out.getvalue(), end="")
        """))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[:5] == ["bound 0 []", "bound 0 []", "compare 0 []",
                             "verify 0 []", "simulate 0 []"]
        rec = json.loads(lines[5])
        assert 0.0 <= rec["ci_low"] <= rec["empirical_tail"] <= rec["ci_high"] <= 1.0
        assert rec["ci_low"] < rec["ci_high"]

    def test_readme_lists_every_method_and_model(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bound_section = readme.split("### `bound`")[1].split("### ")[0]
        methods = re.findall(r"^\| `([a-z0-9-]+)` \|", bound_section, re.M)
        assert methods == sorted(METHODS)
        sim_section = readme.split("### `simulate`")[1].split("### ")[0]
        models_text = sim_section.split("Models:")[1].split(". With")[0]
        assert tuple(re.findall(r"`([a-z][a-z0-9-]*)`", models_text)) == tuple(SIM_MODELS)


# bound in csv, an argparse usage error, --help, simulate, verify and
# bound in table format: each call must leave the reused parser as it found it
PARSER_REUSE_RUNS = [
    ["bound", "hoeffding", "--n", "100", "--p", "0.3", "--t", "40,45",
     "--format", "csv"],
    ["bound", "hoeffding", "--n", "100", "--p", "0.3", "--t", "40",
     "--format", "xml"],
    ["--help"],
    ["simulate", "gnp-isolated", "--n", "10", "--p", "0.2", "--t", "3",
     "--reps", "100", "--seed", "5", "--format", "json-lines"],
    ["verify", "identities"],
    ["bound", "hoeffding", "--n", "100", "--p", "0.3", "--t", "40"],
]


def run_in_one_process(runs):
    """(exit code, stdout, stderr) of each argv, all run by main in one
    fresh interpreter whose time.perf_counter is fixed, so that runtime_ms
    does not vary."""
    proc = run_python(textwrap.dedent(f"""
        import contextlib, io, json, time
        time.perf_counter = lambda: 0.0
        from depbounds.cli import main
        results = []
        for argv in {runs!r}:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \\
                    contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            results.append([code, out.getvalue(), err.getvalue()])
        print(json.dumps(results))
    """))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestParserReuse:
    def test_parser_is_built_once(self):
        from depbounds import cli

        assert cli._build_parser() is cli._build_parser()

    def test_import_builds_no_parser(self):
        """import depbounds.cli constructs no ArgumentParser; the first
        main call builds the parser and later calls build none."""
        proc = run_python(textwrap.dedent("""
            import argparse, contextlib, io
            built = []
            init = argparse.ArgumentParser.__init__
            def counting_init(self, *args, **kwargs):
                built.append(self)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting_init
            import depbounds.cli
            print(len(built))
            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()):
                    depbounds.cli.main(["bound", "hoeffding", "--n", "100",
                                        "--p", "0.3", "--t", "40"])
                print(len(built))
        """))
        assert proc.returncode == 0, proc.stderr
        before, first, second = map(int, proc.stdout.split())
        assert before == 0 and first > 0 and second == first

    def test_calls_in_one_process_match_fresh_runs(self):
        together = run_in_one_process(PARSER_REUSE_RUNS)
        alone = [run_in_one_process([argv])[0] for argv in PARSER_REUSE_RUNS]
        assert [code for code, _o, _e in together] == [0, 64, 0, 0, 0, 0]
        assert together == alone
        assert "runtime_ms" in together[0][1] and "usage:" in together[2][1]


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        """The `depbounds` console script declared in `[project.scripts]`
        works. The test builds its own install: it copies the project into
        `tmp_path`, installs that copy there in development mode with
        setuptools (the declared build backend, offline, no wheel needed)
        and runs the generated script by name from PATH."""
        pytest.importorskip("setuptools")
        root = Path(__file__).resolve().parents[1]
        project = tmp_path / "project"
        project.mkdir()
        shutil.copy2(root / "pyproject.toml", project)
        shutil.copytree(
            root / "src", project / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        prefix = tmp_path / "prefix"
        # the generated script loads its entry point from the copy's egg-info
        env = dict(os.environ, PYTHONPATH=str(project / "src"))
        env["PATH"] = os.pathsep.join([str(prefix / "bin"), env.get("PATH", "")])

        inst = subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "develop", "--no-deps", "--prefix", str(prefix)],
            cwd=project, env=env, capture_output=True, text=True,
        )
        assert inst.returncode == 0, inst.stderr
        # the script on PATH must be the one just built, not a stale install
        script = shutil.which("depbounds", path=env["PATH"])
        assert script is not None and Path(script).parent == prefix / "bin", script

        proc = subprocess.run(
            ["depbounds", "bound", "hoeffding", "--n", "100", "--p", "0.3",
             "--t", "40", "--format", "json-lines"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout.splitlines()[0])
        assert rec["validity"] == "Valid"
