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
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from depbounds import bounds as bd
from depbounds.cli import METHODS, SIM_MODELS, main


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
        ("convex-order --n-max 1 --trials 2", "--n-max", ">= 2"),
        ("lemmas --n-max 9", "--n-max", "[3, 7]"),
        ("lemmas --n-max 2", "--n-max", "[3, 7]"),
        ("lemmas --trials 0", "--trials", ">= 1"),
    ])
    def test_flag_out_of_range_is_usage_error(self, capsys, argv, flag, want):
        code, out, err = run_cli(capsys, "verify", *argv.split())
        assert code == 64
        assert out == ""
        assert flag in err and want in err

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

    def test_threads_do_not_change_output(self, capsys):
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
    ])
    def test_bad_model_parameters_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run_cli(
            capsys, "simulate", *argv.split(), "--t", "1", "--reps", "10"
        )
        assert code == 64
        assert out == ""
        assert flag in err

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
        # without --k the best k is used
        best = min(
            bd.linial_luria_bound(10, 8, k, bd.ProductBound(0.4)).log_bound
            for k in range(1, 8)
        )
        assert ll_log("--gamma", "0.4") == best

    def test_ik_honours_c(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--methods", "ik,hoeffding", "--n", "30",
            "--gamma", "0.2", "--p", "0.2", "--c", "2", "--t", "10",
            "--format", "json-lines",
        )
        assert code == 0
        (rec,) = json_records(out)
        assert rec["ik_log"] == bd.ik_bound(30, 0.2, 10 / 6 - 1, 2.0).log_bound


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


class TestSurface:
    def test_import_skips_scipy_stats_and_optimize(self):
        code = (
            "import sys, depbounds.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.optimize'))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_readme_lists_every_method_and_model(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bound_section = readme.split("### `bound`")[1].split("### ")[0]
        methods = re.findall(r"^\| `([a-z0-9-]+)` \|", bound_section, re.M)
        assert methods == sorted(METHODS)
        sim_section = readme.split("### `simulate`")[1].split("### ")[0]
        models_text = sim_section.split("Models:")[1].split(". With")[0]
        assert tuple(re.findall(r"`([a-z][a-z0-9-]*)`", models_text)) == SIM_MODELS


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
