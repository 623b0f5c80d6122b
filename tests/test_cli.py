import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from pep_reference import (
    ball_norm_pep,
    build_expansiveness_matrices,
    delta_composite_pep,
    lower_bound_search,
)
from test_golden import GOLDEN

from vicert import cli
from vicert.cli import main
from vicert.pep import (
    build_expansiveness_pep,
    export_sdpa,
    parse_sdpa,
    solve,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ROT = str(FIXTURES / "rotation.json")


class TestUsage:
    def test_no_args_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0


class TestModuleEntry:
    """``python -m vicert`` and ``python -m vicert.cli`` run the command as
    the console script does, exit code and stderr included."""

    @staticmethod
    def _run(module, *argv, tmp_path):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", module, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("module", ["vicert", "vicert.cli"])
    def test_usage_error_exits_2_with_one_error_line(self, module, tmp_path):
        done = self._run(module, "check", "--theorem", "gd", "--op", "rotation",
                         "--gamma", "0.1", "--iters", "3", tmp_path=tmp_path)
        assert done.returncode == 2 and done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines

    @pytest.mark.parametrize("module", ["vicert", "vicert.cli"])
    def test_run_exits_0_and_writes_the_trace(self, module, tmp_path):
        done = self._run(module, "run", "--op", "rotation", "--method", "eg", "--gamma", "0.5",
                         "--iters", "3", "--x0", "1,0", tmp_path=tmp_path)
        assert done.returncode == 0 and done.stderr == ""
        lines = done.stdout.splitlines()
        assert lines[0] == "k,fx_sq,dist_sq,mid_sq" and len(lines) == 5


class TestCachedParser:
    """main builds its parser on the first call and reuses it: a usage error,
    two commands and --help give what a freshly built parser gives."""

    _ARGV = [
        ["pep-export", "--problem", "norm", "--gamma1", "0.5"],   # usage error
        ["certify", "--check", "cocoercive-exact", "--A", "[[1,0],[0,2]]",
         "--ell", "1.0", "--out", "{tmp}/cert.json"],
        ["pep-export", "--problem", "norm", "--L", "1", "--gamma1", "0.5",
         "--gamma2", "0.5", "--K", "3", "--out", "{tmp}/norm.dat-s"],
        ["pep-bound", "--help"],
    ]

    def _results(self, tmp_path, capsys, fresh):
        results = []
        for argv in self._ARGV:
            if fresh:
                cli._build_parser.cache_clear()
            code = main([a.format(tmp=tmp_path) for a in argv])
            out, err = capsys.readouterr()
            results.append((code, out, err))
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        return results, files

    def test_reused_parser_matches_fresh_one(self, tmp_path, capsys):
        (tmp_path / "fresh").mkdir()
        (tmp_path / "cached").mkdir()
        fresh = self._results(tmp_path / "fresh", capsys, fresh=True)
        parser = cli._build_parser()
        cached = self._results(tmp_path / "cached", capsys, fresh=False)
        assert cli._build_parser() is parser
        assert [code for code, _, _ in cached[0]] == [2, 0, 0, 0]
        assert cached == fresh
        assert "usage: vicert pep-bound" in cached[0][3][1]


class TestRun:
    def test_trace_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["run", "--op", ROT, "--method", "eg", "--gamma", "0.5",
                     "--iters", "4", "--x0", "1,0", "--xstar", "0,0",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("k,fx_sq,dist_sq")
        assert len(lines) == 6

    def test_builtin_operator(self, capsys):
        code = main(["run", "--op", "logistic", "--method", "gd",
                     "--gamma", "1.0", "--iters", "2", "--x0", "1"])
        assert code == 0
        assert "k,fx_sq" in capsys.readouterr().out

    def test_pp_resolvent_overflow_ends_on_nan_row(self, capsys):
        # I + gamma*A overflows while the resolvent is built at the first step
        code = main(["run", "--op", str(FIXTURES / "diag12.json"), "--method", "pp",
                     "--gamma", "1e308", "--iters", "3", "--x0", "1,1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines() == ["k,fx_sq,dist_sq", "0,5,nan", "1,nan,nan"]
        assert captured.err == ""


class TestOverflowWarnings:
    """Overflow is reported by NonFinite or a trace's diverged flag; numpy's
    RuntimeWarnings (with source paths) must not reach stderr as well."""

    def _main(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        return code, capsys.readouterr().err, [w for w in caught
                                               if issubclass(w.category, RuntimeWarning)]

    def test_certify_overflow_prints_one_error_line(self, capsys):
        code, err, caught = self._main(
            ["certify", "--check", "eg-affine", "--A", "[[1e200,0],[0,1e200]]",
             "--gamma", "1e-201", "--L", "1e201"], capsys)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert caught == []

    def test_diverging_run_prints_nothing(self, capsys):
        code, err, caught = self._main(
            ["run", "--op", "identity2", "--method", "eg", "--gamma", "1e160",
             "--iters", "10", "--x0", "1,1"], capsys)
        assert code == 0
        assert err == ""
        assert caught == []


class TestCheck:
    def test_eg_last_passes(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        code = main(["check", "--theorem", "eg-last", "--op", ROT,
                     "--gamma", "0.70710678", "--iters", "1000",
                     "--x0", "1,0", "--xstar", "0,0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(c["pass"] for c in payload["checks"])

    def test_gd_with_bad_stepsize_is_flagged(self, capsys):
        code = main(["check", "--theorem", "gd", "--op", "identity2",
                     "--ell", "1.0", "--gamma", "1.5", "--iters", "5",
                     "--x0", "1,1", "--xstar", "0,0"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_hgm_check(self, capsys):
        code = main(["check", "--theorem", "hgm", "--op", "logistic",
                     "--gamma", "1.0", "--iters", "50", "--x0", "2"])
        assert code == 0

    def test_ell_defaults_to_the_declared_constant(self, tmp_path, capsys):
        # diag12.json declares ell = 2: the output is that of --ell 2
        argv = ["check", "--theorem", "gd", "--op", str(FIXTURES / "diag12.json"),
                "--gamma", "0.5", "--iters", "5", "--out"]
        assert main(argv + [str(tmp_path / "declared.json")]) == 0
        assert main(argv + [str(tmp_path / "given.json"), "--ell", "2"]) == 0
        declared = (tmp_path / "declared.json").read_bytes()
        assert declared == (tmp_path / "given.json").read_bytes()
        assert json.loads(declared)["checks"][0]["params"]["ell"] == 2.0

    def test_explicit_flag_wins_over_the_declared_constant(self, capsys):
        assert main(["check", "--theorem", "gd", "--op", str(FIXTURES / "diag12.json"),
                     "--ell", "4", "--gamma", "0.25", "--iters", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {c["params"]["ell"] for c in payload["checks"]} == {4.0}

    def test_gd_on_logistic_file(self, capsys):
        assert main(["check", "--theorem", "gd", "--op", str(FIXTURES / "logistic.json"),
                     "--gamma", "1", "--iters", "5"]) == 0

    def test_pp_on_logistic_file_names_the_precondition(self, capsys):
        # the declared ell = 0.26 gives the inner stepsize 2/ell, which the
        # nonlinear implicit step refuses
        assert main(["check", "--theorem", "pp", "--op", str(FIXTURES / "logistic.json"),
                     "--gamma", "1", "--iters", "5"]) == 2
        err = capsys.readouterr().err
        assert "gamma*L = 2 >= 1 breaks the inner contraction" in err
        assert "required" not in err


class TestCertify:
    def test_rotation_rejected(self, capsys):
        code = main(["certify", "--check", "cocoercive-exact",
                     "--A", "[[0,1],[-1,0]]", "--ell", "1.0",
                     "--expect", "violated"])
        assert code == 0

    def test_expect_mismatch_exits_1(self, capsys):
        code = main(["certify", "--check", "cocoercive-exact",
                     "--A", "[[0,1],[-1,0]]", "--ell", "1.0",
                     "--expect", "holds"])
        assert code == 1

    def test_min_ell(self, capsys):
        code = main(["certify", "--check", "min-ell", "--A", "[[1,0],[0,2]]"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["min_ell"] == pytest.approx(2.0, rel=1e-8)

    def test_og_witness(self, capsys):
        code = main(["certify", "--check", "og-witness", "--A", "[[0,1],[-1,0]]",
                     "--ell", "1.0", "--gamma", "1.0", "--expect", "violated"])
        assert code == 0

    def test_sampled(self, capsys):
        code = main(["certify", "--check", "sampled", "--op", "rotation",
                     "--class", "monotone", "--trials", "20"])
        assert code == 0

    def test_spectral_disk(self, capsys):
        code = main(["certify", "--check", "spectral-disk", "--A", "[[1,0],[0,2]]",
                     "--ell", "2.0", "--expect", "holds"])
        assert code == 0

    def test_star_equiv(self, capsys):
        code = main(["certify", "--check", "star-equiv", "--A", "[[0,1],[-1,0]]",
                     "--ell", "1.0", "--trials", "30", "--expect", "holds"])
        assert code == 0

    def test_eftp_witness(self, capsys):
        code = main(["certify", "--check", "eftp-witness", "--A", "[[0,1],[-1,0]]",
                     "--ell", "2.0", "--gamma", "0.5", "--expect", "violated"])
        assert code == 0

    def test_missing_matrix_is_usage_error(self, capsys):
        code = main(["certify", "--check", "cocoercive-exact", "--ell", "1.0"])
        assert code == 2

    @pytest.mark.parametrize("A, ell", [("[[1e200,0],[0,1e200]]", "1"),
                                        ("[[1e155,1e155],[-1e155,1e155]]", "1.5e155")])
    @pytest.mark.parametrize("check", ["cocoercive-exact", "star-equiv"])
    def test_pencil_beyond_float_range(self, check, A, ell, capsys):
        # the pencil ell*H - A^T A is -1e400*I and -0.5e310*I: the checks run
        # on A and ell scaled by a power of two, and report its slack as -inf
        code = main(["certify", "--check", check, "--A", A, "--ell", ell])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["worst_slack"] == -np.inf
        if check == "cocoercive-exact":
            assert out["verdict"] == "violated" and out["witness"]["slack"] == -np.inf
        else:
            # both parts reject, so there is no counterevidence
            assert out["verdict"] == "holds"
            assert out["details"]["sampled_holds"] is False
            assert out["details"]["counterevidence"] is False

    @pytest.mark.parametrize("check", ["og-witness", "eftp-witness"])
    def test_witness_beyond_float_range(self, check, capsys):
        # at 1e155 the pencil is formed on A and its constant divided by a
        # power of two, and the block operator on A/2^e with stepsize
        # gamma*2^e, where gamma*A^2 is finite and A^2 is not; the lifted
        # ratio is that of the unit matrix it scales
        ratios = []
        for A, ell, gamma in (("[[1e155,1e155],[-1e155,1e155]]", "1.5e155", "1e-155"),
                              ("[[1,1],[-1,1]]", "1.5", "1")):
            code = main(["certify", "--check", check, "--A", A, "--ell", ell,
                         "--gamma", gamma, "--expect", "violated"])
            assert code == 0
            out = json.loads(capsys.readouterr().out)
            assert out["verdict"] == "violated"
            ratios.append(out["details"]["ratio"])
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)


EYE2 = "[[1,0],[0,1]]"


class TestUsageErrors:
    """Missing required constants and malformed inputs exit 2 with an
    ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["certify", "--check", "cocoercive-exact", "--A", EYE2],
        ["certify", "--check", "spectral-disk", "--A", EYE2],
        ["certify", "--check", "og-witness", "--A", EYE2, "--gamma", "1"],
        ["certify", "--check", "eftp-witness", "--A", EYE2, "--gamma", "1"],
        ["certify", "--check", "star-equiv", "--A", EYE2],
        ["certify", "--check", "og-witness", "--A", EYE2, "--ell", "1"],
        ["certify", "--check", "eg-affine", "--A", EYE2, "--L", "1"],
        ["certify", "--check", "eg-affine", "--A", EYE2, "--gamma", "0.5"],
        ["check", "--theorem", "gd", "--op", "rotation", "--gamma", "0.5",
         "--iters", "3"],
        ["certify", "--check", "min-ell", "--A", "[[1,0],[0,NaN]]"],
        ["certify", "--check", "min-ell", "--A", "[[1,0"],
        ["certify", "--check", "min-ell", "--A", '{"a": 1}'],
        ["run", "--op", "rotation", "--method", "gd", "--gamma", "0.1",
         "--iters", "3", "--x0", "nan,0"],
        ["run", "--op", "rotation", "--method", "gd", "--gamma", "0.1",
         "--iters", "3", "--x0", "a,0"],
        ["run", "--op", "rotation", "--method", "eg", "--gamma", "0.5",
         "--gamma1", "0.3", "--iters", "3", "--x0", "1,0"],
        ["certify", "--check", "cocoercive-exact", "--A", EYE2, "--ell", "nan"],
        ["certify", "--check", "eg-affine", "--A", "[[1e200,0],[0,1e200]]",
         "--gamma", "1e-201", "--L", "1e201"],
        ["certify", "--check", "og-witness", "--A", "[[0,1],[-1,0]]",
         "--ell", "1e300", "--gamma", "1e-309"],
        # squares and caps beyond float range, and checks with no rows
        ["check", "--theorem", "eg-last", "--op", "rotation", "--L", "1e-300",
         "--gamma", "1e155", "--iters", "1"],
        ["check", "--theorem", "eftp", "--op", "rotation", "--L", "1e155",
         "--gamma", "1e-200", "--iters", "1"],
        ["check", "--theorem", "hgm", "--op", "identity2", "--L", "1e200",
         "--Lambda", "0", "--gamma", "1e-300", "--iters", "1"],
        ["check", "--theorem", "hgm", "--op", "identity3", "--L", "1e-200",
         "--Lambda", "0", "--gamma", "5e-324", "--iters", "1"],
        # every constant passes its precondition, but the bound overflows
        ["check", "--theorem", "gd", "--op", "identity3", "--ell", "1",
         "--gamma", "5e-324", "--iters", "1"],
        ["check", "--theorem", "hgm", "--op", "identity3", "--L", "1",
         "--Lambda", "0", "--gamma", "5e-324", "--iters", "1"],
        ["check", "--theorem", "hgm", "--op", "logistic", "--gamma", "1",
         "--iters", "0"],
        ["check", "--theorem", "hgm-affine", "--op", "identity3", "--iters", "0"],
        ["report", "--iters", "0"],
        ["counterexample", "--ell", "1", "--gamma1", "1", "--gamma2", "1e-200",
         "--scale", "1e300"],
        ["counterexample", "--ell", "1e-300", "--gamma1", "1e-200", "--gamma2", "0.5"],
        ["certify", "--check", "star-equiv", "--A", EYE2, "--ell", "1", "--trials", "0"],
        # a negative Lambda would raise hgm's stepsize limit past the theorem's
        ["check", "--theorem", "hgm", "--op", "rotation", "--L", "1", "--Lambda", "-0.5",
         "--gamma", "3", "--iters", "5"],
    ], ids=lambda argv: " ".join(argv))
    def test_exits_2_with_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_allocation_beyond_the_address_space(self, capsys):
        # 1e15 trials of two coordinates ask for 16 PB, beyond a 47-bit
        # address space, so the request fails at once on every machine
        argv = ["certify", "--check", "star-equiv", "--A", EYE2, "--ell", "1",
                "--trials", "1000000000000000"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: out of memory: ")

    @pytest.mark.parametrize("argv", [
        ["run", "--op", "rotation", "--method", "gd", "--gamma", "0.1", "--iters", "2",
         "--x0", "1,0", "--xstar", star] for star in ("1,2,3", "5")
    ] + [
        ["check", "--theorem", "gd", "--op", "identity3", "--ell", "1", "--gamma", "0.5",
         "--iters", "2", "--x0", "1,0,0", "--xstar", star] for star in ("1,2,3,4", "1,2", "5")
    ], ids=lambda argv: f"{argv[0]} --xstar {argv[-1]}")
    def test_mismatched_xstar(self, argv, capsys):
        # a one-element star used to broadcast: the gd check passed against a bound 66 times too big
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: operator dim ")

    @pytest.mark.parametrize("body", [
        '{"kind": "affine"}',
        '{"kind": "affine", "A": [[1, 0], [0',
        '{"kind": "custom-table"}',
        '{"kind": "logistic-grad", "a": "x"}',
        '[1, 2]',
        '{"kind": "affine", "A": [[1, 0], [0, 1]], "constants": {"L": "big"}}',
        '{"kind": "custom-table", "points": [[[1, 0], [0, 1], [2, 2]]]}',
        '{"kind": "logistic-grad", "a": 1e200}',   # |a|^3 overflows a Python float
        '{"kind": "logistic-grad", "a": NaN}',     # Python's json reads NaN
        '{"kind": "logistic-grad", "delta": Infinity}',
    ])
    def test_malformed_operator_file(self, body, tmp_path, capsys):
        path = tmp_path / "op.json"
        path.write_text(body)
        assert main(["run", "--op", str(path), "--method", "gd", "--gamma", "0.1",
                     "--iters", "2", "--x0", "1,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: operator file {path}")

    def test_nan_constant_is_named(self, tmp_path, capsys):
        # NaN <= 0 is false: a check that only compares lets a NaN constant
        # through, and the run then fails on the stepsize compared with it
        path = tmp_path / "op.json"
        path.write_text('{"kind": "affine", "A": [[0, 1], [-1, 0]], "constants": {"L": NaN}}')
        assert main(["check", "--theorem", "eg-last", "--op", str(path), "--gamma", "0.5",
                     "--iters", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: operator file {path}")
        assert "constant L = nan" in err and "gamma" not in err

    def test_certify_argv_property(self):
        """Any certify argv, with each constant present or absent (down to
        subnormal magnitudes) and the matrix valid (entries up to 1e201, where
        intermediate products overflow), non-finite or malformed, exits 0, 1
        or 2 and never raises."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        checks = ["cocoercive-exact", "spectral-disk", "min-ell", "eg-affine",
                  "og-witness", "eftp-witness", "star-equiv", "sampled"]
        magnitude = st.floats(5e-324, 1e300)
        constant = st.none() | st.just(0.0) | magnitude | magnitude.map(lambda v: -v)
        big = st.floats(1e150, 1e201)
        entry = st.floats(-1e3, 1e3) | big | big.map(lambda v: -v)
        valid = st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2)
        matrix = (valid.map(lambda rows: json.dumps(rows))
                  | st.just("[[1, 0], [0, NaN]]")
                  | st.sampled_from(["[[1, 0]", "[[1, 0], [0]]", "[[1, 'a'], [0, 1]]"]))

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(check=st.sampled_from(checks), A=matrix, ell=constant,
                          gamma=constant, L=constant)
        def prop(check, A, ell, gamma, L):
            argv = ["certify", "--check", check, "--A", A, "--trials", "5",
                    "--out", os.devnull]
            for flag, value in (("--ell", ell), ("--gamma", gamma), ("--L", L)):
                if value is not None:
                    argv += [flag, repr(value)]
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2)

        prop()

    def test_check_argv_property(self):
        """Any check argv, with each constant absent, zero or of magnitude in
        [5e-324, 1e300] and a few iteration counts, exits 0, 1 or 2 and never
        raises."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        theorems = ["gd", "pp", "eg-random", "eg-last", "eftp", "hgm", "hgm-affine"]
        magnitude = st.floats(5e-324, 1e300)
        constant = st.none() | st.just(0.0) | magnitude | magnitude.map(lambda v: -v)
        flags = ("--ell", "--gamma", "--gamma1", "--gamma2", "--L", "--Lambda")

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
        @hypothesis.given(theorem=st.sampled_from(theorems),
                          op=st.sampled_from(["rotation", "identity2", "identity3",
                                              "logistic"]),
                          iters=st.sampled_from([0, 1, 5]),
                          values=st.tuples(*[constant] * len(flags)))
        def prop(theorem, op, iters, values):
            argv = ["check", "--theorem", theorem, "--op", op, "--iters", str(iters),
                    "--out", os.devnull]
            for flag, value in zip(flags, values):
                if value is not None:
                    argv += [flag, repr(value)]
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2)

        prop()

    def test_counterexample_argv_property(self):
        """Any counterexample argv, with each constant zero or of magnitude in
        [5e-324, 1e300] and the scale absent or alike, exits 0, 1 or 2 and
        never raises."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        magnitude = st.floats(5e-324, 1e300)
        # mostly positive: a zero or negative constant is rejected up front
        constant = st.one_of(magnitude, magnitude, magnitude, st.just(0.0),
                             magnitude.map(lambda v: -v))

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(ell=constant, gamma1=constant, gamma2=constant,
                          scale=st.none() | constant)
        def prop(ell, gamma1, gamma2, scale):
            argv = ["counterexample", "--ell", repr(ell), "--gamma1", repr(gamma1),
                    "--gamma2", repr(gamma2), "--out", os.devnull]
            if scale is not None:
                argv += ["--scale", repr(scale)]
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2)

        prop()


class TestCounterexample:
    def test_reference_values(self, tmp_path):
        out = tmp_path / "ce.json"
        code = main(["counterexample", "--ell", "1", "--gamma1", "0.5",
                     "--gamma2", "0.5", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["details"]["expansion_sq"] == pytest.approx(
            1.015625, abs=1e-15)
        assert len(payload["report"]["conditions"]) == 6
        assert payload["report"]["verdict"] == "violated"


class TestPep:
    def test_export_with_sidecar(self, tmp_path):
        out = tmp_path / "prob.dat-s"
        code = main(["pep-export", "--problem", "expansiveness", "--ell", "1",
                     "--gamma1", "0.5", "--gamma2", "0.5", "--out", str(out)])
        assert code == 0
        assert out.exists()
        sidecar = json.loads((tmp_path / "prob.dat-s.json").read_text())
        assert sidecar["name"] == "eg-expansiveness"
        assert len(sidecar["basis"]) == 6

    def test_norm_problem_export(self, tmp_path):
        out = tmp_path / "norm.dat-s"
        code = main(["pep-export", "--problem", "norm", "--L", "1",
                     "--gamma1", "0.5", "--gamma2", "0.5", "--K", "2",
                     "--out", str(out)])
        assert code == 0

    def test_bound_search_small(self, tmp_path):
        # the former search flags the benchmark passes are still accepted
        # (and ignored); the solve is not below the low-rank search they tuned
        out = tmp_path / "bound.json"
        code = main(["pep-bound", "--problem", "expansiveness", "--ell", "1",
                     "--gamma1", "1.0", "--gamma2", "1.0",
                     "--restarts", "6", "--steps", "800", "--seed", "0",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["lower_bound"] > 1.0 + 1e-6
        assert payload["solver"]["method"] == "interior-point"
        search = lower_bound_search(build_expansiveness_pep(1.0, 1.0, 1.0),
                                    restarts=6, ascent_steps=800, rounds=3)
        assert payload["lower_bound"] >= search.objective - 1e-9

    @pytest.mark.parametrize("flag", ["--rank", "--rounds"])
    def test_dropped_search_flags_are_usage_errors(self, flag, capsys):
        assert main(["pep-bound", "--problem", "expansiveness", "--ell", "1",
                     "--gamma1", "0.5", "--gamma2", "0.5", flag, "3"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# (ell, gamma1, gamma2): the three pinned stepsizes at ell = 1, two unequal
# pairs, and the second golden triple
_EXP_TRIPLES = [(1.0, 0.5, 0.5), (1.0, 1.0, 1.0), (1.0, 0.25, 0.25), (1.0, 0.45, 0.6),
                (1.0, 0.3, 0.9), (1.3, 0.7, 0.45)]


def _exp_flags(ell, g1, g2):
    return ["--problem", "expansiveness", "--ell", repr(ell), "--gamma1", repr(g1),
            "--gamma2", repr(g2)]


class TestExpansivenessAgainstHandCoded:
    """``--problem expansiveness`` writes what the hand-coded matrices give:
    the bytes of their solve, rendered as pep-bound renders it, and their
    golden SDPA export and constraint names."""

    @pytest.mark.parametrize("triple", _EXP_TRIPLES, ids=lambda t: "-".join(map(repr, t)))
    def test_bound_bytes(self, triple, tmp_path, capsys):
        out = tmp_path / "bound.json"
        assert main(["pep-bound", *_exp_flags(*triple), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        prob = build_expansiveness_matrices(*triple)
        point = solve(prob)
        want = json.dumps({"problem": prob.name, "metadata": prob.metadata,
                           "lower_bound": point.objective, "solver": point.solver,
                           "point": point.to_json()}, sort_keys=True, indent=2) + "\n"
        assert out.read_text() == want

    def test_export_bytes(self, tmp_path):
        out = tmp_path / "exp.dat-s"
        assert main(["pep-export", *_exp_flags(1.0, 0.5, 0.5), "--out", str(out)]) == 0
        assert _sha(out.read_bytes()) == GOLDEN["sdpa:hand-1-.5-.5"]
        sidecar = json.loads((tmp_path / "exp.dat-s.json").read_text())
        names = json.dumps(sidecar["inequalities"] + sidecar["equalities"]).encode()
        assert _sha(names) == GOLDEN["names:hand-1-.5-.5"]


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _unit(g):
    return ["--L", "1", "--gamma1", g, "--gamma2", g]


# the problems the CLI builds; every one verifies
_BOUND_GRID = (
    [["--problem", "expansiveness", "--ell", "1", "--gamma1", "0.5", "--gamma2", "0.5"]]
    + [["--problem", "norm", *_unit("0.5"), "--K", str(K), "--operator-class", cls]
       for cls in ("monotone-lipschitz", "cocoercive") for K in range(1, 6)]
    + [["--problem", "delta", *_unit(g)] for g in ("0.5", "0.7071", "1.0", "1.1", "1.5")]
)

# known to end in a usage error: a stepsize that is not positive and L**2
# beyond float range (BadParameters), and data so badly scaled that no
# interior-point iterate verifies (NoConvergence)
_BOUND_FAILS = [
    ["--problem", "expansiveness", "--ell", "1", "--gamma1", "-1", "--gamma2", "0.5"],
    ["--problem", "expansiveness", "--ell", "1", "--gamma1", "0.5", "--gamma2", "0"],
    ["--problem", "norm", "--L", "1e200", "--gamma1", "1e200", "--gamma2", "0.5",
     "--K", "2"],
    ["--problem", "norm", "--L", "1e100", "--gamma1", "1e-100", "--gamma2", "1e-100",
     "--K", "2"],
]


def _check_against_export(path, doc):
    """Re-check a returned Gram point against the problem exported to the
    SDPA file ``path``: PSD, every inequality and equality within 1e-9, and
    the objective."""
    sdpa = parse_sdpa(path)
    G = np.array(doc["point"]["G"])
    assert np.linalg.eigvalsh(0.5 * (G + G.T))[0] >= -1e-9
    blocks = sdpa["blocks"]
    # the diagonal slack block has one entry per inequality, listed first
    q = -sdpa["block_sizes"][1] if len(sdpa["block_sizes"]) > 1 else 0
    for k in range(1, sdpa["m"] + 1):
        value = float(np.sum(blocks[k][0] * G)) - sdpa["rhs"][k - 1]
        assert value >= -1e-9 if k <= q else abs(value) <= 1e-9, k
    objective = float(np.sum(blocks[0][0] * G))
    assert abs(objective - doc["lower_bound"]) <= 1e-9 * max(1.0, abs(objective))


def _pep_bound_twice(flags, tmp_path, capsys):
    runs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["pep-bound", *flags, "--out", str(out)])
        err = capsys.readouterr().err
        runs.append((code, err, out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    return runs[0]


class TestPepBoundGrid:
    """pep-bound on a grid of problems, each run twice: the same bytes both
    times, and a bound that re-checks against the exported problem, or, on
    the listed failures, exit 2 with one ``error:`` line."""

    @pytest.mark.parametrize("flags", _BOUND_GRID, ids=lambda f: " ".join(f))
    def test_verified_and_byte_stable(self, flags, tmp_path, capsys):
        code, err, payload = _pep_bound_twice(flags, tmp_path, capsys)
        assert code == 0 and err == ""
        doc = json.loads(payload)
        assert doc["solver"]["method"] == "interior-point"
        path = tmp_path / "prob.dat-s"
        assert main(["pep-export", *flags, "--out", str(path)]) == 0
        _check_against_export(path, doc)

    @pytest.mark.parametrize("flags", _BOUND_FAILS, ids=lambda f: " ".join(f))
    def test_known_failures_are_usage_errors(self, flags, tmp_path, capsys):
        code, err, payload = _pep_bound_twice(flags, tmp_path, capsys)
        assert code == 2 and payload is None
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    # variants the CLI does not build: the start on the ball, and the
    # extrapolated-point measure of the delta problem
    @pytest.mark.parametrize("build", [
        lambda: ball_norm_pep(1.0, 0.5, 0.5, K=3),
        *[(lambda g=g: delta_composite_pep(1.0, g, g)) for g in (0.5, 0.7071, 1.0, 1.1, 1.5)],
    ], ids=["ball-K3", *[f"f-eg-{g}" for g in (0.5, 0.7071, 1.0, 1.1, 1.5)]])
    def test_variants_verified_and_deterministic(self, build, tmp_path):
        prob = build()
        a, b = solve(prob), solve(prob)
        assert a.solver["method"] == "interior-point"
        assert (a.to_json(), a.solver) == (b.to_json(), b.solver)
        path = tmp_path / "prob.dat-s"
        export_sdpa(prob, path)
        _check_against_export(path, {"point": a.to_json(), "lower_bound": a.objective})


class TestReport:
    def test_report_all_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["report", "--seed", "3", "--iters", "40", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_pass"] is True
        assert payload["seed"] == 3
