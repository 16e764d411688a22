"""Command line interface: subcommands, exit codes, deterministic output."""

import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import alphaperm
from alphaperm.cli import main
from alphaperm.matrices import (
    Matrix,
    loads_matrix,
    random_unit_diag_psd,
    write_matrix,
)
from alphaperm.scalars import parse_scalar, to_float_scalar

F = Fraction


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def psd_file(tmp_path):
    A = random_unit_diag_psd(4, "real-symmetric", 3, seed=7)
    p = tmp_path / "a.mat"
    write_matrix(A, str(p))
    return str(p)


@pytest.fixture
def plain_file(tmp_path):
    A = Matrix([[F(1), F(2)], [F(3), F(4)]])
    p = tmp_path / "p.mat"
    write_matrix(A, str(p))
    return str(p)


class TestCompute:
    def test_per_alpha(self, plain_file):
        code, out, _ = run_cli("compute", "per-alpha", "--alpha", "2",
                               plain_file)
        assert code == 0
        assert out.strip() == "28"  # 4a^2 + 6a at a=2

    def test_per_det_haf(self, plain_file, tmp_path):
        assert run_cli("compute", "per", plain_file)[1].strip() == "10"
        assert run_cli("compute", "det", plain_file)[1].strip() == "-2"
        S = Matrix([[F(1), F(3)], [F(3), F(1)]], real_symmetric=True)
        p = tmp_path / "s.mat"
        write_matrix(S, str(p))
        assert run_cli("compute", "haf", str(p))[1].strip() == "3"

    def test_float_det_overflow_prints_inf(self, tmp_path):
        p = tmp_path / "big.mat"
        p.write_text("n 2\nfield float\n1e200 0\n0 1e200\n")
        code, out, _ = run_cli("compute", "det", "--mode", "float", str(p))
        assert code == 0 and out.strip() == "inf"

    @pytest.mark.parametrize("quantity", ["det", "per", "per-alpha", "haf",
                                          "det-alpha"])
    def test_float_mode_entry_beyond_range_is_input_error(self, tmp_path,
                                                          quantity):
        p = tmp_path / "huge.mat"
        p.write_text("n 1\nfield rational\nflags real-symmetric\n1%s\n"
                     % ("0" * 400))
        code, out, err = run_cli("compute", quantity, "--alpha", "3/2",
                                 "--mode", "float", str(p))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "binary64" in err and "0" * 20 not in err

    @pytest.mark.parametrize("quantity", ["per-alpha", "det-alpha"])
    def test_float_mode_alpha_beyond_range_is_input_error(self, plain_file,
                                                          quantity):
        code, out, err = run_cli("compute", quantity, "--alpha",
                                 "-1" + "0" * 400, "--mode", "float",
                                 plain_file)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "binary64" in err and "0" * 20 not in err

    def test_det_alpha(self, plain_file):
        code, out, _ = run_cli("compute", "det-alpha", "--alpha", "-1",
                               plain_file)
        assert code == 0 and out.strip() == "-2"

    def test_naive_algo_agrees(self, plain_file):
        a = run_cli("compute", "per-alpha", "--alpha", "5/3", plain_file)
        b = run_cli("compute", "per-alpha", "--alpha", "5/3", "--algo",
                    "naive", plain_file)
        assert a[1] == b[1]

    def test_float_mode(self, plain_file):
        code, out, _ = run_cli("compute", "per", "--mode", "float",
                               plain_file)
        assert code == 0
        assert float(out.strip()) == pytest.approx(10.0)

    @pytest.mark.parametrize("quantity", ["per-alpha", "det-alpha"])
    def test_float_mode_complex_alpha_real_matrix(self, plain_file, quantity):
        args = ("compute", quantity, "--alpha", "1/2+1/3i", plain_file)
        code, exact, _ = run_cli(*args)
        assert code == 0
        code, out, err = run_cli(*args, "--mode", "float")
        assert code == 0, err
        expect = to_float_scalar(parse_scalar(exact.strip(),
                                              "complex-rational"))
        assert complex(out.strip()) == pytest.approx(expect, rel=1e-12)

    def test_missing_alpha_is_usage_error(self, plain_file):
        code, _, err = run_cli("compute", "per-alpha", plain_file)
        assert code == 2 and "alpha" in err

    @pytest.mark.parametrize("alpha", ["3/2\n", "1+2i\n"])
    def test_alpha_with_trailing_newline_is_input_error(self, plain_file,
                                                       alpha):
        code, out, err = run_cli("compute", "per-alpha", "--alpha", alpha,
                                 plain_file)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_is_input_error(self):
        code, _, err = run_cli("compute", "per", "/nonexistent/x.mat")
        assert code == 3 and "error:" in err

    def test_malformed_file_is_input_error(self, tmp_path):
        p = tmp_path / "bad.mat"
        p.write_text("n 2\nfield rational\nflags\n1 2\n3\n")
        code, _, err = run_cli("compute", "per", str(p))
        assert code == 3

    def test_float_matrix_rejected_in_exact_mode(self, tmp_path):
        p = tmp_path / "f.mat"
        write_matrix(Matrix([[1.5, 0.0], [0.0, 1.5]]), str(p))
        code, _, err = run_cli("compute", "per", str(p))
        assert code == 3 and "exact" in err

    def test_cap_exceeded(self, plain_file):
        code, _, err = run_cli("compute", "per", "--cap", "1", plain_file)
        assert code == 4

    def test_stdin(self, plain_file, monkeypatch):
        text = open(plain_file).read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli("compute", "per", "-")
        assert code == 0 and out.strip() == "10"

    @pytest.mark.parametrize("kernel, args", [
        ("RYSER", ("per",)),
        ("DP", ("per-alpha", "--alpha", "3/2")),
        ("NAIVE", ("per-alpha", "--alpha", "3/2", "--algo", "naive")),
        ("HAFNIAN", ("haf",))])
    def test_cap_override_from_environment(self, psd_file, monkeypatch,
                                           kernel, args):
        monkeypatch.setenv("ALPHAPERM_CAP_" + kernel, "3")
        code, out, err = run_cli("compute", *args, psd_file)
        assert code == 4 and out == "" and "exceeds cap 3" in err
        monkeypatch.setenv("ALPHAPERM_CAP_" + kernel, "four")
        code, out, err = run_cli("compute", *args, psd_file)
        assert code == 4 and out == "" and "bad cap override" in err
        monkeypatch.setenv("ALPHAPERM_CAP_" + kernel, "4")
        assert run_cli("compute", *args, psd_file)[0] == 0

    def test_bad_quantity_is_usage_error(self, plain_file):
        with pytest.raises(SystemExit) as exc:
            run_cli("compute", "trace", plain_file)
        assert exc.value.code == 2


# non-ASCII matrix bytes and the line loads_matrix names for them
_NON_ASCII = [
    (b"n 1\nfield rational\nflags\n\xff\n", 4),
    ("n 1\nfield rational\nflags\n\u0663\n".encode(), 4),
    ("n \u00b2\nfield rational\nflags\n1\n".encode(), 1),
    ("n 1\nfield float\nflags\n\u0663.5\n".encode(), 4),
]


class TestMalformedInput:
    """Malformed input exits 3 with one error line, never a traceback."""

    @pytest.mark.parametrize("data, line", _NON_ASCII)
    def test_non_ascii_file(self, tmp_path, data, line):
        p = tmp_path / "bad.mat"
        p.write_bytes(data)
        assert run_cli("compute", "per", str(p)) == (
            3, "", "error: non-ASCII text on line %d\n" % line)

    @pytest.mark.parametrize("data, line", _NON_ASCII)
    def test_non_ascii_stdin(self, monkeypatch, data, line):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run_cli("compute", "per", "-") == (
            3, "", "error: non-ASCII text on line %d\n" % line)
        text = data.decode("utf-8", "replace")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_cli("compute", "per", "-")[0] == 3

    def test_non_ascii_stdin_of_a_process(self):
        out = subprocess.run(
            [sys.executable, "-m", "alphaperm.cli", "compute", "per", "-"],
            input=_NON_ASCII[0][0], capture_output=True, env=child_env())
        assert (out.returncode, out.stdout, out.stderr) == (
            3, b"", b"error: non-ASCII text on line 4\n")

    @pytest.mark.parametrize("alpha", ["\u0663", "1/\u0663", "\u0663+1i"])
    def test_non_ascii_alpha(self, plain_file, alpha):
        code, out, err = run_cli("compute", "per-alpha", "--alpha=" + alpha,
                                 plain_file)
        assert (code, out) == (3, "") and err.startswith("error: bad ")
        assert err.count("\n") == 1


class TestLongValues:
    """Exact values parse and print at any length, past Python's default
    limit of 4,300 digits for int/str conversion."""

    @staticmethod
    def run_process(*argv):
        env = child_env()
        env["PYTHONINTMAXSTRDIGITS"] = "4300"
        out = subprocess.run([sys.executable, "-m", "alphaperm.cli", *argv],
                             capture_output=True, text=True, env=env)
        return out.returncode, out.stdout, out.stderr

    def test_long_token(self, tmp_path):
        token = "7" * 5000
        p = tmp_path / "long.mat"
        p.write_text("n 1\nfield rational\n%s\n" % token)
        assert self.run_process("compute", "per", str(p)) == (
            0, token + "\n", "")

    def test_long_alpha(self, tmp_path):
        alpha = "-" + "3" * 4400 + "/7"
        p = tmp_path / "one.mat"
        p.write_text("n 1\nfield rational\n1\n")
        assert self.run_process("compute", "per-alpha", "--alpha=" + alpha,
                                str(p)) == (0, alpha + "\n", "")

    @pytest.mark.parametrize("quantity", ["det", "per"])
    def test_long_result(self, tmp_path, quantity):
        big = "1" + "0" * 3000
        p = tmp_path / "diag.mat"
        p.write_text("n 2\nfield rational\n%s 0\n0 %s\n" % (big, big))
        assert self.run_process("compute", quantity, str(p)) == (
            0, "1" + "0" * 6000 + "\n", "")

    def test_limit_is_restored(self, plain_file):
        limit = sys.get_int_max_str_digits()
        assert run_cli("compute", "per", plain_file)[0] == 0
        assert sys.get_int_max_str_digits() == limit


class TestGen:
    def test_writes_and_prints_path(self, tmp_path):
        out_path = str(tmp_path / "g.mat")
        code, out, _ = run_cli("gen", "--n", "4", "--seed", "3",
                               "--unit-diagonal", "--out", out_path)
        assert code == 0
        assert out.strip() == out_path
        A = loads_matrix(open(out_path).read())
        assert A.n == 4 and all(d == 1 for d in A.diagonal())

    def test_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "a.mat"), str(tmp_path / "b.mat")
        run_cli("gen", "--n", "3", "--seed", "5", "--out", p1)
        run_cli("gen", "--n", "3", "--seed", "5", "--out", p2)
        assert open(p1).read() == open(p2).read()

    def test_negative_n_is_input_error(self, tmp_path):
        out_path = tmp_path / "x.mat"
        for flags in ((), ("--unit-diagonal",), ("--symmetric-only",)):
            code, out, err = run_cli("gen", "--n", "-1", *flags, "--out",
                                     str(out_path))
            assert code == 3 and out == "" and "n must be >= 0" in err
            assert not out_path.exists()

    def test_hermitian(self, tmp_path):
        out_path = str(tmp_path / "h.mat")
        run_cli("gen", "--n", "3", "--kind", "hermitian", "--seed", "2",
                "--out", out_path)
        A = loads_matrix(open(out_path).read())
        assert A.kind == "complex-rational" and A.hermitian


class TestCheck:
    def test_exit_zero_and_report(self):
        code, out, _ = run_cli("check", "--suite", "all", "--n-max", "4",
                               "--trials", "3", "--seed", "1")
        assert code == 0
        assert "check suite=identities" in out
        assert "check suite=inequalities" in out
        assert "result PASS" in out

    def test_deterministic_output(self):
        a = run_cli("check", "--suite", "inequalities", "--n-max", "4",
                    "--trials", "3", "--seed", "2")
        b = run_cli("check", "--suite", "inequalities", "--n-max", "4",
                    "--trials", "3", "--seed", "2")
        assert a == b

    def test_jobs_equivalence(self):
        a = run_cli("check", "--suite", "identities", "--n-max", "4",
                    "--trials", "4", "--seed", "3", "--jobs", "1")
        b = run_cli("check", "--suite", "identities", "--n-max", "4",
                    "--trials", "4", "--seed", "3", "--jobs", "2")
        assert a == b

    @pytest.mark.parametrize("suite", ["identities", "inequalities", "all"])
    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_n_max_below_one_is_input_error(self, suite, n_max):
        code, out, err = run_cli("check", "--suite", suite, "--n-max", n_max,
                                 "--trials", "2")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("suite", ["identities", "inequalities", "all"])
    def test_no_trials_is_input_error(self, suite):
        # zero trials would print every check as 0/0 and "result PASS"
        code, out, err = run_cli("check", "--suite", suite, "--trials", "0")
        assert code == 3 and out == ""
        assert "trials >= 1" in err

    def test_inequality_suite_needs_a_split(self):
        # n-max 1 would name n = 1 in the header and check n = 2 instances
        code, out, err = run_cli("check", "--suite", "inequalities",
                                 "--n-max", "1", "--trials", "2")
        assert code == 3 and out == ""
        assert "n_max >= 2" in err

    @pytest.mark.parametrize("suite", ["identities", "inequalities", "all"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_negative_tol_is_input_error(self, suite, mode, tol):
        # a negative tolerance fails every float comparison
        code, out, err = run_cli("check", "--suite", suite, "--trials", "2",
                                 "--mode", mode, "--tol", tol)
        assert code == 3 and out == ""
        assert "tol >= 0" in err

    def test_float_mode_keeps_the_sign_of_zero(self):
        # at alpha = 0 the float lane reads (-1)^n per_{-0.0}(A) as the
        # cycle polynomial at (0.0, -1.0), c_0 = 0, whose sum is +0.0; the
        # printed slack keeps that sign
        code, out, _ = run_cli("check", "--suite", "inequalities", "--mode",
                               "float", "--trials", "1", "--seed", "3")
        assert code == 0
        (line,) = [x for x in out.splitlines()
                   if x.split()[0] == "neg-nonneg"]
        assert line.endswith(" min-slack=0.0 trial=0")

    def test_float_mode_informational(self):
        code, out, _ = run_cli("check", "--suite", "identities", "--n-max",
                               "3", "--trials", "2", "--seed", "0", "--mode",
                               "float")
        assert code == 0
        assert "INFO" in out


class TestHunt:
    def test_marcus_clean(self, tmp_path):
        out_file = str(tmp_path / "f.jsonl")
        code, out, _ = run_cli("hunt", "--target", "marcus", "--n", "4",
                               "--trials", "30", "--seed", "2", "--out",
                               out_file)
        assert code == 0
        assert "violations 0" in out
        assert os.path.exists(out_file)

    def test_deterministic_across_jobs(self, tmp_path):
        f1, f2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        a = run_cli("hunt", "--target", "marcus,lieb", "--n", "4", "--trials",
                    "20", "--seed", "4", "--jobs", "1", "--out", f1)
        b = run_cli("hunt", "--target", "marcus,lieb", "--n", "4", "--trials",
                    "20", "--seed", "4", "--jobs", "2", "--out", f2)
        assert a[0] == b[0]
        base1 = f1[: -len("a.jsonl")] + "a"
        base2 = f2[: -len("b.jsonl")] + "b"
        assert a[1].replace(base1, "F") == b[1].replace(base2, "F")
        assert open(f1).read() == open(f2).read()

    def test_violation_exit_and_record(self, tmp_path):
        out_file = str(tmp_path / "v.jsonl")
        code, out, _ = run_cli("hunt", "--target", "lieb-type", "--n", "4",
                               "--trials", "143", "--seed", "3", "--out",
                               out_file)
        assert code == 1
        assert "violations 1" in out
        lines = open(out_file).read().splitlines()
        recs = [json.loads(x) for x in lines]
        viol = [r for r in recs if r["record"] == "violation"]
        assert len(viol) == 1 and viol[0]["name"] == "neg-block"
        # the argmin matrix file is written next to the findings
        argmin = str(tmp_path / "v.argmin.mat")
        assert os.path.exists(argmin)
        assert loads_matrix(open(argmin).read()).n == 4

    def test_min_slack_line_is_the_first_min_slack_record(self, tmp_path):
        out_file = str(tmp_path / "m.jsonl")
        code, out, _ = run_cli("hunt", "--target", "lieb-type", "--kind",
                               "hermitian", "--n", "5", "--trials", "16",
                               "--seed", "1", "--keep-smallest", "2",
                               "--out", out_file)
        assert code == 0
        (line,) = [x for x in out.splitlines() if x.startswith("min-slack ")]
        slack, *where = line.split()[1:]
        fields = dict(w.split("=") for w in where)
        kept = [json.loads(x) for x in open(out_file).read().splitlines()]
        kept = [r for r in kept if r["record"] == "min-slack"]
        assert len(kept) == 2
        first = kept[0]
        assert slack == first["slack"]
        assert fields["name"] == first["name"]
        assert int(fields["trial"]) == first["trial"]
        assert fields.get("split") == (None if first["split"] is None
                                       else str(first["split"]))
        assert fields.get("alpha") == first["alpha"]
        assert F(kept[0]["slack"]) <= F(kept[1]["slack"])
        argmin = (tmp_path / "m.argmin.mat").read_bytes()
        assert argmin == first["matrix"].encode("ascii")

    def test_fixed_alpha(self, tmp_path):
        out_file = str(tmp_path / "x.jsonl")
        code, out, _ = run_cli("hunt", "--target", "marcus", "--n", "3",
                               "--trials", "10", "--seed", "0", "--alpha",
                               "3/2", "--out", out_file)
        assert code == 0 and "alpha=3/2" in out

    def test_negative_keep_smallest_is_input_error(self, tmp_path):
        out_file = tmp_path / "k.jsonl"
        code, out, err = run_cli("hunt", "--n", "3", "--trials", "2",
                                 "--keep-smallest", "-1", "--out",
                                 str(out_file))
        assert code == 3 and out == "" and "keep_smallest" in err
        assert not out_file.exists()

    def test_bad_range_is_usage(self, tmp_path):
        code, _, err = run_cli("hunt", "--target", "marcus", "--alpha-range",
                               "1-2", "--out", str(tmp_path / "y.jsonl"))
        assert code == 2

    @pytest.mark.parametrize("flags", [("--alpha", "x"),
                                       ("--alpha", "1/0"),
                                       ("--alpha", "1+1i"),
                                       ("--alpha-range", "1:x"),
                                       ("--alpha-range", "2:1")])
    def test_bad_alpha_is_input_error(self, tmp_path, flags):
        code, out, err = run_cli("hunt", "--target", "marcus", "--n", "3",
                                 "--trials", "2", *flags, "--out",
                                 str(tmp_path / "a.jsonl"))
        assert code == 3
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("target", ["lieb", "fischer", "lieb-type",
                                        "marcus,fischer"])
    def test_split_target_at_n_one_is_input_error(self, tmp_path, target):
        # at n = 1 there is no split: these targets would check nothing
        out_file = tmp_path / "s.jsonl"
        code, out, err = run_cli("hunt", "--target", target, "--n", "1",
                                 "--trials", "2", "--out", str(out_file))
        assert code == 3 and out == "" and "n >= 2" in err
        assert not out_file.exists()

    def test_marcus_at_n_one_runs(self, tmp_path):
        code, out, _ = run_cli("hunt", "--target", "marcus", "--n", "1",
                               "--trials", "2", "--out",
                               str(tmp_path / "m.jsonl"))
        assert code == 0
        assert "violations 0" in out and "min-slack 0 " in out

    def test_repeated_target_is_input_error(self, tmp_path):
        # a repeated target would count its violations and findings twice
        out_file = tmp_path / "r.jsonl"
        code, out, err = run_cli("hunt", "--target", "lieb-type,lieb-type",
                                 "--n", "4", "--trials", "1", "--seed", "141",
                                 "--alpha", "13/10", "--out", str(out_file))
        assert code == 3 and out == "" and "repeated" in err
        assert not out_file.exists()

    def test_bad_target_is_input_error(self, tmp_path):
        code, _, err = run_cli("hunt", "--target", "nonsense", "--out",
                               str(tmp_path / "z.jsonl"))
        assert code == 3


class TestKeptKeys:
    @staticmethod
    def _allowed(key) -> bool:
        """The keys a matrix may keep its tables under: none names an
        alpha, only the sign of Lieb's or Fischer's value above the cut
        and of the shape averages; no table at +-1 is kept."""
        if key in ("cycle", "cycle-polynomial"):
            return True
        if not isinstance(key, tuple) or key[1:2] not in ((1,), (-1,)):
            return False
        return (key[0] == "whole" and len(key) == 2
                or key[0] == "shape-averages" and len(key) == 3)

    def test_no_table_is_keyed_by_alpha(self, monkeypatch, tmp_path):
        # both check suites in either mode, and a hunt of every family that
        # reads tables at n = 5 and at n = 11, where lieb and fischer run
        # Glynn and Bareiss on the blocks against the whole matrix's value
        seen = set()

        class Log(dict):
            def __setitem__(self, key, value):
                seen.add(key)
                dict.__setitem__(self, key, value)

        init, from_cleared = Matrix.__init__, Matrix._from_cleared.__func__

        def logged_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            object.__setattr__(self, "_tables", Log())

        def logged_from_cleared(cls, *args, **kwargs):
            self = from_cleared(cls, *args, **kwargs)
            object.__setattr__(self, "_tables", Log())
            return self

        monkeypatch.setattr(Matrix, "__init__", logged_init)
        monkeypatch.setattr(Matrix, "_from_cleared",
                            classmethod(logged_from_cleared))
        for mode in ("exact", "float"):
            code, _, _ = run_cli("check", "--suite", "all", "--trials", "1",
                                 "--mode", mode)
            assert code == 0
        for n in ("5", "11"):
            code, _, _ = run_cli("hunt", "--target",
                                 "lieb,fischer,lieb-type,marcus", "--n", n,
                                 "--trials", "1",
                                 "--out", str(tmp_path / "f.jsonl"))
            assert code == 0
        assert sorted(repr(key) for key in seen
                      if not self._allowed(key)) == []
        assert {"cycle", "cycle-polynomial", ("whole", 1),
                ("whole", -1)} <= seen


class TestSurface:
    def test_exports_and_subcommands(self):
        # every name in __all__ resolves, so `from alphaperm import *` works
        namespace = {}
        exec("from alphaperm import *", namespace)
        assert set(alphaperm.__all__) <= set(namespace)
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"\{([a-z,]+)\}", out.getvalue())) == {
            "compute,gen,check,hunt"}
        with pytest.raises(SystemExit) as exc:
            run_cli("bench")
        assert exc.value.code == 2


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def child_env(path_dir=None):
    """The test's environment, with this checkout's `alphaperm` first on
    PYTHONPATH (and `path_dir` first on PATH, if given)."""
    env = dict(os.environ)
    src = str(Path(alphaperm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    if path_dir is not None:
        env["PATH"] = os.pathsep.join(
            p for p in (str(path_dir), env.get("PATH")) if p)
    return env


class TestEntryPoint:
    def test_installed_script(self, plain_file, tmp_path):
        # Write the launcher an installer writes for each entry of
        # [project.scripts]: `alphaperm` then runs by name, uninstalled.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        for name, target in scripts.items():
            module, _, attr = target.partition(":")
            launcher = bin_dir / name
            launcher.write_text(
                "#!%s\nimport sys\nfrom %s import %s\nsys.exit(%s())\n"
                % (sys.executable, module, attr, attr))
            launcher.chmod(0o755)
        out = subprocess.run(
            ["alphaperm", "compute", "per", plain_file],
            capture_output=True, text=True, env=child_env(bin_dir),
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "10"

    def test_no_command_loads_numpy(self, psd_file, tmp_path):
        # every float kernel, the determinant too, runs on the package's
        # own loops
        code = (
            "import sys\n"
            "from alphaperm.cli import main\n"
            "def run(*argv):\n"
            "    rc = main(list(argv))\n"
            "    assert rc == 0, (argv, rc)\n"
            "run('hunt', '--target', 'marcus', '--n', '3', '--trials', '2',\n"
            "    '--out', sys.argv[1])\n"
            "run('gen', '--n', '3', '--out', sys.argv[3])\n"
            "for mode in ('exact', 'float'):\n"
            "    for q in ('per', 'per-alpha', 'det', 'haf', 'det-alpha'):\n"
            "        run('compute', q, '--alpha', '3/2', '--mode', mode,\n"
            "            sys.argv[2])\n"
            "    run('check', '--suite', 'all', '--mode', mode, '--trials',\n"
            "        '3')\n"
            "print('numpy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "f.jsonl"), psd_file,
             str(tmp_path / "g.mat")],
            capture_output=True, text=True, env=child_env(),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "False"

    def test_import_loads_no_dataclasses_or_inspect(self):
        # the records are named tuples: importing the package pulls in
        # neither dataclasses nor what they import (inspect, ast, dis)
        code = (
            "import sys\n"
            "import alphaperm.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect')\n"
            "             if m in sys.modules))\n"
        )
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=child_env())
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    @pytest.mark.skipif(importlib.util.find_spec("_sha256") is None,
                        reason="no built-in _sha256 module")
    def test_finding_digests_do_not_load_openssl(self, tmp_path):
        # matrix_digest uses the built-in sha256, not hashlib's libcrypto
        out_path = tmp_path / "f.jsonl"
        code = (
            "import sys\n"
            "from alphaperm.cli import main\n"
            "rc = main(['hunt', '--target', 'lieb-type', '--kind',\n"
            "           'hermitian', '--n', '5', '--trials', '8',\n"
            "           '--out', sys.argv[1]])\n"
            "assert rc in (0, 1), rc\n"
            "print('_hashlib' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(out_path)],
            capture_output=True, text=True, env=child_env(),
        )
        assert out.returncode == 0, out.stderr
        assert '"sha256"' in out_path.read_text()
        assert out.stdout.splitlines()[-1] == "False"

    def test_usage_error_exit_code(self):
        out = subprocess.run(
            [sys.executable, "-m", "alphaperm.cli", "wrong-command"],
            capture_output=True, text=True, env=child_env(),
        )
        assert out.returncode == 2
