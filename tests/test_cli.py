import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import hyperpi
from hyperpi import cli, ctx_new, parse_complex, pi_reference_digits
from hyperpi.cli import _EVAL_FNS, main
from hyperpi.suite import agm_oracle_reports, functional_equation_reports

from _oracles import LAM_2I


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_identity1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "1", "--digits", "100")
        assert code == 0
        assert out.startswith("PASS  identity1")

    def test_both_identities_default(self, capsys):
        code, out, _ = run(capsys, "verify", "--digits", "30")
        assert code == 0
        assert "identity1" in out and "identity2" in out

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "--json", "--digits", "30")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 2
        for obj in lines:
            assert set(obj) == {"label", "lhs", "rhs", "abs_error", "digits_requested", "pass", "branch_flags"}
            assert obj["pass"] is True


class TestEval:
    def test_lambda_at_2i(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "lambda", "--tau", "0+2i", "--digits", "30")
        assert code == 0
        assert out.strip().startswith(LAM_2I[:25])

    def test_F_at_half(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "F", "--lambda", "0.5", "--digits", "20")
        assert code == 0
        assert out.strip().startswith("1.18034059901609622")

    def test_j_from_lambda(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "j", "--lambda", "0.5", "--digits", "20")
        assert code == 0
        assert out.strip().startswith("1.0")

    def test_json_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "e2", "--tau", "0+1i", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["fn"] == "e2"
        assert obj["value"].startswith("0.954929658551372")

    def test_s2_indeterminate_exits_1(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "s2", "--tau", "0+1i")
        assert code == 1
        assert "combined" in err

    def test_missing_tau_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "eta")
        assert code == 2
        assert "requires --tau" in err

    def test_negative_tau_as_single_token(self, capsys):
        # a value starting with '-' must be attached: --tau=-0.5+1i
        code, out, _ = run(capsys, "eval", "--fn", "eta", "--tau=-0.5+1i", "--digits", "20")
        assert code == 0
        assert out.strip()

    @pytest.mark.parametrize("fn,option,point", [("eta", "tau", "-0.5+1i"), ("F", "lambda", "-0.3+0.1i")])
    def test_negative_point_as_two_tokens(self, capsys, fn, option, point):
        code, out, _ = run(capsys, "eval", "--fn", fn, f"--{option}", point, "--digits", "20")
        assert code == 0
        assert (code, out) == run(capsys, "eval", "--fn", fn, f"--{option}={point}", "--digits", "20")[:2]

    @pytest.mark.parametrize("argv", [["--fn", "eta", "--tau"], ["--fn", "F", "--lambda", "--digits", "20"]])
    def test_missing_point_value_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["eval", *argv])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_bad_tau_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "eta", "--tau", "nonsense")
        assert code == 2
        assert "error" in err


EVAL_POINTS = {"tau": "0.3+0.9i", "lambda": "0.3"}
EVAL_CASES = [(fn, option) for fn, evaluators in _EVAL_FNS.items() for option in evaluators]


def _eval_oracle(fn, option):
    """The value of `eval --fn fn` at EVAL_POINTS[option] from mpmath alone:
    theta functions, the q-Pochhammer symbol, a divisor-sum E2, ellipk and
    mpmath's own 2F1."""
    if option == "lambda":
        lam = mpmath.mpf(EVAL_POINTS["lambda"])
        if fn == "F":
            return 2 * mpmath.ellipk(lam) / mpmath.pi
        if fn == "F2":
            return mpmath.hyp2f1(1.5, 1.5, 2, lam)
        return 4 * (lam * lam - lam + 1) ** 3 / (27 * lam * lam * (1 - lam) ** 2)  # j
    tau = mpmath.mpc(*EVAL_POINTS["tau"][:-1].split("+"))
    q = mpmath.exp(2j * mpmath.pi * tau)
    t2, t3, t4 = (mpmath.jtheta(k, 0, mpmath.exp(1j * mpmath.pi * tau)) ** 4 for k in (2, 3, 4))
    e2 = 1 - 24 * mpmath.fsum(sum(d for d in range(1, n + 1) if n % d == 0) * q**n for n in range(1, 80))
    e4 = (t2 * t2 + t3 * t3 + t4 * t4) / 2
    e6 = (t2 + t3) * (t3 + t4) * (t4 - t2) / 2
    return {
        "lambda": t2 / t3,
        "eta": mpmath.exp(1j * mpmath.pi * tau / 12) * mpmath.qp(q),
        "e2": e2,
        "e4": e4,
        "e6": e6,
        "delta": (2 * mpmath.pi) ** 12 * q * mpmath.qp(q) ** 24,
        "j": e4**3 / (e4**3 - e6**2),
        "s2": e4 / e6 * (e2 - 3 / (mpmath.pi * tau.imag)),
    }[fn]


class TestEvalTable:
    @pytest.mark.parametrize("fn,option", EVAL_CASES)
    def test_evaluates_at_its_point(self, capsys, fn, option):
        code, out, _ = run(capsys, "eval", "--fn", fn, f"--{option}={EVAL_POINTS[option]}", "--digits", "30")
        assert code == 0
        with mpmath.workdps(60):
            expected = _eval_oracle(fn, option)
            got = parse_complex(out.strip(), ctx_new(50))
            assert abs(got - expected) < mpmath.mpf("1e-25") * max(1, abs(expected))

    def test_evaluators_call_the_module_names(self, capsys, monkeypatch):
        # perfbench's tracer wraps a function by patching the module names
        # that refer to it, so the table must call through those names
        called = []
        for name in ("lambda_tau_reduced", "eta", "eisenstein", "delta_tau", "normalized_j", "s2",
                     "legendre_F", "legendre_F2"):
            def wrapper(*args, _name=name, _fn=getattr(cli, name)):
                called.append(_name)
                return _fn(*args)
            monkeypatch.setattr(cli, name, wrapper)
        for fn, option in EVAL_CASES:
            called.clear()
            code, _, _ = run(capsys, "eval", "--fn", fn, f"--{option}={EVAL_POINTS[option]}", "--digits", "20")
            assert code == 0 and called, (fn, option)

    @pytest.mark.parametrize("fn", list(_EVAL_FNS))
    def test_missing_point_is_usage_error(self, capsys, fn):
        others = [f"--{o}={p}" for o, p in EVAL_POINTS.items() if o not in _EVAL_FNS[fn]]
        code, _, err = run(capsys, "eval", "--fn", fn, *others)
        assert code == 2
        assert f"--fn {fn} requires --" in err


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["pi", "--json"], ["verify", "--seed", "1"]])
    def test_options_a_subcommand_does_not_read_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_nonpositive_digits_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--digits", "0"])
        assert exc.value.code == 2


class TestOneProcess:
    def test_calls_in_one_process_match_separate_runs(self, capsys, monkeypatch):
        # main builds its parser once per process, so a usage error must not
        # change what later calls print or return
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this width
        calls = [["eval", "--fn", "eta", "--tau"],
                 ["eval", "--fn", "e4", "--tau", "-0.5+1i", "--digits", "20"],
                 ["selftest", "--digits", "10"]]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        env = dict(os.environ, PYTHONPATH=str(Path(hyperpi.__file__).resolve().parent.parent))
        separate = []
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "hyperpi.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            separate.append((proc.returncode, proc.stdout, proc.stderr))
        assert [code for code, _, _ in in_process] == [2, 0, 0]
        assert in_process == separate


class TestPi:
    def test_fifty_digits_identity2(self, capsys):
        code, out, _ = run(capsys, "pi", "--method", "identity2", "--digits", "50")
        assert code == 0
        assert out.strip() == pi_reference_digits(50)


class TestCmReport:
    def test_triple_1_0_4(self, capsys):
        code, out, _ = run(capsys, "cm-report", "--abc", "1,0,4", "--digits", "60")
        assert code == 0
        assert "theorem-general (1,0,4)" in out
        assert "quasiperiod (1,0,4)" in out

    def test_invalid_triple_is_usage_error(self, capsys):
        code, _, err = run(capsys, "cm-report", "--abc", "2,0,2")
        assert code == 2
        assert "coprime" in err


class TestSelftest:
    def test_small_scale_run(self, capsys):
        code, out, _ = run(capsys, "selftest", "--digits", "18", "--seed", "0")
        assert code == 0
        assert "checks passed" in out

    def test_json_lines_parse(self, capsys):
        code, out, _ = run(capsys, "selftest", "--digits", "18", "--json")
        assert code == 0
        for line in out.strip().splitlines():
            json.loads(line)


class TestSuiteDeterminism:
    def test_seeded_families_are_reproducible(self):
        a = agm_oracle_reports(18, seed=0)
        b = agm_oracle_reports(18, seed=0)
        assert [r.lhs for r in a] == [r.lhs for r in b]
        assert [r.label for r in a] == [r.label for r in b]
        c = functional_equation_reports(18, seed=3)
        d = functional_equation_reports(18, seed=3)
        assert [r.lhs for r in c] == [r.lhs for r in d]
