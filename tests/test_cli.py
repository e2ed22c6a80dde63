import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperpi
from hyperpi import ctx_new, parse_complex, pi_reference_digits
from hyperpi.cli import _EVAL_FNS, main
from hyperpi.suite import agm_oracle_reports, functional_equation_reports

from _oracles import LAM_2I, e2_divisor_sum, eisenstein_theta_forms, lambda_theta_quotient


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

    @pytest.mark.parametrize("fn", ["F", "F2"])
    def test_lambda_with_a_400_digit_exponent(self, capsys, fn):
        # log|lambda| overflows a float, and the series is 1 to 30 digits
        code, out, _ = run(capsys, "eval", "--fn", fn, f"--lambda=0.5e-{10**399}", "--digits", "30")
        assert (code, out.strip()) == (0, "1.0")

    @pytest.mark.parametrize("fn", ["F", "F2"])
    @pytest.mark.parametrize("point", ["1e-1000000", "-1e-1000000"])
    def test_lambda_far_below_every_tolerance(self, capsys, fn, point):
        # the guard bits do not grow with 1/|lambda|
        code, out, _ = run(capsys, "eval", "--fn", fn, f"--lambda={point}", "--digits", "30")
        assert (code, out.strip()) == (0, "1.0")

    @pytest.mark.parametrize("fn", ["F", "F2"])
    @pytest.mark.parametrize("point,larger", [(f"0.5e-{10**399}+0.1i", "0.1i"), (f"0.1+0.5e-{10**399}i", "0.1")],
                             ids=["tiny_re", "tiny_im"])
    def test_a_part_far_below_the_other_prints_the_larger_alone(self, capsys, fn, point, larger):
        # exact integers would be as wide as the 10^400-digit gap: the kernel
        # reads the smaller part as 0
        outputs = [run(capsys, "eval", "--fn", fn, f"--lambda={p}", "--digits", "30") for p in (point, larger)]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    def test_bad_tau_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "eta", "--tau", "nonsense")
        assert code == 2
        assert "error" in err


EVAL_POINTS = {"tau": "0.3+0.9i", "lambda": "0.3"}
EVAL_CASES = [(fn, option) for fn, evaluators in _EVAL_FNS.items() for option in evaluators]


def _eval_oracle(fn, option):
    """The value of `eval --fn fn` at EVAL_POINTS[option] from mpmath alone:
    ellipk and mpmath's own 2F1 for a lambda point, _tau_oracle for a tau
    point."""
    if option == "tau":
        return _tau_oracle(fn, mpmath.mpc(*EVAL_POINTS["tau"][:-1].split("+")), 30)
    lam = mpmath.mpf(EVAL_POINTS["lambda"])
    if fn == "F":
        return 2 * mpmath.ellipk(lam) / mpmath.pi
    if fn == "F2":
        return mpmath.hyp2f1(1.5, 1.5, 2, lam)
    return 4 * (lam * lam - lam + 1) ** 3 / (27 * lam * lam * (1 - lam) ** 2)  # j


def _tau_oracle(fn, tau, digits):
    """The value of `eval --fn fn` at tau, Im(tau) >= 0.01, from mpmath alone
    to about 10^-(digits+10): mpmath's eta and q-Pochhammer symbol, theta
    functions and a divisor-sum E2.  The digits of Im(tau) are added, as
    the exponent of the nome needs them."""
    digits += max(0, int(mpmath.log10(tau.imag)))
    with mpmath.workdps(digits + 40):
        tau = mpmath.mpc(tau)
        if fn == "eta":
            return mpmath.eta(tau)
        if fn == "lambda":
            return lambda_theta_quotient(tau, digits)
        if fn == "e2":
            return e2_divisor_sum(tau, digits)
        q = mpmath.exp(2j * mpmath.pi * tau)
        # Delta / (2 pi)^12 = q prod (1 - q^n)^24; mpmath's qp shifts by the
        # exponent of a q below the working precision, where it rounds to 1
        delta = q * (mpmath.qp(q) ** 24 if abs(q) > mpmath.eps else 1)
        if fn == "delta":
            return (2 * mpmath.pi) ** 12 * delta
        e4, e6 = eisenstein_theta_forms(tau, digits)
        return {
            "e4": lambda: e4,
            "e6": lambda: e6,
            "j": lambda: e4**3 / (1728 * delta),
            "s2": lambda: e4 / e6 * (e2_divisor_sum(tau, digits) - 3 / (mpmath.pi * tau.imag)),
        }[fn]()


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
        # that refer to it, so the table must look each function up in its
        # module at call time
        called = []
        for module, name in (("modular", "lambda_tau"), ("modular", "eta"), ("modular", "eisenstein"),
                             ("modular", "delta_tau"), ("modular", "s2"), ("legendre", "normalized_j"),
                             ("hypergeometric", "legendre_F"), ("hypergeometric", "legendre_F2")):
            namespace = importlib.import_module(f"hyperpi.{module}")

            def wrapper(*args, _name=name, _fn=getattr(namespace, name)):
                called.append(_name)
                return _fn(*args)
            monkeypatch.setattr(namespace, name, wrapper)
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


TAU_FNS = [fn for fn, evaluators in _EVAL_FNS.items() if "tau" in evaluators]
ORACLE_MIN_IM = 0.05  # below it the oracles' theta and divisor sums grow too long


def _eval_anywhere(fn, point, digits, oracle=None):
    """`eval --fn fn --tau=point` in this process either exits 1 with one
    `error:` line, or exits 0 with a value within 10^(5-digits) of
    oracle(tau), where an oracle is given: relative to |value| for eta,
    Delta and lambda, which have no zeros, and to max(1, |value|) for the
    rest.  An exception raised out of main fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--fn", fn, f"--tau={point}", "--digits", str(digits)])
    if code == 1:
        assert not out.getvalue() and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    assert code == 0 and not err.getvalue()
    ctx = ctx_new(digits)
    got = parse_complex(out.getvalue().strip(), ctx)
    if oracle is not None:
        # the oracle at the decimal tau, as eval reads it: 500 more digits
        # hold every point here (|tau| <= 1e400) to far more than it needs
        expected = oracle(parse_complex(point, ctx_new(digits + 500)))
        with mpmath.workdps(digits + 40):
            scale = abs(expected) if fn in ("eta", "delta", "lambda") else max(1, abs(expected))
            assert abs(mpmath.mpc(got) - expected) <= mpmath.mpf(10) ** (5 - digits) * scale


class TestExtremeTau:
    def test_delta_at_huge_im(self):
        # the nome e^(2 pi i tau) lies far below the tail tolerance
        _eval_anywhere("delta", "0.3+1e400i", 30, lambda tau: _tau_oracle("delta", tau, 30))

    def test_lambda_near_the_real_axis(self):
        # gamma = (3 -1; 10 -3) is T modulo 2, so lambda(tau) = l/(l-1) with
        # l = lambda(gamma tau), and Im(gamma tau) is about 10^10
        def oracle(tau):
            with mpmath.workdps(80):
                tau = mpmath.mpc(tau)
                lam = _tau_oracle("lambda", (3 * tau - 1) / (10 * tau - 3), 30)
                return lam / (lam - 1)

        _eval_anywhere("lambda", "0.3+1e-12i", 30, oracle)

    @pytest.mark.parametrize("fn", ["eta", "e2", "delta", "lambda", "j"])
    @pytest.mark.parametrize("point", ["0.3+0.01i", "0.3+1e-30i", "0.3+1e400i", "1e30+1i"])
    def test_extreme_points_exit_0_or_1(self, fn, point):
        # near the real axis, with a nome far below the tail tolerance, and
        # with a shift of 10^30
        _eval_anywhere(fn, point, 30)

    @pytest.mark.parametrize("fn,point", [
        *(pytest.param(fn, "0.5+40i", id=fn) for fn in ("e2", "e4", "e6", "s2", "delta")),
        *(pytest.param(fn, point, id=f"{fn}-{point}") for point in ("0.5+1.79634i", "1.5+0.0048552i")
          for fn in ("e2", "e4", "e6", "s2", "delta")),
        *(pytest.param("j", point, id=f"j-{point}") for point in ("0.5+0.05i", "-1.5+2i", "-0.5+0.87i")),
    ])
    def test_real_at_a_half_integer_re(self, capsys, fn, point):
        # q(tau) is real where 2 Re(tau) is an integer, and so are E_k, Delta,
        # s2 and j: the rounding noise of the nome and of the map back along
        # the word (for j, of the complex lambda it is formed from) prints no
        # imaginary part.  At 0.5+40i q = -e^(-80 pi) is far below 2^-bits,
        # and so is the noise in Im q: both are read as 0
        code, out, _ = run(capsys, "eval", "--fn", fn, f"--tau={point}", "--digits", "30")
        assert code == 0 and "i" not in out
        expected = _tau_oracle(fn, parse_complex(point, ctx_new(530)), 30)
        with mpmath.workdps(70):
            scale = abs(expected) if fn == "delta" else max(1, abs(expected))
            assert abs(mpmath.mpf(out.strip()) - expected) <= mpmath.mpf("1e-29") * scale

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="Python prints integers of any length here")
    def test_an_unprintable_value_fails_fast(self, capsys):
        # |eta| is about 10^(-10^4998): its decimal exponent has more digits
        # than Python converts to a string, found before mpmath forms them
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--fn", "eta", "--tau=0.3+1e-5000i", "--digits", "30")
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        assert "decimal exponent has 4998 digits" in err

    @pytest.mark.parametrize("fn", ["e4", "lambda", "delta", "eta"])
    def test_parts_too_far_apart_for_the_exact_reduction(self, capsys, fn):
        # tau's exact integers would have 10^400 digits: refused before they are formed
        code, out, err = run(capsys, "eval", "--fn", fn, f"--tau=1e-{10**399}+1i", "--digits", "30")
        assert (code, out) == (1, "")
        assert err.startswith("error: the exact reduction of tau needs integers") and err.count("\n") == 1

    def test_eta_with_a_million_digit_gap(self, capsys):
        # 3.3-million-bit integers, each converted to an mpf in linear time;
        # eta(i + e) = eta(i) (1 + e pi i E2(i) / 12) + O(e^2), and E2(i) = 3/pi
        start = time.perf_counter()
        code, out, _ = run(capsys, "eval", "--fn", "eta", "--tau=1e-1000000+1i", "--digits", "30")
        assert time.perf_counter() - start < 10 and code == 0
        _, at_i, _ = run(capsys, "eval", "--fn", "eta", "--tau=1i", "--digits", "30")
        value = parse_complex(out.strip(), ctx_new(30))
        assert value.real == parse_complex(at_i.strip(), ctx_new(30)).real
        with mpmath.workdps(40):
            expected = mpmath.mpf(at_i.strip()) / 4 * mpmath.mpf("1e-1000000")
            assert abs(value.imag - expected) <= abs(expected) * mpmath.mpf("1e-29")

    @pytest.mark.parametrize("fn,point", [("lambda", "0.3+1e-12i"), ("eta", "0.3+1e-30i")])
    def test_thirty_digits_are_the_first_of_sixty(self, capsys, fn, point):
        # tau0 moves by |dtau| Im(tau0)/Im(tau) there, so a tau rounded to 30
        # digits before the reduction would give about 19 and 0 right digits
        values = []
        for digits in (30, 60):
            code, out, _ = run(capsys, "eval", "--fn", fn, f"--tau={point}", "--digits", str(digits))
            assert code == 0
            values.append(out.strip())
        with mpmath.workdps(80):
            short, full = (mpmath.mpc(parse_complex(v, ctx_new(60))) for v in values)
            # each printed part is rounded to 30 digits: half a unit of its
            # last digit, and a little more for the value's own error
            for part in ("real", "imag"):
                a, b = getattr(short, part), getattr(full, part)
                assert abs(a - b) <= abs(b) * mpmath.mpf("1e-29")

    @pytest.mark.parametrize("point", ["1.6650549875285193e-21+1.0i", "0.4+0.200000000000000000001i"])
    def test_s2_near_a_zero_of_e6(self, point):
        # E6 and E2 - 3/(pi Im tau) both vanish on the orbit of i (c = 0 and
        # c = 2 here), so their quotient needs the digits E6 lacks
        _eval_anywhere("s2", point, 30, lambda tau: _tau_oracle("s2", tau, 30))

    @settings(max_examples=200, deadline=None)
    @given(fn=st.sampled_from(TAU_FNS), re=st.floats(-10, 10), log10_im=st.floats(-40, 40))
    def test_every_tau_function_anywhere(self, fn, re, log10_im):
        im = 10.0**log10_im
        oracle = (lambda tau: _tau_oracle(fn, tau, 30)) if im >= ORACLE_MIN_IM else None
        _eval_anywhere(fn, f"{re!r}+{im!r}i", 30, oracle)


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
