import json

import pytest

from hyperpi import pi_reference_digits
from hyperpi.cli import main
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

    def test_bad_tau_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "eta", "--tau", "nonsense")
        assert code == 2
        assert "error" in err


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--bogus"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_nonpositive_digits_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--digits", "0"])
        assert exc.value.code == 2


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
        c = functional_equation_reports(18, seed=3, count=2)
        d = functional_equation_reports(18, seed=3, count=2)
        assert [r.lhs for r in c] == [r.lhs for r in d]
