"""The three benchmark workloads: argv generators and output oracles.

A workload turns the benchmark seed into an endless stream of CLI argv
lists; the program only ever sees those argv lists.  Each workload also
checks one operation's output against an oracle that hyperpi does not use
(mpmath's own pi, theta functions and q-Pochhammer symbol, and a divisor-sum
E2), so the check stays independent of the code under test.
"""

from __future__ import annotations

import itertools
import json
import random
import re

import mpmath

PI_DIGITS = 2000
PI_PROBE_DIGITS = 5000  # above Python's 4300-digit int->str limit
SELFTEST_DIGITS = 100
SELFTEST_REPORTS = 113
EVAL_DIGITS = 300
EVAL_FNS = ("lambda", "eta", "e2", "e4", "e6", "delta")
CUSP_IM_MAX = 10


def pi_digits(n: int) -> str:
    """First n significant digits of pi, truncated, from mpmath's own pi.

    nstr converts in chunks, so this works past the 4300-digit limit that
    str(int) enforces.
    """
    with mpmath.workdps(n + 20):
        return mpmath.nstr(+mpmath.pi, n + 10)[: n + 1]


class Workload:
    name: str
    warmup: list  # argv lists run once before timing, in every set-up process
    count_ops: int  # operations over which a traced run reports its counts

    def probes(self, run_checked) -> list[bool]:
        """Untimed checks of known defects, run once per run; True is a pass.

        run_checked(argv) runs one CLI call and checks it like a timed one.
        """
        return []


class PiEngine(Workload):
    """`pi --method identity1|identity2 --digits 2000`, alternating, the
    first method chosen by the seed."""

    name = "pi-engine"
    warmup = [["pi", "--method", "identity1", "--digits", "50"],
              ["pi", "--method", "identity2", "--digits", "50"]]
    count_ops = 2  # one call per method

    def __init__(self, seed: int):
        methods = ["identity1", "identity2"]
        random.Random(seed).shuffle(methods)
        self._methods = methods
        self._expected = pi_digits(PI_DIGITS)

    def stream(self):
        for method in itertools.cycle(self._methods):
            yield ["pi", "--method", method, "--digits", str(PI_DIGITS)]

    def check(self, argv, out: str) -> bool:
        return out.strip() == self._expected

    def probes(self, run_checked) -> list[bool]:
        """pi_reference_digits above 4300 digits, where str(int) stops."""
        from hyperpi.cm import pi_reference_digits

        try:
            return [pi_reference_digits(PI_PROBE_DIGITS) == pi_digits(PI_PROBE_DIGITS)]
        except ValueError:
            return [False]


class Selftest(Workload):
    """`selftest --digits 100 --seed S --json` with S drawn from the seed."""

    name = "selftest"
    warmup = [["selftest", "--digits", "10", "--seed", "0", "--json"]]
    count_ops = 2

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def stream(self):
        while True:
            yield ["selftest", "--digits", str(SELFTEST_DIGITS),
                   "--seed", str(self._rng.randrange(10**6)), "--json"]

    def check(self, argv, out: str) -> bool:
        from hyperpi.reports import FormulaReport
        from hyperpi.suite import report_acceptable

        lines = out.splitlines()
        if len(lines) != SELFTEST_REPORTS:
            return False
        for line in lines:
            fields = json.loads(line)
            fields["passed"] = fields.pop("pass")
            if not report_acceptable(FormulaReport(**fields)):
                return False
        return True


class ModularEval(Workload):
    """Short `eval --fn F --tau=<x+yi> --digits 300` calls.

    Re tau is uniform in [-1, 1] and Im tau in [0.25, 2]; for lambda, Im tau
    goes down to 0.02 so that reduce_tau runs.  The point is written as one
    `--tau=<value>` token because argparse takes a separate value that
    starts with '-' for an option and exits 2.

    Near the cusps tau = +-1, lambda is huge and the printed value loses
    about log10|lambda| - 13 of its 300 digits, more than the 5-digit slack
    once |lambda| > 10^18 (the reduction maps lambda through x -> x/(x-1)
    with 13 guard digits).  The stream leaves out
    the lambda points whose image at the cusp, Im(tau)/|tau -+ 1|^2, exceeds
    CUSP_IM_MAX (|lambda| below about 10^13), and the probe keeps the
    defect in view with one point where 28 digits are wrong.
    """

    name = "modular-eval"
    warmup = [["eval", "--fn", fn, "--tau=0.5+1i", "--digits", str(EVAL_DIGITS)] for fn in EVAL_FNS]
    count_ops = 120
    probe_argv = ["eval", "--fn", "lambda", "--tau=0.996710+0.030397i", "--digits", str(EVAL_DIGITS)]

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        n_max = 1200  # |q| <= e^(-pi/2) leaves 0.208^1200 far below 10^-340
        self._sigma1 = [0] * (n_max + 1)
        for d in range(1, n_max + 1):
            for m in range(d, n_max + 1, d):
                self._sigma1[m] += d

    def stream(self):
        rng = self._rng
        while True:
            fn = rng.choice(EVAL_FNS)
            re_tau = rng.uniform(-1.0, 1.0)
            im_tau = rng.uniform(0.02 if fn == "lambda" else 0.25, 2.0)
            re_text, im_text = f"{re_tau:.6f}", f"{im_tau:.6f}"
            if fn == "lambda" and _im_at_cusp_one(float(re_text), float(im_text)) > CUSP_IM_MAX:
                continue
            yield ["eval", "--fn", fn, f"--tau={re_text}+{im_text}i", "--digits", str(EVAL_DIGITS)]

    def probes(self, run_checked) -> list[bool]:
        return [run_checked(self.probe_argv)]

    def check(self, argv, out: str) -> bool:
        fn = argv[argv.index("--fn") + 1]
        tau_text = next(a for a in argv if a.startswith("--tau=")).split("=", 1)[1]
        with mpmath.workdps(EVAL_DIGITS + 40):
            re_tau, im_tau = tau_text[:-1].split("+")
            tau = mpmath.mpc(re_tau, im_tau)
            expected = self._oracle(fn, tau)
            got = _parse_value(out.strip())
            tol = mpmath.mpf(10) ** (5 - EVAL_DIGITS) * max(1, abs(expected))
            return abs(got - expected) <= tol

    def _oracle(self, fn, tau):
        mp = mpmath.mp
        if fn in ("eta", "delta", "e2"):
            q = mp.exp(2j * mp.pi * tau)
            if fn == "eta":
                return mp.exp(2j * mp.pi * tau / 24) * mp.qp(q)
            if fn == "delta":
                return (2 * mp.pi) ** 12 * q * mp.qp(q) ** 24
            return 1 - 24 * self._sigma1_series(q)
        # Jacobi theta functions at nome e^(i pi tau); only 4th powers of
        # theta_2 enter, so the branch of q^(1/4) inside jtheta cancels.
        nome = mp.exp(1j * mp.pi * tau)
        t2, t3, t4 = (mp.jtheta(k, 0, nome) ** 4 for k in (2, 3, 4))
        if fn == "lambda":
            return t2 / t3
        if fn == "e4":
            return (t2 * t2 + t3 * t3 + t4 * t4) / 2
        return (t2 + t3) * (t3 + t4) * (t4 - t2) / 2  # e6

    def _sigma1_series(self, q):
        """sum_n sigma_1(n) q^n, the divisor-sum form of (1 - E2)/24."""
        tol = mpmath.mpf(10) ** (-(mpmath.mp.dps + 5))
        total = mpmath.mpc(0)
        qn = mpmath.mpc(1)
        for s in self._sigma1[1:]:
            qn *= q
            term = s * qn
            total += term
            if abs(term) < tol:
                return total
        raise ArithmeticError("divisor-sum E2 did not converge")


def _im_at_cusp_one(x: float, y: float) -> float:
    """Im of the point that the map sending the nearer cusp +-1 to
    i*infinity gives tau = x + iy: y / |tau -+ 1|^2."""
    return y / ((abs(x) - 1) ** 2 + y * y)


_COMPLEX = re.compile(r"^(.+?[0-9.])([+-])(.+)i$")


def _parse_value(text: str):
    """Inverse of hyperpi's printed form: a real, or <re>+<im>i / <re>-<im>i."""
    m = _COMPLEX.match(text)
    if m is None:
        return mpmath.mpf(text)
    return mpmath.mpc(m.group(1), m.group(2) + m.group(3))


WORKLOADS = {w.name: w for w in (PiEngine, Selftest, ModularEval)}
