"""hyperpi benchmark: CLI workloads timed end to end, or traced by layer.

    python3 perfbench/run.py --workload pi-engine|selftest|modular-eval \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy.  One client drives `hyperpi.cli.main`
in this process, in a closed loop: the next operation starts when the
previous one has returned.  Every output is checked against an oracle
outside hyperpi after the timed loop.

--trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end");
--trace 1 prints the per-layer metrics ("per_layer") from a run that
alternates untraced and traced executions of each operation, and writes the
spans and a per-function table to perfbench/out/.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, function_table, layer_metrics, per_layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
P90_MIN_SAMPLES = 100  # p90 needs ten samples beyond it

# A fresh interpreter imports hyperpi.cli and runs the workload's warm-up
# calls; it prints the seconds that took, or exits non-zero.
SETUP_CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from hyperpi.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[2])]
elapsed = time.perf_counter() - t0
if any(codes):
    sys.exit(1)
print(repr(elapsed))
"""


def load_cli():
    """hyperpi.cli.main from ./src of this checkout, looked up on every call
    so that a traced run calls the wrapper."""
    package = SRC / "hyperpi"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: no hyperpi source at {package}")
    sys.path.insert(0, str(SRC))
    import hyperpi.cli

    if Path(hyperpi.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: hyperpi imported from {hyperpi.cli.__file__}, not {package}")
    return lambda argv: hyperpi.cli.main(argv)


def call(main, argv):
    """One operation: (exit code or None if it raised, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc(file=sys.stderr)
            code = None
    return code, out.getvalue()


def timed(op):
    t0 = perf_counter()
    code, out = op()
    return perf_counter() - t0, code, out


def passes(workload, argv, code, out) -> bool:
    if code != 0:
        return False
    try:
        return workload.check(argv, out)
    except (ValueError, TypeError, ArithmeticError):  # malformed output
        return False


def setup_seconds(workload) -> float:
    """Fresh-process import of hyperpi.cli plus the workload's warm-up."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(workload.warmup)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up process failed:\n{proc.stderr}")
    return float(proc.stdout)


def warm_up(main, workload):
    for argv in workload.warmup:
        code, _ = call(main, argv)
        if code != 0:
            sys.exit(f"error: warm-up {argv} exited {code}")


def end_to_end(main, workload, seconds: float, setup: list) -> dict:
    samples, results = [], []
    stream = workload.stream()
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        argv = next(stream)
        dt, code, out = timed(lambda: call(main, argv))
        samples.append(dt)
        results.append((argv, code, out))
    elapsed = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = sum(not passes(workload, *r) for r in results)
    probes = workload.probes(lambda argv: passes(workload, argv, *call(main, argv)))
    attempted_all = len(results) + len(probes)
    failed_all = failed + probes.count(False)
    n = len(samples)
    print(f"# {workload.name}: {n} operations in {elapsed:.3f} s, {failed} failed; "
          f"known-defect probes {probes.count(True)}/{len(probes)} passed")
    print(f"# failed_ops.share {failed_all / attempted_all:.6g} ({failed_all} of {attempted_all}, probes included)")
    if n >= P90_MIN_SAMPLES:
        print(f"# op_s.p90 {statistics.quantiles(samples, n=10)[8]:.6g} s (n={n})")
    else:
        print(f"# op_s.p90 not reported: {n} samples, fewer than {P90_MIN_SAMPLES}")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (statistics.median(samples), "s"),
        "ops_per_s": (n / elapsed, "1/s"),
        "ok_ops.share": (1 - failed_all / attempted_all, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"attempted": n, "failed": failed, "metrics": metrics}


def traced(main, workload, seconds: float) -> dict:
    """Each operation runs untraced and traced, in alternating order; the
    traced executions give the spans, the pairs give the tracing overhead."""
    tracer = Tracer()
    plain_s, traced_s, results = [], [], []
    stream = workload.stream()
    start = perf_counter()
    op_id = 0
    while perf_counter() - start < seconds or op_id < workload.count_ops:
        argv = next(stream)
        plain = lambda: call(main, argv)
        if op_id % 2:
            trace = timed(lambda: tracer.operation(op_id, plain))
            untraced = timed(plain)
        else:
            untraced = timed(plain)
            trace = timed(lambda: tracer.operation(op_id, plain))
        plain_s.append(untraced[0])
        traced_s.append(trace[0])
        results.append((argv, untraced[1:], trace[1:]))
        op_id += 1

    failed = 0
    for argv, untraced, trace in results:  # the oracle runs once per input
        ok = passes(workload, argv, *untraced)
        failed += (not ok) + (not ok or trace != untraced)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.jsonl")
    table = function_table(tracer.spans, workload.count_ops)
    (OUT / f"layers-{workload.name}.json").write_text(json.dumps(table, indent=1, sort_keys=True))
    overhead = 100 * statistics.median(t - p for t, p in zip(traced_s, plain_s)) / statistics.median(plain_s)
    values = layer_metrics(table, traced_s, overhead)
    print(f"# {workload.name}: {op_id} operations, each untraced and traced; counts over the first "
          f"{workload.count_ops}; {len(tracer.spans)} spans written to {OUT.relative_to(ROOT)}/")
    metrics = {name: (values[name], unit) for name, unit in per_layer_metrics()}
    return {"attempted": 2 * op_id, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    cli_main = load_cli()
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        warm_up(cli_main, workload)
        result = traced(cli_main, workload, args.seconds)
    else:
        setup = [setup_seconds(workload) for _ in range(SETUP_REPEATS)]
        warm_up(cli_main, workload)
        result = end_to_end(cli_main, workload, args.seconds, setup)

    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
