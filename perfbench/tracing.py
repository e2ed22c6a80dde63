"""Span tracing of hyperpi's layers, installed from outside the package.

Every public function of the layer modules is wrapped, and each hyperpi.*
namespace that holds a reference to it (the modules import each other with
`from .x import y`) is patched to the wrapper.  A wrapper records one span:
name, start, end, parent span, operation id, whether it raised, and an
optional tag (the 2F1 route, the reduction word length, whether pi_reference
met a new context).  Spans stay in memory and are written out when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = ("numerics", "hypergeometric", "modular", "legendre", "cm", "reports", "suite", "cli")

# span record fields
ID, NAME, START, END, PARENT, OP, FAILED, TAG = range(8)
ROOT_SPAN = "op"

LEGENDRE_FNS = ("weierstrass_from_lambda", "period_classical", "quasiperiod_bruns", "bruns_residuals",
                "homothety_mu", "homothety_ratios", "check_theorem_period", "check_theorem_transform",
                "check_theorem_around1")
SUITE_FAMILIES = ("identity_reports", "theorem_general_reports", "quasiperiod_reports", "lambda_coeff_report",
                  "cm_lambda_reports", "e2_fixed_point_report", "functional_equation_reports",
                  "agm_oracle_reports", "residual_reports", "theorem_check_reports", "homothety_reports",
                  "pi_engine_reports")
ROUTES = ("direct", "pfaff", "direct_far")

# (metric, unit): counts over the first `count_ops` operations, which repeat
# exactly for a seed; time shares (% of traced operation time) over all of them.
COUNT_METRICS = (
    "hypergeometric.hyp2f1.calls", "hypergeometric.hyp2f1.failed",
    *(f"hypergeometric.hyp2f1.route.{r}.calls" for r in ROUTES),
    "hypergeometric.hyp_via_agm.calls", "numerics.agm.calls",
    "modular.eta.calls", "modular.eisenstein.calls", "modular.tau_point.calls",
    "modular.reduce_tau.calls", "modular.reduce_tau.word_letters",
    "numerics.pi_reference.calls", "numerics.pi_reference.computed",
    "cm.pi_from_identity.calls", "reports.make_report.calls",
)
SELF_METRICS = (
    "hypergeometric.hyp2f1", *(f"hypergeometric.hyp2f1.route.{r}" for r in ROUTES),
    "hypergeometric.hyp_via_agm", "numerics.agm",
    "modular.eta", "modular.eisenstein", "modular.tau_point", "modular.reduce_tau",
    "numerics.pi_reference", "numerics.ctx_new", "numerics.format", "numerics.parse",
    "cm.pi_from_identity", "cli.main",
    *LAYERS,
)
SELF_GROUPS = {
    "numerics.format": ("numerics.format_real", "numerics.format_complex", "numerics.format_value"),
    "numerics.parse": ("numerics.parse_real", "numerics.parse_complex"),
}
INCL_METRICS = (
    "reports.make_report",
    *(f"legendre.{f}" for f in LEGENDRE_FNS),
    "cm.theorem_general_check", "cm.quasiperiod_relation_check",
    *(f"suite.{f}" for f in SUITE_FAMILIES),
)


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports, in output order."""
    return ([(m, "count") for m in COUNT_METRICS]
            + [(f"{m}.self_pct", "%") for m in SELF_METRICS]
            + [(f"{m}.incl_pct", "%") for m in INCL_METRICS]
            + [("trace.op_s.p50", "s"), ("trace.overhead_pct", "%")])


def hyp2f1_route(args, kwargs) -> str:
    """Route by the documented region rule, from the public argument z:
    |z| <= 1/2 direct; Re z < 0 and |z/(z-1)| <= 1/2 Pfaff; |z| <= 15/16
    direct series beyond 1/2; anything else is outside both regions."""
    z = complex(args[1] if len(args) > 1 else kwargs["z"])
    az = abs(z)
    # the 1e-12 slack keeps points computed with rounding noise, such as
    # lambda(i) = 1/2 + O(eps), in the region they belong to
    if az <= 0.5 + 1e-12:
        return "direct"
    if z.real < 0 and abs(z / (z - 1)) <= 0.5 + 1e-12:
        return "pfaff"
    if az <= 15 / 16:
        return "direct_far"
    return "outside"


class Tracer:
    """Wraps hyperpi's public functions; the wrappers are patched in only
    while operation() runs, so untraced calls pay nothing."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self._patches = []
        self._seen_ctx = weakref.WeakSet()
        self._tags = {
            "hypergeometric.hyp2f1": lambda args, kwargs, result: hyp2f1_route(args, kwargs),
            "numerics.pi_reference": self._pi_reference_tag,
            "modular.reduce_tau": lambda args, kwargs, result: len(result[1].letters) if result else 0,
        }
        self._build_patches()

    def _pi_reference_tag(self, args, kwargs, result):
        ctx = args[0] if args else kwargs["ctx"]
        if ctx in self._seen_ctx:
            return "cached"
        self._seen_ctx.add(ctx)
        return "computed"

    def _build_patches(self):
        modules = {layer: importlib.import_module(f"hyperpi.{layer}") for layer in LAYERS}
        namespaces = [m for name, m in sys.modules.items() if name == "hyperpi" or name.startswith("hyperpi.")]
        for layer, module in modules.items():
            for fname, fn in vars(module).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn, wrapped))

    def _wrap(self, name, fn):
        spans, stack, tag_of = self.spans, self._stack, self._tags.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            spans.append(rec)
            stack.append(rec[ID])
            result = None
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if tag_of is not None:
                    rec[TAG] = tag_of(args, kwargs, result)

        return traced

    def operation(self, op_id: int, call):
        """Run call() traced, as the root span of operation op_id."""
        self.op = op_id
        rec = [len(self.spans), ROOT_SPAN, 0.0, 0.0, -1, op_id, False, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        for ns, attr, _, wrapped in self._patches:
            setattr(ns, attr, wrapped)
        rec[START] = perf_counter()
        try:
            return call()
        finally:
            rec[END] = perf_counter()
            for ns, attr, original, _ in self._patches:
                setattr(ns, attr, original)
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op", "failed", "tag"), rec))))
                f.write("\n")


def function_table(spans, count_ops: int) -> dict:
    """Per function: calls and failed over operations < count_ops; self_s
    (span minus its children) and incl_s (outermost spans of the name only)
    over every operation."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    table = defaultdict(lambda: {"calls": 0, "failed": 0, "self_s": 0.0, "incl_s": 0.0})
    for rec in spans:
        keys = [rec[NAME]]
        if rec[NAME] == "hypergeometric.hyp2f1":
            keys.append(f"hypergeometric.hyp2f1.route.{rec[TAG]}")
        dur = rec[END] - rec[START]
        outermost = not _has_ancestor_named(spans, rec)
        for key in keys:
            row = table[key]
            if rec[OP] < count_ops:
                row["calls"] += 1
                row["failed"] += rec[FAILED]
                if rec[NAME] == "modular.reduce_tau":
                    row["word_letters"] = row.get("word_letters", 0) + rec[TAG]
                if rec[NAME] == "numerics.pi_reference":
                    row["computed"] = row.get("computed", 0) + (rec[TAG] == "computed")
            row["self_s"] += dur - child_time[rec[ID]]
            if outermost:
                row["incl_s"] += dur
    return dict(table)


def _has_ancestor_named(spans, rec) -> bool:
    parent = rec[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == rec[NAME]:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(table: dict, traced_op_s: list, overhead_pct: float) -> dict:
    """The per-layer metrics of per_layer_metrics(), from function_table()."""
    total = table[ROOT_SPAN]["incl_s"]

    def pct(seconds):
        return 100.0 * seconds / total

    def self_of(name):
        if name in LAYERS:
            return sum(row["self_s"] for fn, row in table.items()
                       if fn.split(".")[0] == name and ".route." not in fn)
        return sum(table.get(fn, {}).get("self_s", 0.0) for fn in SELF_GROUPS.get(name, (name,)))

    values = {}
    for metric in COUNT_METRICS:
        fn, quantity = metric.rsplit(".", 1)
        values[metric] = table.get(fn, {}).get(quantity, 0)
    for name in SELF_METRICS:
        values[f"{name}.self_pct"] = pct(self_of(name))
    for name in INCL_METRICS:
        values[f"{name}.incl_pct"] = pct(table.get(name, {}).get("incl_s", 0.0))
    values["trace.op_s.p50"] = statistics.median(traced_op_s)
    values["trace.overhead_pct"] = overhead_pct
    return values

