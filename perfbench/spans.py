"""Spans around the calls into each barricade layer, for the traced run.

The wrappers replace module attributes, so every call that goes through a
module global is timed: ``dsat.check`` from certify, ``prune`` from
``check``, ``simulate`` from ``seed_traces``.  The program is not changed.
A span's self time is its duration minus the spans it directly contains.
"""

import time
from collections import defaultdict

# The entry points of each layer.  Per-step and per-node helpers
# (rk4_step, the Expr constructors, the recursive symexpr walks) get no
# span: a span costs about a microsecond, and they run tens of thousands
# of times per verify call.
SPANNED = {
    "certify": ("verify", "find_generator", "select_level", "query_decrease",
                "query_init_containment", "query_unsafe_disjoint"),
    "dsat": ("check", "prune", "branch"),
    "lpgen": ("build_constraints", "solve_lp", "candidate_from"),
    "simulate": ("seed_traces", "simulate"),
    "symexpr": ("compile_expr",),
}

# Layers whose time, added to certify's self time, makes up a verify call.
STAGES = ("simulate", "lpgen", "dsat")


class Tracer:
    """Install with ``with tracer:``; totals accumulate across installs."""

    def __init__(self, modules):
        self.modules = modules          # layer name -> module
        self.calls = defaultdict(int)   # "dsat.check" -> calls
        self.time = defaultdict(float)  # "dsat.check" -> inclusive seconds
        self.count = defaultdict(int)   # counters observed on results
        self.layer_s = defaultdict(float)  # outermost spans of each layer
        self.self_s = defaultdict(float)   # self time of each layer
        self._stack = []                # [layer, seconds in child spans]
        self._saved = []

    def __enter__(self):
        for layer, names in SPANNED.items():
            mod = self.modules[layer]
            for name in names:
                self._replace(mod, name, self._span(layer, name,
                                                    getattr(mod, name)))
        # dsat's own binding of the interval evaluator: its calls are the
        # forward passes; the evaluator's recursion goes through symexpr's
        # binding and is not counted.
        dsat = self.modules["dsat"]
        self._replace(dsat, "_interval_eval_raw",
                      self._counter(dsat._interval_eval_raw))
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()
        self._stack.clear()
        return False

    def _replace(self, mod, name, wrapper):
        self._saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrapper)

    def _counter(self, fn):
        count = self.count

        def counted(*args, **kwargs):
            count["dsat.forward_passes"] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, layer, name, fn):
        key = layer + "." + name
        observe = getattr(self, "_observe_%s_%s" % (layer, name), None)
        stack = self._stack

        def span(*args, **kwargs):
            stack.append([layer, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()[1]
                self.calls[key] += 1
                self.time[key] += dt
                self.self_s[layer] += dt - child
                if not stack or stack[-1][0] != layer:
                    self.layer_s[layer] += dt
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(result, dt)
            return result
        return span

    # -- counters read off results ------------------------------------------

    def _observe_dsat_check(self, result, dt):
        kind = "unsat" if result.verdict == "UNSAT" else "sat"
        self.count["dsat.%s_boxes" % kind] += result.boxes_explored
        self.time["dsat.%s" % kind] += dt

    def _observe_dsat_prune(self, result, dt):
        if result is None:
            self.count["dsat.prune_empty"] += 1

    def _observe_certify_query_decrease(self, result, dt):
        if result.verdict == "UNSAT":
            self.count["certify.decrease_unsat"] += 1
        else:
            self.time["certify.failed_decrease"] += dt

    def _observe_certify_verify(self, result, dt):
        self.count["certify.iterations"] += result.iterations

    def _observe_lpgen_build_constraints(self, result, dt):
        self.count["lpgen.rows"] += len(result.rows)

    def _observe_simulate_simulate(self, result, dt):
        self.count["simulate.steps"] += len(result) - 1

    # -- report ---------------------------------------------------------------

    def stage_sum(self):
        """simulate + lpgen + dsat + certify self time, in seconds."""
        return sum(self.layer_s[s] for s in STAGES) + self.self_s["certify"]

    def metrics(self):
        """Per-layer metrics as (value, unit): counts and times are means
        per traced verify call, ratios are ratios of totals."""
        n = self.calls["certify.verify"]
        c, t, k = self.count, self.time, self.calls
        boxes = c["dsat.unsat_boxes"] + c["dsat.sat_boxes"]
        out = {
            "dsat.check_calls": (k["dsat.check"] / n, "count"),
            "dsat.check_s": (self.layer_s["dsat"] / n, "s"),
            "dsat.unsat_boxes": (c["dsat.unsat_boxes"] / n, "count"),
            "dsat.unsat_s": (t["dsat.unsat"] / n, "s"),
            "dsat.sat_boxes": (c["dsat.sat_boxes"] / n, "count"),
            "dsat.sat_s": (t["dsat.sat"] / n, "s"),
            "dsat.boxes_per_s": (_ratio(boxes, self.layer_s["dsat"]), "1/s"),
            "dsat.prune_s": (t["dsat.prune"] / n, "s"),
            "dsat.prune_empty_ratio": (
                _ratio(c["dsat.prune_empty"], k["dsat.prune"]), "ratio"),
            "dsat.forward_passes_per_box": (
                _ratio(c["dsat.forward_passes"], boxes), "count"),
            "certify.iterations": (c["certify.iterations"] / n, "count"),
            "certify.decrease_queries": (k["certify.query_decrease"] / n,
                                         "count"),
            "certify.decrease_unsat_ratio": (
                _ratio(c["certify.decrease_unsat"],
                       k["certify.query_decrease"]), "ratio"),
            "certify.failed_decrease_s": (t["certify.failed_decrease"] / n,
                                          "s"),
            "certify.find_generator_s": (t["certify.find_generator"] / n,
                                         "s"),
            "certify.level_probes": (k["certify.query_init_containment"] / n,
                                     "count"),
            "certify.select_level_s": (t["certify.select_level"] / n, "s"),
            "certify.self_s": (self.self_s["certify"] / n, "s"),
            "lpgen.build_calls": (k["lpgen.build_constraints"] / n, "count"),
            "lpgen.build_s": (t["lpgen.build_constraints"] / n, "s"),
            "lpgen.rows": (c["lpgen.rows"] / n, "count"),
            "lpgen.solve_calls": (k["lpgen.solve_lp"] / n, "count"),
            "lpgen.solve_s": (t["lpgen.solve_lp"] / n, "s"),
            "lpgen.total_s": (self.layer_s["lpgen"] / n, "s"),
            "simulate.seed_traces_s": (t["simulate.seed_traces"] / n, "s"),
            "simulate.simulate_calls": (k["simulate.simulate"] / n, "count"),
            "simulate.steps": (c["simulate.steps"] / n, "count"),
            "simulate.steps_per_s": (
                _ratio(c["simulate.steps"], t["simulate.simulate"]), "1/s"),
            "simulate.total_s": (self.layer_s["simulate"] / n, "s"),
            "symexpr.compile_expr_calls": (k["symexpr.compile_expr"] / n,
                                           "count"),
            "symexpr.compile_expr_s": (t["symexpr.compile_expr"] / n, "s"),
        }
        return out


def _ratio(a, b):
    return a / b if b else 0.0
