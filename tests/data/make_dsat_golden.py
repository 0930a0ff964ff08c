"""Writes the checker's results on a fixed set of queries as JSON.

    PYTHONPATH=src python tests/data/make_dsat_golden.py > tests/data/dsat_golden.json

Each case records the verdict, the witness (endpoints as float reprs, or
null) and boxes_explored.  The cases are the criterion 07 battery, the
SAT and UNSAT cases of test_dsat.TestCheck, every decrease query of every
CEGIS round of nn10 with n_seed_traces=2 at config seeds 1, 4 and 6 (which
have rounds that dsat refutes, so DELTA_SAT witnesses are included), and
the decrease query and level probes of nn10 at config seed 1.
test_dsat.py runs `cases()`, and `direct_cases()` at other pass widths,
and compares with the committed file.  Only public entry points are
called, so the script runs on any version of the checker.
"""

import json
import math
import sys

from barricade import certify, cli, dsat, plant
from barricade import network as nn
from barricade import symexpr as sx


def _c(lhs, rel, rhs):
    return dsat.Constraint(lhs, rel, rhs)


def _checks():
    """(name, formula, domain, delta, max_boxes) of the direct dsat cases."""
    x, y = sx.var(0), sx.var(1)
    dom2 = sx.box((-2.0, 2.0), (-2.0, 2.0))
    poly = dsat.Formula(1, _c(sx.add(sx.pow_(x, 2), sx.const(1.0)), "<=",
                              0.0))
    contra = dsat.Formula(1, dsat.And((_c(x, ">=", 1.0), _c(x, "<=", 0.0))))
    sin_max = dsat.Formula(1, _c(sx.sin(x), ">=", 0.999999))
    circle = dsat.Formula(2, _c(sx.add(sx.pow_(x, 2), sx.pow_(y, 2)), "<=",
                                -0.01))
    cosine = dsat.Formula(2, _c(sx.add(sx.mul(sx.const(2.0), x), sx.cos(y)),
                                ">=", 5.5))
    half = dsat.Formula(2, _c(sx.add(x, y), ">=", 0.5))
    sq = sx.pow_(x, 2)
    q = sx.div(sx.sub(sx.const(1.0), sx.exp(x)), sx.neg(sx.exp(y)))
    out = [
        ("c07_poly", poly, sx.box((-10.0, 10.0)), 1e-3, None),
        ("c07_contradiction", contra, sx.box((-5.0, 5.0)), 1e-3, None),
        ("c07_sin_max", sin_max, sx.box((0.0, math.pi)), 1e-3, None),
        ("c07_circle", circle, dom2, 1e-3, None),
        ("c07_cosine", cosine, dom2, 1e-3, None),
        ("c07_half_plane", half, dom2, 1e-3, None),
        ("tc_sin_max", sin_max, sx.box((0.0, math.pi)), 1e-4, None),
        ("tc_witness_width", half, sx.box((-1.0, 1.0), (-1.0, 1.0)), 1e-3,
         None),
        ("tc_determinism", dsat.Formula(2, _c(sx.sub(sq, y), ">=", 0.3)),
         sx.box((-1.0, 1.0), (-1.0, 1.0)), 1e-3, None),
        ("tc_pow_overflow_sat", dsat.Formula(1, _c(sq, ">=", 0.0)),
         sx.box((1e200, 1e201)), 1e-3, None),
        ("tc_pow_overflow_unsat", dsat.Formula(1, _c(sq, "<=", 0.0)),
         sx.box((1e200, 1e201)), 1e-3, None),
        ("tc_inf_over_inf", dsat.Formula(2, _c(sx.sin(q), ">=", 2.0)),
         sx.box((700.0, 800.0), (700.0, 800.0)), 1e-3, None),
        ("tc_near_float_max", dsat.Formula(1, _c(sx.div(x, sx.const(2.0)),
                                                 "<=", 0.6e308)),
         sx.box((1.1e308, 1.7e308)), 1e-3, None),
        ("tc_true_box_near_float_max", dsat.Formula(1, _c(x, ">=", 1.6e308)),
         sx.box((1.6e308, 1.7e308)), 1e-3, None),
        ("tc_one_float_wide_x+sin(x)", dsat.Formula(
            1, _c(sx.add(x, sx.sin(x)), ">=", 1.6e308)),
         sx.box((1.1e308, 1.7e308)), 1e-3, 20_000),
        ("tc_one_float_wide_x-y", dsat.Formula(2, _c(sx.sub(x, y), ">=",
                                                     0.3e308)),
         sx.box((1.1e308, 1.7e308), (1.1e308, 1.7e308)), 1e-3, 20_000),
    ]
    for delta in (1e-6, 1e-3, 1e-1):
        out.append(("tc_delta_monotone_%g" % delta,
                    dsat.Formula(1, _c(sx.sin(x), ">=", 1.1)),
                    sx.box((-10.0, 10.0)), delta, None))
    return out


def _record(verdict, witness, boxes):
    return {"verdict": verdict,
            "witness": None if witness is None else [
                [repr(iv.lo), repr(iv.hi)] for iv in witness],
            "boxes_explored": boxes}


def _verify_queries(seed, n_seed_traces, names):
    """The transcripts of every query named in names that verify runs on
    nn10 at the config, in call order, by name."""
    field = plant.dubins_closed_loop(
        plant.DubinsParams(), nn.load(cli.bundled_controller_path(10)))
    seen = {name: [] for name in names}
    saved = {name: getattr(certify, "query_" + name) for name in names}

    def recorder(name):
        def recorded(*args, **kwargs):
            t = saved[name](*args, **kwargs)
            seen[name].append(t)
            return t
        return recorded
    try:
        for name in names:
            setattr(certify, "query_" + name, recorder(name))
        config = certify.CertifyConfig(seed=seed,
                                       n_seed_traces=n_seed_traces)
        certify.verify(certify.default_spec(), field, config)
    finally:
        for name, fn in saved.items():
            setattr(certify, "query_" + name, fn)
    return seen


def direct_cases():
    """{case name: recorded result} for the direct dsat cases."""
    out = {}
    for name, phi, dom, delta, max_boxes in _checks():
        kwargs = {} if max_boxes is None else {"max_boxes": max_boxes}
        r = dsat.check(phi, dom, delta, **kwargs)
        out[name] = _record(r.verdict, r.witness, r.boxes_explored)
    return out


def cases():
    """{case name: recorded result} for every case."""
    out = direct_cases()
    runs = [(seed, 2, ("decrease",)) for seed in (1, 4, 6)]
    runs.append((1, 20, ("decrease", "init_containment", "unsafe_disjoint")))
    for seed, n_seed, names in runs:
        for name, transcripts in _verify_queries(seed, n_seed, names).items():
            for i, t in enumerate(transcripts, 1):
                key = "nn10_seed%d_nst%d_%s_%d" % (seed, n_seed, name, i)
                out[key] = _record(t.verdict, t.witness, t.boxes_explored)
    return out


def main():
    json.dump(cases(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
