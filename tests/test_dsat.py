"""Branch-and-prune delta-SAT checker."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from barricade import dsat
from barricade import symexpr as sx


DATA = Path(__file__).parent / "data"


def _c(lhs, rel, rhs):
    return dsat.Constraint(lhs, rel, rhs)


def _pack(*boxes):
    """Boxes given as lists of (lo, hi) pairs, as the (n, 2, B) array of
    the work-set."""
    return np.array(boxes, dtype=float).transpose(1, 2, 0).copy()


def _prune_rounds(atoms, boxes):
    """prune's passes over boxes (an (n, 2, B) array, contracted in place)
    as the search runs them on each box: contraction rounds until one
    leaves the box unchanged or refutes it, at most PRUNE_ROUNDS, then a
    status pass if every round changed it.  Returns each box's status, a
    (B,) array."""
    n = boxes.shape[2]
    status = np.full(n, dsat.UNKNOWN)
    going = np.ones(n, dtype=bool)
    for r in range(dsat.PRUNE_ROUNDS + 1):
        contract = going & (r < dsat.PRUNE_ROUNDS)
        prev = boxes.copy()
        out = dsat.prune(atoms, boxes, contract)
        if out is dsat.EMPTY:
            out = np.full(n, dsat.FALSE)
        same = (boxes == prev).all(axis=(0, 1))
        done = going & ((out == dsat.FALSE) | ~contract | same)
        status[done] = out[done]
        going &= ~done
        if not going.any():
            break
    return status


def _halves(pairs, delta):
    """branch on one box given as (lo, hi) pairs: its two halves as lists
    of pairs, or None when it has no dimension to split."""
    (dim,), (mid,) = dsat.branch(_pack(pairs), delta)
    if dim < 0:
        return None
    left, right = list(pairs), list(pairs)
    left[dim] = (pairs[dim][0], float(mid))
    right[dim] = (float(mid), pairs[dim][1])
    return left, right


def _grid_refute(phi, domain, n=1000):
    """Dense-grid search for a point satisfying phi exactly.

    Returns the number of satisfying grid points (0 backs up an UNSAT
    verdict).  n*n total points for 2-d domains, n for 1-d.
    """
    dims = [np.linspace(lo, hi, n) for lo, hi in domain.bounds]
    pts = np.array([g.ravel() for g in np.meshgrid(*dims)])
    return int(np.count_nonzero(_sat_on(phi.root, pts)))


def _sat_on(node, pts):
    """Where node holds on the points pts, an (arity, N) array, evaluated
    with compile_expr: a (N,) bool array."""
    if isinstance(node, dsat.Constraint):
        v = sx.compile_expr(node.lhs)(pts)
        return v <= node.rhs if node.rel == "<=" else v >= node.rhs
    return np.logical_and.reduce([_sat_on(q, pts) for q in node.parts])


class TestCheck:
    def test_positive_poly_unsat(self):
        phi = dsat.Formula(1, _c(sx.add(sx.pow_(sx.var(0), 2), sx.const(1.0)),
                                 "<=", 0.0))
        out = dsat.check(phi, sx.box((-10.0, 10.0)), 1e-3)
        assert out.verdict == "UNSAT"
        assert _grid_refute(phi, sx.box((-10.0, 10.0)), 1_000_000) == 0

    def test_sin_near_max_delta_sat(self):
        phi = dsat.Formula(1, _c(sx.sin(sx.var(0)), ">=", 0.999999))
        out = dsat.check(phi, sx.box((0.0, math.pi)), 1e-4)
        assert out.verdict == "DELTA_SAT"
        mid = out.witness.midpoint()[0]
        assert abs(mid - math.pi / 2) < 0.01

    def test_contradictory_conjunction(self):
        phi = dsat.Formula(1, dsat.And((_c(sx.var(0), ">=", 1.0),
                                        _c(sx.var(0), "<=", 0.0))))
        out = dsat.check(phi, sx.box((-5.0, 5.0)), 1e-3)
        assert out.verdict == "UNSAT"
        assert _grid_refute(phi, sx.box((-5.0, 5.0)), 1_000_000) == 0

    def test_witness_width(self):
        phi = dsat.Formula(2, _c(sx.add(sx.var(0), sx.var(1)), ">=", 0.5))
        out = dsat.check(phi, sx.box((-1.0, 1.0), (-1.0, 1.0)), 1e-3)
        assert out.verdict == "DELTA_SAT"
        assert np.diff(out.witness.bounds).max() <= 1e-3 + 1e-12

    def test_budget(self):
        # sum of two sines barely misses 2; forces deep branching
        phi = dsat.Formula(2, _c(sx.add(sx.sin(sx.var(0)), sx.sin(sx.var(1))),
                                 ">=", 2.0 - 1e-12))
        with pytest.raises(dsat.BudgetExhausted):
            dsat.check(phi, sx.box((0.0, math.pi), (0.0, math.pi)), 1e-9,
                       max_boxes=100)

    def test_delta_monotone(self):
        # UNSAT at a fine delta stays UNSAT at a coarse delta
        phi = dsat.Formula(1, _c(sx.sin(sx.var(0)), ">=", 1.1))
        for delta in (1e-6, 1e-3, 1e-1):
            out = dsat.check(phi, sx.box((-10.0, 10.0)), delta)
            assert out.verdict == "UNSAT"

    def test_determinism(self):
        phi = dsat.Formula(2, _c(sx.sub(sx.pow_(sx.var(0), 2),
                                        sx.var(1)), ">=", 0.3))
        dom = sx.box((-1.0, 1.0), (-1.0, 1.0))
        a = dsat.check(phi, dom, 1e-3)
        b = dsat.check(phi, dom, 1e-3)
        assert a.verdict == b.verdict
        assert a.witness == b.witness

    def test_pow_overflow_gives_verdict(self):
        # x^2 on [1e200, 1e201] overflows the float range
        bx = sx.box((1e200, 1e201))
        sq = sx.pow_(sx.var(0), 2)
        lo, hi = sx.interval_eval(sq, bx)
        assert hi == math.inf and 0.0 < lo
        lo, hi = sx.interval_eval(sx.pow_(sx.var(0), 3),
                                  sx.box((-1e201, -1e200)))
        assert lo == -math.inf and hi < 0.0
        out = dsat.check(dsat.Formula(1, _c(sq, ">=", 0.0)), bx, 1e-3)
        assert out.verdict == "DELTA_SAT"
        out = dsat.check(dsat.Formula(1, _c(sq, "<=", 0.0)), bx, 1e-3)
        assert out.verdict == "UNSAT"

    def test_inf_over_inf_gives_verdict(self):
        # both exps overflow, so the quotient bounds include inf/inf
        q = sx.div(sx.sub(sx.const(1.0), sx.exp(sx.var(0))),
                   sx.neg(sx.exp(sx.var(1))))
        bx = sx.box((700.0, 800.0), (700.0, 800.0))
        out = dsat.check(dsat.Formula(2, _c(sx.sin(q), ">=", 2.0)), bx, 1e-3)
        assert out.verdict == "DELTA_SAT"

    def test_bisection_near_float_max(self):
        # lo + hi overflows, so the midpoint comes from the halves; HC4
        # does not contract through div, so the domain is bisected
        x = sx.var(0)
        phi = dsat.Formula(1, _c(sx.div(x, sx.const(2.0)), "<=", 0.6e308))
        out = dsat.check(phi, sx.box((1.1e308, 1.7e308)), 1e-3)
        assert out.verdict == "DELTA_SAT"

    def test_true_box_witness_near_float_max_is_in_domain(self):
        # the witness is the box's midpoint, and lo + hi overflows
        dom = sx.box((1.6e308, 1.7e308))
        out = dsat.check(dsat.Formula(1, _c(sx.var(0), ">=", 1.6e308)),
                         dom, 1e-3)
        assert out.verdict == "DELTA_SAT"
        (lo, hi), = out.witness.bounds
        assert lo == hi
        assert dom.contains([lo])

    @pytest.mark.parametrize("lhs, rhs, domain", [
        (sx.add(sx.var(0), sx.sin(sx.var(0))), 1.6e308, [(1.1e308, 1.7e308)]),
        (sx.sub(sx.var(0), sx.var(1)), 0.3e308, [(1.1e308, 1.7e308)] * 2),
    ], ids=["x+sin(x)", "x-y"])
    def test_box_one_float_wide_is_witness(self, lhs, rhs, domain):
        # delta is below the float spacing here, so the search ends on a
        # box that floats cannot split further, wider than delta
        phi = dsat.Formula(len(domain), _c(lhs, ">=", rhs))
        out = dsat.check(phi, sx.box(*domain), 1e-3, max_boxes=20_000)
        assert out.verdict == "DELTA_SAT"
        assert np.diff(out.witness.bounds).max() > 1e-3
        assert _halves(out.witness.bounds.tolist(), 1e-3) is None

    @pytest.mark.parametrize("batch", [1, 128])
    def test_nan_ended_trig_argument_is_refused(self, monkeypatch, batch):
        # exp(0.05 x) - inf is [-inf, NaN] where exp overflows: sin of it
        # is the whole line, as beyond TRIG_ARG_LIMIT, whatever the
        # batch, and no math.sin(-inf) is reached
        monkeypatch.setattr(dsat, "BATCH", batch)
        x, big = sx.var(0), sys.float_info.max
        inf = sx.mul(sx.const(1e200), sx.const(1e200))
        arg = sx.sub(sx.exp(sx.mul(sx.const(0.05), x)), inf)
        phi = dsat.Formula(1, _c(sx.sin(arg), ">=", -big))
        out = dsat.check(phi, [sx.box((-big, 5e-324)), sx.box((-1.0, big))],
                         1e-3)
        assert (out.verdict, out.boxes_explored) == ("DELTA_SAT", 54)
        assert out.witness == sx.box((-big, math.nextafter(-big, 0.0)))

    def test_refused_trig_argument_is_the_whole_line(self):
        # sin beyond TRIG_ARG_LIMIT is the whole line, so its square is
        # [0, inf], which refutes the domain at once
        phi = dsat.Formula(1, _c(sx.pow_(sx.sin(sx.var(0)), 2), "<=", -1.0))
        out = dsat.check(phi, sx.box((2e6, 3e6)), 1e-3, max_boxes=1000)
        assert (out.verdict, out.boxes_explored) == ("UNSAT", 1)

    @pytest.mark.parametrize("lhs, rhs, domain", [
        (sx.mul(sx.var(0), sx.const(-1.0744447943727233)), 0.0,
         (-1e-322, -5e-324)),
        (sx.add(sx.const(2.4001352837647527), sx.var(0)), 1e300,
         (1e300, 1e300)),
        (sx.add(sx.const(2.4001352837647527), sx.var(0)), 1e300,
         (1e300, 1.0000000000000002e300)),
    ], ids=["c*x", "c+x-point", "c+x"])
    def test_constant_leaf_refutes(self, lhs, rhs, domain):
        # the root's enclosure meets its target only within its outward
        # rounding, and x's target meets x's enclosure; the constant
        # leaf's own target misses c, which refutes the domain at once
        phi = dsat.Formula(1, _c(lhs, "<=", rhs))
        out = dsat.check(phi, sx.box(domain), 1e-3)
        assert (out.verdict, out.boxes_explored) == ("UNSAT", 1)

    def test_unbounded_domain_rejected(self):
        # bisection of [1, inf] splits at inf and never shrinks the box
        phi = dsat.Formula(1, _c(sx.sub(sx.var(0), sx.var(0)), ">=", 1.0))
        with pytest.raises(ValueError):
            dsat.check(phi, sx.box((1.0, math.inf)), 1e-3, max_boxes=20000)

    @pytest.mark.parametrize("root", [
        _c(sx.var(1), ">=", 0.0),
        dsat.And((_c(sx.var(0), ">=", 0.0),
                  _c(sx.add(sx.var(0), sx.var(3)), "<=", 1.0))),
    ], ids=["atom", "second-conjunct"])
    def test_var_beyond_arity_rejected(self, root):
        # an atom reading var(i), i >= arity, named; not numpy's IndexError
        phi = dsat.Formula(1, root)
        with pytest.raises(ValueError, match=r"^var\([13]\) read at arity 1$"):
            dsat.check(phi, sx.box((0.0, 1.0)), 1e-3)

    def test_unsat_battery_grid_refutation(self):
        # each analytically-UNSAT instance survives a 10^6-point search
        dom2 = sx.box((-2.0, 2.0), (-2.0, 2.0))
        battery = [
            (dsat.Formula(2, _c(sx.add(sx.pow_(sx.var(0), 2),
                                       sx.pow_(sx.var(1), 2)), "<=", -0.01)),
             dom2),
            (dsat.Formula(2, dsat.And((_c(sx.var(0), ">=", 1.5),
                                       _c(sx.add(sx.var(0), sx.var(1)),
                                          "<=", -1.0)))), dom2),
            (dsat.Formula(2, _c(sx.add(sx.mul(sx.const(2.0), sx.var(0)),
                                       sx.cos(sx.var(1))), ">=", 5.5)), dom2),
        ]
        for phi, dom in battery:
            out = dsat.check(phi, dom, 1e-3)
            assert out.verdict == "UNSAT"
            assert _grid_refute(phi, dom, 1000) == 0  # 10^6 points in 2-d


@pytest.mark.parametrize("rel", ["<", ">", "="])
def test_only_closed_relations(rel):
    with pytest.raises(ValueError):
        dsat.Constraint(sx.var(0), rel, 0.0)


class TestPrune:
    def test_sum_refuted(self):
        phi = dsat.Formula(2, _c(sx.add(sx.var(0), sx.var(1)), "<=", 0.0))
        bx = _pack([(1.0, 2.0), (5.0, 6.0)])
        assert dsat.prune(dsat._atoms(phi.root), bx,
                          np.ones(1, dtype=bool)) is dsat.EMPTY

    def test_contracts_upper_bound(self):
        phi = dsat.Formula(1, _c(sx.var(0), "<=", 0.5))
        bx = _pack([(0.0, 1.0)])
        out = dsat.prune(dsat._atoms(phi.root), bx, np.ones(1, dtype=bool))
        assert out is not dsat.EMPTY and out[0] != dsat.FALSE
        assert bx[0, 1, 0] <= 0.5 + 1e-12
        assert bx[0, 0, 0] == 0.0

    def test_status_pass_does_not_contract(self):
        phi = dsat.Formula(1, _c(sx.var(0), "<=", 0.5))
        bx = _pack([(0.0, 1.0)], [(0.0, 0.25)])
        out = dsat.prune(dsat._atoms(phi.root), bx, np.zeros(2, dtype=bool))
        assert out.tolist() == [dsat.UNKNOWN, dsat.TRUE]
        assert bx.tolist() == _pack([(0.0, 1.0)], [(0.0, 0.25)]).tolist()

    def test_planted_solution_survives(self):
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            # random affine-ish constraint with a planted solution
            a = float(rng.uniform(-2, 2))
            b = float(rng.uniform(-2, 2))
            lhs = sx.add(sx.mul(sx.const(a), sx.var(0)),
                         sx.mul(sx.const(b), sx.var(1)))
            p = rng.uniform(-1, 1, size=2)
            val = sx.eval_expr(lhs, p)
            rel = "<=" if rng.random() < 0.5 else ">="
            rhs = val + (0.1 if rel == "<=" else -0.1)
            phi = dsat.Formula(2, _c(lhs, rel, float(rhs)))
            bx = _pack([(-1.0, 1.0), (-1.0, 1.0)])
            out = _prune_rounds(dsat._atoms(phi.root), bx)
            assert out[0] != dsat.FALSE
            assert all(lo <= v <= hi for (lo, hi), v in zip(bx[:, :, 0], p))


class TestBranch:
    def test_splits_widest(self):
        left, right = _halves([(0.0, 4.0), (0.0, 1.0)], 1e-3)
        assert left[0] == (0.0, 2.0)
        assert right[0] == (2.0, 4.0)
        assert left[1] == right[1]

    def test_children_cover_parent(self):
        bx = [(-1.0, 3.0), (2.0, 2.5)]
        left, right = _halves(bx, 1e-3)
        assert left[0][1] == right[0][0]
        assert left[0][0] == bx[0][0] and right[0][1] == bx[0][1]

    def test_skips_what_floats_or_delta_cannot_split(self):
        lo = 1.6e308
        one_float = (lo, math.nextafter(lo, math.inf))
        # the midpoint rounds to an endpoint: no half is smaller
        assert _halves([one_float], 1e-3) is None
        assert _halves([(0.0, 1e-3)], 1e-3) is None
        left, right = _halves([one_float, (0.0, 1.0)], 1e-3)
        assert left == [one_float, (0.0, 0.5)]
        assert right == [one_float, (0.5, 1.0)]

    def test_each_box_of_a_batch_alone(self):
        # ties go to the lowest dimension, as a stable sort by width did
        boxes = [[(0.0, 1.0), (0.0, 1.0)], [(0.0, 1.0), (0.0, 2.0)],
                 [(0.0, 1e-4), (0.0, 1e-4)], [(0.0, 3.0), (1.0, 1.5)]]
        dims, mids = dsat.branch(_pack(*boxes), 1e-3)
        assert dims.tolist() == [0, 1, -1, 0]
        assert mids[[0, 1, 3]].tolist() == [0.5, 1.0, 1.5]


def _golden():
    """tests/data/make_dsat_golden.py, which holds the golden cases."""
    spec = importlib.util.spec_from_file_location(
        "make_dsat_golden", DATA / "make_dsat_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_matches_the_recorded_results():
    """Verdicts, witnesses (float reprs) and box counts of the criterion 07
    battery, TestCheck's cases, nn10's CEGIS decrease queries, nn10's and
    nn100's level probes and a 3-state field's decrease query equal those
    recorded (tests/data/dsat_golden.json; the nn10 cases from depth-first
    search of one box at a time)."""
    want = json.loads((DATA / "dsat_golden.json").read_text())
    got = _golden().cases()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
    assert {w["verdict"] for w in want.values()} == {"UNSAT", "DELTA_SAT"}


def test_one_work_set_for_all_domains():
    # the first domain in order whose search finds a point gives the
    # witness, and the boxes of the domains before it are all counted
    phi = dsat.Formula(1, _c(sx.pow_(sx.var(0), 2), "<=", 1.0))
    doms = [sx.box((2.0, 3.0)), sx.box((-3.0, -2.0)), sx.box((0.5, 4.0)),
            sx.box((-4.0, -0.5))]
    out = dsat.check(phi, doms, 1e-3)
    assert out.verdict == "DELTA_SAT"
    assert doms[2].contains(out.witness.midpoint())
    alone = [dsat.check(phi, d, 1e-3) for d in doms[:3]]
    assert [r.verdict for r in alone] == ["UNSAT", "UNSAT", "DELTA_SAT"]
    assert out.witness == alone[2].witness
    assert out.boxes_explored == sum(r.boxes_explored for r in alone)
    out = dsat.check(phi, doms[:2], 1e-3)
    assert (out.verdict, out.boxes_explored) == ("UNSAT", 2)


@pytest.mark.parametrize("batch", [1, 3])
def test_search_does_not_depend_on_the_batch(monkeypatch, batch):
    # a box's fate, the witness and boxes_explored do not depend on how
    # the boxes are grouped into passes
    monkeypatch.setattr(dsat, "BATCH", batch)
    want = json.loads((DATA / "dsat_golden.json").read_text())
    got = _golden().direct_cases()
    assert got == {name: want[name] for name in got}
    test_one_work_set_for_all_domains()


@pytest.mark.parametrize("name", [
    "c07_poly", "c07_half_plane", "tc_sin_max", "tc_inf_over_inf",
    "tc_one_float_wide_x+sin(x)", "tc_one_float_wide_x-y"])
def test_budget_is_the_depth_first_count(name):
    # max_boxes bounds the boxes that depth-first search explores, however
    # many the work-set takes: a query passes with its own count and
    # fails one below it
    (phi, dom, delta), = [c[1:4] for c in _golden()._checks()
                          if c[0] == name]
    want = json.loads((DATA / "dsat_golden.json").read_text())[name]
    n = want["boxes_explored"]
    assert dsat.check(phi, dom, delta, max_boxes=n).boxes_explored == n
    with pytest.raises(dsat.BudgetExhausted):
        dsat.check(phi, dom, delta, max_boxes=n - 1)


def test_budget_is_shared_by_the_domains():
    phi = dsat.Formula(1, _c(sx.pow_(sx.var(0), 2), "<=", 1.0))
    doms = [sx.box((2.0, 3.0)), sx.box((-3.0, -2.0)), sx.box((0.5, 4.0))]
    n = dsat.check(phi, doms, 1e-3).boxes_explored
    assert n > 2
    assert dsat.check(phi, doms, 1e-3, max_boxes=n).boxes_explored == n
    for budget in (n - 1, 1):
        with pytest.raises(dsat.BudgetExhausted):
            dsat.check(phi, doms, 1e-3, max_boxes=budget)


def test_budget_bounds_the_work(monkeypatch):
    # (x - y)^2 <= -1e-6 is UNSAT only after millions of boxes along the
    # diagonal; the search stops once depth-first search's count reaches
    # max_boxes, within PRUNE_ROUNDS + 1 passes per box of it
    x, y = sx.var(0), sx.var(1)
    lhs = sx.add(sx.sub(sx.mul(x, x), sx.mul(sx.const(2.0), sx.mul(x, y))),
                 sx.mul(y, y))
    phi = dsat.Formula(2, _c(lhs, "<=", -1e-6))
    passes = []
    prune = dsat.prune

    def counted(*args):
        passes.append(1)
        return prune(*args)
    monkeypatch.setattr(dsat, "prune", counted)
    with pytest.raises(dsat.BudgetExhausted):
        dsat.check(phi, sx.box((0.0, 1.0), (0.0, 1.0)), 1e-12,
                   max_boxes=100)
    assert len(passes) <= (dsat.PRUNE_ROUNDS + 1) * 101
